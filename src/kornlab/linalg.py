"""Sparse symmetric solves, generalized eigenproblems and null spaces.

Every sparse factorization is one call, _factor: SuperLU in symmetric mode
with diagonal pivots only (diag_pivot_thresh=0) and a minimum-degree
ordering of K^T + K, which on these symmetric matrices fills less than the
default COLAMD ordering with partial pivoting.  So every factor is
P K P^T = L U with U = D L^T to rounding: an LDL^T factorization whose fill
is the ordering's at every shift, and whose pivots D give the inertia of K
(Sylvester's law).  SuperLU takes an off-diagonal pivot only where a
diagonal entry is exactly zero; _factor refuses such a factor
(perm_r != perm_c) with SolverError.  The bordered constraint rows form a zero
diagonal block, but minimum degree orders those dense rows last, where their
pivots are the Schur complement -C (A - sigma B)^{-1} C^T.  A kernel that
A and B share (B not positive definite, outside eig_smallest's contract)
leaves near-zero pivots instead, and solves that lose all accuracy:
_saddle_inverse checks the backward error of one solve after each
bordered factorization and raises SolverError.
Relaxed supernodes are off (relax=1): the default relaxation merges small
subtrees of the elimination tree into supernodes, which on these
finite-element matrices makes factorizations and solves above a few
thousand rows slower and leaves the fill and the residuals as they are.
spd_solver factors a symmetric positive definite matrix (the Poisson
matrix of the Helmholtz splits) with it, at every size.

Eigenproblems are pencils A x = lambda B x with A positive semidefinite
and B positive definite, restricted to the admissible subspace: the
fields x with C x = 0 for raw linear constraint rows C, B-orthogonal to
the deflated vectors, the columns of a basis D of a kernel of A.  One size routes them: below DENSE_CROSSOVER they
reduce to LAPACK on a basis of the admissible subspace (D enters as the
rows (B D)^T), which computes only the k smallest pairs asked for (eigh
with subset_by_index); above it shift-invert ARPACK runs in the
B-inner product.
Its OPinv solves with A - sigma B, bordered by the constraint rows into
the saddle-point matrix [[A - sigma B, C^T], [C, 0]], which is symmetric
and B-self-adjoint on {C x = 0} for any rows C.  A deflation basis is
not bordered: since A D = 0, the B-orthogonal complement of D is an
invariant subspace, and the solve with A - sigma B followed by the
B-orthogonal projection off D is the bordered solve (see _eig_sparse).
A sparse pencil takes constraints or a deflation, not both.  Every
sparse eigensolve has one shape: one factorization at sigma and one
full-accuracy ARPACK pass for the k pairs nearest it.  sigma lies just
below the spectrum, unless the caller knows where the smallest
eigenvalue lies (the c_direct pencil, bracketed by the chain of
estimates) and runs its solve inside seeded(shift, v0): then sigma is
that shift and the pass starts from v0 with a small share of the seeded
random vector mixed in.  The seed is a context, not a keyword of
eig_smallest, so any solver that stands in for eig_smallest keeps its
signature.  Both paths return B-orthonormal vectors, B-orthogonal to
the deflated ones, so a kernel basis (the harmonic fields of hodge) is
the returned vectors themselves.
"""

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CROSSOVER = 256  # eigenproblems: dense LAPACK below, shift-invert ARPACK above
_SEED = 20260314  # fixed start vectors keep reports reproducible
_START_MIX = 1e-4  # share of the random vector in a given start vector: no direction is missing
_RELAX = 1  # SuperLU supernode relaxation: 1 turns it off
# a bordered factor whose solve has a larger normwise backward error is not
# trusted; the c_direct factors of the ladder meshes read below 1e-14
_BACKWARD_TOL = 1e-10
# a deflation column d with |A d| above this share of |A|_F |d| is not in ker A;
# the deflation bases kornlab builds read below 1e-16
_KERNEL_RTOL = 1e-12


class SolverError(RuntimeError):
    """A factorization or eigensolve that cannot give a trustworthy result."""


@dataclass
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray  # columns, B-orthonormal
    residuals: np.ndarray = field(default=None)


def _as_csr(A):
    if sp.issparse(A):
        return A.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(A, dtype=float)))


def _factor(K, what):
    """SuperLU factors of the symmetric sparse matrix K (see the module docstring).

    A zero pivot (an exactly singular K), factors that do not fit in
    memory, or an off-diagonal pivot (perm_r != perm_c: not an LDL^T, so
    its pivots say nothing of the inertia) raise SolverError; what names K
    in the message.
    """
    K = K.tocsc()
    try:
        lu = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, relax=_RELAX,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"the {what} is singular: {exc}")
    except MemoryError:
        raise SolverError(
            f"the LU factors of the {K.shape[0]}x{K.shape[0]} {what} "
            f"({K.nnz} nonzeros) do not fit in memory"
        )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(
            f"the {K.shape[0]}x{K.shape[0]} {what} took an off-diagonal pivot (perm_r != "
            "perm_c): a zero diagonal entry where the factor must be an LDL^T")
    return lu


def spd_solver(A):
    """Prepare repeated solves with symmetric positive definite A.

    Returns solve(rhs) -> x.  A is factored once, by _factor, at every
    size; _factor's errors pass through.  Each solve checks only its
    right-hand side for non-finite entries.
    """
    lu = _factor(_as_csr(A), "symmetric matrix")
    return lambda rhs: lu.solve(np.asarray_chkfinite(rhs, dtype=float))


def solve_spd(A, rhs):
    """Solve A x = rhs once for symmetric positive definite A (see spd_solver).

    Nothing in src/ calls it; perfbench/spans.py WRAPPED names it."""
    return spd_solver(A)(rhs)


def eig_smallest(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
    """k smallest eigenvalues of A x = lambda B x on the admissible subspace.

    deflation: vectors removed B-orthogonally, as the columns (or one
    row) of a basis D of a kernel of A: A D = 0 to rounding.
    constraints: extra rows C with admissible C x = 0.  The sparse path
    takes one of the two, not both, and checks A D = 0; it raises
    ValueError otherwise.  Inside seeded(...) the sparse path returns
    the k eigenvalues nearest the seed's shift instead (see _eig_sparse).
    """
    A = _as_csr(A)
    B = _as_csr(B)
    n = A.shape[0]
    if n < DENSE_CROSSOVER:
        return _eig_dense(A, B, k, deflation, constraints, tol)
    return _eig_sparse(A, B, k, deflation, constraints, tol)


_seed = contextvars.ContextVar("seed", default=None)


@contextlib.contextmanager
def seeded(shift, v0=None):
    """Sparse eigensolves in the block: one factorization at shift, one pass.

    The pass converges the eigenvalues nearest shift, started from v0 (or
    the seeded random vector).  They are the smallest ones only where the
    caller knows the spectrum: it must check the result.  The dense path
    ignores the seed.
    """
    token = _seed.set((shift, v0))
    try:
        yield
    finally:
        _seed.reset(token)


def _eig_dense(A, B, k, deflation, constraints, tol):
    n = A.shape[0]
    C = _saddle_rows(B, deflation, constraints, n)
    if C is not None:
        U = sla.null_space(C.toarray())
        if U.shape[1] == 0:
            raise SolverError("constraints eliminate the whole space")
        Ar = U.T @ (A @ U)
        Br = U.T @ (B @ U)
    else:
        U = None
        Ar, Br = A.toarray(), B.toarray()
    Ar = 0.5 * (Ar + Ar.T)
    Br = 0.5 * (Br + Br.T)
    k = min(k, len(Ar))
    try:
        vals, V = sla.eigh(Ar, Br, subset_by_index=[0, k - 1])
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise SolverError(f"B is not positive definite on the admissible space: {exc}")
    vecs = V if U is None else U @ V
    res = _residuals(A, B, vals, vecs, constraints)
    return EigenResult(vals, vecs, res)


def _residuals(A, B, vals, vecs, constraints=None):
    """B-scaled |A x - lambda B x| without the Lagrange term of raw constraints.

    That term lies in span(C^T), so its least-squares fit is removed; the
    deflation vectors span invariant subspaces and leave no such term.
    """
    if constraints is not None:
        Ct = sp.csr_matrix(constraints).toarray().T
    out = np.empty(len(vals))
    for i, lam in enumerate(vals):
        x = vecs[:, i]
        r = A @ x - lam * (B @ x)
        if constraints is not None:
            r = r - Ct @ np.linalg.lstsq(Ct, r, rcond=None)[0]
        num = np.linalg.norm(r)
        den = np.sqrt(abs(x @ (B @ x)))
        out[i] = num / max(den, 1e-300)
    return out


def _deflation_basis(deflation, n):
    """The deflated vectors as the columns of a sparse (n, p) matrix."""
    D = sp.csc_matrix(deflation)
    return D if D.shape[0] == n else D.T


def _saddle_rows(B, deflation, constraints, n):
    """Rows C whose kernel is the admissible subspace: one CSR matrix, or None.

    Deflated vectors d give the rows (B d)^T, raw constraints their own
    rows.  The dense path stacks both into C and takes its null space;
    the sparse one borders the constraint rows only (it never passes a
    deflation here).
    """
    rows = []
    if deflation is not None:
        rows.append((B @ _deflation_basis(deflation, n)).T)
    if constraints is not None:
        rows.append(sp.csr_matrix(constraints))
    return sp.vstack(rows, format="csr") if rows else None


def _backward_error(K, lu):
    """Normwise backward error |r - K z| / (|K| |z| + |r|), in the infinity
    norm, of the solve z = lu.solve(r) with the seeded random vector r."""
    r = np.random.default_rng(_SEED).standard_normal(K.shape[0])
    z = lu.solve(r)
    return np.abs(r - K @ z).max() / (spla.norm(K, np.inf) * np.abs(z).max() + np.abs(r).max())


def _saddle_inverse(A, B, sigma, C):
    """x -> (A - sigma B)^{-1} x on {C x = 0}: the OPinv of shift-invert ARPACK.

    The constraint rows C border the matrix [[A - sigma B, C^T], [C, 0]],
    factored once by _factor; without rows A - sigma B is factored alone.
    Minimum degree orders dense rows last, where their pivots are Schur
    complements; rows with no more entries than the densest row of
    A - sigma B are stored densely (explicit zeros) so they come last too.
    A bordered factor whose solve has a backward error above _BACKWARD_TOL
    raises SolverError (see the module docstring).  The rows (the skew
    moments of c_direct) are few and dense, and against the factors of
    A - sigma B alone they change the fill little: +1.6% for the six skew
    rows of the cube_with_tunnel n=4 c_direct matrix, -7.0% for the three
    of the untagged unit_cube n=8 one (at sigma = L/2; with diagonal pivots
    the fill does not depend on sigma).
    """
    n = A.shape[0]
    K = (A - sigma * B).tocsc()  # already CSC: _factor makes no second copy
    if C is None:
        lu = _factor(K, "shifted matrix")
        return lambda x: lu.solve(np.ravel(x))
    if C.getnnz(axis=1).min() <= K.getnnz(axis=1).max():
        # a constraint row no denser than K may be ordered before every
        # unknown it couples to, where its diagonal is still an exact zero
        # (an off-diagonal pivot): stored with every column, it comes last
        rows, cols = np.indices(C.shape).reshape(2, -1)
        C = sp.csr_matrix((C.toarray().ravel(), (rows, cols)), shape=C.shape)
    K = sp.bmat([[K, C.T], [C, None]], format="csc")
    lu = _factor(K, "saddle-point matrix")
    err = _backward_error(K, lu)
    if err > _BACKWARD_TOL:
        raise SolverError(
            f"a solve with the {K.shape[0]}x{K.shape[0]} saddle-point matrix has backward "
            f"error {err:.1e} under diagonal pivots: is B positive definite? A kernel "
            "shared by A and B spoils the factor even where constraint rows exclude it")
    pad = np.zeros(K.shape[0] - n)
    return lambda x: lu.solve(np.concatenate([np.ravel(x), pad]))[:n]


def _projected_inverse(A, B, sigma, deflation):
    """x -> P (A - sigma B)^{-1} x, P = I - D (D^T B D)^{-1} (B D)^T the
    B-orthogonal projection off the deflation basis D.

    A - sigma B is factored alone (_saddle_inverse without rows) and
    D^T B D once by _factor (for the pinned gradients it is the Poisson
    matrix).  A column d of D with |A d| above _KERNEL_RTOL |A|_F |d|
    raises ValueError: off ker A the projected solve is not the bordered
    one (see _eig_sparse).
    """
    D = _deflation_basis(deflation, A.shape[0])
    off = spla.norm(A @ D, axis=0) > _KERNEL_RTOL * np.linalg.norm(A.data) * spla.norm(D, axis=0)
    if off.any():
        raise ValueError(f"deflation column {np.argmax(off)} is not in the kernel of A: "
                         "a sparse pencil deflates only a kernel of A")
    BD = (B @ D).tocsc()
    gram = _factor(D.T @ BD, "deflation Gram matrix")
    BDt = BD.T.tocsr()
    solve = _saddle_inverse(A, B, sigma, None)

    def op(x):
        z = solve(x)
        return z - D @ gram.solve(BDt @ z)

    return op


def _arpack(A, B, k, sigma, op, v0, tol):
    """k eigenpairs nearest sigma, ascending, from ARPACK mode 3 with OPinv = op."""
    opinv = spla.LinearOperator(A.shape, matvec=op, dtype=float)
    try:
        vals, vecs = spla.eigsh(A, k=k, M=B, sigma=sigma, OPinv=opinv, v0=v0, tol=tol)
    except spla.ArpackError as exc:
        raise SolverError(f"ARPACK failed: {exc}")
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _eig_sparse(A, B, k, deflation, constraints, tol):
    """Shift-invert ARPACK: one factorization, one pass.

    The matrix is factored once at sigma: the seed's shift inside
    seeded(shift, v0), else sigma_0 = -1e-3 tr A / tr B, just below the
    spectrum.  One full-accuracy pass then converges the k pairs nearest
    sigma, started from op(B v).  v is the seeded random vector r, or
    v0 plus _START_MIX |v0| of r: v0 may miss the wanted eigenvector (a
    symmetry class that excludes it), the random share puts every
    direction in the Krylov space.

    Constraint rows border the factored matrix (_saddle_inverse).  A
    deflation basis D does not: A - sigma B is factored alone and each
    solve is followed by the B-orthogonal projection P off D
    (_projected_inverse).  As A D = 0, z = (A - sigma B)^{-1} y splits as
    P z + D c with (A - sigma B) P z + B D (-sigma c) = y and
    D^T B P z = 0: P z is the bordered solve, so ARPACK sees the same
    operator on the same subspace.  The projection does not keep C x = 0,
    so deflation and constraints together raise ValueError.
    """
    n = A.shape[0]
    if deflation is not None and constraints is not None:
        raise ValueError("a sparse pencil takes a deflation or constraints, not both: "
                         "the deflating projection does not keep C x = 0")
    tr_b = B.diagonal().sum()
    if tr_b <= 0:
        raise SolverError("sparse path needs positive definite B")
    seed = _seed.get()
    if seed is None:
        sigma, v0 = -1e-3 * max(abs(A.diagonal().sum()) / tr_b, 1e-30), None
    else:
        sigma, v0 = seed
    if deflation is None:
        op = _saddle_inverse(A, B, sigma, _saddle_rows(B, None, constraints, n))
    else:
        op = _projected_inverse(A, B, sigma, deflation)
    v = np.random.default_rng(_SEED).standard_normal(n)
    if v0 is not None:
        v = v0 + _START_MIX * (np.linalg.norm(v0) / np.linalg.norm(v)) * v
    vals, vecs = _arpack(A, B, k, sigma, op, op(B @ v), tol)
    return EigenResult(vals, vecs, _residuals(A, B, vals, vecs, constraints))


def null_space(A, rel_tol=1e-8):
    """Orthonormal basis of the numerical kernel of a symmetric PSD matrix.

    Nothing in src/ calls it; perfbench/spans.py WRAPPED names it."""
    A = _as_csr(A)
    w, V = np.linalg.eigh(A.toarray())
    lam_max = max(w.max(), 0.0)
    keep = w <= rel_tol * max(lam_max, 1e-300)
    return V[:, keep]


def null_space_gen(A, B, rel_tol=1e-8, constraints=None):
    """B-orthonormal basis of the near-kernel of pencil (A, B) on {Cx=0}.

    Nothing in src/ calls it; perfbench/spans.py WRAPPED and
    perfbench/oracle.py Substitute name it."""
    A = _as_csr(A)
    B = _as_csr(B)
    n = A.shape[0]
    if constraints is not None:
        C = constraints.toarray() if sp.issparse(constraints) else np.asarray(constraints)
        U = sla.null_space(np.atleast_2d(C))
    else:
        U = np.eye(n)
    Ar = U.T @ (A @ U)
    Br = U.T @ (B @ U)
    w, V = sla.eigh(0.5 * (Ar + Ar.T), 0.5 * (Br + Br.T))
    lam_max = max(w.max(), 0.0)
    keep = w <= rel_tol * max(lam_max, 1e-300)
    return U @ V[:, keep]
