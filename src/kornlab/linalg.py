"""Sparse symmetric solves, generalized eigenproblems and null spaces.

Every sparse factorization is one call, _factor: SuperLU in symmetric mode
(diagonal pivots, minimum-degree ordering of K^T + K), which on these
symmetric matrices fills less than the default COLAMD ordering with
partial pivoting.  Threshold pivoting stays on (a diagonal pivot below
0.1 of its column is swapped out): bordered rows form a zero diagonal
block, and without pivoting those solves lose all accuracy.  Relaxed
supernodes are off (relax=1): the default relaxation merges small
subtrees of the elimination tree into supernodes, which on these
finite-element matrices makes factorizations and solves above a few
thousand rows slower and leaves the fill and the residuals as they are.
spd_solver factors a symmetric positive definite matrix (the Poisson
matrix of the Helmholtz splits) with it, at every size.

Eigenproblems are pencils A x = lambda B x with A positive semidefinite
and B positive definite, restricted to the admissible subspace {C x = 0}.
The rows of C are raw linear constraints and B d for deflated vectors d
(a B-orthogonal restriction).  One size routes them: below
DENSE_CROSSOVER they reduce to LAPACK on a basis of the admissible
subspace; above it shift-invert ARPACK runs in the B-inner product with
OPinv the solve with the saddle-point matrix [[A - sigma B, C^T], [C, 0]],
which is symmetric and B-self-adjoint on the admissible subspace for any
rows C.  Every row of C, sparse or dense, borders that matrix.  Every
sparse eigensolve has one shape: one factorization at sigma and one
full-accuracy ARPACK pass for the k pairs nearest it.  sigma lies just
below the spectrum, unless the caller knows where the smallest
eigenvalue lies (the c_direct pencil, bracketed by the chain of
estimates) and runs its solve inside seeded(shift, v0): then sigma is
that shift and the pass starts from v0 with a small share of the seeded
random vector mixed in.  The seed is a context, not a keyword of
eig_smallest, so any solver that stands in for eig_smallest keeps its
signature.  Kernels are measured in one way, at every size: count_kernel
asks eig_smallest for more eigenvalues until one lies above a threshold.
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
_PIVOT_THRESH = 0.1  # symmetric-mode LU: a smaller diagonal pivot is swapped out
_RELAX = 1  # SuperLU supernode relaxation: 1 turns it off
KERNEL_CAP = 32  # count_kernel stops doubling its batch here


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

    A zero pivot (an exactly singular K), or factors that do not fit in
    memory, raise SolverError; what names K in the message.
    """
    K = K.tocsc()
    try:
        return spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=_PIVOT_THRESH,
                         relax=_RELAX, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"the {what} is singular: {exc}")
    except MemoryError:
        raise SolverError(
            f"the LU factors of the {K.shape[0]}x{K.shape[0]} {what} "
            f"({K.nnz} nonzeros) do not fit in memory"
        )


def spd_solver(A):
    """Prepare repeated solves with symmetric positive definite A.

    Returns solve(rhs) -> x.  A is factored once, by _factor, at every
    size; _factor's errors pass through.  Each solve checks only its
    right-hand side for non-finite entries.
    """
    lu = _factor(_as_csr(A), "symmetric matrix")
    return lambda rhs: lu.solve(np.asarray_chkfinite(rhs, dtype=float))


def solve_spd(A, rhs):
    """Solve A x = rhs once for symmetric positive definite A (see spd_solver)."""
    return spd_solver(A)(rhs)


def eig_smallest(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
    """k smallest eigenvalues of A x = lambda B x on the admissible subspace.

    deflation: vectors removed B-orthogonally.  constraints: extra rows C
    with admissible C x = 0.  Inside seeded(...) the sparse path returns
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


def count_kernel(A, B, threshold, k0=1, cap_name="KERNEL_CAP", **solve):
    """(eig, number of eigenvalues <= threshold) of the pencil, at every size.

    Asks eig_smallest (with the deflation, constraints and tol in solve)
    for k = k0, 2 k0, ... pairs until one lies above the absolute
    threshold, so a pencil without kernel costs one solve.  A kernel that
    fills KERNEL_CAP pairs raises SolverError (naming the cap as cap_name)
    instead of returning a count that may be short.
    """
    k = k0
    while True:
        eig = eig_smallest(A, B, k=k, **solve)
        kernel_dim = int(np.sum(eig.values <= threshold))
        if kernel_dim < len(eig.values):
            return eig, kernel_dim
        if k >= KERNEL_CAP:
            raise SolverError(f"all {k} computed eigenvalues are below the kernel threshold "
                              f"{threshold:.3e}; the count stops at {cap_name} = {KERNEL_CAP}")
        k *= 2


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
    try:
        w, V = sla.eigh(Ar, Br)
    except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
        raise SolverError(f"B is not positive definite on the admissible space: {exc}")
    k = min(k, len(w))
    vecs = V[:, :k] if U is None else U @ V[:, :k]
    vals = w[:k]
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


def _saddle_rows(B, deflation, constraints, n):
    """Rows C whose kernel is the admissible subspace: one CSR matrix, or None.

    Deflated vectors d give the rows (B d)^T, raw constraints their own
    rows.  Both paths take C as it is: the dense one stacks it, the sparse
    one borders it.
    """
    rows = []
    if deflation is not None:
        D = sp.csc_matrix(deflation)
        if D.shape[0] != n:
            D = D.T
        rows.append((B @ D).T)
    if constraints is not None:
        rows.append(sp.csr_matrix(constraints))
    return sp.vstack(rows, format="csr") if rows else None


def _saddle_inverse(A, B, sigma, C):
    """x -> (A - sigma B)^{-1} x on {C x = 0}: the OPinv of shift-invert ARPACK.

    Every row of C, sparse or dense, borders the matrix
    [[A - sigma B, C^T], [C, 0]], factored once by _factor.  The dense
    rows (skew moments, deflated vectors B d) are few, and against the
    factors of A - sigma B alone they change the fill little: +1.5% for
    the six skew rows of the cube_with_tunnel n=4 c_direct matrix, -7% for
    the three of the untagged unit_cube n=8 one.
    """
    n = A.shape[0]
    K = (A - sigma * B).tocsc()  # already CSC: _factor makes no second copy
    if C is not None:
        K = sp.bmat([[K, C.T], [C, None]], format="csc")
    lu = _factor(K, "saddle-point matrix")
    pad = np.zeros(K.shape[0] - n)
    return lambda x: lu.solve(np.concatenate([np.ravel(x), pad]))[:n]


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
    """Shift-invert ARPACK on the saddle-point operator: one factorization, one pass.

    The matrix is factored once at sigma: the seed's shift inside
    seeded(shift, v0), else sigma_0 = -1e-3 tr A / tr B, just below the
    spectrum.  One full-accuracy pass then converges the k pairs nearest
    sigma, started from op(B v).  v is the seeded random vector r, or
    v0 plus _START_MIX |v0| of r: v0 may miss the wanted eigenvector (a
    symmetry class that excludes it), the random share puts every
    direction in the Krylov space.
    """
    n = A.shape[0]
    tr_b = B.diagonal().sum()
    if tr_b <= 0:
        raise SolverError("sparse path needs positive definite B")
    seed = _seed.get()
    if seed is None:
        sigma, v0 = -1e-3 * max(abs(A.diagonal().sum()) / tr_b, 1e-30), None
    else:
        sigma, v0 = seed
    op = _saddle_inverse(A, B, sigma, _saddle_rows(B, deflation, constraints, n))
    v = np.random.default_rng(_SEED).standard_normal(n)
    if v0 is not None:
        v = v0 + _START_MIX * (np.linalg.norm(v0) / np.linalg.norm(v)) * v
    vals, vecs = _arpack(A, B, k, sigma, op, op(B @ v), tol)
    return EigenResult(vals, vecs, _residuals(A, B, vals, vecs, constraints))


def null_space(A, rel_tol=1e-8):
    """Orthonormal basis of the numerical kernel of a symmetric PSD matrix."""
    A = _as_csr(A)
    w, V = np.linalg.eigh(A.toarray())
    lam_max = max(w.max(), 0.0)
    keep = w <= rel_tol * max(lam_max, 1e-300)
    return V[:, keep]


def null_space_gen(A, B, rel_tol=1e-8, constraints=None):
    """B-orthonormal basis of the near-kernel of pencil (A, B) on {Cx=0}."""
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
