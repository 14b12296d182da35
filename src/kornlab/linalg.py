"""Sparse symmetric solves, generalized eigenproblems and null spaces.

Eigenproblems are pencils A x = lambda B x with A positive semidefinite
and B positive definite on the admissible subspace {C x = 0}.  The rows of
C are raw linear constraints, B d for deflated vectors d (a B-orthogonal
restriction) and d itself for deflated vectors in ker(B).  Two sizes route
the work.  DENSE_CROSSOVER only routes eigenproblems: below it they reduce
to LAPACK on a basis of the admissible subspace; above it shift-invert
ARPACK runs in the B-inner product with OPinv the solve with the
saddle-point matrix [[A - sigma B, C^T], [C, 0]], which is B-self-adjoint
on the admissible subspace for any rows C.  DENSE_MAX is the largest size
for which a dense O(n^3) factorization is affordable: solve_spd uses
Cholesky below it and CG above, and callers gate optional dense kernel
diagnostics on it.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_CROSSOVER = 256  # eigenproblems: dense LAPACK below, shift-invert ARPACK above
DENSE_MAX = 2000  # largest size for a dense O(n^3) factorization
_SEED = 20260314  # fixed start vectors keep reports reproducible
_LOOSE_TOL = 1e-2  # first ARPACK pass: only locates the spectrum
_CLUSTER_RATIO = 1.02  # re-shift when the first pass finds lambda_2 / lambda_1 below this
_DENSE_ROW_SHARE = 0.05  # rows with more nonzeros than this share of n are dense


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class EigenResult:
    values: np.ndarray
    vectors: np.ndarray  # columns, B-orthonormal
    residuals: np.ndarray = field(default=None)

    def __iter__(self):
        return iter((self.values, self.vectors))


def _as_csr(A):
    if sp.issparse(A):
        return A.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(A, dtype=float)))


def solve_spd(A, rhs, tol=1e-12):
    """Solve A x = rhs for symmetric positive (semi)definite A.

    Dense Cholesky below DENSE_MAX, Jacobi-preconditioned CG above.
    Raises SolverError (carrying the final residual) on non-convergence.
    """
    A = _as_csr(A)
    rhs = np.asarray(rhs, dtype=float)
    n = A.shape[0]
    if n < DENSE_MAX:
        try:
            c, low = sla.cho_factor(A.toarray())
            return sla.cho_solve((c, low), rhs)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(A.toarray(), rhs, rcond=None)
            return x
    d = A.diagonal()
    d = np.where(d > 0, d, 1.0)
    M = sp.diags(1.0 / d)
    x, info = spla.cg(A, rhs, rtol=tol, atol=0.0, M=M, maxiter=20 * n)
    if info != 0:
        res = np.linalg.norm(A @ x - rhs) / max(np.linalg.norm(rhs), 1e-300)
        raise SolverError(f"CG did not converge (relative residual {res:.3e})", res)
    return x


def eig_smallest(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
    """k smallest eigenvalues of A x = lambda B x on the admissible subspace.

    deflation: vectors removed B-orthogonally (vectors in ker(B) are
    quotiented plainly).  constraints: extra rows C with admissible C x = 0.
    """
    A = _as_csr(A)
    B = _as_csr(B)
    n = A.shape[0]
    if n < DENSE_CROSSOVER:
        return _eig_dense(A, B, k, deflation, constraints, tol)
    return _eig_sparse(A, B, k, deflation, constraints, tol)


def _eig_dense(A, B, k, deflation, constraints, tol):
    n = A.shape[0]
    rows = [R.toarray() if sp.issparse(R) else R
            for R in _saddle_rows(B, deflation, constraints, n) if R is not None]
    if rows:
        U = sla.null_space(np.vstack(rows))
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
    """Rows whose kernel is the admissible subspace, split as (bordered, dense).

    Deflated vectors d give B d, or d itself when d lies in ker(B).  The
    sparse path borders the first part and applies the rows with many
    nonzeros through a Schur complement; the dense path stacks both.
    """
    rows, nker = [], 0
    if deflation is not None:
        D = sp.csc_matrix(deflation)
        if D.shape[0] != n:
            D = D.T
        BD = (B @ D).tocsc()
        ker = spla.norm(BD, axis=0) <= 1e-12 * np.maximum(spla.norm(D, axis=0), 1.0)
        rows, nker = [D[:, ker].T, BD[:, ~ker].T], ker.sum()
    if constraints is not None:
        rows.append(sp.csr_matrix(constraints))
    if not rows:
        return None, None
    R = sp.vstack(rows, format="csr")
    dense = np.diff(R.indptr) > _DENSE_ROW_SHARE * n
    dense[:nker] = False  # A - sigma B is singular on a common kernel of A and B
    return (R[~dense] if not dense.all() else None,
            R[dense].toarray() if dense.any() else None)


def _saddle_inverse(A, B, sigma, bordered, dense):
    """x -> (A - sigma B)^{-1} x on {C x = 0}: the OPinv of shift-invert ARPACK.

    Sparse rows of C border the factorized matrix [[A - sigma B, C^T], [C, 0]].
    Dense rows D would fill that factorization, so they enter through the
    rank-L Schur complement K - K D^T (D K D^T)^{-1} D K of its inverse K.
    """
    n = A.shape[0]
    K = (A - sigma * B).tocsc()
    if bordered is not None:
        K = sp.bmat([[K, bordered.T], [bordered, None]], format="csc")
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:
        raise SolverError(f"the shifted saddle-point matrix is singular: {exc}")

    def solve(x):
        return lu.solve(np.concatenate([np.ravel(x), np.zeros(K.shape[0] - n)]))[:n]

    if dense is None:
        return solve
    Y = np.column_stack([solve(d) for d in dense])
    S = sla.lu_factor(dense @ Y)

    def schur_solve(x):
        y = solve(x)
        return y - Y @ sla.lu_solve(S, dense @ y)

    return schur_solve


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
    """Shift-invert ARPACK on the saddle-point operator, max(k, 2) pairs.

    A loose first pass from a shift below the spectrum locates the two
    smallest eigenvalues.  When their ratio is below _CLUSTER_RATIO the
    shift moves 99% of the way to the smallest and the matrix is
    refactored; otherwise the full-accuracy pass reuses the factorization.
    """
    n = A.shape[0]
    tr_b = B.diagonal().sum()
    if tr_b <= 0:
        raise SolverError("sparse path needs positive definite B")
    rows = _saddle_rows(B, deflation, constraints, n)
    sigma = -1e-3 * max(abs(A.diagonal().sum()) / tr_b, 1e-30)
    op = _saddle_inverse(A, B, sigma, *rows)
    kk = max(k, 2)
    v0 = op(B @ np.random.default_rng(_SEED).standard_normal(n))
    vals, vecs = _arpack(A, B, kk, sigma, op, v0, _LOOSE_TOL)
    if vals[1] < _CLUSTER_RATIO * vals[0]:
        sigma += 0.99 * (vals[0] - sigma)
        op = _saddle_inverse(A, B, sigma, *rows)
    vals, vecs = _arpack(A, B, kk, sigma, op, vecs.sum(axis=1), tol)
    vals, vecs = vals[:k], vecs[:, :k]
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
