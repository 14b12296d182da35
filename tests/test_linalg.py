import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kornlab import hodge, linalg, meshes
from kornlab.assemble import assemble
from kornlab.linalg import (
    SolverError,
    eig_smallest,
    null_space,
    null_space_gen,
    solve_spd,
    spd_solver,
)
from kornlab.meshes import generate_primitive
from kornlab.spaces import build_space

from helpers import direct_pencil


def test_solve_identity():
    assert np.allclose(solve_spd(np.eye(3), np.array([1.0, 0, 0])), [1, 0, 0])


def test_solve_diag():
    x = solve_spd(np.diag([1.0, 2.0]), np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_solve_random_spd_residual():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 50))
    A = X @ X.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12


def test_solve_above_retired_dense_limit():
    # 2100 unknowns, above the retired dense limit of 2000: the same
    # factorization as at every other size
    n = 2100
    rng = np.random.default_rng(1)
    main = 4.0 + rng.random(n)
    A = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr()
    b = rng.standard_normal(n)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-11


def test_solve_cholesky_below_dense_max(monkeypatch):
    # 800 unknowns, the P1 size of the Poisson solves that certify
    # cube_with_tunnel n=4: one factorization serves every right-hand side
    factorizations = []
    real = spla.splu

    def counting(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    n = 800
    rng = np.random.default_rng(2)
    A = sp.diags([4.0 + rng.random(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr()
    solve = spd_solver(A)
    for _ in range(3):
        b = rng.standard_normal(n)
        x = solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12
    assert factorizations == [(n, n)]


def test_cholesky_solver_rejects_nonfinite_rhs():
    # the factor is reused as it is; each solve checks its right-hand side
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 20))
    A = X @ X.T + 20 * np.eye(20)
    solve = spd_solver(A)
    b = rng.standard_normal(20)
    assert np.linalg.norm(A @ solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    for bad in (np.nan, np.inf):
        rhs = b.copy()
        rhs[5] = bad
        with pytest.raises(ValueError):
            solve(rhs)
        with pytest.raises(ValueError):
            solve_spd(A, rhs)


def test_saddle_inverse_raises_where_a_and_b_share_a_kernel():
    # the unpinned slab_mixed n=4 c_k_t pencil, outside eig_smallest's
    # contract: the three translations lie in ker A and ker B.  Bordered by
    # their rows D, [[A - sigma B, D^T], [D, 0]] is nonsingular, but under
    # diagonal pivots its smallest pivot is 1e-16 and a solve has backward
    # error 0.17; the check after factoring names it instead of returning a
    # wrong operator
    mesh = generate_primitive("slab_mixed", 4)
    pv = build_space(mesh, "P1_vector", "gamma_t", component_constant=True)
    A, B = assemble("symgrad", pv), assemble("grad", pv)
    n = A.shape[0]
    assert n >= linalg.DENSE_CROSSOVER
    bordered = sp.lil_matrix((3, n))
    for m in range(3):
        bordered[m, pv.dof_map[m]] = 1.0  # translation e_m: 1 at every dof of component m
    bordered = bordered.tocsr()
    assert abs(B @ bordered.T).max() <= 1e-12 * abs(B).max()  # translations lie in ker(B)
    sigma = -1e-3 * A.diagonal().sum() / B.diagonal().sum()
    with pytest.raises(SolverError, match=r"306x306 saddle-point matrix has backward error "
                                          r".*is B positive definite\?"):
        linalg._saddle_inverse(A, B, sigma, bordered)
    with pytest.raises(SolverError, match="is B positive definite"):
        eig_smallest(A, B, k=1, constraints=bordered)


def test_saddle_inverse_factor_options(monkeypatch):
    # symmetric mode, minimum degree on K^T + K, diagonal pivots only, and no
    # relaxed supernodes
    options = []
    real = spla.splu

    def capture(K, *args, **kwargs):
        options.append(kwargs)
        return real(K, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", capture)
    n = 300
    A = sp.diags(np.arange(1.0, n + 1)).tocsr()
    op = linalg._saddle_inverse(A, sp.identity(n, format="csr"), -0.5, None)
    assert np.allclose(op(np.ones(n)), 1.0 / (np.arange(1.0, n + 1) + 0.5))
    (kwargs,) = options
    assert kwargs["relax"] == 1
    assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
    assert kwargs["diag_pivot_thresh"] == 0
    assert kwargs["options"] == {"SymmetricMode": True}


def test_saddle_inverse_out_of_memory_names_size(monkeypatch):
    def no_memory(K, *args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(spla, "splu", no_memory)
    n = 300
    A = sp.diags(np.arange(1.0, n + 1)).tocsr()
    bordered = sp.csr_matrix(np.ones((1, n)))
    with pytest.raises(SolverError, match=r"301x301 saddle-point matrix .*memory"):
        linalg._saddle_inverse(A, sp.identity(n, format="csr"), -0.5, bordered)
    with pytest.raises(SolverError, match="memory"):
        eig_smallest(A, sp.identity(n, format="csr"), k=1)
    with pytest.raises(SolverError, match=r"300x300 symmetric matrix .*memory"):
        spd_solver(A)


def test_saddle_inverse_borders_dense_skew_rows(monkeypatch):
    # the tunnel n=2 c_direct pencil: two slices, three skew-moment rows
    # each, every row dense; all six border the factorized matrix
    mesh = generate_primitive("cube_with_tunnel", 2)
    A, B, rows = direct_pencil(mesh)
    n = A.shape[0]
    assert n >= linalg.DENSE_CROSSOVER
    C = linalg._saddle_rows(B, None, rows, n)
    assert C.shape == (6, n) and np.diff(C.indptr).min() > 0.05 * n
    factored = []
    real = linalg._factor

    def spy(K, what):
        factored.append(K.shape)
        return real(K, what)

    monkeypatch.setattr(linalg, "_factor", spy)
    sigma = -1e-3 * A.diagonal().sum() / B.diagonal().sum()
    op = linalg._saddle_inverse(A, B, sigma, C)
    assert factored == [(n + 6, n + 6)]
    x = np.random.default_rng(8).standard_normal(n)
    y = op(x)
    Ct = C.toarray().T
    assert np.linalg.norm(C @ y) <= 1e-12 * np.linalg.norm(Ct, 2) * np.linalg.norm(y)
    # (A - sigma B) y = x up to a multiplier term C^T mu
    r = (A - sigma * B) @ y - x
    r = r - Ct @ np.linalg.lstsq(Ct, r, rcond=None)[0]
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("gap", [1.0, 1e-3], ids=["separated", "clustered"])
def test_unseeded_sparse_solve_is_one_factorization_and_one_pass(k, gap, monkeypatch):
    # separated or clustered, an unseeded pencil is factored once and
    # converged by one ARPACK pass for the k pairs asked for
    factored, requested = [], []
    real_factor, real_arpack = linalg._factor, linalg._arpack

    def spy_factor(K, what):
        factored.append(K.shape)
        return real_factor(K, what)

    def spy_arpack(A, B, kk, *args):
        requested.append(kk)
        return real_arpack(A, B, kk, *args)

    monkeypatch.setattr(linalg, "_factor", spy_factor)
    monkeypatch.setattr(linalg, "_arpack", spy_arpack)
    n = 400
    w = np.concatenate([[1.0, 1.0 + gap], 3.0 + np.arange(n - 2)])
    eig = eig_smallest(sp.diags(w).tocsr(), sp.identity(n, format="csr"), k=k)
    assert factored == [(n, n)]
    assert requested == [k]
    assert np.allclose(eig.values, w[:k], rtol=1e-10)
    assert eig.vectors.shape == (n, k)
    assert np.all(eig.residuals <= 1e-8)


def test_eig_trivial():
    r = eig_smallest(np.eye(3), np.eye(3), k=1)
    assert r.values[0] == pytest.approx(1.0)


def test_eig_deflated_kernel():
    r = eig_smallest(np.diag([0.0, 1.0, 2.0]), np.eye(3), k=1,
                     deflation=np.array([1.0, 0.0, 0.0]))
    assert r.values[0] == pytest.approx(1.0, rel=1e-12)


def test_eig_matches_dense_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 30))
    A = X @ X.T + 30 * np.eye(30)
    Y = rng.standard_normal((30, 30))
    B = Y @ Y.T + 30 * np.eye(30)
    r = eig_smallest(A, B, k=4)
    w = sla.eigh(A, B, eigvals_only=True)
    assert np.abs(r.values - w[:4]).max() <= 1e-10
    # eigenvectors reproduce Rayleigh quotients
    for lam, x in zip(r.values, r.vectors.T):
        rq = (x @ (A @ x)) / (x @ (B @ x))
        assert rq == pytest.approx(lam, rel=1e-12)
    # B-orthonormality
    G = r.vectors.T @ (B @ r.vectors)
    assert np.abs(G - np.eye(4)).max() <= 1e-10


def test_eig_monotone_under_restriction():
    # adding constraints cannot decrease the smallest eigenvalue
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 40))
    A = X @ X.T
    B = np.eye(40)
    lam0 = eig_smallest(A, B, k=1).values[0]
    c = rng.standard_normal((3, 40))
    lam1 = eig_smallest(A, B, k=1, constraints=c).values[0]
    assert lam1 >= lam0 - 1e-12


def test_eig_sparse_path_matches_exact_spectrum():
    # tridiagonal pencil above the crossover with a known spectrum
    n = 2500
    main = 2.0 * np.ones(n)
    A = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr()
    B = sp.identity(n, format="csr")
    r = eig_smallest(A, B, k=3)
    h = 1.0 / (n + 1)
    exact = np.array([2.0 - 2.0 * np.cos(np.pi * k * h) for k in (1, 2, 3)])
    assert np.abs(r.values - exact).max() <= 1e-10
    assert np.all(r.residuals <= 1e-8)


def test_eig_sparse_path_with_deflation():
    n = 2200
    rng = np.random.default_rng(3)
    vals = np.concatenate([[1e-16, 1e-16], rng.uniform(1.0, 5.0, n - 2)])
    A = sp.diags(vals).tocsr()
    B = sp.identity(n, format="csr")
    D = np.zeros((n, 2))
    D[0, 0] = D[1, 1] = 1.0
    r = eig_smallest(A, B, k=1, deflation=D)
    assert r.values[0] == pytest.approx(vals[2:].min(), rel=1e-9)


def _kernel_pencil(n=400, p=2):
    """A diagonal pencil above the crossover whose first p unit vectors span ker A."""
    A = sp.diags(np.concatenate([np.zeros(p), 1.0 + np.arange(n - p)])).tocsr()
    D = np.zeros((n, p))
    D[np.arange(p), np.arange(p)] = 1.0
    return A, sp.identity(n, format="csr"), D


def test_sparse_deflation_factors_n_rows_and_constraints_border(monkeypatch):
    # a deflation basis is projected out after each solve: the shifted
    # matrix has n rows, next to the p x p Gram matrix D^T B D; m constraint
    # rows border it to n + m rows
    factored = []
    real = linalg._factor

    def spy(K, what):
        factored.append(K.shape[0])
        return real(K, what)

    monkeypatch.setattr(linalg, "_factor", spy)
    n, p, m = 400, 2, 3
    A, B, D = _kernel_pencil(n, p)
    eig = eig_smallest(A, B, k=2, deflation=D)
    assert sorted(factored) == [p, n]
    assert np.allclose(eig.values, [1.0, 2.0], rtol=1e-12)
    assert np.abs(D.T @ (B @ eig.vectors)).max() <= 1e-14
    factored.clear()
    C = np.zeros((m, n))
    C[np.arange(m), np.arange(m)] = 1.0  # the two kernel vectors and the third unit vector
    eig = eig_smallest(A, B, k=1, constraints=C)
    assert factored == [n + m]
    assert eig.values[0] == pytest.approx(2.0, rel=1e-12)


def test_sparse_deflation_with_constraints_raises():
    # the projection off D does not keep C x = 0; no caller passes both
    A, B, D = _kernel_pencil()
    with pytest.raises(ValueError, match="not both"):
        eig_smallest(A, B, k=1, deflation=D, constraints=np.ones((1, A.shape[0])))


def test_sparse_deflation_outside_the_kernel_raises():
    # off ker A the projected solve is not the bordered one: refused, not
    # silently wrong
    A, B, D = _kernel_pencil()
    D[2, 1] = 1e-6  # the second column leaves ker A
    with pytest.raises(ValueError, match="deflation column 1 is not in the kernel"):
        eig_smallest(A, B, k=1, deflation=D)


def _harmonic_search(A, beta, monkeypatch, crossover=linalg.DENSE_CROSSOVER):
    """hodge.harmonic_basis run on the pencil (A, I) with nothing deflated,
    A diagonal, and the harmonic bound beta: (basis, the batch sizes it
    asked eig_smallest for).  The curl pair is C = sqrt(A) with the
    identity for the face mass."""
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", crossover)
    monkeypatch.setattr(meshes, "harmonic_bound", lambda mesh: (beta, beta, 0, 0))
    requested = []
    real = linalg.eig_smallest

    def spy(A, B, k=1, **kwargs):
        requested.append(k)
        return real(A, B, k=k, **kwargs)

    monkeypatch.setattr(linalg, "eig_smallest", spy)
    eye = sp.identity(A.shape[0], format="csr")
    ops = SimpleNamespace(curlcurl=sp.csr_matrix(A), mass=eye, pinned_grad=None,
                          curl=sp.diags(np.sqrt(A.diagonal()), format="csr"), face_mass=eye)
    ops.curl_sq = functools.partial(hodge.EdgeOperators.curl_sq, ops)
    monkeypatch.setattr(hodge, "edge_operators", lambda mesh: ops)
    return hodge.harmonic_basis(None), requested


@pytest.mark.parametrize("crossover", [linalg.DENSE_CROSSOVER, 16], ids=["dense", "sparse"])
def test_count_kernel_from_two_pairs(crossover, monkeypatch):
    # the harmonic search, the one kernel count: one solve for beta + 1
    # pairs, and the fourth value is the first above the threshold
    n = 40
    A = sp.diags(np.concatenate([[0.0, 0.0, 0.0], 1.0 + np.arange(n - 3)]))
    basis, requested = _harmonic_search(A, 3, monkeypatch, crossover)
    assert basis.dim == 3
    assert requested == [4]
    assert np.abs(basis.fields @ (A @ basis.fields.T)).max() <= 1e-12
    assert basis.coexact.values[0] == pytest.approx(1.0, rel=1e-10)


def _dense_pencil(case, n=60):
    """A random pencil with a constrained or a deflated admissible subspace."""
    rng = np.random.default_rng(21)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(np.concatenate([[0.0, 0.0], rng.uniform(1.0, 9.0, n - 2)])) @ Q.T
    Y = rng.standard_normal((n, n))
    B = Y @ Y.T + n * np.eye(n)
    if case == "constrained":
        C = rng.standard_normal((3, n))
        return A, B, dict(constraints=C), C
    D = Q[:, :2]  # spans ker A
    return A, B, dict(deflation=D), (B @ D).T


@pytest.mark.parametrize("case", ["constrained", "deflated"])
def test_dense_path_computes_only_the_pairs_it_returns(case, monkeypatch):
    A, B, solve, C = _dense_pencil(case)
    U = sla.null_space(C)
    w, V = sla.eigh(U.T @ A @ U, U.T @ B @ U)  # the full reduced spectrum
    V = U @ V[:, :4]
    ref_res = linalg._residuals(sp.csr_matrix(A), sp.csr_matrix(B), w[:4], V,
                                solve.get("constraints"))
    subsets = []
    real = sla.eigh

    def spy(a, b, **kwargs):
        subsets.append(kwargs.get("subset_by_index"))
        return real(a, b, **kwargs)

    monkeypatch.setattr(linalg.sla, "eigh", spy)
    r = eig_smallest(A, B, k=4, **solve)
    assert subsets == [[0, 3]]
    assert np.abs(r.values - w[:4]).max() <= 1e-12 * w[3]
    signs = np.sign(np.sum(r.vectors * V, axis=0))
    assert np.abs(r.vectors - V * signs).max() <= 1e-12 * np.abs(V).max()
    assert np.abs(r.residuals - ref_res).max() <= 1e-12
    # a request beyond the admissible dimension returns all of it
    full = eig_smallest(A, B, k=len(A), **solve)
    assert len(full.values) == U.shape[1]
    assert np.abs(full.values - w).max() <= 1e-12 * w[-1]


def test_count_kernel_raises_at_cap(monkeypatch):
    # a kernel larger than the harmonic bound must not come back as a short
    # count: all beta + 1 pairs below the threshold raise, naming beta
    with pytest.raises(SolverError, match=r"exceeds its bound beta = 3 \(b1 = 3, 0 tag-1"):
        _harmonic_search(np.zeros((20, 20)), 3, monkeypatch)


def test_null_space_dims():
    assert null_space(np.diag([0.0, 0.0, 1.0])).shape[1] == 2
    rng = np.random.default_rng(4)
    X = rng.standard_normal((10, 10))
    assert null_space(X @ X.T + 10 * np.eye(10)).shape[1] == 0


def test_null_space_graph_laplacian():
    # two-component graph: kernel dimension equals component count
    edges = [(0, 1), (1, 2), (3, 4)]
    n = 5
    L = np.zeros((n, n))
    for a, b in edges:
        L[a, a] += 1
        L[b, b] += 1
        L[a, b] -= 1
        L[b, a] -= 1
    assert null_space(L).shape[1] == 2


def test_null_space_gen_mass_orthonormal():
    rng = np.random.default_rng(6)
    B = np.diag(rng.uniform(0.5, 2.0, 8))
    A = np.zeros((8, 8))
    A[4:, 4:] = np.eye(4)
    basis = null_space_gen(A, B)
    assert basis.shape[1] == 4
    G = basis.T @ B @ basis
    assert np.abs(G - np.eye(4)).max() <= 1e-12


def test_solver_error_carries_residual():
    with pytest.raises(SolverError):
        eig_smallest(np.eye(3), np.eye(3), k=1,
                     constraints=np.eye(3))  # constraints kill everything


def test_eig_indefinite_b_rejected():
    A = np.eye(3)
    B = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(SolverError):
        eig_smallest(A, B, k=1)


def test_spd_solver_rejects_singular_matrix():
    # a zero diagonal entry makes the factorization exactly singular
    n = 2100
    d = np.ones(n)
    d[-1] = 0.0
    with pytest.raises(SolverError, match="singular"):
        spd_solver(sp.diags(d).tocsr())
