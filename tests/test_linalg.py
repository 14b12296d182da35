import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kornlab import constants as cst
from kornlab import linalg
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


def test_saddle_inverse_accurate_with_zero_diagonal_block(monkeypatch):
    # the unpinned slab_mixed n=4 c_k_t pencil bordered by the rows D of the
    # three translations: [[A - sigma B, D^T], [D, 0]] has a zero diagonal
    # block, which symmetric-mode LU only solves accurately with threshold
    # pivoting on
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
    factored = []
    real = spla.splu

    def capture(K, *args, **kwargs):
        factored.append((K, real(K, *args, **kwargs)))
        return factored[-1][1]

    monkeypatch.setattr(spla, "splu", capture)
    sigma = -1e-3 * A.diagonal().sum() / B.diagonal().sum()
    op = linalg._saddle_inverse(A, B, sigma, bordered)
    (K, lu), = factored
    assert K.shape == (n + 3, n + 3)
    rng = np.random.default_rng(5)
    for _ in range(3):
        rhs = rng.standard_normal(n + 3)
        z = lu.solve(rhs)
        assert np.linalg.norm(K @ z - rhs) <= 1e-12 * np.linalg.norm(rhs)
        x = rng.standard_normal(n)
        y = op(x)
        assert np.linalg.norm(bordered @ y) <= 1e-12 * np.linalg.norm(y)


def test_saddle_inverse_factor_options(monkeypatch):
    # symmetric mode, minimum degree on K^T + K, threshold pivoting, and no
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
    assert kwargs["diag_pivot_thresh"] == linalg._PIVOT_THRESH > 0
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
    pencil = cst.tensor_pencil(mesh)
    A, B = (pencil.sym + pencil.curlcurl).tocsr(), pencil.mass
    n = A.shape[0]
    assert n >= linalg.DENSE_CROSSOVER
    C = linalg._saddle_rows(B, None, cst._slice_skew_constraints(pencil.space, mesh), n)
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


@pytest.mark.parametrize("crossover", [linalg.DENSE_CROSSOVER, 16], ids=["dense", "sparse"])
def test_count_kernel_diagonal_pencil(crossover, monkeypatch):
    # a 3-dim kernel: batches k = 1, 2, 4, and the fourth value is the first
    # above the threshold
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", crossover)
    requested = []
    real = linalg.eig_smallest

    def spy(A, B, k=1, **kwargs):
        requested.append(k)
        return real(A, B, k=k, **kwargs)

    monkeypatch.setattr(linalg, "eig_smallest", spy)
    n = 40
    A = sp.diags(np.concatenate([[0.0, 0.0, 0.0], 1.0 + np.arange(n - 3)])).tocsr()
    eig, nker = linalg.count_kernel(A, sp.identity(n, format="csr"), 1e-8)
    assert nker == 3
    assert requested == [1, 2, 4]
    assert np.abs(eig.values[:3]).max() <= 1e-12
    assert eig.values[3] == pytest.approx(1.0, rel=1e-10)


def test_count_kernel_raises_at_cap():
    # an all-kernel pencil must not come back as a short count
    with pytest.raises(SolverError, match="KERNEL_CAP = 32"):
        linalg.count_kernel(np.zeros((20, 20)), np.eye(20), 1e-8)


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
