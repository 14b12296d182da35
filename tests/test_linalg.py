import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kornlab.linalg import (
    SolverError,
    eig_smallest,
    null_space,
    null_space_gen,
    solve_spd,
)


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


def test_solve_cg_path():
    # above DENSE_MAX: Jacobi-preconditioned CG
    n = 2100
    rng = np.random.default_rng(1)
    main = 4.0 + rng.random(n)
    A = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr()
    b = rng.standard_normal(n)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-11


def test_solve_cholesky_below_dense_max(monkeypatch):
    # 800 unknowns, the P1 size of the Poisson solves that certify
    # cube_with_tunnel n=4: far above the eigen crossover, still Cholesky
    def no_cg(*args, **kwargs):
        raise AssertionError("CG called below DENSE_MAX")

    monkeypatch.setattr(spla, "cg", no_cg)
    n = 800
    rng = np.random.default_rng(2)
    A = sp.diags([4.0 + rng.random(n), -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1]).tocsr()
    b = rng.standard_normal(n)
    x = solve_spd(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12


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


def test_eig_lanczos_path_matches_dense():
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


def test_eig_lanczos_with_deflation():
    n = 2200
    rng = np.random.default_rng(3)
    vals = np.concatenate([[1e-16, 1e-16], rng.uniform(1.0, 5.0, n - 2)])
    A = sp.diags(vals).tocsr()
    B = sp.identity(n, format="csr")
    D = np.zeros((n, 2))
    D[0, 0] = D[1, 1] = 1.0
    r = eig_smallest(A, B, k=1, deflation=D)
    assert r.values[0] == pytest.approx(vals[2:].min(), rel=1e-9)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_cg_nonconvergence_reports_residual():
    # singular system with inconsistent rhs: CG cannot converge
    n = 2100
    d = np.ones(n)
    d[-1] = 0.0
    A = sp.diags(d).tocsr()
    b = np.zeros(n)
    b[-1] = 1.0
    with pytest.raises(SolverError) as err:
        solve_spd(A, b)
    assert err.value.residual is not None
