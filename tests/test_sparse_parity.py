"""Sparse eigensolver path against the dense LAPACK path on real pencils.

linalg.DENSE_CROSSOVER routes eigenproblems only: pencils of at least that
many dofs take shift-invert ARPACK on the saddle-point operator, smaller
ones dense LAPACK.  linalg.DENSE_MAX, the limit for dense factorizations
(Cholesky in solve_spd, the strain-kernel diagnostics), is never patched
here.  Lowering the crossover sends the n=2 pencils of every geometry
through the sparse path; raising it forces the dense path on the mid-size
pencils that take the sparse path unpatched.  The dense path on the same
pencils is the oracle.  Two tests run above the real crossover without
patching.
"""

import pytest

from kornlab import constants, hodge, linalg
from kornlab.meshes import generate_primitive

FORCED_DENSE = 10**9  # every pencil dense: the oracle side of each comparison
# pencils below this size (the 1- and 3-dof pencils of the tagged unit
# cube) stay dense: ARPACK needs more dimensions than requested pairs
PATCHED_CROSSOVER = 16
NAMES = ("c_p", "c_k_s", "c_k_irrot", "c_m", "c_m_coexact", "c_direct")
REL_TOL = 1e-10


def _mesh(kind, gamma_t):
    mesh = generate_primitive(kind, 2)
    if mesh.has_gamma_t != gamma_t:
        mesh = mesh.retag(1 if gamma_t else 0)
    return mesh


def _records(mesh):
    ws = constants.Workspace(mesh)
    return {name: ws.constant(name) for name in NAMES}


def _count_sparse(monkeypatch):
    """Record the dimension of every pencil that reaches _eig_sparse."""
    calls = []
    eig_sparse = linalg._eig_sparse

    def counting(A, *args):
        calls.append(A.shape[0])
        return eig_sparse(A, *args)

    monkeypatch.setattr(linalg, "_eig_sparse", counting)
    return calls


@pytest.mark.parametrize("gamma_t", [True, False], ids=["tagged", "untagged"])
@pytest.mark.parametrize("kind", ["unit_cube", "slab_mixed", "cube_with_tunnel"])
def test_forced_sparse_matches_dense(kind, gamma_t, monkeypatch):
    mesh = _mesh(kind, gamma_t)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    dense = _records(mesh)

    sparse_calls = _count_sparse(monkeypatch)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", PATCHED_CROSSOVER)
    sparse = _records(mesh)

    assert sparse["c_direct"].dim in sparse_calls
    for name in NAMES:
        assert sparse[name].value == pytest.approx(dense[name].value, rel=REL_TOL), name


def test_forced_sparse_constrained_tunnel_direct(monkeypatch):
    # per-slice skew-moment constraints: the case the projected Lanczos got
    # wrong (0.0419685 against 0.0419750)
    mesh = generate_primitive("cube_with_tunnel", 2)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    dense, _ = constants.direct_main_constant(mesh)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", PATCHED_CROSSOVER)
    sparse, _ = constants.direct_main_constant(mesh)
    assert sparse.eigenvalue == pytest.approx(0.041975049321929386, rel=1e-10)
    assert sparse.value == pytest.approx(dense.value, rel=REL_TOL)
    assert sparse.residual <= 1e-10


def test_forced_sparse_pure_neumann_korn(monkeypatch):
    # translations lie in ker B of the gradient form: bordered, not deflated
    mesh = generate_primitive("cube_with_tunnel", 2)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    dense = constants.korn_constant_standard(mesh)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", PATCHED_CROSSOVER)
    sparse = constants.korn_constant_standard(mesh)
    assert sparse.value == pytest.approx(dense.value, rel=REL_TOL)


def test_unit_cube_n8_direct_above_crossover():
    # 9096 dofs with a clustered spectrum (lambda_2 / lambda_1 ~ 1.001);
    # reference: ARPACK shift-invert on the saddle-point operator, from an
    # implementation independent of kornlab.linalg (perfbench/oracle.py,
    # refs.json), which agrees with dense LAPACK to 7e-14 at n=6
    rec, _ = constants.direct_main_constant(generate_primitive("unit_cube", 8))
    assert rec.value == pytest.approx(1.410272155021159, rel=1e-10)
    assert rec.residual <= 1e-10


@pytest.mark.parametrize(
    "kind, n, harmonic_dim",
    [("unit_cube", 4, 0), ("cube_with_tunnel", 2, 1)],
    ids=["unit_cube4_untagged", "tunnel2"],
)
def test_mid_size_pencils_sparse_matches_forced_dense(kind, n, harmonic_dim, monkeypatch):
    # c_direct has 1812 (untagged cube) and 1968 (tunnel, two slices) dofs:
    # above the crossover, below the dense-factorization limit
    mesh = generate_primitive(kind, n)
    if kind == "unit_cube":
        mesh = mesh.retag(0)
    sparse_calls = _count_sparse(monkeypatch)
    sparse = _records(mesh)
    sparse_harmonic = hodge.harmonic_basis(mesh).dim
    assert sparse["c_direct"].dim in sparse_calls

    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    sparse_calls.clear()
    dense = _records(mesh)
    assert hodge.harmonic_basis(mesh).dim == sparse_harmonic == harmonic_dim
    assert sparse_calls == []

    for name in NAMES:
        assert sparse[name].value == pytest.approx(dense[name].value, rel=REL_TOL), name
        for rec in (sparse[name], dense[name]):
            assert rec.residual is None or rec.residual <= 1e-10, name
