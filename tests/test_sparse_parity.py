"""Sparse eigensolver path against the dense LAPACK path on real pencils.

linalg.DENSE_CROSSOVER routes eigenproblems only: pencils of at least that
many dofs take shift-invert ARPACK on the saddle-point operator, smaller
ones dense LAPACK.  It is the only size gate in kornlab: linear solves
factor with SuperLU at every size, and kernel counts come from the
eigensolves and follow the crossover.  Lowering the
crossover sends the n=2 pencils of every geometry through the sparse
path; raising it forces the dense path on the mid-size pencils that take
the sparse path unpatched.  The dense path on the same
pencils is the oracle.  Two tests run above the real crossover without
patching.
"""

import numpy as np
import pytest
import scipy.sparse as sp

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


def test_forced_sparse_tangential_constant_matches_dense(monkeypatch):
    # at this crossover the 27-dof tangential pencil takes shift-invert
    # ARPACK; with its translations pinned at vertex 0, B is positive
    # definite and the pair solves the pencil
    mesh = generate_primitive("unit_cube", 3)
    dense = constants.korn_constant_tangential(mesh).value
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", PATCHED_CROSSOVER)
    sparse = constants.korn_constant_tangential(mesh).value
    assert sparse == pytest.approx(dense, rel=1e-10)


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
    # per-slice skew-moment constraints on the shift-invert ARPACK path,
    # checked against a forced-dense solve and the oracle's eigenvalue
    mesh = generate_primitive("cube_with_tunnel", 2)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    dense = constants.direct_main_constant(mesh)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", PATCHED_CROSSOVER)
    sparse = constants.direct_main_constant(mesh)
    assert sparse.eigenvalue == pytest.approx(0.041975049321929386, rel=1e-10)
    assert sparse.value == pytest.approx(dense.value, rel=REL_TOL)
    assert sparse.residual <= 1e-10


def test_forced_sparse_pure_neumann_korn(monkeypatch):
    # translations pinned at vertex 0, rotations about it deflated
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
    rec = constants.direct_main_constant(generate_primitive("unit_cube", 8))
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


@pytest.mark.parametrize(
    "kind, n, retag, harmonic_dim",
    [("cube_with_tunnel", 3, None, 1), ("unit_cube", 4, 0, 0)],
    ids=["tunnel3", "unit_cube4_untagged"],
)
def test_workspace_coexact_pair_matches_forced_dense_deflated_solve(
        kind, n, retag, harmonic_dim, monkeypatch):
    # the Workspace reads c_m_coexact off the harmonic search, whose vectors
    # are orthogonal to the harmonic fields it returns; the reference
    # deflates the pinned gradients and those fields, on the dense path
    mesh = generate_primitive(kind, n)
    if retag is not None:
        mesh = mesh.retag(retag)
    ws = constants.Workspace(mesh)
    assert ws.ops.edge_space.free_count >= linalg.DENSE_CROSSOVER
    assert ws.harmonics.dim == harmonic_dim
    coexact = ws.constant("c_m_coexact")

    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    assert basis.dim == harmonic_dim
    deflation = sp.hstack([ops.pinned_grad, sp.csc_matrix(basis.fields.T)], format="csc")
    dense = linalg.eig_smallest(ops.curlcurl, ops.mass, k=1, deflation=deflation)
    assert coexact.value == pytest.approx(1.0 / np.sqrt(dense.values[0]), rel=1e-10)
    assert coexact.residual <= 1e-10 and dense.residuals[0] <= 1e-10


def _bordered_search(ops, k):
    """The harmonic pencil as shift-invert ARPACK on the matrix bordered by
    one row (M Gp)^T per pinned potential: the reference for the projection."""
    A, M = ops.curlcurl, ops.mass
    n = A.shape[0]
    sigma = -1e-3 * A.diagonal().sum() / M.diagonal().sum()
    op = linalg._saddle_inverse(A, M, sigma, (M @ ops.pinned_grad).T.tocsr())
    v = np.random.default_rng(linalg._SEED).standard_normal(n)
    return linalg._arpack(A, M, k, sigma, op, op(M @ v), 1e-10)


@pytest.mark.parametrize(
    "kind, n, retag, harmonic_dim",
    [("cube_with_tunnel", 4, None, 1), ("slab_mixed", 6, None, 0), ("unit_cube", 4, 0, 0)],
    ids=["tunnel4", "slab6", "unit_cube4_untagged"],
)
def test_projected_harmonic_search_matches_bordered_reference(kind, n, retag, harmonic_dim):
    # the search factors curl-curl alone and projects the gradients out after
    # each solve; bordering one row per potential gives the same operator
    mesh = generate_primitive(kind, n)
    if retag is not None:
        mesh = mesh.retag(retag)
    basis = hodge.harmonic_basis(mesh)
    ops = basis.ops
    A, M, Gp = ops.curlcurl, ops.mass, ops.pinned_grad
    assert A.shape[0] >= linalg.DENSE_CROSSOVER
    kernel, coexact = basis.fields.T, basis.coexact
    threshold = hodge.HARMONIC_REL_TOL * A.diagonal().sum() / M.diagonal().sum()
    ref_vals, _ = _bordered_search(ops, 4)
    ref_dim = int(np.sum(ref_vals <= threshold))
    assert kernel.shape[1] == ref_dim == harmonic_dim
    assert coexact.values[0] == pytest.approx(ref_vals[ref_dim], rel=1e-12)
    for x in np.column_stack([kernel, coexact.vectors]).T:
        assert np.linalg.norm(Gp.T @ (M @ x)) <= 1e-12 * np.sqrt(x @ (M @ x))
