import importlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kornlab import constants as cst
from kornlab import hodge, linalg, meshes
from kornlab.assemble import MatrixCoefficient, assemble, identity_coefficient
from kornlab.meshes import Mesh, generate_primitive, validate
from kornlab.spaces import TensorField, build_space

from helpers import constant_tensor_coeffs, two_plates

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def cube3_ws():
    return cst.Workspace(generate_primitive("unit_cube", 3))


@pytest.fixture(scope="module")
def slab2_ws():
    return cst.Workspace(generate_primitive("slab_mixed", 2))


@pytest.fixture(scope="module")
def tunnel_ws():
    return cst.Workspace(generate_primitive("cube_with_tunnel", 1))


def test_poincare_dirichlet_from_below(cube3_ws):
    target = 1.0 / (np.pi * np.sqrt(3.0))
    c2 = cst.poincare_constant(generate_primitive("unit_cube", 2)).value
    c3 = cube3_ws.constant("c_p").value
    assert 0 < c2 < c3 < target


def test_poincare_neumann():
    m = generate_primitive("unit_cube", 4).retag(0)
    c = cst.poincare_constant(m).value
    target = 1.0 / np.pi
    assert c < target
    assert abs(c - target) / target < 0.12


def test_poincare_empty_space():
    m = generate_primitive("unit_cube", 1)
    rec = cst.poincare_constant(m)
    assert rec.value == 0.0 and rec.note == "EmptySpace"


def _beside(a, b):
    """The disjoint union of the meshes a and b, b moved two units along x."""
    nv = a.num_vertices
    return Mesh(np.vstack([a.vertices, b.vertices + [2.0, 0.0, 0.0]]),
                np.vstack([a.tets, b.tets + nv]), np.concatenate([a.slice_ids, b.slice_ids]),
                np.vstack([a.btris, b.btris + nv]), np.concatenate([a.btri_tags, b.btri_tags]))


@pytest.mark.parametrize("tags", [(1, 0), (0, 0)], ids=["tagged_beside_untagged", "two_untagged"])
@pytest.mark.parametrize("name", ["c_p", "c_m_grad"])
def test_poincare_names_cell_components_without_a_tag_1_vertex(tags, name, monkeypatch):
    # the untagged cube keeps its constant in the kernel (the mean-zero
    # deflation removes one, only without a tag-1 part): a KernelError
    # before any solve, where a residual-gate SolverError at lambda ~ 5e-14
    # used to name the wrong cause
    cube = generate_primitive("unit_cube", 4)
    mesh = _beside(cube.retag(tags[0]), cube.retag(tags[1]))
    ws = cst.Workspace(mesh)

    def no_solve(*args, **kwargs):
        raise AssertionError("c_p solved an eigenproblem")

    monkeypatch.setattr(linalg, "eig_smallest", no_solve)
    with pytest.raises(cst.KernelError, match="c_p: 1 cell component"):
        ws.constant(name)


def test_korn_standard_bound(cube3_ws):
    rec = cube3_ws.constant("c_k_s")
    assert rec.value <= SQRT2 * (1 + 1e-12)


# A conforming discrete eigenvalue is at least the continuum one, so each
# discrete constant lies below its closed form: the Dirichlet eigenvalue
# 3 pi^2 of the cube, pi^2/4 of the slab (Dirichlet at z=0 only), and Korn's
# identity on every mesh whose whole boundary is tag 1.  The last size of
# each row puts the pencil above linalg.DENSE_CROSSOVER.
CEILINGS = {
    ("c_p", "unit_cube", None): ((2, 4, 8), 1.0 / (np.pi * np.sqrt(3.0))),
    ("c_p", "slab_mixed", None): ((2, 4, 6), 2.0 / np.pi),
    ("c_k_s", "unit_cube", None): ((2, 4, 6), SQRT2),
    ("c_k_s", "cube_with_tunnel", 1): ((2, 4), SQRT2),
}
SOLVERS = {"c_p": cst.poincare_constant, "c_k_s": cst.korn_constant_standard}


@pytest.mark.parametrize("name, kind, tag, n", [(*key, n) for key, (sizes, _) in CEILINGS.items()
                                                for n in sizes])
def test_constants_lie_below_their_closed_forms(name, kind, tag, n):
    sizes, ceiling = CEILINGS[name, kind, tag]
    mesh = generate_primitive(kind, n)
    rec = SOLVERS[name](mesh if tag is None else mesh.retag(tag))
    assert 0 < rec.value <= ceiling
    if n == sizes[-1]:
        assert rec.dim > linalg.DENSE_CROSSOVER


def test_korn_standard_monotone_to_sqrt2():
    vals = [
        cst.korn_constant_standard(generate_primitive("unit_cube", n)).value
        for n in (2, 3, 4)
    ]
    assert vals[0] < vals[1] < vals[2] <= SQRT2
    assert vals[2] > 0.9 * SQRT2


def test_korn_standard_empty():
    rec = cst.korn_constant_standard(generate_primitive("unit_cube", 1))
    assert rec.note == "EmptySpace"


def test_korn_standard_no_tags_deflation():
    m = generate_primitive("unit_cube", 2).retag(0)
    rec = cst.korn_constant_standard(m)
    assert np.isfinite(rec.value) and rec.value >= 1.0


def test_korn_standard_strain_kernel_note_above_crossover():
    # 375 dofs take the sparse eigen path; the kernel check reads the
    # eigensolve itself, at every size
    rec = cst.korn_constant_standard(generate_primitive("unit_cube", 4).retag(0))
    assert rec.dim > linalg.DENSE_CROSSOVER
    assert rec.note.endswith("strain kernel dim 6")


def test_korn_standard_strain_kernel_note_above_dense_max():
    # 2187 dofs: the note keeps its shape above 2000, the retired limit for
    # dense factorizations
    rec = cst.korn_constant_standard(generate_primitive("unit_cube", 8).retag(0))
    assert rec.dim > 2000
    assert rec.note.endswith("strain kernel dim 6")


def test_korn_tangential_requires_tags():
    with pytest.raises(ValueError):
        cst.korn_constant_tangential(generate_primitive("unit_cube", 2).retag(0))


def test_korn_tangential_equals_standard_for_connected_boundary(cube3_ws):
    # one tag-1 component: fields constant on the whole boundary reduce to
    # the Dirichlet space modulo translations; solved separately, since the
    # Workspace reads both off c_k_irrot here
    s = cst.korn_constant_standard(cube3_ws.mesh).value
    t = cst.korn_constant_tangential(cube3_ws.mesh).value
    assert t == pytest.approx(s, rel=1e-10)


def test_korn_tangential_two_plates_exceeds_standard():
    m = two_plates(2)
    s = cst.korn_constant_standard(m).value
    t = cst.korn_constant_tangential(m).value
    assert t >= s * (1 - 1e-10)


def _tagged(kind, n, tag):
    mesh = generate_primitive(kind, n)
    return mesh if tag is None else mesh.retag(tag)


@pytest.mark.parametrize(
    "kind, n, tag",
    [("unit_cube", 2, None), ("unit_cube", 2, 0), ("unit_cube", 4, None),
     ("unit_cube", 4, 0), ("slab_mixed", 4, None), ("slab_mixed", 4, 0),
     ("cube_with_tunnel", 2, 1)],
    ids=["cube2", "cube2_untagged", "cube4", "cube4_untagged", "slab4",
         "slab4_untagged", "tunnel2_tagged"],
)
def test_workspace_carries_korn_vector_constants_from_c_k_irrot(kind, n, tag, monkeypatch):
    # no harmonic fields and not sliced: the c_k_irrot pencil is the c_k_s
    # (and c_k_t) pencil, so the Workspace solves it once (one Korn
    # eigensolve per report) and matches the separate solves
    mesh = _tagged(kind, n, tag)
    separate = {"c_k_s": cst.korn_constant_standard(mesh)}
    if mesh.has_gamma_t:
        separate["c_k_t"] = cst.korn_constant_tangential(mesh)
    ws = cst.Workspace(mesh)
    assert ws.harmonics.dim == 0 and ws.case != "sliced"
    if not mesh.has_gamma_t:
        with pytest.raises(ValueError):
            ws.constant("c_k_t")
    solves = []
    real = linalg.eig_smallest

    def counting(*args, **kwargs):
        solves.append(args[0].shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "eig_smallest", counting)
    irrot = ws.constant("c_k_irrot")
    for name in separate:
        ws.constant(name)
    assert len(solves) == 1
    for name, rec in separate.items():
        carried = ws.constant(name)
        assert carried.name == name
        assert carried.value == pytest.approx(rec.value, rel=1e-13)
        assert carried.dim == rec.dim
        assert carried.eigenvalue == irrot.eigenvalue
        assert carried.note == "equal to c_k_irrot: harmonic dim 0"
        assert carried.vector is None


@pytest.mark.parametrize("plates", [True, False], ids=["two_plates2", "tunnel2_sliced"])
def test_workspace_solves_korn_vector_constants_separately_otherwise(plates):
    # harmonic fields (two tag-1 components) or slices: the quotients differ
    mesh = two_plates(2) if plates else generate_primitive("cube_with_tunnel", 2)
    ws = cst.Workspace(mesh)
    assert ws.harmonics.dim > 0
    s = ws.constant("c_k_s")
    assert s == cst.korn_constant_standard(mesh)
    if mesh.has_gamma_t:
        t = ws.constant("c_k_t")
        assert t == cst.korn_constant_tangential(mesh)
        assert s.value < t.value * (1 - 1e-3)
    else:
        assert ws.case == "sliced"
        assert s.value < ws.constant("c_k_irrot").value * (1 - 1e-3)


def test_korn_chain_ordering(slab2_ws):
    # solved separately: the Workspace reads c_k_s and c_k_t off c_k_irrot here
    s = cst.korn_constant_standard(slab2_ws.mesh).value
    t = cst.korn_constant_tangential(slab2_ws.mesh).value
    k = slab2_ws.constant("c_k_irrot").value
    c_hat, _ = cst.derived_bounds(k, slab2_ws.constant("c_m").value)
    assert s <= t * (1 + 1e-10)
    assert t <= k * (1 + 1e-10)
    assert k <= c_hat * (1 + 1e-10)


def test_korn_irrotational_constant_symmetric_lower_bound(cube3_ws):
    # constant symmetric tensors give Rayleigh quotient one
    assert cube3_ws.constant("c_k_irrot").value >= 1.0 - 1e-12


def test_korn_irrotational_no_tags_needs_slices_for_handles():
    m = generate_primitive("cube_with_tunnel", 1).retag(0)
    single = m.__class__(
        m.vertices, m.tets, np.zeros(m.num_tets, dtype=np.int64), m.btris, m.btri_tags
    )
    with pytest.raises(ValueError):
        cst.korn_constant_irrotational(single)


def test_korn_irrotational_sliced_is_max(tunnel_ws):
    rec = tunnel_ws.constant("c_k_irrot")
    assert "slice" in rec.note
    m = tunnel_ws.mesh
    slice_vals = []
    for s in np.unique(m.slice_ids):
        sub = m.submesh(m.slice_ids == s)
        slice_vals.append(cst.korn_constant_irrotational(sub).value)
    assert rec.value == pytest.approx(max(slice_vals), rel=1e-12)


def test_maxwell_blocks(cube3_ws):
    cm = cube3_ws.constant("c_m")
    cg = cube3_ws.constant("c_m_grad")
    cc = cube3_ws.constant("c_m_coexact")
    assert cm.value == max(cg.value, cc.value)
    assert cg.value == pytest.approx(cube3_ws.constant("c_p").value, rel=1e-14)


@pytest.mark.parametrize("kind, n", [("cube_with_tunnel", 1), ("unit_cube", 2)])
def test_maxwell_constant_takes_a_harmonic_basis_alone(kind, n):
    # the basis carries the edge operators it was found with, so no ops
    # argument has to agree with it (tunnel n=1: harmonic dim 1)
    mesh = generate_primitive(kind, n)
    basis = hodge.harmonic_basis(mesh)
    ws = cst.Workspace(mesh)
    assert basis.dim == ws.harmonics.dim == (kind == "cube_with_tunnel")
    records = cst.maxwell_constant(mesh, harmonics=basis)
    assert records == tuple(ws.constant(name) for name in ("c_m", "c_m_grad", "c_m_coexact"))


@pytest.mark.parametrize("kind", ["unit_cube", "slab_mixed"])
def test_korn_irrotational_takes_a_harmonic_basis_alone(kind):
    mesh = generate_primitive(kind, 2)
    rec = cst.korn_constant_irrotational(mesh, harmonics=hodge.harmonic_basis(mesh))
    ref = cst.Workspace(mesh).constant("c_k_irrot")
    assert rec == ref
    np.testing.assert_array_equal(rec.vector, ref.vector)


def test_korn_irrotational_alone_searches_harmonics_at_its_tol(monkeypatch):
    # called alone on a tag-1 mesh, c_k_irrot finds its harmonic basis (the
    # k=2 curl-curl solve) at its own tol, as maxwell_constant does
    calls = []
    real = linalg.eig_smallest

    def spy(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
        calls.append((k, tol))
        return real(A, B, k=k, deflation=deflation, constraints=constraints, tol=tol)

    monkeypatch.setattr(linalg, "eig_smallest", spy)
    mesh = two_plates(2)
    for constant in (cst.korn_constant_irrotational, cst.maxwell_constant):
        calls.clear()
        constant(mesh, 1e-6)
        assert (2, 1e-6) in calls and {tol for _, tol in calls} == {1e-6}, constant


def test_maxwell_coexact_converges():
    target = 1.0 / (np.pi * SQRT2)
    m = generate_primitive("unit_cube", 4)
    cc = cst.maxwell_constant(m)[2].value
    assert abs(cc - target) / target < 0.08


def test_derived_bounds_formula():
    c_hat, c_tilde = cst.derived_bounds(SQRT2, 1.0)
    assert c_hat == pytest.approx(np.sqrt(5.0), rel=1e-15)
    c_hat, c_tilde = cst.derived_bounds(1.0, 1.0)
    assert c_hat == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert c_tilde == pytest.approx(2.0 * SQRT2, rel=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(50):
        ck, cm = rng.uniform(0.1, 5.0, 2)
        ch, ct = cst.derived_bounds(ck, cm)
        assert ct >= ch * (1 - 1e-14)
    with pytest.raises(ValueError):
        cst.derived_bounds(-1.0, 1.0)
    # an empty curl-free space (c_k = 0) leaves the Maxwell link alone
    assert cst.derived_bounds(0.0, 2.0) == (2.0, pytest.approx(2.0 * SQRT2, rel=1e-15))
    assert cst.derived_bound_weighted(0.0, 2.0, 3.0) == 2.0
    for bad in ((-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            cst.derived_bound_weighted(*bad)


def test_direct_constant_bounded_by_derived(cube3_ws, slab2_ws, tunnel_ws):
    for ws in (cube3_ws, slab2_ws):
        cd = ws.constant("c_direct").value
        c_hat, _ = cst.derived_bounds(
            ws.constant("c_k_irrot").value, ws.constant("c_m").value
        )
        assert cd <= c_hat * (1 + 1e-8)
    cd = tunnel_ws.constant("c_direct").value
    _, c_tilde = cst.derived_bounds(
        tunnel_ws.constant("c_k_irrot").value, tunnel_ws.constant("c_m").value
    )
    assert cd <= c_tilde * (1 + 1e-8)


@pytest.mark.parametrize("n, path", [(2, "dense"), (2, "sparse"), (5, "sparse")],
                         ids=["n2_dense", "n2_sparse", "n5_sparse"])
def test_undeflated_direct_pencil_has_the_constant_skews_as_kernel(n, path, monkeypatch):
    # the paper's remark for Gamma_t empty: the constant skews annihilate sym
    # and Curl alike, so the Edge0^3 pencil Sym + CC against M, without the
    # skew-moment rows of c_direct, has exactly them as its kernel
    ws = cst.Workspace(generate_primitive("unit_cube", n).retag(0))
    A = ws.pencil.strain.full() + sp.block_diag([ws.ops.curlcurl] * 3)
    B = sp.block_diag([ws.ops.mass] * 3, format="csr")
    assert A.shape[0] >= linalg.DENSE_CROSSOVER  # 294 and 3345 dofs: sparse
    if path == "dense":
        monkeypatch.setattr(linalg, "DENSE_CROSSOVER", 10**9)
    eig = linalg.eig_smallest(A, B, k=4)
    threshold = cst.KERNEL_REL_TOL * A.diagonal().sum() / B.diagonal().sum()
    assert np.sum(eig.values <= threshold) == 3
    V = eig.vectors[:, :3]  # B-orthonormal
    _, WY, MWY = ws.skew_fields
    for w, Bw in zip(WY, MWY):
        r = w - V @ (V.T @ Bw)
        assert np.sqrt(r @ (B @ r) / (w @ Bw)) <= 1e-10


@pytest.mark.parametrize("s", [1e-4, 1e-5])
def test_direct_constant_alone_counts_no_kernel_on_a_tagged_mesh(s):
    # a tag-1 part excludes every constant skew: the pencil has no kernel,
    # so the standalone solve counts none.  A kernel threshold that grows as
    # s^-2 (the curl-curl part of tr A / tr B) once passed lambda_min =
    # 0.5556 here and raised a false KernelError; the residual gate's
    # SolverError is the true answer at these scales, as through a Workspace
    mesh = generate_primitive("unit_cube", 2).transformed(matrix=s * np.eye(3))
    assert mesh.has_gamma_t
    try:
        cst.direct_main_constant(mesh)
    except linalg.SolverError as exc:
        assert "residual" in str(exc)


def test_direct_constant_residual_is_projected():
    # the per-slice skew-moment constraints add a Lagrange term C^T mu to
    # A x - lambda B x (8.8e-4 here on the dense path); the reported
    # residual leaves it out
    rec = cst.direct_main_constant(generate_primitive("cube_with_tunnel", 2))
    assert rec.note.startswith("deflated: per-slice skew moments")
    assert rec.residual <= 1e-10


def test_norm_equivalence_reads_the_direct_eigenvalue():
    mesh = generate_primitive("slab_mixed", 1)
    assert isinstance(cst.direct_main_constant(mesh), cst.ConstantRecord)
    report = cst.compute_report(mesh)
    lam = report["c_direct"]["eigenvalue"]
    assert report["norm_equivalence"] == float(np.sqrt(lam / (1.0 + lam)))


def test_slice_strain_kernel_beyond_rigid_motions_raises():
    # two tets that share only an edge: the slice is edge-connected and
    # simply connected, but each tet moves rigidly on its own, so the strain
    # form of the slice annihilates more than the six rigid modes
    m = generate_primitive("unit_cube", 2).retag(0)
    ids = np.ones(m.num_tets, dtype=np.int64)
    ids[[0, 3]] = 0
    m = Mesh(m.vertices, m.tets, ids, m.btris, m.btri_tags)
    assert validate(m) == []
    assert [meshes.betti1(m.submesh(m.slice_ids == s)) for s in (0, 1)] == [0, 0]
    with pytest.raises(cst.KernelError, match="slice 0: c_k_s: the strain form has a kernel"):
        cst.korn_constant_irrotational(m)


def test_direct_gradient_rows_reduce_to_korn(slab2_ws):
    # gradient tensor fields have zero curl: the Rayleigh quotient of the
    # direct pencil on them is the Korn quotient, so c_direct >= c_k_t-ish
    cd = slab2_ws.constant("c_direct").value
    ck = slab2_ws.constant("c_k_irrot").value
    assert cd >= ck * (1 - 1e-10)


def test_certify_zero_field(slab2_ws):
    T = TensorField(
        slab2_ws.ops.edge_space, np.zeros((3, slab2_ws.ops.edge_space.free_count))
    )
    cert = cst.certify_main_inequality(T, slab2_ws)
    assert cert.verdict


def test_certify_gradient_rows(slab2_ws):
    rng = np.random.default_rng(1)
    ops = slab2_ws.ops
    rows = np.stack(
        [ops.grad @ rng.standard_normal(ops.p1_space.free_count) for _ in range(3)]
    )
    cert = cst.certify_main_inequality(TensorField(ops.edge_space, rows), slab2_ws)
    assert cert.verdict
    assert cert.links["coexact_estimate"]["lhs"] <= 1e-10


def test_certify_refuses_a_field_of_another_mesh(slab2_ws):
    # same topology, so the shapes agree: certified against the forms of
    # the original mesh it failed (margins down to -0.66) without an error
    stretched = cst.Workspace(slab2_ws.mesh.transformed(matrix=np.diag([1.0, 1.0, 40.0])))
    T = stretched.random_tensor(np.random.default_rng(0))
    assert cst.certify_main_inequality(T, stretched).verdict
    with pytest.raises(ValueError, match="the Workspace's mesh and its constrained edge space"):
        cst.certify_main_inequality(T, slab2_ws)


def test_certify_refuses_a_field_of_the_unconstrained_edge_space(slab2_ws):
    # it failed only in a numpy broadcast of two dof counts
    space = build_space(slab2_ws.mesh, "Edge0")
    assert space.free_count != slab2_ws.ops.edge_space.free_count
    T = TensorField(space, np.random.default_rng(0).standard_normal((3, space.free_count)))
    with pytest.raises(ValueError, match="the Workspace's mesh and its constrained edge space"):
        cst.certify_main_inequality(T, slab2_ws)


def test_certify_random_fields(slab2_ws):
    rng = np.random.default_rng(2)
    for _ in range(10):
        cert = cst.certify_main_inequality(slab2_ws.random_tensor(rng), slab2_ws)
        assert cert.verdict, cert.failed


def test_certify_with_mixed_tag_harmonic_sector():
    # two opposite plates: the curl-free space gains one harmonic field
    # (relative cohomology), and the chain must still certify
    ws = cst.Workspace(two_plates(2))
    assert ws.harmonics.dim == 1
    rng = np.random.default_rng(5)
    for _ in range(10):
        cert = cst.certify_main_inequality(ws.random_tensor(rng), ws)
        assert cert.verdict, cert.failed
    cd = ws.constant("c_direct").value
    c_hat, _ = cst.derived_bounds(
        ws.constant("c_k_irrot").value, ws.constant("c_m").value
    )
    assert cd <= c_hat * (1 + 1e-8)


def test_certify_simply_connected_skew_consistency():
    ws = cst.Workspace(generate_primitive("unit_cube", 2).retag(0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        cert = cst.certify_main_inequality(ws.random_tensor(rng), ws)
        assert cert.verdict, cert.failed
        assert "skew_consistency" in cert.links


def test_matrix_coefficient_norms():
    m = generate_primitive("unit_cube", 2)
    assert cst.matrix_coefficient_norm(identity_coefficient(), m) == (1.0, 1.0)
    F = MatrixCoefficient(
        lambda p: np.broadcast_to(np.diag([2.0, 1.0, 1.0]), (len(p), 3, 3)).copy(),
        degree=0,
    )
    c_F, mu = cst.matrix_coefficient_norm(F, m)
    assert c_F == pytest.approx(2.0) and mu == pytest.approx(2.0)
    bad = MatrixCoefficient(
        lambda p: np.broadcast_to(np.diag([1.0, 1.0, -1.0]), (len(p), 3, 3)).copy(),
        degree=0,
    )
    with pytest.raises(cst.NonPositiveDeterminant):
        cst.matrix_coefficient_norm(bad, m)


def test_weighted_korn_identity_and_scaling(slab2_ws):
    ck = slab2_ws.constant("c_k_irrot").value
    cm = slab2_ws.constant("c_m").value
    rec1 = slab2_ws.weighted(identity_coefficient()).record
    assert rec1.value == pytest.approx(ck, rel=1e-10)
    c_hat, _ = cst.derived_bounds(ck, cm)
    assert cst.derived_bound_weighted(rec1.value, cm, 1.0) == pytest.approx(
        c_hat, rel=1e-10
    )
    rec2 = slab2_ws.weighted(identity_coefficient(2.0)).record
    assert rec2.value == pytest.approx(ck / 2.0, rel=1e-10)


def test_weighted_korn_variable_coefficient():
    mesh = generate_primitive("slab_mixed", 1)

    def evaluator(p):
        out = np.broadcast_to(np.eye(3), (len(p), 3, 3)).copy()
        out[:, 0, 0] = 1.0 + 0.5 * p[:, 0]
        return out

    F = MatrixCoefficient(evaluator, degree=1)
    rec = cst.Workspace(mesh).weighted(F).record
    assert np.isfinite(rec.value) and rec.value > 0
    # dense oracle: rebuild the reduced pencil by hand
    harm = hodge.harmonic_basis(mesh)
    sym_F = assemble("tensor_symF", harm.space, coeff=F)
    mass = sp.block_diag([harm.ops.mass] * 3, format="csr")
    W = harm.curl_free_basis
    import scipy.linalg as sla

    A = (W.T @ (sym_F @ W)).toarray()
    B = (W.T @ (mass @ W)).toarray()
    lam = sla.eigh(A, B, eigvals_only=True)[0]
    assert rec.value == pytest.approx(1.0 / np.sqrt(lam), rel=1e-9)


def test_weighted_needs_tags():
    m = generate_primitive("unit_cube", 2).retag(0)
    with pytest.raises(ValueError):
        cst.Workspace(m).weighted(identity_coefficient())


def test_generalized_poincare_dispatcher(slab2_ws):
    mesh = slab2_ws.mesh
    q0 = cst.generalized_poincare(0, mesh)
    assert q0.value == cst.poincare_constant(mesh).value
    q1 = cst.generalized_poincare(1, mesh)
    assert q1.value == cst.maxwell_constant(mesh)[0].value
    q2 = cst.generalized_poincare(2, mesh)
    assert q2.value == cst.maxwell_constant(mesh.swap_tags())[0].value
    q3 = cst.generalized_poincare(3, mesh)
    assert q3.value == cst.poincare_constant(mesh.swap_tags()).value
    with pytest.raises(ValueError):
        cst.generalized_poincare(4, mesh)


def test_generalized_poincare_q3_full_tags():
    # q=3 with full tag-1 boundary equals the mean-deflated scalar constant
    mesh = generate_primitive("unit_cube", 2)
    q3 = cst.generalized_poincare(3, mesh)
    neumann = cst.poincare_constant(mesh.retag(0))
    assert q3.value == neumann.value
    assert q3.value > 0


@pytest.mark.parametrize("kind", ["unit_cube", "slab_mixed"])
def test_scaling_under_dilation(kind):
    m = generate_primitive(kind, 2)
    m2 = m.transformed(matrix=2.0 * np.eye(3))
    assert cst.poincare_constant(m2).value == pytest.approx(
        2.0 * cst.poincare_constant(m).value, rel=1e-10
    )
    cm1 = cst.maxwell_constant(m)[0].value
    cm2 = cst.maxwell_constant(m2)[0].value
    assert cm2 == pytest.approx(2.0 * cm1, rel=1e-10)
    ck1 = cst.korn_constant_standard(m).value
    ck2 = cst.korn_constant_standard(m2).value
    assert ck2 == pytest.approx(ck1, rel=1e-10)


@pytest.mark.parametrize("s", [1e-6, 1e6])
def test_poincare_residual_gate_is_scale_covariant(s):
    # at s = 1e6, lambda = 8.8e-13 and the B-scaled residual 1.5e-17 is at
    # rounding level; the gate reads it relative to lambda |B x|
    m = generate_primitive("cube_with_tunnel", 1)
    scaled = cst.poincare_constant(m.transformed(matrix=s * np.eye(3))).value
    assert scaled == pytest.approx(s * cst.poincare_constant(m).value, rel=1e-10)


def test_quadrature_refinement_leaves_constants_unchanged(monkeypatch):
    # all integrands are polynomial: the rule of each form's degree is exact,
    # so raising every rule to degree 8 changes no constant
    m = generate_primitive("slab_mixed", 2)
    r1 = cst.compute_report(m)
    asm = importlib.import_module("kornlab.assemble")  # kornlab.assemble is the function
    real = asm.tet_rule
    degrees = []

    def degree_8(degree):
        degrees.append(degree)
        return real(max(degree, 8))

    monkeypatch.setattr(asm, "tet_rule", degree_8)
    r2 = cst.compute_report(m)
    assert degrees
    for key in ("c_p", "c_k_s", "c_k_irrot", "c_m_coexact", "c_direct"):
        assert r2[key]["value"] == pytest.approx(r1[key]["value"], rel=1e-13)


def test_slice_skew_constraint_rows():
    mesh = generate_primitive("cube_with_tunnel", 1)
    space = build_space(mesh, "Edge0")
    rows = cst._slice_skew_constraints(space)
    assert rows.shape[0] == 2 * 3
    vols = [
        mesh.tet_volumes()[mesh.slice_ids == s].sum()
        for s in np.unique(mesh.slice_ids)
    ]
    J = hodge.SO3_BASIS[0] + 0.5 * hodge.SO3_BASIS[2]
    x = constant_tensor_coeffs(space, J).reshape(-1)
    k = 0
    for j, vol in enumerate(vols):
        for S in hodge.SO3_BASIS:
            expected = vol * float(np.tensordot(J, S))
            assert rows[k] @ x == pytest.approx(expected, rel=1e-12, abs=1e-14)
            k += 1


# (c_direct, c_k_irrot) on the untagged meshes, computed with the one-slice
# constant skews deflated B-orthogonally: for c_direct an independent route
# to the quotient its skew rows take (c_k_irrot's Edge0^3 reference with
# those rows is in test_curl_free_coords).  Paths: c_direct has 57 (dense),
# 294, 1812 and 1968 dofs, constrained by the skew rows; c_k_irrot is the P1
# Korn pencil of each slice (one slice: the mesh), 21 and 78 (dense), 372
# and 2 x 240 dofs, the rotations deflated.
SKEW_QUOTIENT_VALUES = {
    ("unit_cube", 1): (1.7030013592650635, 1.690308509457033),
    ("unit_cube", 2): (1.9153888860113804, 1.8886770037929672),
    ("unit_cube", 4): (2.2227451765002115, 2.1934639576776593),
    ("cube_with_tunnel", 2): (4.880950377999442, 4.780098150721387),
}


@pytest.mark.parametrize("kind, n", list(SKEW_QUOTIENT_VALUES))
def test_skew_quotient_is_per_slice_rows(kind, n, monkeypatch):
    mesh = generate_primitive(kind, n).retag(0)
    nslices = len(mesh.slice_labels)
    calls = []
    real = linalg.eig_smallest

    def spy(A, B, k=1, deflation=None, constraints=None, **kw):
        calls.append((A.shape[0], k, deflation, np.shape(constraints)))
        return real(A, B, k, deflation, constraints, **kw)

    monkeypatch.setattr(linalg, "eig_smallest", spy)
    direct = cst.direct_main_constant(mesh)
    assert calls == [(direct.dim, 1, None, (3 * nslices, direct.dim))]
    calls.clear()
    irrot = cst.korn_constant_irrotational(mesh)
    # the harmonic searches (batches of 4, gradients deflated) are not pencils
    pencils = [c for c in calls if c[1] == 1]
    assert len(pencils) == nslices  # one slice-local pencil per slice
    assert sum(dim for dim, *_ in pencils) == irrot.dim
    for dim, _, deflation, shape in pencils:
        # a slice's pencil (one slice: the mesh's) is korn_constant_standard's:
        # the rotations deflated, no constraint rows
        assert deflation.shape == (dim, 3) and shape == ()
    expected_direct, expected_irrot = SKEW_QUOTIENT_VALUES[kind, n]
    assert direct.value == pytest.approx(expected_direct, rel=1e-12)
    assert irrot.value == pytest.approx(expected_irrot, rel=1e-12)


def test_rotation_invariance():
    m = generate_primitive("slab_mixed", 2)
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    theta = 0.7
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    R = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
    m2 = m.transformed(matrix=R, shift=[0.3, -1.0, 2.0])
    for fn in (cst.poincare_constant, cst.korn_constant_standard):
        assert fn(m2).value == pytest.approx(fn(m).value, rel=1e-10)
    assert cst.maxwell_constant(m2)[0].value == pytest.approx(
        cst.maxwell_constant(m)[0].value, rel=1e-10
    )
    assert cst.korn_constant_irrotational(m2).value == pytest.approx(
        cst.korn_constant_irrotational(m).value, rel=1e-10
    )
    assert cst.direct_main_constant(m2).value == pytest.approx(
        cst.direct_main_constant(m).value, rel=1e-10
    )


def test_compute_report_keys(slab2_ws):
    rep = cst.compute_report(slab2_ws.mesh, certify_samples=3, seed=0)
    for key in (
        "c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_m_grad", "c_m_coexact",
        "c_hat", "c_tilde", "c_direct", "harmonic_dim", "verdicts", "margins",
        "mesh", "tags", "tightness",
    ):
        assert key in rep
    assert rep["verdicts"]["all_true"]
    assert rep["orderings"]["korn_chain_ok"]
    assert rep["orderings"]["direct_le_derived"]
    for rec_key in ("c_p", "c_k_s", "c_direct"):
        assert rep[rec_key]["value"] == pytest.approx(
            1.0 / np.sqrt(rep[rec_key]["eigenvalue"]), rel=1e-14
        )


def test_report_weighted_fields(slab2_ws):
    rep = cst.compute_report(slab2_ws.mesh, weight=identity_coefficient(2.0))
    assert rep["c_F"] == pytest.approx(2.0)
    assert rep["c_k_F"]["value"] == pytest.approx(
        rep["c_k_irrot"]["value"] / 2.0, rel=1e-10
    )
    assert rep["c_hat_F"] == pytest.approx(
        cst.derived_bound_weighted(
            rep["c_k_F"]["value"], rep["c_m"]["value"], rep["c_F"]
        ),
        rel=1e-14,
    )


def test_report_rejects_a_bad_weight_before_any_constant(monkeypatch):
    calls = []
    real = cst.poincare_constant

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cst, "poincare_constant", spy)
    with pytest.raises(cst.NonPositiveDeterminant):
        cst.compute_report(generate_primitive("slab_mixed", 2), weight=identity_coefficient(0.0))
    assert calls == []


@pytest.mark.parametrize(
    "kind, n, tag",
    [("unit_cube", 2, None), ("unit_cube", 2, 0), ("cube_with_tunnel", 1, None)],
    ids=["unit_cube2", "unit_cube2_untagged", "tunnel1"],
)
def test_report_pencils_have_positive_definite_B(kind, n, tag, monkeypatch):
    # kernels shared by A and B are pinned, never deflated: every B has a
    # Cholesky factor, and no deflated vector lies in its kernel
    pencils = []
    real = linalg.eig_smallest

    def spy(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
        pencils.append((B, deflation))
        return real(A, B, k, deflation, constraints, tol)

    monkeypatch.setattr(linalg, "eig_smallest", spy)
    mesh = _tagged(kind, n, tag)
    cst.compute_report(mesh)
    assert len(pencils) >= 4
    # the pinned c_k_s and c_k_t pencils, which the report reads off
    # c_k_irrot on the cubes
    cst.korn_constant_standard(mesh)
    if mesh.has_gamma_t:
        cst.korn_constant_tangential(mesh)
    for B, deflation in pencils:
        B = sp.csr_matrix(B)
        np.linalg.cholesky(B.toarray())
        if deflation is not None:
            D = sp.csc_matrix(deflation)
            D = D if D.shape[0] == B.shape[0] else D.T
            assert np.all(spla.norm(B @ D, axis=0) > 1e-8 * spla.norm(D, axis=0))
