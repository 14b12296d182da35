import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import hodge, linalg
from kornlab.assemble import MatrixCoefficient, identity_coefficient
from kornlab.meshes import generate_primitive
from kornlab.spaces import TensorField, build_space

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


def test_korn_standard_bound(cube3_ws):
    rec = cube3_ws.constant("c_k_s")
    assert rec.value <= SQRT2 * (1 + 1e-12)


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
    # 375 dofs take the sparse eigen path; the dense kernel diagnostic is
    # gated by the dense-factorization limit, not by the eigen crossover
    rec = cst.korn_constant_standard(generate_primitive("unit_cube", 4).retag(0))
    assert rec.dim > linalg.DENSE_CROSSOVER
    assert rec.note.endswith("strain kernel dim 6")


def test_korn_tangential_requires_tags():
    with pytest.raises(ValueError):
        cst.korn_constant_tangential(generate_primitive("unit_cube", 2).retag(0))


def test_korn_tangential_equals_standard_for_connected_boundary(cube3_ws):
    # one tag-1 component: fields constant on the whole boundary reduce to
    # the Dirichlet space modulo translations
    s = cube3_ws.constant("c_k_s").value
    t = cube3_ws.constant("c_k_t").value
    assert t == pytest.approx(s, rel=1e-10)


def test_korn_tangential_two_plates_exceeds_standard():
    m = generate_primitive("unit_cube", 2)
    coords = m.vertices[m.btris]
    tags = np.zeros(len(m.btris), dtype=int)
    tags[np.all(np.abs(coords[:, :, 0]) < 1e-12, axis=1)] = 1
    tags[np.all(np.abs(coords[:, :, 0] - 1) < 1e-12, axis=1)] = 1
    m = m.retag(tags)
    s = cst.korn_constant_standard(m).value
    t = cst.korn_constant_tangential(m).value
    assert t >= s * (1 - 1e-10)


def test_korn_chain_ordering(slab2_ws):
    s = slab2_ws.constant("c_k_s").value
    t = slab2_ws.constant("c_k_t").value
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


def test_direct_constant_kernel_error_without_deflation():
    m = generate_primitive("unit_cube", 2).retag(0)
    # 294 dofs: sparse eigen path, dense kernel diagnostic below DENSE_MAX
    with pytest.raises(cst.KernelError, match="kernel dimension 3;"):
        cst.direct_main_constant(m, deflate=False)


def test_direct_constant_residual_is_projected():
    # the per-slice skew-moment constraints add a Lagrange term C^T mu to
    # A x - lambda B x (8.8e-4 here on the dense path); the reported
    # residual leaves it out
    rec, _ = cst.direct_main_constant(generate_primitive("cube_with_tunnel", 2))
    assert rec.note.startswith("deflated: per-slice skew moments")
    assert rec.residual <= 1e-10


def test_direct_gradient_rows_reduce_to_korn(slab2_ws):
    # gradient tensor fields have zero curl: the Rayleigh quotient of the
    # direct pencil on them is the Korn quotient, so c_direct >= c_k_t-ish
    cd = slab2_ws.constant("c_direct").value
    ck = slab2_ws.constant("c_k_irrot").value
    assert cd >= ck * (1 - 1e-10)


def test_certify_zero_field(slab2_ws):
    T = TensorField(
        slab2_ws.pencil.space, np.zeros((3, slab2_ws.pencil.space.free_count))
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


def test_certify_random_fields(slab2_ws):
    rng = np.random.default_rng(2)
    for _ in range(10):
        cert = cst.certify_main_inequality(slab2_ws.random_tensor(rng), slab2_ws)
        assert cert.verdict, cert.failed


def _two_plate_mesh(n=2):
    m = generate_primitive("unit_cube", n)
    coords = m.vertices[m.btris]
    tags = np.zeros(len(m.btris), dtype=np.int64)
    tags[np.all(np.abs(coords[:, :, 0]) < 1e-12, axis=1)] = 1
    tags[np.all(np.abs(coords[:, :, 0] - 1) < 1e-12, axis=1)] = 1
    return m.retag(tags)


def test_certify_with_mixed_tag_harmonic_sector():
    # two opposite plates: the curl-free space gains one harmonic field
    # (relative cohomology), and the chain must still certify
    ws = cst.Workspace(_two_plate_mesh(2))
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
    mesh = slab2_ws.mesh
    ck = slab2_ws.constant("c_k_irrot").value
    cm = slab2_ws.constant("c_m").value
    rec1 = cst.korn_constant_weighted(
        mesh, identity_coefficient(), ops=slab2_ws.ops, harmonics=slab2_ws.harmonics
    )
    assert rec1.value == pytest.approx(ck, rel=1e-10)
    c_hat, _ = cst.derived_bounds(ck, cm)
    assert cst.derived_bound_weighted(rec1.value, cm, 1.0) == pytest.approx(
        c_hat, rel=1e-10
    )
    rec2 = cst.korn_constant_weighted(
        mesh, identity_coefficient(2.0), ops=slab2_ws.ops, harmonics=slab2_ws.harmonics
    )
    assert rec2.value == pytest.approx(ck / 2.0, rel=1e-10)


def test_weighted_korn_variable_coefficient():
    mesh = generate_primitive("slab_mixed", 1)

    def evaluator(p):
        out = np.broadcast_to(np.eye(3), (len(p), 3, 3)).copy()
        out[:, 0, 0] = 1.0 + 0.5 * p[:, 0]
        return out

    F = MatrixCoefficient(evaluator, degree=1)
    rec = cst.korn_constant_weighted(mesh, F)
    assert np.isfinite(rec.value) and rec.value > 0
    # dense oracle: rebuild the reduced pencil by hand
    ops = hodge.edge_operators(mesh)
    harm = hodge.harmonic_basis(mesh, ops)
    pencil = cst.tensor_pencil(mesh, ops, F)
    W, _ = cst._curlfree_basis(ops, harm)
    import scipy.linalg as sla

    A = (W.T @ (pencil.sym @ W)).toarray()
    B = (W.T @ (pencil.mass @ W)).toarray()
    lam = sla.eigh(A, B, eigvals_only=True)[0]
    assert rec.value == pytest.approx(1.0 / np.sqrt(lam), rel=1e-9)


def test_certify_weighted_chain(slab2_ws):
    rng = np.random.default_rng(4)

    def evaluator(p):
        out = np.broadcast_to(np.eye(3), (len(p), 3, 3)).copy()
        out[:, 0, 0] = 1.0 + 0.5 * p[:, 0]
        return out

    for F in (identity_coefficient(2.0), MatrixCoefficient(evaluator, degree=1)):
        for _ in range(3):
            cert = cst.certify_weighted_inequality(
                slab2_ws.random_tensor(rng), slab2_ws, F
            )
            assert cert.verdict, cert.failed
            assert "weight_norm_link" in cert.links


def test_weighted_needs_tags():
    m = generate_primitive("unit_cube", 2).retag(0)
    with pytest.raises(ValueError):
        cst.korn_constant_weighted(m, identity_coefficient())


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


def test_quadrature_refinement_leaves_constants_unchanged():
    # all integrands are polynomial: the default order is already exact
    m = generate_primitive("slab_mixed", 2)
    r1 = cst.compute_report(m)
    r2 = cst.compute_report(m, quad_order=8)
    for key in ("c_p", "c_k_s", "c_k_irrot", "c_m_coexact", "c_direct"):
        assert r2[key]["value"] == pytest.approx(r1[key]["value"], rel=1e-13)


def test_slice_skew_constraint_rows():
    mesh = generate_primitive("cube_with_tunnel", 1)
    space = build_space(mesh, "Edge0")
    rows = cst._slice_skew_constraints(space, mesh)
    assert rows.shape[0] == 2 * 3
    vols = [
        mesh.tet_volumes()[mesh.slice_ids == s].sum()
        for s in np.unique(mesh.slice_ids)
    ]
    J = hodge.SO3_BASIS[0] + 0.5 * hodge.SO3_BASIS[2]
    x = hodge.constant_tensor_coeffs(space, J).reshape(-1)
    k = 0
    for j, vol in enumerate(vols):
        for S in hodge.SO3_BASIS:
            expected = vol * float(np.tensordot(J, S))
            assert rows[k] @ x == pytest.approx(expected, rel=1e-12, abs=1e-14)
            k += 1


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
    assert cst.direct_main_constant(m2)[0].value == pytest.approx(
        cst.direct_main_constant(m)[0].value, rel=1e-10
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
