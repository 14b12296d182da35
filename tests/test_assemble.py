import gc
import importlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from kornlab import hodge
from kornlab.assemble import (
    MatrixCoefficient,
    assemble,
    evaluate_norms,
    identity_coefficient,
)
from kornlab.constants import Workspace, tensor_pencil
from kornlab.meshes import generate_primitive
from kornlab.quadrature import barycentric, tet_rule
from kornlab.spaces import Field, SpaceError, TensorField, build_space, interpolate

from helpers import constant_tensor_coeffs, direct_pencil


@pytest.fixture(scope="module")
def cube2():
    return generate_primitive("unit_cube", 2)


def _operators_for(edge_space):
    """hodge.EdgeOperators of any Edge0 space, the unconstrained one too;
    hodge.edge_operators builds them for the constrained space only."""
    p1 = build_space(edge_space.mesh, "P1_scalar", "gamma_t")
    faces = build_space(edge_space.mesh, "Face0")
    return hodge.EdgeOperators(edge_space, p1, assemble("mass", edge_space),
                               assemble("mixed_grad", p1, edge_space),
                               assemble("curl_map", edge_space, faces), assemble("mass", faces))


def test_complex_identities(cube2):
    p1 = build_space(cube2, "P1_scalar")
    e0 = build_space(cube2, "Edge0")
    f0 = build_space(cube2, "Face0")
    G = assemble("mixed_grad", p1, e0)
    C = assemble("curl_map", e0, f0)
    assert (abs(C @ G)).max() == 0.0


def test_complex_identities_constrained(cube2):
    p1 = build_space(cube2, "P1_scalar", "gamma_t")
    e0 = build_space(cube2, "Edge0", "gamma_t")
    f0 = build_space(cube2, "Face0")
    G = assemble("mixed_grad", p1, e0)
    C = assemble("curl_map", e0, f0)
    assert (abs(C @ G)).max() == 0.0


def test_symgrad_vs_grad_random_vectors(cube2):
    pv = build_space(cube2, "P1_vector", "gamma_t")
    Ms = assemble("symgrad", pv)
    Mg = assemble("grad", pv)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(pv.free_count)
        assert x @ (Mg @ x) <= 2.0 * x @ (Ms @ x) * (1 + 1e-12)


def test_dirichlet_matrix_identity(cube2):
    # full Dirichlet: sym form = (grad form + div form) / 2 entrywise; the
    # div-div and curl-curl forms of P1 vectors are the test-local ones
    pv = build_space(cube2, "P1_vector", "gamma_t")
    Ms = assemble("symgrad", pv)
    Mg = assemble("grad", pv)
    Md = _ref_assemble("divdiv", pv)
    Mc = _ref_assemble("curlcurl", pv)
    assert abs((Ms - 0.5 * (Mg + Md)).toarray()).max() < 1e-14
    assert abs((Ms - 0.5 * Mc - Md).toarray()).max() < 1e-14


def test_forms_symmetric_to_the_bit(cube2):
    e0 = build_space(cube2, "Edge0")
    for A in (assemble("mass", e0), _operators_for(e0).curlcurl):
        assert (A - A.T).nnz == 0
    pv = build_space(cube2, "P1_vector")
    for form in ("mass", "grad", "symgrad"):
        A = assemble(form, pv)
        assert (A - A.T).nnz == 0
    T = assemble("tensor_sym", e0)
    assert (T - T.T).nnz == 0
    A = assemble("tensor_symF", e0, coeff=_affine_coefficient())
    assert (A - A.T).nnz == 0


def test_edge_curl_matches_face_interpolant(cube2):
    # curl of an edge field is exactly the face interpolant with the
    # incidence coefficients; the flux of e_z through a face is 1/2 n2 . e_z,
    # n2 = 2 |face| n the normal of its ascending vertex triple
    e0 = build_space(cube2, "Edge0")
    f0 = build_space(cube2, "Face0")
    C = assemble("curl_map", e0, f0)
    Mf = assemble("mass", f0)
    v = interpolate(
        lambda x: np.column_stack([x[:, 1] * 0, x[:, 0], x[:, 2] * 0]), e0
    )
    tri = cube2.vertices[cube2.faces]
    n2 = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flux = f0.free_from_full(0.5 * n2[:, 2])
    cv = C @ v.coeffs
    assert np.allclose(cv, flux, atol=1e-13)
    assert float(cv @ (Mf @ cv)) == pytest.approx(1.0, rel=1e-13)


def test_evaluate_norms_linear_field(cube2):
    # x -> x is exact in P1: |x|^2 = 1, grad = I, div = 3, curl = 0
    v = interpolate(lambda x: x, build_space(cube2, "P1_vector"))
    norms = evaluate_norms(v, ["L2", "grad", "div", "sym", "curl", ("dev_alpha", 1.0 / 3.0)])
    assert norms["L2"] == pytest.approx(1.0, rel=1e-13)
    assert norms["grad"] == pytest.approx(3.0, rel=1e-13)
    assert norms["div"] == pytest.approx(9.0, rel=1e-13)
    assert norms["sym"] == pytest.approx(3.0, rel=1e-13)
    assert norms["curl"] == pytest.approx(0.0, abs=1e-13)
    assert norms["dev_alpha(0.333333)"] == pytest.approx(0.0, abs=1e-13)


def test_evaluate_norms_constant_field(cube2):
    v = interpolate(lambda x: np.tile([2.0, -1.0, 0.5], (len(x), 1)),
                    build_space(cube2, "P1_vector"))
    norms = evaluate_norms(v, ["L2", "grad", "sym", "curl", "div"])
    assert norms["L2"] == pytest.approx(5.25, rel=1e-13)
    for k in ("grad", "sym", "curl", "div"):
        assert norms[k] == pytest.approx(0.0, abs=1e-14)


def test_evaluate_norms_takes_fields_only(cube2):
    # an analytic evaluator is refused: every norm is of a lowest-order field
    class Analytic:
        mesh, degree = cube2, 1

        def value(self, pts):
            return pts

    with pytest.raises(TypeError, match="Analytic"):
        evaluate_norms(Analytic(), ["L2"])


def test_evaluate_norms_undefined_norm(cube2):
    p1 = build_space(cube2, "P1_scalar")
    f = Field(p1, np.ones(p1.free_count))
    with pytest.raises(ValueError):
        evaluate_norms(f, ["curl"])


def test_discrete_norms_match_matrices(cube2):
    e0 = build_space(cube2, "Edge0")
    rng = np.random.default_rng(2)
    v = Field(e0, rng.standard_normal(e0.free_count))
    M = assemble("mass", e0)
    K = _operators_for(e0).curlcurl  # C^T M_f C against the per-cell curls
    norms = evaluate_norms(v, ["L2", "curl"])
    assert norms["L2"] == pytest.approx(float(v.coeffs @ (M @ v.coeffs)), rel=1e-12)
    assert norms["curl"] == pytest.approx(float(v.coeffs @ (K @ v.coeffs)), rel=1e-12)


def test_tensor_forms_match_rowwise(cube2):
    e0 = build_space(cube2, "Edge0")
    rng = np.random.default_rng(3)
    T = TensorField(e0, rng.standard_normal((3, e0.free_count)))
    pencil = tensor_pencil(_operators_for(e0))
    A, Mt, _ = direct_pencil(cube2, pencil)  # c_direct's Sym + CC and mass
    M = assemble("mass", e0)
    K = pencil.ops.curlcurl
    x = T.stacked()
    curl_sq = float(x @ (A @ x)) - pencil.strain.norm(x)**2
    assert float(x @ (Mt @ x)) == pytest.approx(
        sum(float(r @ (M @ r)) for r in T.rows), rel=1e-13
    )
    assert curl_sq == pytest.approx(sum(float(r @ (K @ r)) for r in T.rows), rel=1e-13)
    # sym + skew decomposition: |T|^2 = |sym T|^2 + |skew T|^2 pointwise,
    # so the sym form is dominated by the mass form
    St = assemble("tensor_sym", e0)
    assert float(x @ (St @ x)) <= float(x @ (Mt @ x)) * (1 + 1e-12)
    norms = evaluate_norms(T, ["L2", "sym", "curl"])
    assert norms["sym"] == pytest.approx(float(x @ (St @ x)), rel=1e-11)
    assert norms["curl"] == pytest.approx(curl_sq, rel=1e-12)
    # a curl-only request forms no point values and sums the same curls
    assert evaluate_norms(T, ["curl"]) == {"curl": norms["curl"]}


def test_tensor_sym_constant_skew_annihilated(cube2):
    from kornlab.hodge import SO3_BASIS

    e0 = build_space(cube2, "Edge0")
    St = assemble("tensor_sym", e0)
    for S in SO3_BASIS:
        x = constant_tensor_coeffs(e0, S).reshape(-1)
        assert abs(float(x @ (St @ x))) < 1e-13


def test_symF_scaling(cube2):
    e0 = build_space(cube2, "Edge0")
    A = assemble("tensor_sym", e0)
    B = assemble("tensor_symF", e0, coeff=identity_coefficient(2.0))
    assert abs((4.0 * A - B).toarray()).max() < 1e-12


def test_coefficient_degree_is_checked_at_construction():
    # a coefficient without an integer degree >= 0 has no exact rule
    def evaluator(pts):
        return np.broadcast_to(np.eye(3), (len(pts), 3, 3))

    for degree in (None, -1, 1.5, True):
        with pytest.raises(ValueError, match=f"got {degree!r}$"):
            MatrixCoefficient(evaluator, degree=degree)
    assert MatrixCoefficient(evaluator, degree=np.int64(2)).degree == 2


@pytest.mark.parametrize("error, name, call", [
    pytest.param(ValueError, "'divdiv'", lambda m: assemble("divdiv", build_space(m, "P1_vector")),
                 id="divdiv"),
    pytest.param(ValueError, "'div_map'",
                 lambda m: assemble("div_map", build_space(m, "Face0"), build_space(m, "Edge0")),
                 id="div_map"),
    pytest.param(ValueError, "'tensor_mass'",
                 lambda m: assemble("tensor_mass", build_space(m, "Edge0")), id="tensor_mass"),
    pytest.param(ValueError, "'tensor_curlcurl'",
                 lambda m: assemble("tensor_curlcurl", build_space(m, "Edge0")),
                 id="tensor_curlcurl"),
    pytest.param(ValueError, "'symF'", lambda m: assemble("symF", build_space(m, "P1_vector"),
                                                          coeff=identity_coefficient()),
                 id="symF"),
    # curl-curl is C^T M_f C of the edge operators, not an assembled form
    pytest.param(ValueError, "unknown form 'curlcurl'",
                 lambda m: assemble("curlcurl", build_space(m, "P1_vector")),
                 id="curlcurl_P1_vector"),
    pytest.param(ValueError, "unknown form 'curlcurl'",
                 lambda m: assemble("curlcurl", build_space(m, "Edge0")), id="curlcurl_Edge0"),
    pytest.param(SpaceError, "'P0_scalar'", lambda m: build_space(m, "P0_scalar"), id="P0_scalar"),
    pytest.param(SpaceError, "'gamma_n'", lambda m: build_space(m, "Face0", "gamma_n"),
                 id="gamma_n"),
])
def test_removed_parts_raise_named_errors(cube2, error, name, call):
    with pytest.raises(error) as info:
        call(cube2)
    assert name in str(info.value)


def test_dropped_mesh_freed_without_cyclic_collector():
    # the mesh caches its geometry, which must not point back at the mesh
    gc.disable()
    try:
        mesh = generate_primitive("cube_with_tunnel", 1)
        ws = Workspace(mesh)
        ws.constant("c_m")
        evaluate_norms(ws.random_tensor(np.random.default_rng(0)), ["sym", "curl"])
        ref = weakref.ref(mesh)
        del ws, mesh
        assert ref() is None
    finally:
        gc.enable()


asm = importlib.import_module("kornlab.assemble")  # the package exports the function too

_A = np.array([[1.0, 2.0, -0.5], [0.3, -1.0, 0.7], [1.1, 0.2, 0.4]])


def _affine_coefficient():
    """A degree-1 matrix field F(x) = I + x0 A + x1 A^T - x2 I."""
    return MatrixCoefficient(
        lambda pts: np.eye(3) + pts[:, 0, None, None] * _A
        + pts[:, 1, None, None] * _A.T - pts[:, 2, None, None] * np.eye(3),
        degree=1,
    )


def _spy_rules(monkeypatch):
    degrees = []
    real = asm.tet_rule

    def spy(degree):
        degrees.append(degree)
        return real(degree)

    monkeypatch.setattr(asm, "tet_rule", spy)
    return degrees


def test_forms_request_their_exact_rule(cube2, monkeypatch):
    degrees = _spy_rules(monkeypatch)
    ws = Workspace(cube2)
    for name in ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_direct"):
        ws.constant(name)
    assert degrees and max(degrees) == 2
    # the P1 gradients are constant per cell; a coefficient of degree d
    # raises the edge-tensor rule to 2 + 2d
    degrees.clear()
    e0 = build_space(cube2, "Edge0", "gamma_t")
    assemble("symgrad", build_space(cube2, "P1_vector", "gamma_t"))
    assemble("tensor_symF", e0, coeff=identity_coefficient())
    assemble("tensor_symF", e0, coeff=_affine_coefficient())
    assert degrees == [0, 2, 4]


def test_weighted_strain_forms_match_pointwise_reference():
    # _A is not symmetric, so a transposed F would not match
    mesh = generate_primitive("slab_mixed", 2)
    F = _affine_coefficient()
    geom = asm.geometry(mesh)
    pts, wts, lam = asm._quad(8)
    w = 6.0 * geom.vols[:, None] * wts
    Fq = F(asm._cell_points(mesh, pts).reshape(-1, 3)).reshape(*w.shape, 3, 3)
    rng = np.random.default_rng(5)
    e0 = build_space(mesh, "Edge0", "gamma_t")
    T = TensorField(e0, rng.standard_normal((3, e0.free_count)))
    X = asm._pointwise(T, geom, lam)["value"]
    ref = float(np.sum(w * np.sum(asm._sym(X @ Fq) ** 2, axis=(-2, -1))))
    A = assemble("tensor_symF", e0, coeff=F)
    x = T.stacked()
    assert float(x @ (A @ x)) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("kind, n", [("unit_cube", 2), ("cube_with_tunnel", 1)])
def test_default_rule_exact_for_polynomial_forms(kind, n):
    # against the reference scatter of the same forms at the degree-8 rule
    mesh = generate_primitive(kind, n)
    e0, f0 = build_space(mesh, "Edge0"), build_space(mesh, "Face0")
    pv = build_space(mesh, "P1_vector", "gamma_t")
    cases = [
        ("mass", e0, None),
        ("mass", f0, None),
        ("symgrad", pv, None),
        ("tensor_sym", e0, None),
        ("tensor_symF", e0, identity_coefficient(1.5)),
        ("tensor_symF", e0, _affine_coefficient()),
    ]
    for form, space, coeff in cases:
        default = assemble(form, space, coeff=coeff).toarray()
        fine = _ref_assemble(form, space, coeff=coeff, degree=8).toarray()
        assert np.abs(default - fine).max() <= 1e-13 * np.abs(fine).max(), form


# --------------------------------------------------------------------------
# the sparsity patterns against the COO scatter they replaced
# --------------------------------------------------------------------------


def _ref_local_dofs(space):
    mesh, fam = space.mesh, space.family
    if fam == "P1_vector":  # (T,12), component-major
        return np.concatenate([space.dof_map[m][mesh.tets] for m in range(3)], axis=1)
    ent = {"P1_scalar": mesh.tets, "Edge0": mesh.tet_edges, "Face0": mesh.tet_faces}[fam]
    return space.dof_map[0][ent]


def _ref_scatter(loc, rows_dofs, cols_dofs, shape, symmetrize):
    """COO -> CSR with the duplicates summed, then (A + A^T) / 2."""
    nr, nc = loc.shape[1], loc.shape[2]
    rows = np.repeat(rows_dofs[:, :, None], nc, axis=2).ravel()
    cols = np.repeat(cols_dofs[:, None, :], nr, axis=1).ravel()
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix((loc.ravel()[keep], (rows[keep], cols[keep])), shape=shape).tocsr()
    mat.sum_duplicates()
    return (mat + mat.T) * 0.5 if symmetrize else mat


def _ref_vector_block(loc4):
    out = np.zeros((len(loc4), 12, 12))
    for m in range(3):
        out[:, 4 * m:4 * m + 4, 4 * m:4 * m + 4] = loc4
    return out


def _ref_assemble(form, trial, test=None, coeff=None, degree=None):
    """The forms as full component-major local matrices through _ref_scatter;
    divdiv and curlcurl of P1 vectors are kept here for the Dirichlet
    identity.  The Edge0/Face0 mass and strain forms take the rule of
    degree when given, else the lowest exact one."""
    test = trial if test is None else test
    geom = asm.geometry(trial.mesh)
    vols, g, fam = geom.vols[:, None, None], geom.grads, trial.family
    rows, cols = _ref_local_dofs(test), _ref_local_dofs(trial)
    nr, nc = test.free_count, trial.free_count
    mass_pts, mass_wts = tet_rule(2 if degree is None else degree)
    if form in ("symgrad", "tensor_sym", "tensor_symF"):
        tensor = form.startswith("tensor")
        coeff = coeff if form == "tensor_symF" else None
        exact = (2 if tensor else 0) + (0 if coeff is None else 2 * coeff.degree)
        pts, wts = tet_rule(exact if degree is None else degree)
        h = geom.edge_values(barycentric(pts)) if tensor else np.repeat(g[:, None], len(wts), 1)
        if coeff is not None:
            x = asm._cell_points(trial.mesh, pts)
            h = np.einsum("tqdk,tqid->tqik", coeff(x.reshape(-1, 3)).reshape(*x.shape, 3), h)
        K = np.einsum("q,tqia,tqjb->tiajb", wts, h, h)
        nb = h.shape[2]
        loc = K.transpose(0, 4, 1, 2, 3).reshape(len(K), 3 * nb, 3 * nb)
        loc = 3.0 * vols * (loc + np.kron(np.eye(3), np.trace(K, axis1=2, axis2=4)))
        if tensor:
            rows, cols = (np.concatenate([np.where(d >= 0, d + m * n, -1) for m in range(3)], axis=1)
                          for d, n in ((rows, nr), (cols, nc)))
            nr, nc = 3 * nr, 3 * nc
    elif fam in ("P1_scalar", "P1_vector"):
        if form == "mass":
            loc = vols * (np.ones((4, 4)) + np.eye(4)) / 20.0
        elif form == "grad":
            loc = vols * np.einsum("tid,tjd->tij", g, g)
        elif form == "divdiv":
            loc = vols * np.einsum("tim,tjn->tminj", g, g).reshape(-1, 12, 12)
        else:  # curlcurl
            cb = np.cross(g[:, :, None, :], np.eye(3)[None, None])
            cb = np.transpose(cb, (0, 2, 1, 3)).reshape(len(g), 12, 3)
            loc = vols * np.einsum("tid,tjd->tij", cb, cb)
        if fam == "P1_vector" and form in ("mass", "grad"):
            loc = _ref_vector_block(loc)
    elif form == "mass" and fam in ("Edge0", "Face0"):
        W = (geom.edge_values if fam == "Edge0" else geom.face_values)(barycentric(mass_pts))
        loc = 6.0 * vols * np.einsum("q,tqed,tqfd->tef", mass_wts, W, W)
    else:  # Edge0 curl-curl
        c = geom.edge_curls()
        loc = vols * np.einsum("ted,tfd->tef", c, c)
    return _ref_scatter(loc, rows, cols, (nr, nc), trial is test)


def _parity_cases(mesh):
    """(form, trial, test, coeff) for every form x family assemble serves."""
    p1, p1_all = build_space(mesh, "P1_scalar", "gamma_t"), build_space(mesh, "P1_scalar")
    pv = build_space(mesh, "P1_vector", "gamma_t")
    folded = build_space(mesh, "P1_vector", "gamma_t", component_constant=True)
    e0, e0_all = build_space(mesh, "Edge0", "gamma_t"), build_space(mesh, "Edge0")
    f0 = build_space(mesh, "Face0")
    F = _affine_coefficient()
    cases = [(form, s, s, None) for form in ("mass", "grad") for s in (p1, p1_all, pv, folded)]
    cases += [("symgrad", s, s, None) for s in (pv, folded)]
    cases += [(form, s, s, None) for s in (e0, e0_all) for form in ("mass", "tensor_sym")]
    cases += [("tensor_symF", e0, e0, F), ("mass", f0, f0, None)]
    # rectangular pairs: rows from one constraint, columns from another
    cases += [("grad", p1, p1_all, None), ("symgrad", pv, folded, None),
              ("mass", e0, e0_all, None), ("tensor_sym", e0_all, e0, None)]
    return cases


_PARITY_MESHES = {
    "unit_cube": lambda: generate_primitive("unit_cube", 2),
    "unit_cube_untagged": lambda: generate_primitive("unit_cube", 2).retag(0),
    "slab_mixed": lambda: generate_primitive("slab_mixed", 2),
    "tunnel": lambda: generate_primitive("cube_with_tunnel", 2),
}


@pytest.mark.parametrize("mesh_name", sorted(_PARITY_MESHES))
def test_pattern_assembly_matches_coo_scatter(mesh_name):
    mesh = _PARITY_MESHES[mesh_name]()
    for form, trial, test, coeff in _parity_cases(mesh):
        label = (form, trial.family, trial.constrain, trial.component_constant, test is trial)
        A = assemble(form, trial, test, coeff=coeff)
        ref = _ref_assemble(form, trial, test, coeff=coeff)
        assert A.format == "csr" and A.has_canonical_format, label
        assert A.shape == ref.shape, label
        assert abs(A - ref).max() <= 1e-14 * abs(ref).max(), label
        if test is trial:
            assert (A != A.T).nnz == 0, label
    # the curl-curl form of the edge operators, C^T M_f C, against the
    # per-cell curls
    for e0 in (build_space(mesh, "Edge0", "gamma_t"), build_space(mesh, "Edge0")):
        A, ref = _operators_for(e0).curlcurl, _ref_assemble("curlcurl", e0)
        assert A.format == "csr" and A.has_canonical_format and A.shape == ref.shape
        assert abs(A - ref).max() <= 1e-14 * abs(ref).max(), e0.constrain
        assert (A != A.T).nnz == 0, e0.constrain


def test_edge_values_match_the_product_formula(cube2):
    geom = asm.geometry(cube2)
    a, b = geom.edge_loc[:, :, 0], geom.edge_loc[:, :, 1]
    ga = np.take_along_axis(geom.grads, a[:, :, None], axis=1)
    gb = np.take_along_axis(geom.grads, b[:, :, None], axis=1)
    for degree in (2, 4):
        lam = barycentric(tet_rule(degree)[0])
        la = lam[:, a.ravel()].reshape(len(lam), *a.shape)
        lb = lam[:, b.ravel()].reshape(len(lam), *b.shape)
        ref = np.transpose(la[..., None] * gb[None] - lb[..., None] * ga[None], (1, 0, 2, 3))
        W = geom.edge_values(lam)
        assert W.flags.c_contiguous
        assert np.abs(W - ref).max() <= 1e-15 * np.abs(ref).max()


def test_workspace_builds_the_edge_pattern_once(monkeypatch):
    # the Edge0 mass and the strain form share one pattern; every pattern
    # of the report is built once
    built = []
    real = asm._build_pattern

    def spy(rows, cols, shape, symmetric):
        built.append(rows.shape[1])
        return real(rows, cols, shape, symmetric)

    monkeypatch.setattr(asm, "_build_pattern", spy)
    mesh = generate_primitive("slab_mixed", 2)
    ws = Workspace(mesh)
    for name in ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_direct"):
        ws.constant(name)
    assert built.count(6) == 1  # an Edge0 table has six dofs per cell
    assert len(built) == len(mesh.__dict__["_patterns"])


def test_weighted_strain_form_peak_memory():
    # the 64-point rule on tunnel n=4: the edge basis values are 28.3 MB,
    # and edge_values alone, through per-point products and a transposed
    # copy, used to peak at 76.5 MB (2.7 times that)
    mesh = generate_primitive("cube_with_tunnel", 4)
    e0 = build_space(mesh, "Edge0", "gamma_t")
    asm.geometry(mesh)
    basis_bytes = mesh.num_tets * len(tet_rule(4)[1]) * 6 * 3 * 8
    tracemalloc.start()
    try:
        assemble("tensor_symF", e0, coeff=_affine_coefficient())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis_bytes == pytest.approx(28.3e6, rel=1e-2)
    assert peak < 2 * basis_bytes


def test_strain_form_peak_memory():
    # tunnel n=4: the (3,3,T,6,6) local array of the whole mesh is 7.96 MB;
    # formed at once, it and its transposed copy raised the peak to 22.4 MB
    # (2.8 times it); scattered 256 cells at a time, the peak is 15.3 MB:
    # the summed block data and the matrix being built
    mesh = generate_primitive("cube_with_tunnel", 4)
    e0 = build_space(mesh, "Edge0", "gamma_t")
    asm.geometry(mesh)
    asm._pattern(e0, e0)
    loc_bytes = 9 * mesh.num_tets * 6 * 6 * 8
    tracemalloc.start()
    try:
        assemble("tensor_sym", e0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loc_bytes == pytest.approx(7.96e6, rel=1e-2)
    assert peak < 2.25 * loc_bytes


def test_workspace_keeps_no_edge_tensor_matrix():
    # what a tunnel n=4 Workspace holds after c_m and c_k_irrot: 16.4 MB
    # when it kept the full strain form beside its upper half and the
    # row-blocked mass and curl-curl (9.8 MB of Edge0^3 matrices), 7.6 MB
    # with the upper half alone
    mesh = generate_primitive("cube_with_tunnel", 4)
    gc.collect()
    tracemalloc.start()
    try:
        ws = Workspace(mesh)
        ws.constant("c_m")
        ws.constant("c_k_irrot")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 10e6


@pytest.mark.parametrize("mesh_name", sorted(_PARITY_MESHES))
def test_tensor_pencil_forms_built_on_demand_match(mesh_name):
    # the pencil keeps the strain form as its upper half, which rebuilds the
    # assembled strain form; c_direct forms A = Sym + CC and B = M from it
    # and the block diagonals of the edge matrices, entry for entry
    mesh = _PARITY_MESHES[mesh_name]()
    ws = Workspace(mesh)
    for pencil in (ws.pencil, tensor_pencil(_operators_for(build_space(mesh, "Edge0")))):
        ops = pencil.ops
        sym = assemble("tensor_sym", ops.edge_space)
        A, B, _ = direct_pencil(mesh, pencil)
        pairs = [(pencil.strain.full(), sym),
                 (A, sym + sp.block_diag([ops.curlcurl] * 3)),
                 (B, sp.block_diag([ops.mass] * 3))]
        for built, ref in pairs:
            assert built.shape == ref.shape and (built != ref).nnz == 0
    for pat in mesh.__dict__["_patterns"].values():
        assert {a.dtype for a in (pat.indptr, pat.indices, pat.pos)} == {np.dtype(np.int32)}


def test_pattern_index_types_follow_their_bounds():
    # a column count with nr * nc >= 2^31 takes int64 sort keys; the pattern
    # itself stays int32 while its entries fit, and is the same pattern
    rng = np.random.default_rng(2)
    table = rng.integers(-1, 30, size=(20, 4))
    small = asm._build_pattern(table, table, (30, 30), True)
    wide = asm._build_pattern(table, table, (30, 2**27), True)
    for name in ("indptr", "indices", "pos", "tperm"):
        a, b = getattr(small, name), getattr(wide, name)
        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b), name
    assert asm._index_type(2**31 - 1) is np.int32 and asm._index_type(2**31) is np.int64

