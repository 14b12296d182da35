"""Curl-free tensors through their potentials.

The curl-free part of every tensor split is R = W y, W the curl-free basis
that the harmonic basis holds (HarmonicBasis.curl_free_basis): certification reads |R|, |sym R| and |Curl R|
off the reduced forms in the coordinates y that the split hands back, and
without a tag-1 part it subtracts the constant skews in those coordinates.
A slice of a sliced mesh is simply connected (b1 = boundary components -
chi, checked) with a free boundary, so its c_k_irrot pencil is the P1
vector Korn pencil of the slice; so is the pencil of a mesh without
harmonic fields, its curl-free tensors being gradients.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from kornlab import constants as cst
from kornlab import hodge, linalg, meshes
from kornlab.assemble import assemble
from kornlab.meshes import Mesh, generate_primitive
from kornlab.spaces import TensorField

from helpers import constant_tensor_coeffs, mass_sq, three_patches, two_plates

MESHES = {
    "slab_mixed": lambda: generate_primitive("slab_mixed", 2),
    "unit_cube_untagged": lambda: generate_primitive("unit_cube", 2).retag(0),
    "tunnel": lambda: generate_primitive("cube_with_tunnel", 2),
}


@pytest.fixture(scope="module")
def workspaces():
    out = {}
    for label, make in MESHES.items():
        ws = cst.Workspace(make())
        for name in ("c_m", "c_k_irrot"):
            ws.constant(name)
        out[label] = ws
    return out


def _ring_with_one_tet_split_off():
    m = generate_primitive("cube_with_tunnel", 1).retag(0)
    ids = np.zeros(m.num_tets, dtype=np.int64)
    ids[0] = 1
    return Mesh(m.vertices, m.tets, ids, m.btris, m.btri_tags)


def test_ring_slice_is_refused_by_its_betti_number():
    ring = _ring_with_one_tet_split_off()
    subs = [ring.submesh(ring.slice_ids == s) for s in ring.slice_labels]
    assert [meshes.betti1(sub) for sub in subs] == [1, 0]
    with pytest.raises(ValueError, match=r"slice 0 .*b1 = 1"):
        cst.korn_constant_irrotational(ring)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tunnel_slices_are_simply_connected(n):
    mesh = generate_primitive("cube_with_tunnel", n)
    assert len(mesh.slice_labels) > 1
    for s in mesh.slice_labels:
        assert meshes.betti1(mesh.submesh(mesh.slice_ids == s)) == 0


def test_sliced_c_k_irrot_solves_the_slice_korn_pencils(monkeypatch):
    mesh = generate_primitive("cube_with_tunnel", 2)
    ws = cst.Workspace(mesh)
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in ((hodge, "harmonic_basis"), (hodge, "edge_operators"),
                         (cst, "tensor_pencil"), (cst, "korn_constant_standard")):
        spy(module, name)
    rec = ws.constant("c_k_irrot")
    # no slice builds edge operators, a harmonic search or a tensor pencil
    assert calls == ["korn_constant_standard"] * len(mesh.slice_labels)
    subs = [mesh.submesh(mesh.slice_ids == s) for s in mesh.slice_labels]
    assert rec.dim == sum(3 * (sub.num_vertices - 1) for sub in subs)
    assert rec.vector is None


def _edge_pencil(mesh):
    """(constant, dim) of the Edge0^3 curl-free pencil W^T Sym W, W^T M W of
    a mesh without harmonic fields, solved here: without a tag-1 part the
    constant skews are removed by their moment rows, carried to the
    coordinates of W."""
    h = hodge.harmonic_basis(mesh)
    assert h.dim == 0
    forms = cst.curl_free_forms(h, cst.tensor_pencil(h.ops))
    W = forms.basis
    rows = None if mesh.has_gamma_t else cst._slice_skew_constraints(h.space) @ W
    eig = linalg.eig_smallest(forms.sym, forms.mass, k=1, constraints=rows)
    return 1.0 / np.sqrt(eig.values[0]), W.shape[1]


GRADIENT_MESHES = {
    "unit_cube2": ("unit_cube", 2, None),
    "unit_cube2_untagged": ("unit_cube", 2, 0),
    "unit_cube4": ("unit_cube", 4, None),
    "unit_cube4_untagged": ("unit_cube", 4, 0),
    "slab_mixed2": ("slab_mixed", 2, None),
    "tunnel2_sliced": ("cube_with_tunnel", 2, None),
}


@pytest.mark.parametrize("kind, n, tag", list(GRADIENT_MESHES.values()),
                         ids=list(GRADIENT_MESHES))
def test_c_k_irrot_on_gradients_matches_the_edge_pencil(kind, n, tag):
    # where the curl-free tensors are gradients (no harmonic fields, or a
    # slice) c_k_irrot solves the P1 Korn pencil; the Edge0^3 pencil of
    # the same tensors is the independent reference, slice by slice
    mesh = generate_primitive(kind, n)
    mesh = mesh if tag is None else mesh.retag(tag)
    ws = cst.Workspace(mesh)
    rec = ws.constant("c_k_irrot")
    if ws.case == "sliced":
        subs = [mesh.submesh(mesh.slice_ids == s) for s in mesh.slice_labels]
    else:
        subs = [mesh]
    refs = [_edge_pencil(sub) for sub in subs]
    assert rec.value == pytest.approx(max(v for v, _ in refs), rel=1e-12)
    assert rec.dim == sum(dim for _, dim in refs)
    if ws.case != "sliced":
        # the pair lifted to Edge0^3, W y, is admissible with the curl-free quotient
        v = ws.harmonics.curl_free_basis @ rec.vector
        quotient = ws.pencil.strain.norm(v)**2 / mass_sq(ws.ops, v)
        assert quotient == pytest.approx(rec.eigenvalue, rel=1e-12)
        if not mesh.has_gamma_t:
            rows = cst._slice_skew_constraints(ws.ops.edge_space)
            assert np.abs(rows @ v).max() <= 1e-12 * np.sqrt(mass_sq(ws.ops, v))


def test_standalone_c_k_irrot_builds_no_edge_operators(monkeypatch):
    # untagged: the P1 Korn pencil alone, its pair left in the kept P1 dofs
    calls = []
    real = hodge.edge_operators
    monkeypatch.setattr(hodge, "edge_operators", lambda mesh: calls.append(mesh) or real(mesh))
    mesh = generate_primitive("unit_cube", 3).retag(0)
    rec = cst.korn_constant_irrotational(mesh)
    assert calls == []
    assert rec.vector.shape == (3 * (mesh.num_vertices - 1),)


def _disk_tunnel(n):
    """cube_with_tunnel with the tag-1 part a disk: the z = 0 cells at x < 1, y < 1."""
    m = generate_primitive("cube_with_tunnel", n)
    c = m.vertices[m.btris].mean(axis=1)
    return m.retag((np.isclose(c[:, 2], 0) & (c[:, 0] < 1) & (c[:, 1] < 1)).astype(np.int64))


@pytest.mark.parametrize("make", [lambda: two_plates(2), lambda: two_plates(3),
                                  lambda: three_patches(4)],
                         ids=["two_plates2", "two_plates3", "three_patches4"])
def test_c_k_irrot_equals_c_k_t_where_every_harmonic_field_is_a_gradient(make):
    # a simply connected domain whose tag-1 part has k components: its k - 1
    # harmonic fields are gradients of functions constant per component, so
    # the curl-free tensors are grad v with v constant per component and the
    # Edge0^3 pencil of c_k_irrot has the constant of the P1 c_k_t pencil
    mesh = make()
    ws = cst.Workspace(mesh)
    components = meshes.boundary_components(mesh, meshes.GAMMA_T)[1]
    assert ws.harmonics.dim == components - 1 > 0
    irrot, tangential = ws.constant("c_k_irrot"), ws.constant("c_k_t")
    assert irrot.note is None and tangential.note == "constants quotiented"
    assert irrot.value == pytest.approx(tangential.value, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_c_k_irrot_exceeds_c_k_t_around_a_tunnel(n):
    # the harmonic field looping around the tunnel is no gradient: the
    # curl-free tensors are more than the gradients of c_k_t's fields
    # (6.5744 vs 5.9739 at n=1, 9.3933 vs 8.9933 at n=2)
    ws = cst.Workspace(_disk_tunnel(n))
    assert ws.harmonics.dim == 1
    assert ws.constant("c_k_irrot").value > 1.04 * ws.constant("c_k_t").value


@pytest.mark.parametrize("make", [lambda: generate_primitive("cube_with_tunnel", 2),
                                  lambda: two_plates(2)], ids=["tunnel2", "two_plates2"])
def test_curl_free_forms_reduce_through_the_strain_half(make, monkeypatch):
    # neither the full strain form nor a row-blocked Edge0 matrix is built,
    # for the forms or for C W; the forms equal W^T Sym W and the
    # row-blocked M W, entry by entry within rounding of the largest entry
    ws = cst.Workspace(make())
    built = []
    full, row_blocked = cst._HalfForm.full, cst._row_blocked
    monkeypatch.setattr(cst._HalfForm, "full",
                        lambda self: built.append("full") or full(self))
    monkeypatch.setattr(cst, "_row_blocked",
                        lambda form: built.append("_row_blocked") or row_blocked(form))
    cf, CW = ws.curl_free, ws.curl_free_curl
    assert built == []
    W = cf.basis
    # C W, formed row block by row block, is the row-blocked product bit for bit
    assert CW.nnz == (row_blocked(ws.ops.curl) @ W).nnz
    assert (CW != row_blocked(ws.ops.curl) @ W).nnz == 0
    MW = row_blocked(ws.ops.mass) @ W
    refs = {"sym": W.T @ (full(ws.pencil.strain) @ W), "mass": W.T @ MW, "mass_image": MW}
    for name, ref in refs.items():
        form = getattr(cf, name)
        assert form.shape == ref.shape
        assert abs(form - ref).max() <= 1e-13 * abs(ref).max(), name


def test_curl_free_forms_peak_memory():
    # tunnel n=4: the strain half is 3.2 MB; the bound separates a build
    # through the half and the Edge0 mass (a peak of 1.8 times it) from one
    # through the full strain form and the row-blocked mass (4.5 times)
    ws = cst.Workspace(generate_primitive("cube_with_tunnel", 4))
    half = ws.pencil.strain
    half_bytes = half.diag.nbytes + sum(a.nbytes for a in (half.upper.data, half.upper.indices,
                                                           half.upper.indptr))
    tracemalloc.start()
    try:
        ws.curl_free
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * half_bytes


@pytest.mark.parametrize("label", list(MESHES))
def test_reduced_forms_match_edge_products(workspaces, label):
    ws = workspaces[label]
    cf = ws.curl_free
    # Edge0^3 references, assembled here: the reduced forms never build them
    M = sp.block_diag([ws.ops.mass] * 3, format="csr")
    Asym = assemble("tensor_sym", ws.ops.edge_space)
    for seed in range(3):
        T = ws.random_tensor(np.random.default_rng(seed))
        split = hodge.helmholtz_split_tensor(T, harmonics=ws.harmonics)
        G, H, S = split.parts()
        r, s, y = G.stacked() + H.stacked(), S.stacked(), split.coords
        scale = float(T.stacked() @ (M @ T.stacked()))
        assert np.abs(cf.basis @ y - r).max() <= 1e-14 * np.abs(r).max()
        # the orthogonality link holds |<R, S>| / |T|^2, the coexact one |S|
        links = cst.certify_main_inequality(T, ws).links
        for reduced, edge in ((y @ (cf.mass @ y), r @ (M @ r)),
                              (y @ (cf.sym @ y), r @ (Asym @ r)),
                              (links["orthogonality"]["lhs"] * scale, abs(r @ (M @ s))),
                              (links["coexact_estimate"]["lhs"]**2, s @ (M @ s)),
                              (ws.pencil.strain.norm(T.stacked())**2,
                               T.stacked() @ (Asym @ T.stacked()))):
            assert abs(reduced - edge) <= 1e-13 * scale
        curl_R = np.concatenate([ws.ops.curl @ row for row in r.reshape(3, -1)])
        assert np.abs(ws.curl_free_curl @ y - curl_R).max() <= 1e-13 * np.sqrt(scale)


@pytest.mark.parametrize("label", ["unit_cube_untagged", "tunnel"])
def test_skew_fields_are_the_constant_skews(workspaces, label):
    ws = workspaces[label]
    Y, fields, images = ws.skew_fields
    e0 = ws.ops.edge_space
    for l, S in enumerate(hodge.SO3_BASIS):
        const = constant_tensor_coeffs(e0, S)
        assert np.abs(fields[l] - const.reshape(-1)).max() <= 1e-13
        image = np.concatenate([ws.ops.mass @ row for row in const])
        assert np.abs(images[l] - image).max() <= 1e-13


@pytest.mark.parametrize("label", ["unit_cube_untagged", "tunnel"])
@pytest.mark.parametrize("noise", [1e-12, 1e-10])
def test_constant_skew_with_noise_certifies(workspaces, label, noise):
    # |X|^2 - 2 <X, S> + |S|^2 and t^T Asym t cancelled here; the global
    # skew is now subtracted in the curl-free coordinates first
    ws = workspaces[label]
    e0 = ws.ops.edge_space
    skew = hodge.SO3_BASIS[0] + 0.3 * hodge.SO3_BASIS[2]
    rng = np.random.default_rng(5)
    rows = constant_tensor_coeffs(e0, skew)
    rows = rows + noise * rng.standard_normal(rows.shape)
    cert = cst.certify_main_inequality(TensorField(e0, rows), ws)
    assert cert.case == ("sliced" if label == "tunnel" else "simply_connected")
    assert cert.verdict, {k: cert.links[k]["margin"] for k in cert.failed}
    shift = cert.skew_shift if cert.case == "simply_connected" else cert.skew_shift[0]
    assert np.abs(shift - skew).max() <= 1e-9
