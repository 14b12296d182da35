"""Every constant is a property of the domain, not of its description.

Renumbering the vertices, the cells and the boundary triangles of a mesh
changes which vertex is pinned, the order of every dof and of every
assembly sum, and leaves each constant unchanged: a property over
permutations drawn by hypothesis, on the dense and the sparse solver
path alike.  Scaling the mesh by s scales the Poincare and Maxwell
constants by s and leaves the Korn constants and the harmonic dimension
alone: at fixed scales, and as a property over s drawn log-uniformly from
[1e-4, 1e4] on both solver paths.  c_direct mixes the two length scales:
its pencil on the scaled mesh weights the curl-curl form by s^-2, so it is
checked against references of the scaled pencil instead, at fixed scales
and as the same property.  A rigid motion (an orthogonal map, with or
without a reflection, and a shift) moves no constant: a property over
maps drawn by hypothesis, on both solver paths.
"""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from kornlab import constants as cst
from kornlab import hodge, linalg
from kornlab.assemble import evaluate_norms
from kornlab.meshes import Mesh, generate_primitive
from kornlab.spaces import TensorField

NAMES = ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_m_grad", "c_m_coexact")
SCALED = ("c_p", "c_m", "c_m_grad", "c_m_coexact")  # the others are invariant
MESHES = {
    "unit_cube3": ("unit_cube", 3, None),
    "unit_cube3_untagged": ("unit_cube", 3, 0),
    "slab_mixed3": ("slab_mixed", 3, None),
    "tunnel2_tagged": ("cube_with_tunnel", 2, 1),
    "tunnel2_untagged": ("cube_with_tunnel", 2, 0),
}
# DENSE_CROSSOVER routes every pencil through dense LAPACK at the first
# value and every pencil above 16 dofs through shift-invert ARPACK at the
# second, as in test_sparse_parity
PATHS = {"dense": 10**9, "sparse": 16}


def _mesh(label):
    kind, n, tag = {**MESHES, **SCALE_MESHES}[label]
    mesh = generate_primitive(kind, n)
    return mesh if tag is None else mesh.retag(tag)


def _constants(mesh, names):
    ws = cst.Workspace(mesh)
    return {name: ws.constant(name).value for name in names
            if name != "c_k_t" or mesh.has_gamma_t}


@pytest.fixture(scope="module")
def reference():
    cache = {}

    def get(label):
        if label not in cache:
            cache[label] = _constants(_mesh(label), NAMES + ("c_direct",))
        return cache[label]

    return get


def _renumbered(mesh, vertices, cells, tris):
    """The same mesh with its vertices, cells and boundary triangles in the
    given orders: new vertex i is old vertices[i], and so on."""
    perm = np.asarray(vertices)
    new_of_old = np.empty_like(perm)
    new_of_old[perm] = np.arange(len(perm))
    cells, tris = np.asarray(cells), np.asarray(tris)
    return Mesh(mesh.vertices[perm], new_of_old[mesh.tets][cells], mesh.slice_ids[cells],
                new_of_old[mesh.btris][tris], mesh.btri_tags[tris])


@pytest.mark.parametrize("label", list(MESHES))
@given(data=st.data())
def test_constants_invariant_under_renumbering(label, reference, data):
    ref = reference(label)
    mesh = _mesh(label)
    mesh = _renumbered(mesh, *(data.draw(st.permutations(range(size)), label=what)
                               for what, size in (("vertices", mesh.num_vertices),
                                                  ("cells", mesh.num_tets),
                                                  ("tris", len(mesh.btris)))))
    for path, crossover in PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "DENSE_CROSSOVER", crossover)
            got = _constants(mesh, NAMES + ("c_direct",))
        assert got.keys() == ref.keys()
        for name, value in got.items():
            assert value == pytest.approx(ref[name], rel=1e-12), (path, name)


@pytest.mark.parametrize("label", list(MESHES))
@pytest.mark.parametrize("s", [1e-4, 1e-2, 1e2, 1e4])
def test_constants_scale_with_the_mesh(label, s, reference):
    ref = reference(label)
    got = _constants(_mesh(label).transformed(matrix=s * np.eye(3)), NAMES)
    for name, value in got.items():
        expected = ref[name] * (s if name in SCALED else 1.0)
        assert value == pytest.approx(expected, rel=1e-12), name


SCALE_MESHES = {
    "unit_cube2": ("unit_cube", 2, None),
    "unit_cube2_untagged": ("unit_cube", 2, 0),
    "tunnel2_sliced": ("cube_with_tunnel", 2, None),
}


@pytest.fixture(scope="module")
def unscaled():
    cache = {}

    def get(label, path):
        if (label, path) not in cache:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linalg, "DENSE_CROSSOVER", PATHS[path])
                ws = cst.Workspace(_mesh(label))
                cache[label, path] = (_constants(ws.mesh, NAMES), ws.harmonics.dim)
        return cache[label, path]

    return get


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("label", list(SCALE_MESHES))
@settings(max_examples=5)
@given(exponent=st.floats(-4.0, 4.0))
@example(exponent=-4.0)
@example(exponent=4.0)
def test_constants_scale_as_a_property(label, path, unscaled, exponent):
    # s log-uniform in [1e-4, 1e4]: c_p and the Maxwell constants scale by s,
    # the Korn constants stay put, and so does the harmonic dimension
    s = 10.0**exponent
    ref, dim = unscaled(label, path)
    mesh = _mesh(label).transformed(matrix=s * np.eye(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_CROSSOVER", PATHS[path])
        ws = cst.Workspace(mesh)
        got = _constants(mesh, NAMES)
        assert ws.harmonics.dim == dim
    assert got.keys() == ref.keys()
    for name, value in got.items():
        expected = ref[name] * (s if name in SCALED else 1.0)
        assert value == pytest.approx(expected, rel=1e-10), (s, name)


@pytest.mark.parametrize("label", ["unit_cube3", "unit_cube3_untagged", "tunnel2_sliced"])
@given(rotvec=st.tuples(*[st.floats(-np.pi, np.pi)] * 3), reflect=st.booleans(),
       shift=st.tuples(*[st.floats(-100.0, 100.0)] * 3))
@example(rotvec=(0.3, -1.2, 2.0), reflect=True, shift=(5.0, -3.0, 100.0))
def test_constants_invariant_under_rigid_motions(label, reference, rotvec, reflect, shift):
    # x -> Q x + shift with Q a rotation, times a reflection when reflect
    Q = Rotation.from_rotvec(rotvec).as_matrix() @ np.diag([1.0, 1.0, -1.0 if reflect else 1.0])
    mesh = _mesh(label).transformed(matrix=Q, shift=shift)
    for path, crossover in PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "DENSE_CROSSOVER", crossover)
            got = _constants(mesh, NAMES + ("c_direct",))
        assert got.keys() == reference(label).keys()
        for name, value in got.items():
            assert value == pytest.approx(reference(label)[name], rel=1e-12), (path, name)


# c_direct of the tagged unit_cube n=2 scaled by s: mpmath at 40 digits, with
# the curl-curl form C^T M_f C of the integer curl_map
DIRECT_REFERENCES = {1.0: 1.343285097376533, 1e-2: 1.34164095123841, 1e-3: 1.341640788147259}


@pytest.mark.parametrize("s", list(DIRECT_REFERENCES))
def test_c_direct_on_a_scaled_mesh(s):
    # s^-2 CC dwarfs Sym at small s; the quotient reads the curl through
    # the incidence, so the formed pencil's rounding does not reach c_direct
    mesh = generate_primitive("unit_cube", 2).transformed(matrix=s * np.eye(3))
    value = cst.Workspace(mesh).constant("c_direct").value
    assert value == pytest.approx(DIRECT_REFERENCES[s], rel=1e-10)


def test_c_direct_below_the_resolved_scale_raises():
    # at s = 1e-4 the returned vector itself is off: the residual gate names it
    mesh = generate_primitive("unit_cube", 2).transformed(matrix=1e-4 * np.eye(3))
    with pytest.raises(linalg.SolverError, match="residual"):
        cst.Workspace(mesh).constant("c_direct")


def _diameter_clause(s):
    """The clause c_direct's errors end with on unit_cube scaled by s."""
    return f" (mesh diameter {s * np.sqrt(3.0):.3e})"


@pytest.mark.parametrize("how", ["standalone", "workspace"])
@pytest.mark.parametrize("s", [1e-4, 1e-5])
def test_c_direct_errors_name_the_mesh_diameter(s, how):
    # below the resolved scale the residual gate (s = 1e-4, and s = 1e-5
    # alone) or the curl-free bound (s = 1e-5 through a Workspace) raises,
    # and the error says how small the mesh is
    mesh = generate_primitive("unit_cube", 2).transformed(matrix=s * np.eye(3))
    with pytest.raises(linalg.SolverError) as info:
        if how == "standalone":
            cst.direct_main_constant(mesh)
        else:
            cst.Workspace(mesh).constant("c_direct")
    text = str(info.value)
    assert text.startswith("c_direct: ") and text.endswith(_diameter_clause(s)), text
    assert "residual" in text or "missed the smallest pair" in text, text


def test_c_direct_lower_bound_error_names_the_mesh_diameter():
    # a bracket above the smallest eigenvalue (about 0.556) breaks the main
    # estimate's check
    mesh = generate_primitive("unit_cube", 2).transformed(matrix=1e-2 * np.eye(3))
    with pytest.raises(linalg.SolverError, match="lies below the lower bound") as info:
        cst.direct_main_constant(mesh, bracket=(2.0, None))
    assert str(info.value).endswith(_diameter_clause(1e-2))


@pytest.fixture(scope="module")
def direct_reference():
    """s -> c_direct of the tagged unit_cube n=2 scaled by s, from the unscaled
    pencil (Sym + s^-2 CC, M) solved densely.  Its eigenvalue is read as the
    factored quotient (|sym x|^2 + s^-2 |Curl x|^2) / |x|^2_M of its vector,
    the curl summed per cell: the formed pencil's own eigenvalue loses the
    curl-free part of x to rounding (3e-8 off at s = 1e-3)."""
    ops = hodge.edge_operators(generate_primitive("unit_cube", 2))
    pencil = cst.tensor_pencil(ops)
    Sym = pencil.strain.full().toarray()
    CC, M = (sp.block_diag([form] * 3).toarray() for form in (ops.curlcurl, ops.mass))

    def get(s):
        x = sla.eigh(Sym + s**-2.0 * CC, M, subset_by_index=[0, 0])[1][:, 0]
        curl_sq = evaluate_norms(TensorField(ops.edge_space, x.reshape(3, -1)), ("curl",))["curl"]
        return 1.0 / np.sqrt((pencil.strain.norm(x)**2 + s**-2.0 * curl_sq) / (x @ M @ x))

    return get


@pytest.mark.parametrize("path", list(PATHS))
@settings(max_examples=5)
@given(exponent=st.floats(-4.0, 4.0))
@example(exponent=-4.0)
@example(exponent=4.0)
def test_c_direct_scales_as_a_property(path, direct_reference, exponent):
    # s log-uniform in [1e-4, 1e4]: the Workspace's c_direct on the scaled
    # mesh is the scaled pencil's, or the residual gate names a vector that
    # rounding has spoiled, and the mesh diameter
    s = 10.0**exponent
    mesh = generate_primitive("unit_cube", 2).transformed(matrix=s * np.eye(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_CROSSOVER", PATHS[path])
        try:
            value = cst.Workspace(mesh).constant("c_direct").value
        except linalg.SolverError as exc:
            assert str(exc).endswith(_diameter_clause(s)), exc
            return
    assert value == pytest.approx(direct_reference(s), rel=1e-10), s
