import numpy as np
import pytest

from kornlab import meshes
from kornlab.meshes import (
    IndexOutOfRange,
    InvalidMesh,
    MalformedHeader,
    NonManifoldBoundary,
    boundary_components,
    generate_primitive,
    read_mesh,
    refine_uniform,
    validate,
    write_mesh,
)


def test_unit_cube_n1_counts():
    m = generate_primitive("unit_cube", 1)
    assert m.num_vertices == 8
    assert m.num_tets == 6
    assert len(m.btris) == 12
    assert np.all(m.btri_tags == 1)
    assert len(np.unique(m.slice_ids)) == 1


def test_unit_cube_n2_surface_area():
    m = generate_primitive("unit_cube", 2)
    assert m.num_tets == 48
    tris = m.vertices[m.btris]
    areas = 0.5 * np.linalg.norm(
        np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1
    )
    assert areas[m.btri_tags == 1].sum() == pytest.approx(6.0, abs=1e-13)


@pytest.mark.parametrize(
    "kind,n,vol",
    [("unit_cube", 1, 1.0), ("unit_cube", 3, 1.0), ("slab_mixed", 2, 1.0),
     ("cube_with_tunnel", 1, 8.0), ("cube_with_tunnel", 2, 8.0)],
)
def test_primitive_volumes(kind, n, vol):
    m = generate_primitive(kind, n)
    vols = m.tet_volumes()
    assert np.all(vols > 0)
    assert vols.sum() == pytest.approx(vol, rel=1e-13)
    assert validate(m) == []


def test_slab_tags():
    m = generate_primitive("slab_mixed", 2)
    z = m.vertices[m.btris][:, :, 2]
    bottom = np.all(np.abs(z) < 1e-12, axis=1)
    assert np.array_equal(m.btri_tags == 1, bottom)


def test_tunnel_boundary_euler_characteristic():
    # oracle: chi = V - E + F computed on the generated boundary complex
    m = generate_primitive("cube_with_tunnel", 1)
    assert len(np.unique(m.slice_ids)) == 2
    tris = np.sort(m.btris, axis=1)
    verts = np.unique(tris)
    edges = np.unique(
        np.sort(tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2), axis=1), axis=0
    )
    chi = len(verts) - len(edges) + len(tris)
    assert chi == 0  # torus


def test_tunnel_slices_connected():
    m = generate_primitive("cube_with_tunnel", 2)
    assert validate(m) == []  # includes per-slice connectivity


def test_edge_count_oracle():
    # enumeration oracle: unique vertex pairs occurring in the tet list
    m = generate_primitive("unit_cube", 1)
    pairs = set()
    for t in m.tets:
        for i in range(4):
            for j in range(i + 1, 4):
                pairs.add((min(t[i], t[j]), max(t[i], t[j])))
    assert m.num_edges == len(pairs) == 19
    assert np.all(m.edges[:, 0] < m.edges[:, 1])


def test_roundtrip(tmp_path):
    m = generate_primitive("cube_with_tunnel", 1)
    path = tmp_path / "t.msh"
    write_mesh(m, path)
    m2 = read_mesh(path)
    assert np.array_equal(m.vertices, m2.vertices)
    assert np.array_equal(m.tets, m2.tets)
    assert np.array_equal(m.slice_ids, m2.slice_ids)
    assert np.array_equal(m.btris, m2.btris)
    assert np.array_equal(m.btri_tags, m2.btri_tags)


def test_read_bad_header(tmp_path):
    p = tmp_path / "bad.msh"
    p.write_text("kornmesh 2\nvertices 0\ntets 0\nbtris 0\n")
    with pytest.raises(MalformedHeader):
        read_mesh(p)


@pytest.mark.parametrize("name", ["vertices", "tets", "btris"])
def test_read_negative_section_count_names_the_section(tmp_path, name):
    # a negative count once walked the read position backwards and surfaced
    # as a misleading error about a later section
    m = generate_primitive("unit_cube", 1)
    path = tmp_path / "t.msh"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.split()[0] == name)
    lines[k] = f"{name} -{1 + (name == 'tets')}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedHeader, match=f"negative count .* in '{name}' section"):
        read_mesh(path)


def test_read_index_out_of_range(tmp_path):
    m = generate_primitive("unit_cube", 1)
    path = tmp_path / "t.msh"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    first_tet = 2 + m.num_vertices + 1  # header, count, vertices, tets count
    lines[first_tet] = "0 1 2 99 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexOutOfRange):
        read_mesh(path)


def test_read_duplicate_btri(tmp_path):
    m = generate_primitive("unit_cube", 1)
    path = tmp_path / "t.msh"
    write_mesh(m, path)
    lines = path.read_text().splitlines()
    k = lines.index(f"btris {len(m.btris)}")
    lines[k] = f"btris {len(m.btris) + 1}"
    lines.append(lines[k + 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonManifoldBoundary):
        read_mesh(path)


def test_validate_rejects_interior_face():
    m = generate_primitive("unit_cube", 2)
    interior = set(map(tuple, np.sort(m.faces, axis=1))) - set(
        map(tuple, np.sort(m.btris, axis=1))
    )
    btris = np.vstack([m.btris, np.array([sorted(next(iter(interior)))])])
    tags = np.append(m.btri_tags, 1)
    with pytest.raises((NonManifoldBoundary, InvalidMesh)):
        validate(meshes.Mesh(m.vertices, m.tets, m.slice_ids, btris, tags))


def test_validate_rejects_a_domain_pinched_along_an_edge():
    # the 3x3x3 block of unit cubes without cube (1, 1, 1), a cavity, and
    # cube (2, 2, 1), a notch open to the outside: the two meet along the
    # edge x = y = 2, 1 <= z <= 2, which four boundary triangles share.
    # Joined through that edge, the cavity's boundary and the outer one
    # would count as one, and harmonic_bound's b1 come out one short
    mask = np.ones((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = mask[2, 2, 1] = False
    vertices, tets, _ = meshes._grid_tets(mask, 1.0)
    btris = meshes._boundary_faces_of(tets)
    m = meshes.Mesh(vertices, tets, np.zeros(len(tets), dtype=np.int64), btris,
                    np.zeros(len(btris), dtype=np.int64))
    ends = [int(np.flatnonzero(np.all(vertices == p, axis=1))[0]) for p in ((2, 2, 1), (2, 2, 2))]
    e = int(meshes.locate_rows(m.edges, np.array([sorted(ends)]))[0])
    with pytest.raises(NonManifoldBoundary, match=f"edge {e} lies in 4 boundary triangles"):
        validate(m)


def test_boundary_components():
    m = generate_primitive("unit_cube", 2)
    _, n = boundary_components(m, 1)
    assert n == 1
    # two opposite faces tagged: 2 components
    coords = m.vertices[m.btris]
    tags = np.zeros(len(m.btris), dtype=int)
    tags[np.all(np.abs(coords[:, :, 0]) < 1e-12, axis=1)] = 1
    tags[np.all(np.abs(coords[:, :, 0] - 1) < 1e-12, axis=1)] = 1
    m2 = m.retag(tags)
    _, n2 = boundary_components(m2, 1)
    assert n2 == 2
    _, n3 = boundary_components(m.retag(0), 1)
    assert n3 == 0


def test_refine_uniform():
    m = generate_primitive("unit_cube", 1)
    r = refine_uniform(m)
    assert r.num_tets == 48
    assert r.tet_volumes().sum() == pytest.approx(1.0, rel=1e-14)
    assert validate(r) == []
    # boundary area preserved exactly
    for mesh in (m, r):
        tris = mesh.vertices[mesh.btris]
        area = 0.5 * np.linalg.norm(
            np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1
        ).sum()
        assert area == pytest.approx(6.0, abs=1e-12)


def test_refine_inherits_slices_and_tags():
    m = generate_primitive("cube_with_tunnel", 1)
    r = refine_uniform(m)
    assert r.num_tets == 8 * m.num_tets
    for s in np.unique(m.slice_ids):
        parent_vol = m.tet_volumes()[m.slice_ids == s].sum()
        child_vol = r.tet_volumes()[r.slice_ids == s].sum()
        assert child_vol == pytest.approx(parent_vol, rel=1e-13)
    assert len(r.btris) == 4 * len(m.btris)
    assert validate(r) == []


def test_validate_warns_slice_without_tag():
    m = generate_primitive("cube_with_tunnel", 1)
    # tag only a face on slice 0's side: slice 1 never touches it
    coords = m.vertices[m.btris]
    tags = np.zeros(len(m.btris), dtype=int)
    tags[np.all(np.abs(coords[:, :, 1]) < 1e-12, axis=1)] = 1
    warnings = validate(m.retag(tags))
    assert any("slice" in w for w in warnings)


def test_validate_rejects_slice_without_shared_edge():
    m = generate_primitive("unit_cube", 2)
    # the corner tets at (0,0,0) and (1,1,1) share only the centre vertex
    corner = [np.flatnonzero(np.all(m.vertices == c, axis=1))[0] for c in (0, 1)]
    pick = [np.flatnonzero(np.any(m.tets == v, axis=1))[0] for v in corner]
    sub = m.submesh(np.isin(np.arange(m.num_tets), pick))
    with pytest.raises(InvalidMesh, match="^slice 0 is not edge-connected$"):
        validate(sub)
    # a connected slice 1 beside a split slice 3: the label is named
    two = meshes.Mesh(sub.vertices, sub.tets, [3, 3], sub.btris, sub.btri_tags)
    with pytest.raises(InvalidMesh, match="^slice 3 is not edge-connected$"):
        validate(two)
    assert validate(meshes.Mesh(sub.vertices, sub.tets, [1, 3], sub.btris,
                                sub.btri_tags)) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_validate_rejects_non_finite_vertices(value):
    m = generate_primitive("unit_cube", 1)
    v = m.vertices.copy()
    v[5, 1] = float(value)
    with pytest.raises(InvalidMesh, match=r"non-finite coordinates at vertices \[5\]"):
        validate(meshes.Mesh(v, m.tets, m.slice_ids, m.btris, m.btri_tags))


def test_locate_rows_finds_edges_and_faces_and_raises_on_a_miss():
    m = generate_primitive("cube_with_tunnel", 1)
    for table in (m.edges, m.faces):
        order = np.random.default_rng(0).permutation(len(table))
        assert np.array_equal(meshes.locate_rows(table, table[order]), order)
    # the leading pair of (0, 1, 2) is an edge, the triple is not a face
    with pytest.raises(KeyError):
        meshes.locate_rows(m.faces, np.array([m.faces[0], [0, 1, 2]]))
    with pytest.raises(KeyError):
        meshes.locate_rows(m.edges, np.array([[0, m.num_vertices]]))
    # indices near 1e9: scalar keys v0 nv^2 + v1 nv + v2 would overflow int64
    rng = np.random.default_rng(1)
    table = np.unique(rng.choice([0, 7, 10**9 - 2, 10**9 - 1], (40, 3)), axis=0)
    order = rng.permutation(len(table))
    assert np.array_equal(meshes.locate_rows(table, table[order]), order)


@pytest.mark.parametrize("n", [7, 2**22 + 5, 2**40], ids=["small", "face_keys_ranked", "huge"])
@pytest.mark.parametrize("width", [2, 3])
def test_unique_rows_matches_unique_along_rows(n, width):
    # scalar keys give np.unique(axis=0)'s rows, inverse and counts; above
    # 2**21 indices a three-column key a n^2 + b n + c would overflow int64
    rng = np.random.default_rng(n + width)
    rows = rng.integers(0, n, size=(600, width))
    rows[300:] = rows[rng.integers(0, 300, 300)]
    got = meshes.unique_rows(rows, n)
    want = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    for a, b in zip(got, want):
        assert np.array_equal(a, np.ravel(b) if a.ndim == 1 else b)


def test_transformed_rotation_keeps_orientation():
    m = generate_primitive("unit_cube", 1)
    theta = 0.7
    R = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    m2 = m.transformed(matrix=R, shift=[1.0, -2.0, 0.5])
    assert np.all(m2.tet_volumes() > 0)
    assert m2.tet_volumes().sum() == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("kind, n", [("unit_cube", 4), ("unit_cube", 6), ("slab_mixed", 4),
                                     ("slab_mixed", 6), ("cube_with_tunnel", 2),
                                     ("cube_with_tunnel", 4)])
def test_ladder_meshes_get_no_shape_advisory(kind, n):
    # the Kuhn cells read volume / (longest edge)^3 = 3.2e-2, and so do the
    # cells of their uniform refinement
    mesh = generate_primitive(kind, n)
    for m in (mesh, mesh.retag(0), refine_uniform(mesh)):
        assert validate(m) == []


def test_tetless_mesh_is_invalid(tmp_path):
    # no cell, no space to compute on: refused before any advisory
    p = tmp_path / "tetless.msh"
    p.write_text("kornmesh 1\nvertices 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ntets 0\nbtris 0\n")
    with pytest.raises(InvalidMesh, match="a mesh needs at least one tet"):
        read_mesh(p)
