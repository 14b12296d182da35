import numpy as np
import pytest

from kornlab.meshes import boundary_components, generate_primitive
from kornlab.spaces import SpaceError, build_space, interpolate


def test_full_dirichlet_scalar_counts():
    m1 = generate_primitive("unit_cube", 1)
    assert build_space(m1, "P1_scalar", "gamma_t").free_count == 0
    m2 = generate_primitive("unit_cube", 2)
    assert build_space(m2, "P1_scalar", "gamma_t").free_count == 1


def test_edge_space_unconstrained_count():
    m = generate_primitive("unit_cube", 1)
    s = build_space(m, "Edge0")
    assert s.free_count == m.num_edges == 19


def test_edge_constraint_only_surface_edges():
    m = generate_primitive("unit_cube", 1)
    s = build_space(m, "Edge0", "gamma_t")
    # every edge of the n=1 cube except the body diagonal lies in a
    # boundary triangle
    assert s.free_count == 1
    free_edge = m.edges[np.nonzero(s.dof_map[0] >= 0)[0][0]]
    p = m.vertices[free_edge]
    assert np.linalg.norm(p[1] - p[0]) == pytest.approx(np.sqrt(3.0))


def test_incompatible_family_tag():
    m = generate_primitive("unit_cube", 1)
    with pytest.raises(SpaceError):
        build_space(m, "Face0", "gamma_t")
    with pytest.raises(SpaceError):
        build_space(m, "Edge0", "gamma_n")
    with pytest.raises(SpaceError):
        build_space(m, "P1_scalar", "gamma_t", component_constant=True)


def test_component_constant_folding():
    m = generate_primitive("unit_cube", 2)
    folded = build_space(m, "P1_vector", "gamma_t", component_constant=True)
    plain = build_space(m, "P1_vector")
    # 26 boundary vertices fold into one group per component
    assert folded.free_count == plain.free_count - 3 * (26 - 1)


def test_patches_touching_at_a_vertex_fold_into_one_group():
    m = generate_primitive("unit_cube", 2)
    x, y, z = np.moveaxis(m.vertices[m.btris], 2, 0)
    low = np.all((y <= 0.5) & (z <= 0.5), axis=1)
    high = np.all((y >= 0.5) & (z >= 0.5), axis=1)
    m = m.retag(np.all(x == 0, axis=1) & (low | high))
    # two edge-connected quadrants of x = 0 meet only at (0, 1/2, 1/2)
    assert boundary_components(m, 1)[1] == 2
    group = m.tagged_vertices(1)
    assert len(group) == 7
    folded = build_space(m, "P1_vector", "gamma_t", component_constant=True)
    plain = build_space(m, "P1_vector")
    assert folded.free_count == plain.free_count - 3 * (len(group) - 1)
    assert np.all(folded.dof_map[:, group] == folded.dof_map[:, group[:1]])


def test_interpolate_p1_vertex_values():
    m = generate_primitive("unit_cube", 2)
    s = build_space(m, "P1_scalar")
    f = interpolate(lambda x: x[:, 0], s)
    assert np.allclose(f.coeffs, s.free_from_full(m.vertices[:, 0].reshape(1, -1)))


def test_interpolate_edge_circulation():
    m = generate_primitive("unit_cube", 1)
    s = build_space(m, "Edge0")
    f = interpolate(lambda x: np.tile([1.0, 0.0, 0.0], (len(x), 1)), s)
    vec = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
    assert np.allclose(f.coeffs, vec[:, 0], atol=1e-14)


def test_interpolate_bc_violation():
    m = generate_primitive("unit_cube", 2)
    coords = m.vertices[m.btris]
    tags = np.zeros(len(m.btris), dtype=int)
    tags[np.all(np.abs(coords[:, :, 0] - 1.0) < 1e-12, axis=1)] = 1
    s = build_space(m.retag(tags), "P1_scalar", "gamma_t")
    with pytest.raises(SpaceError):
        interpolate(lambda x: x[:, 0], s)  # trace is 1 on the tagged face
    interpolate(lambda x: 1.0 - x[:, 0], s)  # compatible field passes

