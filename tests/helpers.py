"""Reference constructions shared by several test modules."""

import numpy as np

from kornlab import constants, linalg
from kornlab.meshes import Mesh, generate_primitive


def two_plates(n):
    """unit_cube with the tag-1 part on the planes x = 0 and x = 1: harmonic dim 1."""
    m = generate_primitive("unit_cube", n)
    x = m.vertices[m.btris][:, :, 0]
    return m.retag((np.all(x < 1e-12, axis=1) | np.all(x > 1 - 1e-12, axis=1)).astype(int))


def three_patches(n):
    """unit_cube with three disjoint tag-1 patches, the faces x = 0, x = 1 and
    a square in the middle of z = 0: H^1(Omega, Gamma_t) has dimension 3 - 1."""
    m = generate_primitive("unit_cube", n)
    c = m.vertices[m.btris].mean(axis=1)
    patch = np.isclose(c[:, 2], 0) & np.all(np.abs(c[:, :2] - 0.5) < 0.25, axis=1)
    return m.retag((np.isclose(c[:, 0], 0) | np.isclose(c[:, 0], 1) | patch).astype(np.int64))


def sliver(ratio, n=5):
    """unit_cube n with the vertex (2, 2, 2) / n moved toward the centroid of
    the opposite face of one of its cells, until that cell's volume is
    ratio h^3 (h = 1/n; the Kuhn cells read 1/6).  The cell is the first
    whose long diagonal does not end at the vertex (no corner differs from
    it in every coordinate), so the face holds the diagonal.  The
    neighbour sharing the face's plane flattens alike, and every other
    cell keeps at least a third of its volume."""
    m = generate_primitive("unit_cube", n)
    v = int(np.flatnonzero(np.all(np.isclose(m.vertices, 2 / n), axis=1))[0])
    cells = np.flatnonzero(np.any(m.tets == v, axis=1))
    far = np.all(~np.isclose(m.vertices[m.tets[cells]], m.vertices[v]), axis=2)
    t = int(cells[~far.any(axis=1)][0])
    face = m.vertices[m.tets[t][m.tets[t] != v]].mean(axis=0)
    x = m.vertices.copy()
    x[v] = face + ratio / (n**3 * m.tet_volumes()[t]) * (x[v] - face)
    return Mesh(x, m.tets, m.slice_ids, m.btris, m.btri_tags)


def constant_tensor_coeffs(space, mat):
    """Edge0 coefficients of a constant tensor field (rows are constants)."""
    mesh = space.mesh
    edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    rows = np.empty((3, space.free_count))
    for m in range(3):
        full = edge_vec @ mat[m]
        rows[m] = space.free_from_full(full.reshape(1, -1))
    return rows


class _Captured(Exception):
    pass


def direct_pencil(mesh, pencil=None):
    """(A, B, constraints) as constants.direct_main_constant(mesh, pencil=pencil)
    hands them to linalg.eig_smallest: the pencil c_direct forms, its solve
    stopped at the first call."""
    captured = {}

    def capture(A, B, k=1, constraints=None, **_):
        captured.update(A=A, B=B, constraints=constraints)
        raise _Captured

    saved, linalg.eig_smallest = linalg.eig_smallest, capture
    try:
        constants.direct_main_constant(mesh, pencil=pencil)
    except _Captured:
        pass
    finally:
        linalg.eig_smallest = saved
    return captured["A"], captured["B"], captured["constraints"]


def mass_sq(ops, x):
    """|x|^2 of a stacked Edge0^3 vector x in the mass of the edge operators ops."""
    return float(sum(r @ (ops.mass @ r) for r in x.reshape(3, -1)))
