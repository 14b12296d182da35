"""Reference constructions shared by several test modules."""

import numpy as np


def constant_tensor_coeffs(space, mat):
    """Edge0 coefficients of a constant tensor field (rows are constants)."""
    mesh = space.mesh
    edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    rows = np.empty((3, space.free_count))
    for m in range(3):
        full = edge_vec @ mat[m]
        rows[m] = space.free_from_full(full.reshape(1, -1))
    return rows
