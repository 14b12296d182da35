"""Lowest-order discrete spaces with boundary constraints.

Families
--------
P1_scalar  : continuous piecewise linears, vertex dofs.
P1_vector  : three P1 components, dof index = comp * V + vertex.
Edge0      : lowest-order edge elements, dof = circulation along the edge
             oriented from its lower to its higher vertex index.
Face0      : lowest-order face elements, dof = flux through the face with
             the normal induced by its ascending vertex triple; it holds
             the curls of Edge0 fields and is never constrained.

The rank-2 and rank-3 estimates go through tag duality (Mesh.swap_tags),
so the complex has no normal-trace constraint and no cell elements.

Constraints are applied by elimination: tag-1 boundary vertices (P1),
edges of tag-1 boundary triangles (Edge0).  With ``component_constant``
the vertex dofs of each connected piece of the tag-1 part fold into a
single shared unknown per vector component instead of being eliminated.
The pieces come from one connected-components call on the tagged
triangles, two triangles joined when they share a vertex, so patches that
touch only at a vertex share one folded unknown.
Free dofs are numbered per component in order of their first entity.
"""

from dataclasses import dataclass, field

import numpy as np

from . import meshes
from .meshes import GAMMA_T

FAMILIES = ("P1_scalar", "P1_vector", "Edge0", "Face0")


class SpaceError(ValueError):
    pass


@dataclass
class DofSpace:
    mesh: meshes.Mesh
    family: str
    constrain: str | None
    component_constant: bool
    dof_map: np.ndarray = field(repr=False)  # (ncomp, nentities) -> free index or -1
    free_count: int = 0

    @property
    def ncomp(self):
        return self.dof_map.shape[0]

    def full_from_free(self, coeffs):
        """Expand free coefficients to per-entity values (eliminated dofs = 0)."""
        out = np.zeros(self.dof_map.shape)
        sel = self.dof_map >= 0
        out[sel] = np.asarray(coeffs)[self.dof_map[sel]]
        return out

    def free_from_full(self, values, check_bc=None):
        values = np.asarray(values, dtype=float).reshape(self.dof_map.shape)
        if check_bc is not None:
            bad = np.abs(values[self.dof_map < 0])
            if bad.size and bad.max() > check_bc:
                raise SpaceError(
                    f"field violates the boundary condition ({bad.max():.3e} > {check_bc:g})"
                )
        out = np.zeros(self.free_count)
        sel = self.dof_map >= 0
        # folded groups: last write wins; callers pass group-consistent data
        out[self.dof_map[sel]] = values[sel]
        return out


@dataclass
class Field:
    space: DofSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.free_count,):
            raise SpaceError(
                f"coefficient length {self.coeffs.shape} != free dof count "
                f"{self.space.free_count}"
            )


@dataclass
class TensorField:
    """Three row fields over one Edge0-capable space; row n holds row n of T."""

    space: DofSpace
    rows: np.ndarray  # (3, free_count)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.shape != (3, self.space.free_count):
            raise SpaceError("tensor rows must be (3, free_count)")

    def stacked(self):
        return self.rows.reshape(-1)


def build_space(mesh, family, constrain=None, component_constant=False):
    """Create a constrained dof space.

    constrain: None or 'gamma_t' (P1 and Edge0 families).
    component_constant applies to P1_vector with 'gamma_t' only.
    """
    if family not in FAMILIES:
        raise SpaceError(f"unknown family {family!r}")
    if constrain not in (None, "gamma_t"):
        raise SpaceError(f"unknown constraint selector {constrain!r}")
    if constrain == "gamma_t" and family == "Face0":
        raise SpaceError("Face0 cannot carry a tangential-trace constraint")
    if component_constant and (family != "P1_vector" or constrain != "gamma_t"):
        raise SpaceError("component_constant needs P1_vector with 'gamma_t'")

    ncomp = 3 if family == "P1_vector" else 1
    nent = {
        "P1_scalar": mesh.num_vertices,
        "P1_vector": mesh.num_vertices,
        "Edge0": mesh.num_edges,
        "Face0": mesh.num_faces,
    }[family]

    # each kept entity carries the dof of its representative; dofs are
    # numbered per component in order of first entity
    kept = np.ones(nent, dtype=bool)
    rep = np.arange(nent)
    if constrain == "gamma_t":
        if component_constant:
            rep = _fold_representatives(mesh)
        elif family in ("P1_scalar", "P1_vector"):
            kept[mesh.tagged_vertices(GAMMA_T)] = False
        else:  # Edge0
            kept[mesh.tagged_edges(GAMMA_T)] = False

    reps, local = np.unique(rep[kept], return_inverse=True)
    dof_map = -np.ones((ncomp, nent), dtype=np.int64)
    dof_map[:, kept] = local + len(reps) * np.arange(ncomp)[:, None]
    return DofSpace(mesh, family, constrain, component_constant, dof_map, ncomp * len(reps))


def _fold_representatives(mesh):
    """Lowest vertex of each vertex's tag-1 group, the vertex itself off Γ_t.

    A group is a connected piece of the tag-1 part, patches that touch only
    at a vertex included: they carry one trace value.
    """
    tris = mesh.btris[mesh.btri_tags == GAMMA_T]
    count, comp = meshes.row_components(tris)
    lowest = np.full(count, mesh.num_vertices)
    np.minimum.at(lowest, comp, tris.min(axis=1))
    rep = np.arange(mesh.num_vertices)
    rep[tris] = lowest[comp, None]
    return rep


# --------------------------------------------------------------------------
# canonical interpolation
# --------------------------------------------------------------------------

_SEG_GAUSS = np.polynomial.legendre.leggauss(4)  # exact to degree 7 on edges
BC_TOL = 1e-12  # largest boundary-condition violation interpolate accepts


def interpolate(func, space):
    """Canonical-dof interpolant of an analytic field.

    func maps (n,3) points to values: scalars for P1_scalar, 3-vectors for
    P1_vector and Edge0.  Raises when the field violates the space's
    boundary condition by more than BC_TOL.
    """
    mesh = space.mesh
    fam = space.family
    if fam in ("P1_scalar", "P1_vector"):
        vals = np.asarray(func(mesh.vertices), dtype=float)
        if fam == "P1_scalar":
            full = vals.reshape(1, -1)
        else:
            full = vals.T.reshape(3, -1)
    elif fam == "Edge0":
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        xi, w = _SEG_GAUSS
        dofs = np.zeros(mesh.num_edges)
        for t, wt in zip(xi, w):
            pts = a + 0.5 * (t + 1.0) * (b - a)
            dofs += 0.5 * wt * np.einsum("ij,ij->i", np.asarray(func(pts)), b - a)
        full = dofs.reshape(1, -1)
    else:
        raise SpaceError(f"cannot interpolate into {fam}")
    return Field(space, space.free_from_full(full, check_bc=BC_TOL))
