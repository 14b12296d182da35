"""Lowest-order discrete spaces with boundary constraints.

Families
--------
P1_scalar  : continuous piecewise linears, vertex dofs.
P1_vector  : three P1 components, dof index = comp * V + vertex.
Edge0      : lowest-order edge elements, dof = circulation along the edge
             oriented from its lower to its higher vertex index.
Face0      : lowest-order face elements, dof = flux through the face with
             the normal induced by its ascending vertex triple.
P0_scalar  : cell constants, dof = cell mean.

Constraints are applied by elimination: tag-1 boundary vertices (P1),
edges of tag-1 boundary triangles (Edge0), tag-0 boundary faces (Face0).
With ``component_constant`` the vertex dofs of each connected tag-1
boundary component fold into a single shared unknown per vector component
instead of being eliminated.
"""

from dataclasses import dataclass, field

import numpy as np

from . import meshes
from .meshes import GAMMA_N, GAMMA_T

FAMILIES = ("P1_scalar", "P1_vector", "Edge0", "Face0", "P0_scalar")


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

    constrain: None, 'gamma_t' (P1/Edge0 families) or 'gamma_n' (Face0).
    component_constant applies to P1_vector with 'gamma_t' only.
    """
    if family not in FAMILIES:
        raise SpaceError(f"unknown family {family!r}")
    if constrain not in (None, "gamma_t", "gamma_n"):
        raise SpaceError(f"unknown constraint selector {constrain!r}")
    if constrain == "gamma_t" and family in ("Face0", "P0_scalar"):
        raise SpaceError(f"{family} cannot carry a tangential-trace constraint")
    if constrain == "gamma_n" and family != "Face0":
        raise SpaceError(f"{family} cannot carry a normal-trace constraint")
    if component_constant and (family != "P1_vector" or constrain != "gamma_t"):
        raise SpaceError("component_constant needs P1_vector with 'gamma_t'")

    ncomp = 3 if family == "P1_vector" else 1
    nent = {
        "P1_scalar": mesh.num_vertices,
        "P1_vector": mesh.num_vertices,
        "Edge0": mesh.num_edges,
        "Face0": mesh.num_faces,
        "P0_scalar": mesh.num_tets,
    }[family]

    eliminated = np.zeros(nent, dtype=bool)
    group_of = -np.ones(nent, dtype=np.int64)
    if constrain == "gamma_t":
        if component_constant:
            group_of = _fold_groups(mesh)
        elif family in ("P1_scalar", "P1_vector"):
            eliminated[mesh.tagged_vertices(GAMMA_T)] = True
        else:  # Edge0
            eliminated[mesh.tagged_edges(GAMMA_T)] = True
    elif constrain == "gamma_n":
        eliminated[mesh.tagged_faces(GAMMA_N)] = True

    dof_map = -np.ones((ncomp, nent), dtype=np.int64)
    nxt = 0
    for c in range(ncomp):
        group_dof = {}
        for ent in range(nent):
            if eliminated[ent]:
                continue
            g = group_of[ent]
            if g >= 0:
                if g not in group_dof:
                    group_dof[g] = nxt
                    nxt += 1
                dof_map[c, ent] = group_dof[g]
            else:
                dof_map[c, ent] = nxt
                nxt += 1
    return DofSpace(mesh, family, constrain, component_constant, dof_map, nxt)


def _fold_groups(mesh):
    """Vertex -> tag-1 boundary component, components touching at a vertex merged."""
    comp_per_tri, ncomp = meshes.boundary_components(mesh, GAMMA_T)
    parent = list(range(ncomp))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # components sharing a vertex carry the same trace value: merge them
    seen = {}
    tris = mesh.btris[mesh.btri_tags == GAMMA_T]
    for tri, comp in zip(tris, comp_per_tri):
        for v in tri:
            v = int(v)
            if v in seen and find(seen[v]) != find(comp):
                parent[find(seen[v])] = find(comp)
            seen[v] = int(comp)
    group_of = -np.ones(mesh.num_vertices, dtype=np.int64)
    labels = {}
    for v, c in seen.items():
        r = find(c)
        group_of[v] = labels.setdefault(r, len(labels))
    return group_of


# --------------------------------------------------------------------------
# canonical interpolation
# --------------------------------------------------------------------------

_SEG_GAUSS = np.polynomial.legendre.leggauss(4)  # exact to degree 7 on edges


def interpolate(func, space, bc_tol=1e-12):
    """Canonical-dof interpolant of an analytic field.

    func maps (n,3) points to values: scalars for P1_scalar/P0_scalar,
    3-vectors for the other families.  Raises when the field violates the
    space's boundary condition by more than bc_tol.
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
    elif fam == "Face0":
        tri = mesh.vertices[mesh.faces]
        normal2 = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])  # 2*area*n
        # degree-2 rule on the triangle (edge midpoints)
        dofs = np.zeros(mesh.num_faces)
        for (u, v) in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            pts = tri[:, 0] + u * (tri[:, 1] - tri[:, 0]) + v * (tri[:, 2] - tri[:, 0])
            dofs += np.einsum("ij,ij->i", np.asarray(func(pts)), normal2) / 6.0
        full = dofs.reshape(1, -1)
    elif fam == "P0_scalar":
        from .quadrature import tet_rule

        pts, wts = tet_rule(2)
        p = mesh.vertices[mesh.tets]
        vols = mesh.tet_volumes()
        acc = np.zeros(mesh.num_tets)
        for q, wq in zip(pts, wts):
            x = p[:, 0] + np.einsum("k,ikj->ij", q, p[:, 1:] - p[:, [0, 0, 0]])
            acc += 6.0 * wq * np.asarray(func(x))
        full = acc.reshape(1, -1)
    else:
        raise SpaceError(f"cannot interpolate into {fam}")
    return Field(space, space.free_from_full(full, check_bc=bc_tol))
