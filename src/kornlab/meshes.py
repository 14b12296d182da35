"""Tetrahedral meshes with a tagged boundary partition and per-cell slice labels.

The boundary carries two complementary tags: tag 1 marks the part with
tangential-type conditions, tag 0 the part with normal-type conditions.
Slice labels record a decomposition of the domain into simply connected
pieces; generators provide them, arbitrary input files may carry them.

File format (``kornmesh 1``, ASCII, LF newlines)::

    kornmesh 1
    vertices <N>
    <x> <y> <z>
    tets <M>
    <v0> <v1> <v2> <v3> <slice>
    btris <K>
    <v0> <v1> <v2> <tag>
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

GAMMA_N = 0
GAMMA_T = 1
# validate advises below this worst volume / (longest edge)^3.  Kuhn cells
# read 3.2e-2; on unit_cube n=5 with one cell at 3.3e-8 the solver paths agree
# to 2e-13, at 3.3e-10 the sparse one fails c_m_coexact's residual gate
SHAPE_ADVISORY = 1e-6
_INT64_MAX = np.iinfo(np.int64).max

_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
# the corners of the six Kuhn tets of a unit cell, (6,4,3): the cell's lowest
# vertex, then one unit step along each axis in the order of a permutation
_KUHN_PATHS = np.pad(np.cumsum(np.eye(3, dtype=np.int64)[_KUHN_PERMS], axis=1),
                     ((0, 0), (1, 0), (0, 0)))


class MeshError(Exception):
    """Base class for mesh parse/validation failures."""


class MalformedHeader(MeshError):
    pass


class IndexOutOfRange(MeshError):
    pass


class NonManifoldBoundary(MeshError):
    pass


class InvalidMesh(MeshError):
    pass


@dataclass
class Mesh:
    """Immutable tet mesh with derived edge/face tables.

    vertices : (V,3) float
    tets     : (T,4) int, positively oriented
    slice_ids: (T,)  int, non-negative slice label per cell
    btris    : (K,3) int, boundary triangles (arbitrary vertex order)
    btri_tags: (K,)  int, 0 or 1
    """

    vertices: np.ndarray
    tets: np.ndarray
    slice_ids: np.ndarray
    btris: np.ndarray
    btri_tags: np.ndarray

    # derived tables, filled by _finalize
    edges: np.ndarray = field(default=None, repr=False)
    faces: np.ndarray = field(default=None, repr=False)
    tet_edges: np.ndarray = field(default=None, repr=False)
    tet_faces: np.ndarray = field(default=None, repr=False)
    btri_face: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.tets = np.ascontiguousarray(self.tets, dtype=np.int64)
        self.slice_ids = np.ascontiguousarray(self.slice_ids, dtype=np.int64)
        self.btris = np.ascontiguousarray(self.btris, dtype=np.int64)
        self.btri_tags = np.ascontiguousarray(self.btri_tags, dtype=np.int64)
        self._finalize()

    # -- construction helpers ------------------------------------------------

    def _finalize(self):
        nv = len(self.vertices)
        for arr, name in ((self.tets, "tet"), (self.btris, "boundary triangle")):
            if arr.size and (arr.min() < 0 or arr.max() >= nv):
                raise IndexOutOfRange(f"{name} vertex index out of range")
        # global edges: sorted pairs, lexicographic order (lower index first)
        pairs = self.tets[:, [0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]].reshape(-1, 2)
        pairs.sort(axis=1)
        self.edges, inv, _ = unique_rows(pairs, nv)
        self.tet_edges = inv.reshape(-1, 6)
        # global faces: sorted triples
        tris = self.tets[:, [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]].reshape(-1, 3)
        tris.sort(axis=1)
        self.faces, finv, _ = unique_rows(tris, nv)
        self.tet_faces = finv.reshape(-1, 4)
        self.vertices.setflags(write=False)
        self.tets.setflags(write=False)
        self.slice_ids.setflags(write=False)
        self.btris.setflags(write=False)
        self.btri_tags.setflags(write=False)
        self._map_btris()

    def _map_btris(self):
        try:
            self.btri_face = locate_rows(self.faces, np.sort(self.btris, axis=1))
        except KeyError as exc:
            raise InvalidMesh(
                f"boundary triangle {exc.args[0]} is not a face of any tet"
            ) from None

    # -- basic queries --------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_tets(self):
        return len(self.tets)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.faces)

    def tet_volumes(self):
        p = self.vertices[self.tets]
        a, b, c = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]
        return np.einsum("ij,ij->i", np.cross(a, b), c) / 6.0

    def tagged_faces(self, tag):
        """Global face indices carrying the given boundary tag."""
        return self.btri_face[self.btri_tags == tag]

    def tagged_edges(self, tag):
        """Edges lying in a tagged boundary triangle."""
        tris = self.faces[self.tagged_faces(tag)]
        return np.unique(locate_rows(self.edges, tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)))

    def tagged_vertices(self, tag):
        tris = self.faces[self.tagged_faces(tag)]
        return np.unique(tris)

    @cached_property
    def has_gamma_t(self):
        """Whether the tag-1 (tangential) boundary part is nonempty."""
        return bool(np.any(self.btri_tags == GAMMA_T))

    @cached_property
    def slice_labels(self):
        """Sorted distinct slice labels; slice_ids is read-only, so this is cached."""
        return np.unique(self.slice_ids)

    def retag(self, tags):
        """Copy of the mesh with boundary tags replaced (length K array or scalar)."""
        new_tags = np.broadcast_to(np.asarray(tags, dtype=np.int64), (len(self.btris),))
        return Mesh(self.vertices, self.tets, self.slice_ids, self.btris, new_tags.copy())

    def swap_tags(self):
        return self.retag(1 - self.btri_tags)

    def transformed(self, matrix=None, shift=None):
        """Copy with vertices mapped x -> matrix @ x + shift."""
        v = self.vertices
        if matrix is not None:
            v = v @ np.asarray(matrix, dtype=float).T
        if shift is not None:
            v = v + np.asarray(shift, dtype=float)
        tets = self.tets.copy()
        if matrix is not None and np.linalg.det(matrix) < 0:
            tets[:, [2, 3]] = tets[:, [3, 2]]
        return Mesh(v, tets, self.slice_ids, self.btris, self.btri_tags)

    def submesh(self, cell_mask):
        """Mesh of the selected cells, vertices renumbered, no boundary tags.

        Used for slice-local computations; the returned mesh has one slice
        and an all-tag-0 boundary.
        """
        cells = self.tets[cell_mask]
        used = np.unique(cells)
        remap = -np.ones(self.num_vertices, dtype=np.int64)
        remap[used] = np.arange(len(used))
        tets = remap[cells]
        btris = _boundary_faces_of(tets)
        return Mesh(
            self.vertices[used],
            tets,
            np.zeros(len(tets), dtype=np.int64),
            btris,
            np.zeros(len(btris), dtype=np.int64),
        )


def unique_rows(rows, n):
    """(distinct rows in lexicographic order, index of each row among them,
    count of each): ``np.unique(rows, axis=0)`` on scalar keys.

    ``rows`` holds indices below ``n``.  Column by column a row's key
    becomes key times ``n`` plus the next column, ``(a n + b) n + c`` for a
    face; where that could overflow int64 (faces once ``n >= 2**21``) the
    key is first replaced by its rank among the distinct keys, which stays
    below ``len(rows)``.  Sorting plain integers is an order of magnitude
    faster than ``np.unique(..., axis=0)``.
    """
    key = rows[:, 0]
    for col in rows.T[1:]:
        if key.max(initial=0) >= _INT64_MAX // max(n, 1) - 1:
            key = np.unique(key, return_inverse=True)[1]
        key = key * n + col
    _, first, inv, counts = np.unique(key, return_index=True, return_inverse=True,
                                      return_counts=True)
    return rows[first], inv, counts


def locate_rows(table, rows):
    """Index of each row of ``rows`` in ``table``.

    ``table`` holds distinct rows of vertex indices in lexicographic order,
    as ``unique_rows`` leaves ``Mesh.edges`` and ``Mesh.faces``.
    Column by column, a row's key becomes the start of its block of equal
    leading columns times the index bound plus the next column, so keys stay
    below ``len(table) * num_vertices`` and do not overflow.  Raises KeyError
    naming the first row of ``rows`` missing from ``table``.
    """
    n = 1 + max(table.max(initial=-1), rows.max(initial=-1))
    tkey, qkey = table[:, 0], rows[:, 0]
    for t, q in zip(table.T[1:], rows.T[1:]):
        tkey, qkey = np.searchsorted(tkey, tkey) * n + t, np.searchsorted(tkey, qkey) * n + q
    idx = np.searchsorted(tkey, qkey)
    hit = idx < len(table)
    hit[hit] = np.all(table[idx[hit]] == rows[hit], axis=1)
    if not hit.all():
        raise KeyError(rows[np.argmin(hit)])
    return idx


def row_components(table):
    """Connected components of the rows of an integer table.

    Two rows are adjacent when they share an entry.  Returns the component
    count and the component of each row, numbered by first row.
    """
    n = len(table)
    values, entry = np.unique(table.ravel(), return_inverse=True)
    size = n + len(values)
    graph = sp.csr_matrix(
        (np.ones(entry.size), (np.repeat(np.arange(n), table.shape[1]), n + entry)),
        shape=(size, size),
    )
    labels = connected_components(graph, directed=False)[1][:n]
    _, first, comp = np.unique(labels, return_index=True, return_inverse=True)
    return len(first), np.argsort(np.argsort(first))[comp]


def _boundary_faces_of(tets):
    tris = tets[:, [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]].reshape(-1, 3)
    tris.sort(axis=1)
    uniq, _, counts = unique_rows(tris, 1 + tets.max(initial=-1))
    return uniq[counts == 1]


def _orient_positive(vertices, tets):
    p = vertices[tets]
    vol6 = np.einsum(
        "ij,ij->i", np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), p[:, 3] - p[:, 0]
    )
    flip = vol6 < 0
    t = tets.copy()
    t[flip, 2], t[flip, 3] = tets[flip, 3], tets[flip, 2]
    return t


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------


def _grid_tets(mask, h):
    """Kuhn (6-tet) split of the cells of an axis-aligned box grid.

    mask: boolean array, one entry per cell (i, j, k), True for the cells
    to split; h: the cell size.  Returns vertices, tets and the integer
    cell of each tet, cells in C order and six tets per cell.
    """
    X, Y, Z = np.meshgrid(*(h * np.arange(n + 1) for n in mask.shape), indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    cells = np.argwhere(mask)
    corners = cells[:, None, None, :] + _KUHN_PATHS  # (C,6,4,3)
    strides = np.array([(mask.shape[1] + 1) * (mask.shape[2] + 1), mask.shape[2] + 1, 1])
    tets = _orient_positive(vertices, (corners @ strides).reshape(-1, 4))
    # drop unused vertices (holes in the grid)
    used = np.unique(tets)
    remap = -np.ones(len(vertices), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return vertices[used], remap[tets], np.repeat(cells, len(_KUHN_PATHS), axis=0)


def generate_primitive(kind, n):
    """Built-in test geometries.

    unit_cube       : [0,1]^3, 6n^3 tets, whole boundary tag 1, one slice.
    slab_mixed      : unit cube, only the face z=0 carries tag 1.
    cube_with_tunnel: [0,3]x[0,3]x[0,1] minus the open block (1,2)^2 x (0,1);
                      a square torus, all boundary tag 0, two L-shaped slices.
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    if kind in ("unit_cube", "slab_mixed"):
        vertices, tets, _ = _grid_tets(np.ones((n, n, n), dtype=bool), 1.0 / n)
        btris = _boundary_faces_of(tets)
        if kind == "unit_cube":
            tags = np.ones(len(btris), dtype=np.int64)
        else:
            z = vertices[btris][:, :, 2]
            tags = np.where(np.all(np.abs(z) < 1e-12, axis=1), GAMMA_T, GAMMA_N)
        slices = np.zeros(len(tets), dtype=np.int64)
        return Mesh(vertices, tets, slices, btris, tags)
    if kind == "cube_with_tunnel":
        # plan view: 3x3 ring of unit boxes minus the middle one, height 1
        ring = np.ones((3 * n, 3 * n, n), dtype=bool)
        ring[n : 2 * n, n : 2 * n] = False
        vertices, tets, cell_of = _grid_tets(ring, 1.0 / n)
        # two simply connected halves of the ring (L-shaped in plan view):
        # half 0 is the row of boxes j < n and the box i < n, n <= j < 2n
        i, j = cell_of[:, 0], cell_of[:, 1]
        slices = np.where((j < n) | ((i < n) & (j < 2 * n)), 0, 1)
        btris = _boundary_faces_of(tets)
        tags = np.zeros(len(btris), dtype=np.int64)
        return Mesh(vertices, tets, slices, btris, tags)
    raise ValueError(f"unknown primitive kind {kind!r}")


def refine_uniform(mesh):
    """Split every tet 1 -> 8 through edge midpoints (Bey's scheme).

    Tags and slice labels are inherited; boundary triangles split 1 -> 4.
    """
    nv = mesh.num_vertices
    mid_xyz = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mid_xyz])
    # vertex nv + e is the midpoint of edge e; tet_edges follow 01 02 03 12 13 23
    x0, x1, x2, x3 = mesh.tets.T
    m01, m02, m03, m12, m13, m23 = (nv + mesh.tet_edges).T
    children = [
        (x0, m01, m02, m03),
        (m01, x1, m12, m13),
        (m02, m12, x2, m23),
        (m03, m13, m23, x3),
        (m01, m02, m03, m13),
        (m01, m02, m12, m13),
        (m02, m03, m13, m23),
        (m02, m12, m13, m23),
    ]
    tets = _orient_positive(vertices, np.transpose(children, (2, 0, 1)).reshape(-1, 4))

    a, b, c = mesh.btris.T
    pairs = np.sort(mesh.btris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    mab, mbc, mca = (nv + locate_rows(mesh.edges, pairs).reshape(-1, 3)).T
    children = [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
    return Mesh(
        vertices,
        tets,
        np.repeat(mesh.slice_ids, 8),
        np.transpose(children, (2, 0, 1)).reshape(-1, 3),
        np.repeat(mesh.btri_tags, 4),
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def validate(mesh):
    """Check the mesh invariants; raise on errors, return a list of warnings:
    advisories on a slice that misses the tag-1 part and on the flattest
    cell (shape_advisory).  The mesh is immutable, so it keeps the
    advisories, as it keeps its geometry: a second call only reads them."""
    if "_advisories" in mesh.__dict__:
        return list(mesh.__dict__["_advisories"])
    if mesh.num_tets == 0:
        raise InvalidMesh("a mesh needs at least one tet")
    bad = np.flatnonzero(~np.all(np.isfinite(mesh.vertices), axis=1))
    if len(bad):
        more = " ..." if len(bad) > 8 else ""
        raise InvalidMesh(f"non-finite coordinates at vertices {bad[:8].tolist()}{more}")
    vols = mesh.tet_volumes()
    if np.any(vols <= 0):
        raise InvalidMesh(f"{int(np.sum(vols <= 0))} tets are not positively oriented")

    # the constructor mapped every boundary triangle to a face of the complex
    listed = np.bincount(mesh.btri_face, minlength=mesh.num_faces)
    shared = np.bincount(mesh.tet_faces.ravel(), minlength=mesh.num_faces)
    if np.any(listed > 1):
        raise NonManifoldBoundary("duplicated boundary triangle")
    if np.any(shared > 2):
        raise NonManifoldBoundary("a face is shared by more than two tets")
    if np.any(listed[shared == 2]):
        raise NonManifoldBoundary("an interior face is listed as a boundary triangle")
    if not np.all(listed[shared == 1]):
        raise InvalidMesh("a boundary face of the complex is missing from btris")
    tris = mesh.faces[mesh.btri_face]
    around = np.bincount(locate_rows(mesh.edges, tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)))
    e = int(np.argmax(around))
    if around[e] > 2:  # parts of the domain meet along edge e
        raise NonManifoldBoundary(f"edge {e} lies in {around[e]} boundary triangles")
    if np.any((mesh.btri_tags != 0) & (mesh.btri_tags != 1)):
        raise InvalidMesh("boundary tags must be 0 or 1")
    if np.any(mesh.slice_ids < 0):
        raise InvalidMesh("slice ids must be non-negative")

    # each slice edge-connected: cells meet through (edge, slice) nodes
    labels = mesh.slice_labels
    slice_of = np.searchsorted(labels, mesh.slice_ids)
    count, comp = row_components(mesh.tet_edges * len(labels) + slice_of[:, None])
    if count > len(labels):
        pieces = np.bincount(slice_of[np.unique(comp, return_index=True)[1]])
        raise InvalidMesh(f"slice {labels[np.argmax(pieces > 1)]} is not edge-connected")

    # advisories: with tag-1 boundary present, every slice should touch it
    warnings = []
    if mesh.has_gamma_t:
        touching = np.any(np.isin(mesh.tets, mesh.tagged_vertices(GAMMA_T)), axis=1)
        warnings = [f"slice {s} does not touch the tag-1 boundary part"
                    for s in labels if not np.any(touching[mesh.slice_ids == s])]
    mesh.__dict__["_advisories"] = warnings + [a for a in [shape_advisory(mesh)] if a]
    return list(mesh.__dict__["_advisories"])


def shape_advisory(mesh):
    """The advisory on the flattest cell, its volume / (longest edge)^3 below
    SHAPE_ADVISORY, or None: validate's and the residual gate's."""
    lengths = np.linalg.norm(np.diff(mesh.vertices[mesh.edges], axis=1)[:, 0], axis=1)
    shape = mesh.tet_volumes() / lengths[mesh.tet_edges].max(axis=1) ** 3
    worst = int(np.argmin(shape))
    if shape[worst] < SHAPE_ADVISORY:
        return (f"cell {worst} has volume / (longest edge)^3 = {shape[worst]:.2e}, "
                f"below {SHAPE_ADVISORY:.0e}: so flat a cell may spoil the solves")


def boundary_components(mesh, tag=None):
    """Connected components of the tagged (tag None: every) boundary-triangle graph.

    Two triangles are adjacent when they share an edge.  Returns
    (component index per tagged triangle, numbered by first triangle,
    component count).
    """
    tris = mesh.faces[mesh.btri_face if tag is None else mesh.tagged_faces(tag)]
    edges = locate_rows(mesh.edges, tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2))
    count, comp = row_components(edges.reshape(-1, 3))
    return comp, count


def betti1(mesh):
    """First Betti number of the meshed domain: b1 = b0 + b2 - chi, chi =
    V - E + F - T, with b0 + b2 counted as boundary_components (one per
    boundary surface).  Exact on a 3-manifold; where no boundary edge lies
    in more than two boundary triangles (validate's check) a count split at
    a pinched vertex can only raise it, so it stays an upper bound."""
    chi = mesh.num_vertices - mesh.num_edges + mesh.num_faces - mesh.num_tets
    return boundary_components(mesh)[1] - chi


def cell_components(mesh):
    """(count, linked): the cell components of the mesh, joined through
    vertices, and how many of them hold a tag-1 vertex."""
    count, comp = row_components(mesh.tets)
    touching = np.isin(mesh.tets, mesh.tagged_vertices(GAMMA_T)).any(axis=1)
    return count, len(np.unique(comp[touching]))


def harmonic_bound(mesh):
    """(beta, b1, c_t, c_linked): beta = max(b1 + c_t - c_linked, 0) bounds
    dim H^1(Omega, Gamma_t) by the exact sequence H^0(Omega) -> H^0(Gamma_t)
    -> H^1(Omega, Gamma_t) -> H^1(Omega).  b1 is betti1's bound; c_t counts
    the components of the tag-1 part and c_linked the domain components that
    hold a tag-1 vertex (cell_components), both joined through vertices and
    so both exact."""
    b1, c_t = betti1(mesh), row_components(mesh.faces[mesh.tagged_faces(GAMMA_T)])[0]
    linked = cell_components(mesh)[1]
    return max(b1 + c_t - linked, 0), b1, c_t, linked


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------


def write_mesh(mesh, path):
    lines = ["kornmesh 1", f"vertices {mesh.num_vertices}"]
    for x, y, z in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    lines.append(f"tets {mesh.num_tets}")
    for t, s in zip(mesh.tets, mesh.slice_ids):
        lines.append(f"{t[0]} {t[1]} {t[2]} {t[3]} {s}")
    lines.append(f"btris {len(mesh.btris)}")
    for tri, tag in zip(mesh.btris, mesh.btri_tags):
        lines.append(f"{tri[0]} {tri[1]} {tri[2]} {tag}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip()]
    if not rows or rows[0] != "kornmesh 1":
        raise MalformedHeader("expected 'kornmesh 1' header")
    pos = 1

    def section(name):
        nonlocal pos
        if pos >= len(rows):
            raise MalformedHeader(f"missing '{name}' section")
        parts = rows[pos].split()
        if len(parts) != 2 or parts[0] != name:
            raise MalformedHeader(f"expected '{name} <count>', got {rows[pos]!r}")
        try:
            count = int(parts[1])
        except ValueError as exc:
            raise MalformedHeader(f"bad count in '{name}' section") from exc
        if count < 0:
            raise MalformedHeader(f"negative count {count} in '{name}' section")
        pos += 1
        if pos + count > len(rows):
            raise MalformedHeader(f"truncated '{name}' section")
        block = rows[pos : pos + count]
        pos += count
        return block

    try:
        verts = np.array([[float(v) for v in r.split()] for r in section("vertices")])
        traw = np.array([[int(v) for v in r.split()] for r in section("tets")])
        braw = np.array([[int(v) for v in r.split()] for r in section("btris")])
    except ValueError as exc:
        raise MalformedHeader(f"unparsable numeric row: {exc}") from exc
    if pos != len(rows):
        raise MalformedHeader("trailing content after btris section")
    if verts.size and verts.shape[1] != 3:
        raise MalformedHeader("vertex rows must have 3 coordinates")
    if traw.size and traw.shape[1] != 5:
        raise MalformedHeader("tet rows must have 4 indices and a slice id")
    if braw.size and braw.shape[1] != 4:
        raise MalformedHeader("btri rows must have 3 indices and a tag")
    verts, traw, braw = verts.reshape(-1, 3), traw.reshape(-1, 5), braw.reshape(-1, 4)
    nv = len(verts)
    if traw.size and (traw[:, :4].min() < 0 or traw[:, :4].max() >= nv):
        raise IndexOutOfRange("tet vertex index out of range")
    if braw.size and (braw[:, :3].min() < 0 or braw[:, :3].max() >= nv):
        raise IndexOutOfRange("boundary triangle vertex index out of range")
    mesh = Mesh(verts, traw[:, :4], traw[:, 4], braw[:, :3], braw[:, 3])
    validate(mesh)
    return mesh
