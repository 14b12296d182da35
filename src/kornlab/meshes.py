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

GAMMA_N = 0
GAMMA_T = 1

_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


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
        self.edges, inv = np.unique(pairs, axis=0, return_inverse=True)
        self.tet_edges = inv.reshape(-1, 6)
        # global faces: sorted triples
        tris = self.tets[:, [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]].reshape(-1, 3)
        tris.sort(axis=1)
        self.faces, finv = np.unique(tris, axis=0, return_inverse=True)
        self.tet_faces = finv.reshape(-1, 4)
        self.vertices.setflags(write=False)
        self.tets.setflags(write=False)
        self.slice_ids.setflags(write=False)
        self.btris.setflags(write=False)
        self.btri_tags.setflags(write=False)
        self._map_btris()

    def _map_btris(self):
        order = np.sort(self.btris, axis=1)
        face_index = {tuple(f): i for i, f in enumerate(self.faces)}
        idx = np.empty(len(self.btris), dtype=np.int64)
        for k, tri in enumerate(order):
            key = tuple(tri)
            if key not in face_index:
                raise InvalidMesh(f"boundary triangle {tri} is not a face of any tet")
            idx[k] = face_index[key]
        self.btri_face = idx

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
        if len(tris) == 0:
            return np.empty(0, dtype=np.int64)
        pairs = tris[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)
        edge_index = _pair_index(self.edges, self.num_vertices)
        keys = pairs[:, 0] * self.num_vertices + pairs[:, 1]
        return np.unique(edge_index[keys])

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
        btris, _ = _boundary_faces_of(tets)
        return Mesh(
            self.vertices[used],
            tets,
            np.zeros(len(tets), dtype=np.int64),
            btris,
            np.zeros(len(btris), dtype=np.int64),
        )


class _PairIndex:
    """Edge lookup by vertex pair via binary search (edges are sorted)."""

    def __init__(self, edges, nv):
        self.nv = nv
        self.keys = edges[:, 0] * nv + edges[:, 1]

    def __getitem__(self, key):
        idx = np.searchsorted(self.keys, key)
        idx = np.minimum(idx, len(self.keys) - 1)
        if np.any(self.keys[idx] != key):
            raise KeyError("vertex pair is not an edge of the mesh")
        return idx


def _pair_index(edges, nv):
    return _PairIndex(edges, nv)


def _boundary_faces_of(tets):
    tris = tets[:, [1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2]].reshape(-1, 3)
    tris.sort(axis=1)
    uniq, counts = np.unique(tris, axis=0, return_counts=True)
    return uniq[counts == 1], uniq[counts > 2]


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


def _grid_tets(shape, origin=(0.0, 0.0, 0.0), h=1.0, keep=None):
    """Kuhn (6-tet) split of an axis-aligned box grid.

    shape: cells per axis. keep: optional predicate on integer cell (i,j,k).
    Returns vertices, tets and the integer cell of each tet.
    """
    nx, ny, nz = shape
    xs = [np.asarray(origin)[d] + h * np.arange(n + 1) for d, n in enumerate(shape)]
    X, Y, Z = np.meshgrid(*xs, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    tets = []
    cell_of = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                if keep is not None and not keep(i, j, k):
                    continue
                c0 = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [c0.copy()]
                    for axis in perm:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    tets.append([vid(*p) for p in path])
                    cell_of.append((i, j, k))
    tets = _orient_positive(vertices, np.array(tets, dtype=np.int64))
    # drop unused vertices (holes in the grid)
    used = np.unique(tets)
    remap = -np.ones(len(vertices), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return vertices[used], remap[tets], cell_of


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
        vertices, tets, _ = _grid_tets((n, n, n), h=1.0 / n)
        btris, bad = _boundary_faces_of(tets)
        if kind == "unit_cube":
            tags = np.ones(len(btris), dtype=np.int64)
        else:
            z = vertices[btris][:, :, 2]
            tags = np.where(np.all(np.abs(z) < 1e-12, axis=1), GAMMA_T, GAMMA_N)
        slices = np.zeros(len(tets), dtype=np.int64)
        return Mesh(vertices, tets, slices, btris, tags)
    if kind == "cube_with_tunnel":
        # plan view: 3x3 ring of unit boxes minus the middle one, height 1
        def keep(i, j, k):
            return not (n <= i < 2 * n and n <= j < 2 * n)

        vertices, tets, cell_of = _grid_tets((3 * n, 3 * n, n), h=1.0 / n, keep=keep)
        # two simply connected halves of the ring (L-shaped in plan view)
        half_a = {(0, 0), (1, 0), (2, 0), (0, 1)}
        slices = np.array(
            [
                0 if (min(c[0] // n, 2), min(c[1] // n, 2)) in half_a else 1
                for c in cell_of
            ],
            dtype=np.int64,
        )
        btris, bad = _boundary_faces_of(tets)
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
    edge_index = {}
    for i, (a, b) in enumerate(mesh.edges):
        edge_index[(a, b)] = nv + i

    def mid(a, b):
        return edge_index[(a, b) if a < b else (b, a)]

    tets = []
    slices = []
    for t, s in zip(mesh.tets, mesh.slice_ids):
        x0, x1, x2, x3 = t
        m01, m02, m03 = mid(x0, x1), mid(x0, x2), mid(x0, x3)
        m12, m13, m23 = mid(x1, x2), mid(x1, x3), mid(x2, x3)
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
        tets.extend(children)
        slices.extend([s] * 8)
    tets = _orient_positive(vertices, np.array(tets, dtype=np.int64))

    btris = []
    tags = []
    for tri, tag in zip(mesh.btris, mesh.btri_tags):
        a, b, c = tri
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        btris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
        tags.extend([tag] * 4)
    return Mesh(
        vertices,
        tets,
        np.array(slices, dtype=np.int64),
        np.array(btris, dtype=np.int64),
        np.array(tags, dtype=np.int64),
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def validate(mesh):
    """Check the mesh invariants; raise on errors, return a list of warnings."""
    warnings = []
    vols = mesh.tet_volumes()
    if np.any(vols <= 0):
        raise InvalidMesh(f"{int(np.sum(vols <= 0))} tets are not positively oriented")

    order = np.sort(mesh.btris, axis=1)
    uniq, counts = np.unique(order, axis=0, return_counts=True)
    if np.any(counts > 1):
        raise NonManifoldBoundary("duplicated boundary triangle")
    boundary, overfull = _boundary_faces_of(mesh.tets)
    if len(overfull):
        raise NonManifoldBoundary("a face is shared by more than two tets")
    bset = {tuple(f) for f in boundary}
    given = {tuple(f) for f in uniq}
    if given - bset:
        raise NonManifoldBoundary("an interior face is listed as a boundary triangle")
    if bset - given:
        raise InvalidMesh("a boundary face of the complex is missing from btris")
    if np.any((mesh.btri_tags != 0) & (mesh.btri_tags != 1)):
        raise InvalidMesh("boundary tags must be 0 or 1")
    if np.any(mesh.slice_ids < 0):
        raise InvalidMesh("slice ids must be non-negative")

    # each slice edge-connected
    for s in mesh.slice_labels:
        cells = np.nonzero(mesh.slice_ids == s)[0]
        if not _cells_edge_connected(mesh, cells):
            raise InvalidMesh(f"slice {s} is not edge-connected")

    # advisory: with tag-1 boundary present, every slice should touch it
    if len(mesh.tagged_faces(GAMMA_T)):
        tagged_verts = set(mesh.tagged_vertices(GAMMA_T).tolist())
        for s in mesh.slice_labels:
            verts = set(np.unique(mesh.tets[mesh.slice_ids == s]).tolist())
            if not (verts & tagged_verts):
                warnings.append(
                    f"slice {s} does not touch the tag-1 boundary part"
                )
    return warnings


def _cells_edge_connected(mesh, cells):
    if len(cells) <= 1:
        return True
    adj = {}
    for c in cells:
        for e in mesh.tet_edges[c]:
            adj.setdefault(e, []).append(c)
    parent = {c: c for c in cells}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for group in adj.values():
        r = find(group[0])
        for c in group[1:]:
            parent[find(c)] = r
    roots = {find(c) for c in cells}
    return len(roots) == 1


def boundary_components(mesh, tag):
    """Connected components of the tagged boundary-triangle graph.

    Two triangles are adjacent when they share an edge.  Returns
    (component index per tagged triangle, component count).
    """
    tsel = np.nonzero(mesh.btri_tags == tag)[0]
    tris = np.sort(mesh.btris[tsel], axis=1)
    n = len(tris)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edge_map = {}
    for i, (a, b, c) in enumerate(tris):
        for e in ((a, b), (a, c), (b, c)):
            j = edge_map.setdefault(e, i)
            if j != i:
                parent[find(i)] = find(j)
    roots = {}
    comp = np.empty(n, dtype=np.int64)
    for i in range(n):
        r = find(i)
        comp[i] = roots.setdefault(r, len(roots))
    return comp, len(roots)


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
    traw = traw.reshape(-1, 5)
    braw = braw.reshape(-1, 4)
    nv = len(verts)
    if traw.size and (traw[:, :4].min() < 0 or traw[:, :4].max() >= nv):
        raise IndexOutOfRange("tet vertex index out of range")
    if braw.size and (braw[:, :3].min() < 0 or braw[:, :3].max() >= nv):
        raise IndexOutOfRange("boundary triangle vertex index out of range")
    mesh = Mesh(verts, traw[:, :4], traw[:, 4], braw[:, :3], braw[:, 3])
    validate(mesh)
    return mesh
