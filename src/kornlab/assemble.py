"""Bilinear form assembly over the lowest-order element complex.

The discrete gradient and curl are incidence matrices, so grad P1 lands
exactly in Edge0 and curl Edge0 exactly in Face0; every quadratic form
needed by the inequality eigenproblems is assembled here: mass (P1,
Edge0, Face0), grad (P1), curlcurl (Edge0), the strain forms symgrad
(P1_vector), tensor_sym and tensor_symF (three Edge0 rows, row m offset by
m times the free count), and the incidences mixed_grad and curl_map.  The
three strain forms are <sym(X F), sym(Y F)> for P1 gradients or edge
tensors X, Y (F the identity, or the coefficient of tensor_symF) and share
one kernel; a tensor mass or curl-curl form is the block diagonal of the
Edge0 one (constants.tensor_pencil).  Constraints are applied by
elimination (rows/columns of eliminated dofs dropped, folded groups
summed).

Every form lands in the sparsity pattern of its local dof tables, built
once per table pair and cached on the mesh like its geometry (keyed by
family, constraint and folding): the canonical CSR structure, the place
in it of every local entry, and for equal tables the permutation that
transposes the data.  A form is then one np.bincount of its local
matrices into that data array (the strain forms, whose local matrices
are nine times larger, are summed in cell chunks: _strain); a form of a
space with itself averages the data with its transpose, so it is
symmetric to the bit.  The component families share the scalar table:
P1_vector is three P1 components and the edge-tensor forms three Edge0
rows, so block (m, n) of such a form is summed into the scalar pattern
and the CSR of the block matrix follows by index arithmetic, row (m, i)
being row i of the blocks (m, 0), (m, 1), (m, 2) side by side.  Entries
that cancel to exactly zero, as on the structured meshes, are dropped
from the result.

The Whitney bases are affine per cell, so each form is a polynomial of
known degree and is integrated exactly, by the lowest rule exact for it.
The mass forms and the edge-tensor strain forms are quadratic and take
the 4-point rule, and tensor_symF with a coefficient of degree d takes
degree 2 + 2d; the P1 gradients are constant, so symgrad takes the
1-point rule.  A MatrixCoefficient states its degree, an integer >= 0;
the squared norms of evaluate_norms, of lowest-order fields only, are
quadratic and take the 4-point rule.  There is no other rule.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshes import locate_rows
from .quadrature import barycentric, tet_rule
from .spaces import Field, TensorField

_LOC_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_LOC_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


@dataclass
class MatrixCoefficient:
    """Pointwise 3x3 matrix field F with det F > 0.

    evaluator maps (n,3) points to (n,3,3) matrices; degree, an integer
    >= 0, is its polynomial degree per cell, which sets the exact rule of
    tensor_symF.
    """

    evaluator: callable
    degree: int

    def __post_init__(self):
        d = self.degree
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0:
            raise ValueError(f"coefficient degree must be an integer >= 0, got {d!r}")

    def __call__(self, pts):
        out = np.asarray(self.evaluator(pts), dtype=float)
        if out.shape != (len(pts), 3, 3):
            raise ValueError("coefficient evaluator must return (n,3,3)")
        if not np.isfinite(out).all():
            bad = sorted({str(v) for v in out[~np.isfinite(out)].tolist()})
            raise ValueError(f"coefficient has non-finite values ({', '.join(bad)})")
        return out


def identity_coefficient(scale=1.0):
    return MatrixCoefficient(  # not scale * I: 0 * inf warns and reads nan
        lambda pts: np.broadcast_to(np.diag([float(scale)] * 3), (len(pts), 3, 3)).copy(),
        degree=0,
    )


# --------------------------------------------------------------------------
# per-mesh geometry cache
# --------------------------------------------------------------------------


class _Geometry:
    # holds no reference to its mesh: the mesh caches it (geometry), and a
    # back reference would leave a dropped mesh to the cyclic collector
    def __init__(self, mesh):
        p = mesh.vertices[mesh.tets]  # (T,4,3)
        ones = np.ones((len(p), 4, 1))
        A = np.concatenate([ones, p], axis=2)  # rows (1, x_i)
        coef = np.linalg.inv(A)
        self.grads = np.transpose(coef[:, 1:4, :], (0, 2, 1))  # (T,4,3), grads[t,i]
        self.vols = mesh.tet_volumes()
        # local edge endpoints ordered so the global index ascends
        ge = mesh.tets[:, _LOC_EDGES]  # (T,6,2) global ids
        swap = ge[:, :, 0] > ge[:, :, 1]
        loc = np.broadcast_to(_LOC_EDGES, ge.shape).copy()
        loc[swap] = loc[swap][:, ::-1]
        self.edge_loc = loc  # (T,6,2) local (a,b), global(a)<global(b)
        # local face triples sorted by global index, aligned with tet_faces
        gf = mesh.tets[:, _LOC_FACES]  # (T,4,3)
        order = np.argsort(gf, axis=2)
        self.face_loc = np.take_along_axis(
            np.broadcast_to(_LOC_FACES, gf.shape).copy(), order, axis=2
        )

    def edge_curls(self):
        """curl of the Whitney edge basis, constant per cell: (T,6,3)."""
        ga = np.take_along_axis(self.grads, self.edge_loc[:, :, 0, None], axis=1)
        gb = np.take_along_axis(self.grads, self.edge_loc[:, :, 1, None], axis=1)
        return 2.0 * np.cross(ga, gb)

    def edge_values(self, lam):
        """Whitney edge basis at barycentric points: (T,Q,6,3).

        lambda_a grad lambda_b - lambda_b grad lambda_a is lam @ G per cell,
        row a of G holding grad lambda_b and row b -grad lambda_a, so one
        batched product writes the result in place.
        """
        a, b = self.edge_loc[:, :, 0], self.edge_loc[:, :, 1]
        T = len(a)
        t, e = np.arange(T)[:, None], np.arange(6)
        G = np.zeros((T, 4, 6, 3))
        G[t, a, e] = self.grads[t, b]
        G[t, b, e] = -self.grads[t, a]
        vals = np.empty((T, len(lam), 6, 3))
        np.matmul(lam, G.reshape(T, 4, 18), out=vals.reshape(T, len(lam), 18))
        return vals

    def face_values(self, lam):
        """Whitney face basis at barycentric points: (T,Q,4,3)."""
        i = self.face_loc[:, :, 0]
        j = self.face_loc[:, :, 1]
        k = self.face_loc[:, :, 2]
        gi = np.take_along_axis(self.grads, i[:, :, None], axis=1)
        gj = np.take_along_axis(self.grads, j[:, :, None], axis=1)
        gk = np.take_along_axis(self.grads, k[:, :, None], axis=1)
        li = lam[:, i.ravel()].reshape(len(lam), *i.shape)
        lj = lam[:, j.ravel()].reshape(len(lam), *j.shape)
        lk = lam[:, k.ravel()].reshape(len(lam), *k.shape)
        cjk, cki, cij = np.cross(gj, gk), np.cross(gk, gi), np.cross(gi, gj)
        vals = 2.0 * (
            li[..., None] * cjk[None] + lj[..., None] * cki[None] + lk[..., None] * cij[None]
        )
        return np.transpose(vals, (1, 0, 2, 3))


def geometry(mesh):
    geom = mesh.__dict__.get("_geom")
    if geom is None:
        geom = _Geometry(mesh)
        mesh.__dict__["_geom"] = geom
    return geom


def _cell_points(mesh, ref_pts):
    p = mesh.vertices[mesh.tets]
    return p[:, None, 0, :] + np.einsum(
        "qk,tkj->tqj", ref_pts, p[:, 1:] - p[:, [0, 0, 0]]
    )


def _table(space):
    """(cache key, scalar local dof table (T,k), scalar free count).

    A component space contributes the table of one component: the dofs of
    P1_vector component m are those of component 0 offset by m times the
    scalar count, so it shares the P1 table of the same constraint and
    folding.
    """
    mesh, fam = space.mesh, space.family
    if fam in ("P1_scalar", "P1_vector"):
        ent, fam = mesh.tets, "P1"
    elif fam == "Edge0":
        ent = mesh.tet_edges
    elif fam == "Face0":
        ent = mesh.tet_faces
    else:
        raise ValueError(fam)
    key = (fam, space.constrain, space.component_constant)
    return key, space.dof_map[0][ent], space.free_count // space.ncomp


@dataclass
class _Pattern:
    """Canonical CSR structure of the local matrices over a dof table pair.

    pos[e] is the place in the data array of local entry e of the (T,kr,kc)
    local matrices in C order; entries of eliminated dofs go to the spare
    slot nnz.  tperm (equal tables only) maps the data to that of the
    transpose; it is an involution.  indptr, indices, pos and tperm are
    int32 when every index they hold fits, as in _block_csr.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray
    tperm: np.ndarray | None

    def data(self, loc):
        """Local matrices (T,kr,kc) summed into the pattern: one bincount."""
        nnz = len(self.indices)
        return np.bincount(self.pos, weights=loc.ravel(), minlength=nnz + 1)[:nnz]


def _index_type(*bounds):
    """int32 when every bound (one past the largest index) fits, else int64."""
    return np.int32 if max(bounds) < 2**31 else np.int64


def _build_pattern(rows, cols, shape, symmetric):
    nr, nc = shape
    spare = nr * nc  # sorts after every kept entry
    key_type = _index_type(spare + 1)
    rows, cols = rows.astype(key_type), cols.astype(key_type)
    rows = np.broadcast_to(rows[:, :, None], (len(rows), rows.shape[1], cols.shape[1]))
    cols = np.broadcast_to(cols[:, None, :], rows.shape)
    key = (rows * key_type(nc) + cols).ravel()
    key[((rows < 0) | (cols < 0)).ravel()] = spare
    order = np.argsort(key)
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    nnz = int(np.count_nonzero(first)) - bool(len(key) and key[-1] == spare)
    idx = _index_type(nnz + 1, nc)
    pos = np.empty(len(key), dtype=idx)
    pos[order] = np.cumsum(first, dtype=idx) - 1
    del order
    key = key[first][:nnz]
    r, c = np.divmod(key, key_type(nc))
    indptr = np.zeros(nr + 1, dtype=idx)
    np.cumsum(np.bincount(r, minlength=nr), out=indptr[1:])
    tperm = np.argsort(c * key_type(nr) + r).astype(idx) if symmetric else None
    return _Pattern(shape, indptr, c.astype(idx), pos, tperm)


def _pattern(test, trial):
    """The _Pattern of the scalar tables of test (rows) and trial (columns),
    cached on the mesh."""
    (rkey, rows, nr), (ckey, cols, nc) = _table(test), _table(trial)
    cache = test.mesh.__dict__.setdefault("_patterns", {})
    if (rkey, ckey) not in cache:
        cache[rkey, ckey] = _build_pattern(rows, cols, (nr, nc), rkey == ckey)
    return cache[rkey, ckey]


def _scatter(loc, test, trial, ncomp=1):
    """CSR matrix of the local matrices loc (T,kr,kc) over the dof tables of
    test (rows) and trial (columns), symmetrized when trial is test, on the
    diagonal of an ncomp x ncomp block matrix whose rows and columns are
    component-major (dof m * scalar count + i)."""
    pat = _pattern(test, trial)
    d = pat.data(loc)
    if trial is test:  # the transpose's data is d[tperm]
        d = 0.5 * (d + d[pat.tperm])
    return _block_csr(pat, dict.fromkeys(((m, m) for m in range(ncomp)), d), ncomp)


def _block_csr(pat, blocks, ncomp):
    """CSR of the block matrix whose block (m, n) has data blocks[m, n] in
    pat (absent blocks are zero): row (m, i) is row i of blocks (m, n),
    n ascending, side by side."""
    (nr, nc), p = pat.shape, pat.indptr.astype(np.int64)
    nnz = len(pat.indices)
    row_of = np.repeat(np.arange(nr), np.diff(p))  # row of each scalar entry
    row_start, row_len = p[row_of], np.diff(p)[row_of]
    del row_of
    total = nnz * len(blocks)
    idx = _index_type(total, ncomp * nc)
    data, indices = np.empty(total), np.empty(total, dtype=idx)
    indptr = np.zeros(ncomp * nr + 1, dtype=idx)
    start = 0
    for m in range(ncomp):
        ns = [n for n in range(ncomp) if (m, n) in blocks]
        at = start + (len(ns) - 1) * row_start + np.arange(nnz)  # the entries of block ns[0]
        for n in ns:
            data[at] = blocks[m, n]
            indices[at] = pat.indices + idx(n * nc)
            at += row_len
        indptr[1 + m * nr:1 + (m + 1) * nr] = start + len(ns) * p[1:]
        start += len(ns) * nnz
    mat = sp.csr_matrix((data, indices, indptr), shape=(ncomp * nr, ncomp * nc))
    mat.eliminate_zeros()  # entries that cancel exactly, as on structured meshes
    return mat


def _quad(degree):
    pts, wts = tet_rule(degree)
    return pts, wts, barycentric(pts)


# --------------------------------------------------------------------------
# local matrices per form
# --------------------------------------------------------------------------


def _p1_mass_local(geom):
    M = (np.ones((4, 4)) + np.eye(4)) / 20.0
    return geom.vols[:, None, None] * M[None]


def _p1_stiff_local(geom):
    return geom.vols[:, None, None] * np.einsum("tid,tjd->tij", geom.grads, geom.grads)


def _mass_local(vals, wts, vols):
    """Local mass matrices of basis values (T,Q,k,3) at the rule points."""
    return 6.0 * vols[:, None, None] * np.einsum("q,tqed,tqfd->tef", wts, vals, vals,
                                                 optimize=True)


def assemble(form, trial, test=None, coeff=None):
    """Assemble a bilinear form into a CSR matrix over free dofs.

    Forms (families in the module docstring): mass, grad, symgrad,
    curlcurl, tensor_sym, tensor_symF, mixed_grad, curl_map.  trial/test
    are DofSpaces over the same mesh (test defaults to trial); coeff is
    the MatrixCoefficient of tensor_symF.
    """
    test = trial if test is None else test
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces live on different meshes")
    geom = geometry(trial.mesh)

    if form == "mixed_grad":
        return _mixed_grad(trial, test)
    if form == "curl_map":
        return _curl_map(trial, test)
    if form in ("symgrad", "tensor_sym", "tensor_symF"):
        return _strain(form, trial, test, geom, coeff)

    fam = trial.family
    if form == "mass":
        if fam in ("P1_scalar", "P1_vector"):
            loc = _p1_mass_local(geom)
        elif fam == "Edge0":
            pts, wts, lam = _quad(2)
            loc = _mass_local(geom.edge_values(lam), wts, geom.vols)
        elif fam == "Face0":
            pts, wts, lam = _quad(2)
            loc = _mass_local(geom.face_values(lam), wts, geom.vols)
        else:
            raise ValueError(f"mass undefined for {fam}")
    elif form == "grad":
        if fam in ("P1_scalar", "P1_vector"):
            loc = _p1_stiff_local(geom)
        else:
            raise ValueError(f"grad undefined for {fam}")
    elif form == "curlcurl":
        if fam == "Edge0":
            c = geom.edge_curls()
            loc = geom.vols[:, None, None] * np.einsum("ted,tfd->tef", c, c)
        else:
            raise ValueError(f"curlcurl undefined for {fam}")
    else:
        raise ValueError(f"unknown form {form!r}")
    return _scatter(loc, test, trial, trial.ncomp)


def _strain_local(s):
    """Blocks (m, n) of the local matrices <sym(e_m h_i^T), sym(e_n h_j^T)>
    summed over the rule, from s = h sqrt(w_q 6|t| / 2) with h the (T,Q,nb,3)
    basis vectors at the rule points: (3,3,T,nb,nb), entry (m, n, t, i, j) =
    1/2 delta_mn h_i.h_j + 1/2 h_i,n h_j,m.  The delta term is the mass
    kernel of h, added to the diagonal blocks only."""
    T, Q, nb, _ = s.shape
    s = s.reshape(T, Q, 3 * nb)
    K = np.matmul(np.swapaxes(s, 1, 2), s).reshape(T, nb, 3, nb, 3)  # K[t,i,a,j,b]
    out = K.transpose(4, 2, 0, 1, 3).copy()  # out[m,n,t,i,j] = K[t,i,n,j,m]
    mass = out[0, 0] + out[1, 1] + out[2, 2]
    for m in range(3):
        out[m, m] += mass
    return out


# cells whose strain kernel is computed and scattered at once: the (3,3,T,nb,nb)
# local array of a whole mesh is never formed
_STRAIN_CHUNK = 256


def _strain(form, trial, test, geom, coeff):
    """<sym(X F), sym(Y F)> for X, Y the gradients of P1_vector fields or
    Edge0 tensors, the dofs of tensor row m offset by m * free_count; F is
    coeff for tensor_symF and the identity otherwise.

    The kernel is computed and scattered _STRAIN_CHUNK cells at a time,
    scaling (or multiplying by F) each chunk of basis values first; np.add.at
    sums the entries in the order of one bincount over every cell, so the
    chunking leaves the result unchanged to the bit.
    """
    tensor = form.startswith("tensor")
    if tensor and trial.family != "Edge0":
        raise ValueError("tensor forms need an Edge0 space")
    if not tensor and trial.family != "P1_vector":
        raise ValueError(f"{form} needs P1_vector")
    coeff = coeff if form == "tensor_symF" else None
    # degree 2 (tensor) or 0 (symgrad), plus 2d for F on both sides
    pts, wts, lam = _quad((2 if tensor else 0) + (0 if coeff is None else 2 * coeff.degree))
    # the rule weights are positive, so the kernel's factor is the basis
    # scaled by sqrt(w_q 6|t| / 2)
    scale = np.sqrt(3.0 * geom.vols[:, None] * wts)[..., None, None]
    F = None
    if coeff is not None:  # F first: F and the basis values are the peak
        x = _cell_points(trial.mesh, pts)
        F = coeff(x.reshape(-1, 3)).reshape(*x.shape, 3) * scale
        del x
    h = geom.edge_values(lam) if tensor else np.repeat(geom.grads[:, None], len(wts), 1)
    pat = _pattern(test, trial)
    nb = h.shape[2]
    acc = np.zeros((3, 3, len(pat.indices) + 1))  # the spare slot takes eliminated dofs
    for c in range(0, len(h), _STRAIN_CHUNK):
        cells = slice(c, c + _STRAIN_CHUNK)
        hs = h[cells] * scale[cells] if F is None else h[cells] @ F[cells]
        loc = _strain_local(hs)
        pos = pat.pos[c * nb * nb:(c + len(hs)) * nb * nb]
        for m in range(3):
            for n in range(3):
                np.add.at(acc[m, n], pos, loc[m, n].ravel())
    del h, F
    blocks = acc[:, :, :-1]
    if trial is test:  # block (m, n) of the transpose is block (n, m) transposed
        for m in range(3):
            for n in range(m, 3):
                d = 0.5 * (blocks[m, n] + blocks[n, m][pat.tperm])
                blocks[m, n], blocks[n, m] = d, d[pat.tperm]
    return _block_csr(pat, {(m, n): blocks[m, n] for m in range(3) for n in range(3)}, 3)


# --------------------------------------------------------------------------
# incidence maps
# --------------------------------------------------------------------------


def _mixed_grad(trial, test):
    if trial.family != "P1_scalar" or test.family != "Edge0":
        raise ValueError("mixed_grad maps P1_scalar into Edge0")
    mesh = trial.mesh
    e = mesh.edges
    rows = np.repeat(test.dof_map[0], 2)
    cols = trial.dof_map[0][e].ravel()
    vals = np.tile([-1.0, 1.0], len(e))
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(test.free_count, trial.free_count),
    ).tocsr()


def _curl_map(trial, test):
    if trial.family != "Edge0" or test.family != "Face0":
        raise ValueError("curl_map maps Edge0 into Face0")
    mesh = trial.mesh
    f = mesh.faces
    # edges ij, jk, ik of each face i < j < k
    rows = np.repeat(test.dof_map[0], 3)
    cols = trial.dof_map[0][locate_rows(mesh.edges, f[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2))]
    vals = np.tile([1.0, 1.0, -1.0], len(f))
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(test.free_count, trial.free_count),
    ).tocsr()


# --------------------------------------------------------------------------
# norm evaluation
# --------------------------------------------------------------------------


def dev_alpha(mat, alpha):
    """T - alpha * tr(T) * Id, applied along the last two axes."""
    tr = np.trace(mat, axis1=-2, axis2=-1)
    out = np.array(mat, dtype=float, copy=True)
    idx = np.arange(3)
    out[..., idx, idx] -= alpha * tr[..., None]
    return out


def _sym(mat):
    return 0.5 * (mat + np.swapaxes(mat, -2, -1))


def evaluate_norms(field, which):
    """Squared norms of a lowest-order field over its mesh, integrated exactly.

    which: iterable of 'L2', 'grad', 'sym', 'curl', 'div' or
    ('dev_alpha', alpha).  field is a Field (P1_scalar, P1_vector or
    Edge0) or a TensorField; its values are affine per cell, so every
    squared norm is quadratic and takes the 4-point rule.  Any other
    input raises TypeError.
    """
    if not isinstance(field, (Field, TensorField)):
        raise TypeError(f"evaluate_norms takes a Field or a TensorField, "
                        f"not {type(field).__name__}")
    requested = list(which)
    geom = geometry(field.space.mesh)
    _, wts, lam = _quad(2)
    w_phys = 6.0 * np.einsum("t,q->tq", geom.vols, wts)
    q = _pointwise(field, geom, lam, values=any(r != "curl" for r in requested))

    out = {}
    for req in requested:
        name, alpha = (req, None) if isinstance(req, str) else ("dev_alpha", req[1])
        key = req if isinstance(req, str) else f"dev_alpha({alpha:g})"
        kind = q["kind"]
        if name == "L2":
            v = q["value"]
            sq = v**2 if v.ndim == 2 else np.sum(v**2, axis=tuple(range(2, v.ndim)))
        elif kind == "P1_scalar" and name == "grad":
            sq = np.sum(q["grad"] ** 2, axis=-1)
        elif kind == "P1_vector":
            J = q["jac"]
            if name == "grad":
                sq = np.sum(J**2, axis=(-2, -1))
            elif name == "sym":
                sq = np.sum(_sym(J) ** 2, axis=(-2, -1))
            elif name == "div":
                sq = np.trace(J, axis1=-2, axis2=-1) ** 2
            elif name == "curl":
                c = np.stack(
                    [
                        J[..., 2, 1] - J[..., 1, 2],
                        J[..., 0, 2] - J[..., 2, 0],
                        J[..., 1, 0] - J[..., 0, 1],
                    ],
                    axis=-1,
                )
                sq = np.sum(c**2, axis=-1)
            elif name == "dev_alpha":
                sq = np.sum(dev_alpha(_sym(J), alpha) ** 2, axis=(-2, -1))
            else:
                raise ValueError(f"unknown norm {name!r}")
        elif kind == "Edge0" and name == "curl":
            sq = np.sum(q["curl"] ** 2, axis=-1)
        elif kind == "tensor":
            if name == "sym":
                sq = np.sum(_sym(q["value"]) ** 2, axis=(-2, -1))
            elif name == "dev_alpha":
                sq = np.sum(dev_alpha(_sym(q["value"]), alpha) ** 2, axis=(-2, -1))
            elif name == "curl":
                sq = np.sum(q["curl"] ** 2, axis=(-2, -1))
            else:
                raise ValueError(f"norm {name!r} undefined for tensor fields")
        else:
            raise ValueError(f"norm {name!r} undefined for {kind} fields")
        out[key] = float(np.sum(w_phys * sq))
    return out


def _pointwise(field, geom, lam, values=True):
    """Pointwise quantities per cell and rule point, keyed by kind (the
    field's family, or tensor); an edge tensor field forms its point values
    only when values (a curl-only request reads the per-cell curls alone)."""
    mesh, Q = field.space.mesh, len(lam)
    if isinstance(field, TensorField):
        full = np.stack(
            [field.space.full_from_free(field.rows[m])[0] for m in range(3)]
        )
        c = full[:, mesh.tet_edges]  # (3,T,6)
        curl = np.broadcast_to(
            np.einsum("mte,ted->tmd", c, geom.edge_curls())[:, None],
            (c.shape[1], Q, 3, 3),
        )
        q = {"kind": "tensor", "curl": curl}
        if values:
            q["value"] = np.einsum("mte,tqed->tqmd", c, geom.edge_values(lam))
        return q
    full = field.space.full_from_free(field.coeffs)
    fam = field.space.family
    if fam == "P1_scalar":
        u = full[0][mesh.tets]
        grad = np.einsum("ti,tid->td", u, geom.grads)
        return {
            "kind": fam,
            "value": np.einsum("qi,ti->tq", lam, u),
            "grad": np.broadcast_to(grad[:, None], (len(u), Q, 3)),
        }
    if fam == "P1_vector":
        u = full[:, mesh.tets]
        J = np.einsum("mti,tid->tmd", u, geom.grads)
        return {
            "kind": fam,
            "value": np.einsum("qi,mti->tqm", lam, u),
            "jac": np.broadcast_to(J[:, None], (J.shape[0], Q, 3, 3)),
        }
    if fam == "Edge0":
        c = full[0][mesh.tet_edges]
        W = geom.edge_values(lam)
        curl = np.einsum("te,ted->td", c, geom.edge_curls())
        return {
            "kind": fam,
            "value": np.einsum("te,tqed->tqd", c, W),
            "curl": np.broadcast_to(curl[:, None], (len(c), Q, 3)),
        }
    raise ValueError(fam)
