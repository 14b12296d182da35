"""Bilinear form assembly over the lowest-order element complex.

The discrete gradient and curl are incidence matrices, so grad P1 lands
exactly in Edge0 and curl Edge0 exactly in Face0; every quadratic form
needed by the inequality eigenproblems is assembled here.  Symmetric forms
are symmetrized after scatter, constraints are applied by elimination
(rows/columns of eliminated dofs dropped, folded groups summed).

The Whitney bases are affine per cell, so each form is a polynomial of
known degree and is integrated by the lowest rule exact for it.  The mass
forms and the edge-tensor strain forms are quadratic and take the 4-point
rule, a coefficient of degree d raises that to 2 + 2d; the P1 gradients
are constant, so the P1 strain forms take degree 2d (the 1-point rule
without a coefficient).  Only integrands that are not known to be
polynomial (a coefficient or an analytic field without a degree) take the
DEFAULT_QUAD_DEGREE floor.  The quad_order argument of assemble and
evaluate_norms raises the rule further; it matters only for those.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshes import locate_rows
from .quadrature import barycentric, tet_rule
from .spaces import Field, TensorField

# rule degree for integrands that are not known to be polynomial; polynomial
# forms integrate at their own degree
DEFAULT_QUAD_DEGREE = 4

_LOC_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
_LOC_FACES = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


class QuadratureWarning(UserWarning):
    pass


@dataclass
class MatrixCoefficient:
    """Pointwise 3x3 matrix field F with det F > 0.

    evaluator maps (n,3) points to (n,3,3) matrices; degree is the
    polynomial degree per cell (None for non-polynomial evaluators, which
    integrate at DEFAULT_QUAD_DEGREE, or at assemble's quad_order when that
    is higher, with a warning).
    """

    evaluator: callable
    degree: int | None = 0

    def __call__(self, pts):
        out = np.asarray(self.evaluator(pts), dtype=float)
        if out.shape != (len(pts), 3, 3):
            raise ValueError("coefficient evaluator must return (n,3,3)")
        return out


def identity_coefficient(scale=1.0):
    return MatrixCoefficient(
        lambda pts: np.broadcast_to(scale * np.eye(3), (len(pts), 3, 3)).copy(),
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
        """Whitney edge basis at barycentric points: (T,Q,6,3)."""
        a = self.edge_loc[:, :, 0]
        b = self.edge_loc[:, :, 1]
        ga = np.take_along_axis(self.grads, a[:, :, None], axis=1)  # (T,6,3)
        gb = np.take_along_axis(self.grads, b[:, :, None], axis=1)
        la = lam[:, a.ravel()].reshape(len(lam), *a.shape)  # (Q,T,6)
        lb = lam[:, b.ravel()].reshape(len(lam), *b.shape)
        vals = la[..., None] * gb[None] - lb[..., None] * ga[None]  # (Q,T,6,3)
        return np.transpose(vals, (1, 0, 2, 3))

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

    def face_divs(self):
        """div of the Whitney face basis, constant per cell: (T,4)."""
        i = self.face_loc[:, :, 0]
        j = self.face_loc[:, :, 1]
        k = self.face_loc[:, :, 2]
        gi = np.take_along_axis(self.grads, i[:, :, None], axis=1)
        gj = np.take_along_axis(self.grads, j[:, :, None], axis=1)
        gk = np.take_along_axis(self.grads, k[:, :, None], axis=1)
        return 6.0 * np.einsum("tfi,tfi->tf", gi, np.cross(gj, gk))


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


def _local_dofs(space):
    mesh = space.mesh
    fam = space.family
    if fam == "P1_scalar":
        return space.dof_map[0][mesh.tets]
    if fam == "P1_vector":
        return np.concatenate(
            [space.dof_map[m][mesh.tets] for m in range(3)], axis=1
        )  # (T,12), comp-major
    if fam == "Edge0":
        return space.dof_map[0][mesh.tet_edges]
    if fam == "Face0":
        return space.dof_map[0][mesh.tet_faces]
    if fam == "P0_scalar":
        return space.dof_map[0][np.arange(mesh.num_tets)[:, None]]
    raise ValueError(fam)


def _scatter(loc, rows_dofs, cols_dofs, shape, symmetrize):
    nr, nc = loc.shape[1], loc.shape[2]
    rows = np.repeat(rows_dofs[:, :, None], nc, axis=2).ravel()
    cols = np.repeat(cols_dofs[:, None, :], nr, axis=1).ravel()
    vals = loc.ravel()
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=shape
    ).tocsr()
    mat.sum_duplicates()
    if symmetrize:
        mat = (mat + mat.T) * 0.5
    return mat


def _quad(degree, quad_order):
    pts, wts = tet_rule(degree if quad_order is None else max(degree, quad_order))
    return pts, wts, barycentric(pts)


# --------------------------------------------------------------------------
# local matrices per form
# --------------------------------------------------------------------------


def _p1_mass_local(geom):
    M = (np.ones((4, 4)) + np.eye(4)) / 20.0
    return geom.vols[:, None, None] * M[None]


def _p1_stiff_local(geom):
    return geom.vols[:, None, None] * np.einsum("tid,tjd->tij", geom.grads, geom.grads)


def _vector_block(loc4):
    """Expand a (T,4,4) scalar block to a (T,12,12) comp-major block diagonal."""
    T = loc4.shape[0]
    out = np.zeros((T, 12, 12))
    for m in range(3):
        out[:, 4 * m : 4 * m + 4, 4 * m : 4 * m + 4] = loc4
    return out


def _divdiv_p1_local(geom):
    g = geom.grads
    T = g.shape[0]
    out = np.empty((T, 12, 12))
    for m in range(3):
        for n in range(3):
            out[:, 4 * m : 4 * m + 4, 4 * n : 4 * n + 4] = np.einsum(
                "ti,tj->tij", g[:, :, m], g[:, :, n]
            )
    return geom.vols[:, None, None] * out


def _curlcurl_p1_local(geom):
    g = geom.grads
    eye = np.eye(3)
    cb = np.cross(g[:, :, None, :], eye[None, None, :, :])  # (T,4,3comp,3)
    cb = np.transpose(cb, (0, 2, 1, 3)).reshape(len(g), 12, 3)  # comp-major
    return geom.vols[:, None, None] * np.einsum("tid,tjd->tij", cb, cb)


def assemble(form, trial, test=None, coeff=None, quad_order=None):
    """Assemble a bilinear form into a CSR matrix over free dofs.

    Forms: mass, grad, symgrad, curlcurl, divdiv, symF, mixed_grad,
    curl_map, div_map, tensor_mass, tensor_sym, tensor_curlcurl,
    tensor_symF.  trial/test are DofSpaces over the same mesh (test
    defaults to trial).
    """
    test = trial if test is None else test
    if trial.mesh is not test.mesh:
        raise ValueError("trial and test spaces live on different meshes")
    geom = geometry(trial.mesh)

    if form == "mixed_grad":
        return _mixed_grad(trial, test)
    if form == "curl_map":
        return _curl_map(trial, test)
    if form == "div_map":
        return _div_map(trial, test, geom)
    if form in ("symgrad", "symF", "tensor_sym", "tensor_symF"):
        return _strain(form, trial, test, geom, coeff, quad_order)

    fam = trial.family
    if form == "mass":
        if fam == "P1_scalar":
            loc = _p1_mass_local(geom)
        elif fam == "P1_vector":
            loc = _vector_block(_p1_mass_local(geom))
        elif fam == "Edge0":
            pts, wts, lam = _quad(2, quad_order)
            W = geom.edge_values(lam)
            loc = 6.0 * geom.vols[:, None, None] * np.einsum(
                "q,tqed,tqfd->tef", wts, W, W
            )
        elif fam == "Face0":
            pts, wts, lam = _quad(2, quad_order)
            W = geom.face_values(lam)
            loc = 6.0 * geom.vols[:, None, None] * np.einsum(
                "q,tqed,tqfd->tef", wts, W, W
            )
        elif fam == "P0_scalar":
            loc = geom.vols[:, None, None]
        else:
            raise ValueError(f"mass undefined for {fam}")
    elif form == "grad":
        if fam == "P1_scalar":
            loc = _p1_stiff_local(geom)
        elif fam == "P1_vector":
            loc = _vector_block(_p1_stiff_local(geom))
        else:
            raise ValueError(f"grad undefined for {fam}")
    elif form == "divdiv":
        if fam == "P1_vector":
            loc = _divdiv_p1_local(geom)
        elif fam == "Face0":
            d = geom.face_divs()
            loc = geom.vols[:, None, None] * np.einsum("te,tf->tef", d, d)
        else:
            raise ValueError(f"divdiv undefined for {fam}")
    elif form == "curlcurl":
        if fam == "Edge0":
            c = geom.edge_curls()
            loc = geom.vols[:, None, None] * np.einsum("ted,tfd->tef", c, c)
        elif fam == "P1_vector":
            loc = _curlcurl_p1_local(geom)
        else:
            raise ValueError(f"curlcurl undefined for {fam}")
    elif form == "tensor_mass":
        return sp.block_diag([assemble("mass", trial, quad_order=quad_order)] * 3).tocsr()
    elif form == "tensor_curlcurl":
        return sp.block_diag(
            [assemble("curlcurl", trial, quad_order=quad_order)] * 3
        ).tocsr()
    else:
        raise ValueError(f"unknown form {form!r}")

    rows_dofs = _local_dofs(test)
    cols_dofs = _local_dofs(trial)
    return _scatter(
        loc, rows_dofs, cols_dofs, (test.free_count, trial.free_count),
        symmetrize=(trial is test),
    )


def _coeff_quaddeg(coeff, base):
    """Rule degree of a form of degree base weighted by coeff on both sides:
    2d for the P1 strain forms (the 1-point rule without a coefficient),
    2 + 2d for the edge-tensor forms, with d the coefficient's degree."""
    if coeff is None:
        return base
    if coeff.degree is None:
        warnings.warn(
            "non-polynomial coefficient: integrating at degree "
            f"{DEFAULT_QUAD_DEGREE} (or assemble's quad_order, if higher), "
            "result is approximate",
            QuadratureWarning,
        )
        return DEFAULT_QUAD_DEGREE
    return base + 2 * coeff.degree


def _strain_local(h, wts):
    """Local matrices <sym(e_m h_i^T), sym(e_n h_j^T)> of basis vectors h
    (T,Q,nb,3) summed with the rule weights: (T,3nb,3nb), component-major,
    entry (m i, n j) = 1/2 delta_mn h_i.h_j + 1/2 h_i,n h_j,m."""
    T, Q, nb, _ = h.shape
    # the rule weights are positive; one contiguous copy of sqrt(w) h serves
    # both factors of K[t,i,a,j,b] = sum_q w_q h_i,a h_j,b
    s = np.multiply(h, np.sqrt(wts)[:, None, None], order="C").reshape(T, Q, 3 * nb)
    K = np.matmul(np.swapaxes(s, 1, 2), s).reshape(T, nb, 3, nb, 3)
    del s  # the largest array here with a coefficient's rule
    out = K.transpose(0, 4, 1, 2, 3).reshape(T, 3 * nb, 3 * nb)  # a copy
    out += np.kron(np.eye(3), np.trace(K, axis1=2, axis2=4))
    return 0.5 * out


def _strain(form, trial, test, geom, coeff, quad_order):
    """<sym(X F), sym(Y F)> for X, Y the gradients of P1_vector fields or
    Edge0 tensors, the dofs of tensor row m offset by m * free_count."""
    tensor = form.startswith("tensor")
    if tensor and trial.family != "Edge0":
        raise ValueError("tensor forms need an Edge0 space")
    if not tensor and trial.family != "P1_vector":
        raise ValueError(f"{form} needs P1_vector")
    coeff = coeff if form.endswith("F") else None
    pts, wts, lam = _quad(_coeff_quaddeg(coeff, 2 if tensor else 0), quad_order)
    h = geom.edge_values(lam) if tensor else np.repeat(geom.grads[:, None], len(wts), 1)
    if coeff is not None:  # F^T h, F dropped before the kernel runs
        x = _cell_points(trial.mesh, pts)
        h = np.einsum("tqdk,tqid->tqik", coeff(x.reshape(-1, 3)).reshape(*x.shape, 3), h)
    loc = 6.0 * geom.vols[:, None, None] * _strain_local(h, wts)

    def comp_dofs(space):
        d, n = _local_dofs(space), space.free_count
        if not tensor:
            return d, n
        return np.concatenate([np.where(d >= 0, d + m * n, -1) for m in range(3)], axis=1), 3 * n

    (rows, nr), (cols, nc) = comp_dofs(test), comp_dofs(trial)
    nb = h.shape[2]
    # one component row at a time keeps the scatter's index arrays small
    mat = sum(
        _scatter(loc[:, r : r + nb], rows[:, r : r + nb], cols, (nr, nc), symmetrize=False)
        for r in range(0, 3 * nb, nb)
    )
    return (mat + mat.T) * 0.5 if trial is test else mat


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


def _div_map(trial, test, geom):
    if trial.family != "Face0" or test.family != "P0_scalar":
        raise ValueError("div_map maps Face0 into P0")
    mesh = trial.mesh
    signs = np.sign(geom.face_divs())  # +1 when the global normal points outward
    vals = (signs / geom.vols[:, None]).ravel()
    rows = np.repeat(test.dof_map[0][np.arange(mesh.num_tets)], 4)
    cols = trial.dof_map[0][mesh.tet_faces].ravel()
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


def evaluate_norms(obj, which, quad_order=None):
    """Squared norms of a discrete or analytic field over its mesh.

    which: iterable of 'L2', 'grad', 'sym', 'curl', 'div' or
    ('dev_alpha', alpha).  obj is a Field, a TensorField, or an analytic
    object exposing .mesh, .value(pts) and, for derivative norms,
    .jacobian(pts); a .degree attribute makes the quadrature exact.
    """
    requested = list(which)
    if isinstance(obj, (Field, TensorField)):
        mesh, deg = obj.space.mesh, 2  # lowest-order fields are affine per cell
    else:
        degree = getattr(obj, "degree", None)
        mesh, deg = obj.mesh, DEFAULT_QUAD_DEGREE if degree is None else 2 * degree
    geom = geometry(mesh)
    pts, wts, lam = _quad(deg, quad_order)
    w_phys = 6.0 * np.einsum("t,q->tq", geom.vols, wts)
    q = _pointwise(obj, mesh, geom, lam, pts)

    out = {}
    for req in requested:
        name, alpha = (req, None) if isinstance(req, str) else ("dev_alpha", req[1])
        key = req if isinstance(req, str) else f"dev_alpha({alpha:g})"
        kind = q["kind"]
        if name == "L2":
            v = q["value"]
            sq = v**2 if v.ndim == 2 else np.sum(v**2, axis=tuple(range(2, v.ndim)))
        elif kind == "scalar" and name == "grad" and "grad" in q:
            sq = np.sum(q["grad"] ** 2, axis=-1)
        elif kind == "vector" and "jac" in q:
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
        elif kind == "vector" and name == "curl" and "curl" in q:
            sq = np.sum(q["curl"] ** 2, axis=-1)
        elif kind == "vector" and name == "div" and "div" in q:
            sq = q["div"] ** 2
        elif kind == "tensor":
            Tv = q["value"]
            if name == "sym":
                sq = np.sum(_sym(Tv) ** 2, axis=(-2, -1))
            elif name == "dev_alpha":
                sq = np.sum(dev_alpha(_sym(Tv), alpha) ** 2, axis=(-2, -1))
            elif name == "curl" and "curl" in q:
                sq = np.sum(q["curl"] ** 2, axis=(-2, -1))
            else:
                raise ValueError(f"norm {name!r} undefined for tensor fields")
        else:
            raise ValueError(f"norm {name!r} undefined for this input")
        out[key] = float(np.sum(w_phys * sq))
    return out


def _pointwise(obj, mesh, geom, lam, pts):
    """Pointwise quantities per cell and quadrature point."""
    Q = len(lam)
    if isinstance(obj, TensorField):
        W = geom.edge_values(lam)
        full = np.stack(
            [obj.space.full_from_free(obj.rows[m])[0] for m in range(3)]
        )
        c = full[:, mesh.tet_edges]  # (3,T,6)
        vals = np.einsum("mte,tqed->tqmd", c, W)
        curl = np.broadcast_to(
            np.einsum("mte,ted->tmd", c, geom.edge_curls())[:, None],
            (c.shape[1], Q, 3, 3),
        )
        return {"kind": "tensor", "value": vals, "curl": curl}
    if isinstance(obj, Field):
        space = obj.space
        full = space.full_from_free(obj.coeffs)
        fam = space.family
        if fam == "P1_scalar":
            u = full[0][mesh.tets]
            grad = np.einsum("ti,tid->td", u, geom.grads)
            return {
                "kind": "scalar",
                "value": np.einsum("qi,ti->tq", lam, u),
                "grad": np.broadcast_to(grad[:, None], (len(u), Q, 3)),
            }
        if fam == "P1_vector":
            u = full[:, mesh.tets]
            J = np.einsum("mti,tid->tmd", u, geom.grads)
            return {
                "kind": "vector",
                "value": np.einsum("qi,mti->tqm", lam, u),
                "jac": np.broadcast_to(J[:, None], (J.shape[0], Q, 3, 3)),
            }
        if fam == "Edge0":
            c = full[0][mesh.tet_edges]
            W = geom.edge_values(lam)
            curl = np.einsum("te,ted->td", c, geom.edge_curls())
            return {
                "kind": "vector",
                "value": np.einsum("te,tqed->tqd", c, W),
                "curl": np.broadcast_to(curl[:, None], (len(c), Q, 3)),
            }
        if fam == "Face0":
            c = full[0][mesh.tet_faces]
            W = geom.face_values(lam)
            div = np.einsum("tf,tf->t", c, geom.face_divs())
            return {
                "kind": "vector",
                "value": np.einsum("tf,tqfd->tqd", c, W),
                "div": np.broadcast_to(div[:, None], (len(c), Q)),
            }
        if fam == "P0_scalar":
            return {
                "kind": "scalar",
                "value": np.broadcast_to(full[0][:, None], (len(full[0]), Q)),
            }
        raise ValueError(fam)
    # analytic object
    x = _cell_points(mesh, pts)
    flat = x.reshape(-1, 3)
    vals = np.asarray(obj.value(flat), dtype=float)
    T = x.shape[0]
    if vals.ndim == 1:
        q = {"kind": "scalar", "value": vals.reshape(T, Q)}
    elif vals.shape[-1] == 3 and vals.ndim == 2:
        q = {"kind": "vector", "value": vals.reshape(T, Q, 3)}
    else:
        q = {"kind": "tensor", "value": vals.reshape(T, Q, 3, 3)}
    if hasattr(obj, "jacobian"):
        jac = np.asarray(obj.jacobian(flat), dtype=float)
        if q["kind"] == "scalar":
            q["grad"] = jac.reshape(T, Q, 3)
        else:
            q["jac"] = jac.reshape(T, Q, 3, 3)
    return q
