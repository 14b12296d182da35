"""Optimal discrete constants of the inequality family and certification.

Every constant is the supremum of a Rayleigh quotient over a discrete
subspace, computed as 1/sqrt(lambda_min) of a generalized eigenproblem.
Because the gradient of the scalar space lies exactly inside the edge
space and the Helmholtz splits are mass-orthogonal, the chain of
estimates behind the main inequality transfers verbatim to the discrete
level; certify_main_inequality re-checks every link on a concrete field.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import hodge, linalg, meshes
from .assemble import assemble, geometry, tet_rule
from .hodge import SO3_BASIS
from .spaces import TensorField, build_space

DEFAULT_EIG_TOL = 1e-10
DEFAULT_SLACK = 1e-8  # certification margins absorb eigensolver error
KERNEL_REL_TOL = 1e-10


class KernelError(RuntimeError):
    """The pencil still contains kernel fields that were not deflated."""


@dataclass
class ConstantRecord:
    name: str
    value: float
    eigenvalue: float = None
    residual: float = None
    dim: int = None
    note: str = None

    def as_dict(self):
        return {
            "value": self.value,
            "eigenvalue": self.eigenvalue,
            "residual": self.residual,
            "dim": self.dim,
            "note": self.note,
        }


def _record(name, eig, dim, note=None):
    lam = float(eig.values[0])
    if lam <= 0:
        raise KernelError(f"{name}: nonpositive smallest eigenvalue {lam:.3e}")
    return ConstantRecord(
        name, 1.0 / np.sqrt(lam), lam, float(eig.residuals[0]), dim, note
    )


def _empty(name):
    return ConstantRecord(name, 0.0, None, None, 0, "EmptySpace")


# --------------------------------------------------------------------------
# scalar and vector constants
# --------------------------------------------------------------------------


def poincare_constant(mesh, tol=DEFAULT_EIG_TOL):
    """Optimal constant of |u| <= c |grad u| over the constrained scalars."""
    p1 = build_space(mesh, "P1_scalar", "gamma_t")
    if p1.free_count == 0:
        return _empty("c_p")
    A = assemble("grad", p1)
    B = assemble("mass", p1)
    deflation = None
    if not mesh.has_gamma_t:
        deflation = np.ones((p1.free_count, 1))  # pure Neumann: mean-zero
    eig = linalg.eig_smallest(A, B, k=1, deflation=deflation, tol=tol)
    return _record("c_p", eig, p1.free_count)


def _rotation_fields(space):
    """P1_vector coefficients of x -> S x for the three skew generators."""
    verts = space.mesh.vertices
    cols = []
    for S in SO3_BASIS:
        vals = verts @ S.T  # (V,3)
        cols.append(space.free_from_full(vals.T))
    return np.column_stack(cols)


def _translation_fields(space):
    cols = []
    for m in range(3):
        vals = np.zeros((3, space.mesh.num_vertices))
        vals[m] = 1.0
        cols.append(space.free_from_full(vals))
    return np.column_stack(cols)


def korn_constant_standard(mesh, tol=DEFAULT_EIG_TOL):
    """|grad v| <= c |sym grad v| over the constrained vector fields.

    Without a tag-1 boundary part the translations (kernel of both forms)
    and the rotations (B-orthogonally) are deflated, which restricts to
    fields whose gradients are orthogonal to the constant skews.
    """
    pv = build_space(mesh, "P1_vector", "gamma_t")
    if pv.free_count == 0:
        return _empty("c_k_s")
    A = assemble("symgrad", pv)
    B = assemble("grad", pv)
    deflation = None
    note = None
    if not mesh.has_gamma_t:
        if pv.free_count <= 6:
            return _empty("c_k_s")
        deflation = np.column_stack([_translation_fields(pv), _rotation_fields(pv)])
        note = "deflated: translations and rotations"
        if pv.free_count < linalg.DENSE_MAX:
            # the kernel of the strain form should be the six rigid modes;
            # anything beyond six is worth surfacing
            kdim = linalg.null_space(A).shape[1]
            note += f"; strain kernel dim {kdim}"
            if kdim > 6:
                note += " (EXCEEDS the 6 rigid modes)"
    eig = linalg.eig_smallest(A, B, k=1, deflation=deflation, tol=tol)
    return _record("c_k_s", eig, pv.free_count, note)


def korn_constant_tangential(mesh, tol=DEFAULT_EIG_TOL):
    """Same pencil over fields constant per tag-1 boundary component."""
    if not mesh.has_gamma_t:
        raise ValueError("the tangential constant needs a nonempty tag-1 part")
    pv = build_space(mesh, "P1_vector", "gamma_t", component_constant=True)
    if pv.free_count <= 3:  # nothing beyond the quotiented translations
        return _empty("c_k_t")
    A = assemble("symgrad", pv)
    B = assemble("grad", pv)
    deflation = _translation_fields(pv)  # global constants, kernel of B
    eig = linalg.eig_smallest(A, B, k=1, deflation=deflation, tol=tol)
    return _record("c_k_t", eig, pv.free_count, "constants quotiented")


# --------------------------------------------------------------------------
# curl-free tensor subspace machinery
# --------------------------------------------------------------------------


def _curlfree_basis(ops, harmonics):
    """Sparse map from (3 scalar potentials + harmonic amplitudes) to Edge0^3.

    Columns: per tensor row the discrete gradients of the free scalar dofs
    (one column pinned when the scalar space has no constraint, removing
    the per-row constant), then the harmonic fields per row.
    """
    G = ops.grad
    pin = not ops.edge_space.mesh.has_gamma_t
    Gp = G[:, 1:] if pin else G
    blocks = sp.block_diag([Gp] * 3, format="csc")
    if harmonics.dim:
        H = sp.csc_matrix(harmonics.fields.T)
        hb = sp.block_diag([H] * 3, format="csc")
        return sp.hstack([blocks, hb], format="csc"), Gp.shape[1]
    return blocks, Gp.shape[1]


def _so3_reduced(ops, npot, nharm):
    """Reduced coordinates of the constant skew tensors in the basis above."""
    mesh = ops.edge_space.mesh
    verts = mesh.vertices
    pin = not mesh.has_gamma_t
    cols = []
    for S in SO3_BASIS:
        vals = verts @ S.T  # potential of row m is (S x)_m
        col = []
        for m in range(3):
            pm = ops.p1_space.free_from_full(vals[:, m].reshape(1, -1))
            col.append(pm[1:] - pm[0] if pin else pm)
        red = np.concatenate(col)
        cols.append(np.concatenate([red, np.zeros(3 * nharm)]))
    return np.column_stack(cols)


@dataclass
class TensorPencil:
    space: object
    mass: sp.csr_matrix
    sym: sp.csr_matrix
    curlcurl: sp.csr_matrix


def tensor_pencil(mesh, ops=None, coeff=None, quad_order=None):
    ops = ops or hodge.edge_operators(mesh)
    e0 = ops.edge_space
    return TensorPencil(
        e0,
        assemble("tensor_mass", e0, quad_order=quad_order),
        assemble(
            "tensor_sym" if coeff is None else "tensor_symF",
            e0,
            coeff=coeff,
            quad_order=quad_order,
        ),
        assemble("tensor_curlcurl", e0, quad_order=quad_order),
    )


def korn_constant_irrotational(mesh, tol=DEFAULT_EIG_TOL, ops=None, harmonics=None,
                               coeff=None, name="c_k_irrot"):
    """|T| <= c |sym T| over the curl-free constrained tensor fields.

    With a tag-1 part the pencil runs on the full curl-free subspace.
    Without one, a single slice restricts orthogonally to the constant
    skews; several slices take the maximum of the slice-local constants
    (each slice is simply connected by assumption, matching the way the
    piecewise bound is assembled).
    """
    nslices = len(np.unique(mesh.slice_ids))
    if not mesh.has_gamma_t and nslices > 1:
        if coeff is not None:
            raise ValueError("the weighted constant needs a nonempty tag-1 part")
        recs = []
        for s in np.unique(mesh.slice_ids):
            sub = mesh.submesh(mesh.slice_ids == s)
            recs.append(korn_constant_irrotational(sub, tol, name=name))
        best = max(recs, key=lambda r: r.value)
        return ConstantRecord(
            name, best.value, best.eigenvalue, best.residual,
            sum(r.dim for r in recs), f"max over {nslices} slice pencils",
        )

    ops = ops or hodge.edge_operators(mesh)
    harmonics = harmonics or hodge.harmonic_basis(mesh, ops)
    if not mesh.has_gamma_t and harmonics.dim > 0:
        raise ValueError(
            "a domain with harmonic fields needs at least two slices when "
            "the tag-1 part is empty"
        )
    pencil = tensor_pencil(mesh, ops, coeff)
    W, npot = _curlfree_basis(ops, harmonics)
    if W.shape[1] == 0:
        return _empty(name)
    A = W.T @ (pencil.sym @ W)
    B = W.T @ (pencil.mass @ W)
    deflation = None
    note = None
    if not mesh.has_gamma_t:
        deflation = _so3_reduced(ops, npot, harmonics.dim)
        note = "deflated: constant skew tensors"
    eig = linalg.eig_smallest(A, B, k=1, deflation=deflation, tol=tol)
    rec = _record(name, eig, W.shape[1], note)
    return rec


def maxwell_constant(mesh, tol=DEFAULT_EIG_TOL, ops=None, harmonics=None):
    """Maxwell constant as the max of its gradient and coexact blocks.

    Gradient block: the scalar constant.  Coexact block: the curl-curl
    pencil restricted mass-orthogonally to the curl-free fields
    (gradients and harmonic fields deflated).
    """
    ops = ops or hodge.edge_operators(mesh)
    harmonics = harmonics or hodge.harmonic_basis(mesh, ops)
    grad_rec = poincare_constant(mesh, tol)
    grad_rec = ConstantRecord(
        "c_m_grad", grad_rec.value, grad_rec.eigenvalue, grad_rec.residual,
        grad_rec.dim, grad_rec.note,
    )
    e0 = ops.edge_space
    if e0.free_count == 0:
        coex_rec = _empty("c_m_coexact")
    else:
        G = ops.grad
        pin = not mesh.has_gamma_t
        Gp = G[:, 1:] if pin else G
        defl = [Gp] if Gp.shape[1] else []
        if harmonics.dim:
            defl.append(sp.csc_matrix(harmonics.fields.T))
        deflation = sp.hstack(defl, format="csc") if defl else None
        eig = linalg.eig_smallest(
            ops.curlcurl, ops.mass, k=1, deflation=deflation, tol=tol
        )
        coex_rec = _record("c_m_coexact", eig, e0.free_count, "gradients deflated")
    cm = max(grad_rec.value, coex_rec.value)
    which = "gradient" if grad_rec.value >= coex_rec.value else "coexact"
    cm_rec = ConstantRecord("c_m", cm, None, None, None, f"max attained by {which} block")
    return cm_rec, grad_rec, coex_rec


def derived_bounds(c_k, c_m):
    """The two combined constants of the main estimate."""
    if c_k <= 0 or c_m <= 0:
        raise ValueError("derived bounds need positive inputs")
    c_hat = max(np.sqrt(2.0) * c_k, c_m * np.sqrt(1.0 + 2.0 * c_k**2))
    c_tilde = np.sqrt(2.0) * max(c_k, c_m * (1.0 + c_k))
    assert c_tilde >= c_hat * (1.0 - 1e-15)
    return c_hat, c_tilde


def _slice_skew_constraints(space, mesh):
    """Rows c with c @ T_stacked = <T, S^l restricted to slice j>_M."""
    geom = geometry(mesh)
    lam = np.full((1, 4), 0.25)
    W = geom.edge_values(lam)[:, 0]  # (T,6,3)
    rows = []
    nfree = space.free_count
    for s in np.unique(mesh.slice_ids):
        sel = mesh.slice_ids == s
        # per-edge integral of W over the slice
        acc = np.zeros((mesh.num_edges, 3))
        np.add.at(
            acc,
            mesh.tet_edges[sel].ravel(),
            (geom.vols[sel, None, None] * W[sel]).reshape(-1, 3),
        )
        free_rows = space.dof_map[0]
        for S in SO3_BASIS:
            row = np.zeros(3 * nfree)
            for m in range(3):
                vals = acc @ S[m]
                keep = free_rows >= 0
                row[m * nfree + free_rows[keep]] = vals[keep]
            rows.append(row)
    return np.vstack(rows)


def direct_main_constant(mesh, tol=DEFAULT_EIG_TOL, ops=None, pencil=None,
                         deflate=True):
    """Optimal constant in |T| <= c (|sym T|^2 + |Curl T|^2)^(1/2).

    Full tensor pencil over the constrained edge tensors.  Without a
    tag-1 part the constant skews (one slice) or the per-slice skew
    moments (several slices) are removed; deflate=False surfaces the
    kernel as an error instead.
    """
    ops = ops or hodge.edge_operators(mesh)
    pencil = pencil or tensor_pencil(mesh, ops)
    A = (pencil.sym + pencil.curlcurl).tocsr()
    B = pencil.mass
    nslices = len(np.unique(mesh.slice_ids))
    deflation = None
    constraints = None
    note = None
    if not mesh.has_gamma_t and deflate:
        if nslices == 1:
            deflation = np.column_stack(
                [
                    hodge.constant_tensor_coeffs(pencil.space, S).reshape(-1)
                    for S in SO3_BASIS
                ]
            )
            note = "deflated: constant skew tensors"
        else:
            constraints = _slice_skew_constraints(pencil.space, mesh)
            note = f"deflated: per-slice skew moments ({nslices} slices)"
    eig = linalg.eig_smallest(
        A, B, k=1, deflation=deflation, constraints=constraints, tol=tol
    )
    lam = float(eig.values[0])
    scale = A.diagonal().sum() / max(B.diagonal().sum(), 1e-300)
    if lam <= KERNEL_REL_TOL * max(scale, 1.0):
        detail = "constant skew tensors span the kernel"
        if A.shape[0] < linalg.DENSE_MAX:
            kdim = linalg.null_space(A).shape[1]
            detail = f"kernel dimension {kdim}; {detail}"
        raise KernelError(
            "the semi-norm pencil has undeflated kernel fields "
            f"(lambda_min = {lam:.3e}); {detail}"
        )
    rec = _record("c_direct", eig, 3 * pencil.space.free_count, note)
    # norm equivalence |T|_{HCurl} vs the semi-norm from the same eigenvalue
    rec_equiv = float(np.sqrt(lam / (1.0 + lam)))
    return rec, rec_equiv


# --------------------------------------------------------------------------
# weighted variant
# --------------------------------------------------------------------------


def matrix_coefficient_norm(F, mesh, quad_order=None):
    """(c_F, mu_observed): max spectral norm and min determinant over the
    quadrature points and the mesh vertices (the vertices catch the
    extrema of per-cell affine coefficients)."""
    from .assemble import _cell_points

    deg = F.degree if F.degree is not None else 4
    pts, _ = tet_rule(max(deg, 2) if quad_order is None else quad_order)
    x = _cell_points(mesh, pts).reshape(-1, 3)
    x = np.vstack([x, mesh.vertices])
    vals = F(x)
    svals = np.linalg.svd(vals, compute_uv=False)
    c_F = float(svals[:, 0].max())
    mu = float(np.linalg.det(vals).min())
    if mu <= 0.0:
        raise NonPositiveDeterminant(
            f"coefficient determinant is {mu:.3e} at a quadrature point"
        )
    return c_F, mu


class NonPositiveDeterminant(ValueError):
    pass


def korn_constant_weighted(mesh, F, tol=DEFAULT_EIG_TOL, ops=None, harmonics=None):
    """Irrotational constant with the weighted strain sym(T F)."""
    if not mesh.has_gamma_t:
        raise ValueError("the weighted constant needs a nonempty tag-1 part")
    matrix_coefficient_norm(F, mesh)  # validates det F > 0
    return korn_constant_irrotational(
        mesh, tol, ops=ops, harmonics=harmonics, coeff=F, name="c_k_F"
    )


def derived_bound_weighted(c_k_F, c_m, c_F):
    if min(c_k_F, c_m, c_F) <= 0:
        raise ValueError("derived bounds need positive inputs")
    return max(
        np.sqrt(2.0) * c_k_F, c_m * np.sqrt(1.0 + 2.0 * c_k_F**2 * c_F**2)
    )


def certify_weighted_inequality(T, ws, weight, tol=DEFAULT_EIG_TOL):
    """Weighted-strain chain on one field: adds the |sym(S F)| <= c_F |S| link.

    Needs a nonempty tag-1 part.  Links mirror certify_main_inequality with
    the weighted Korn constant and the weighted semi-norm in the assembled
    bound.
    """
    mesh = ws.mesh
    if not mesh.has_gamma_t:
        raise ValueError("the weighted chain needs a nonempty tag-1 part")
    c_F, _ = matrix_coefficient_norm(weight, mesh)
    pencil_F = tensor_pencil(mesh, ws.ops, weight)
    rec_kF = korn_constant_weighted(mesh, weight, tol, ws.ops, ws.harmonics)
    c_m = ws.constant("c_m").value
    c_coex = ws.constant("c_m_coexact").value
    c_hat_F = derived_bound_weighted(rec_kF.value, c_m, c_F)

    M, Kcc, AsymF = ws.pencil.mass, ws.pencil.curlcurl, pencil_F.sym

    def mnorm(vec, mat):
        return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

    split = hodge.helmholtz_split_tensor(T, ws.harmonics, ws.ops)
    R, S = split.parts()
    t, r, s = T.stacked(), R.stacked(), S.stacked()
    nT, nR, nS = mnorm(t, M), mnorm(r, M), mnorm(s, M)
    floor = 1e-6 * max(nT, 1e-300)
    links = {}

    def ineq(name, lhs, rhs):
        links[name] = {"lhs": lhs, "rhs": rhs,
                       "margin": (rhs - lhs) / max(abs(rhs), floor)}

    links["orthogonality"] = {
        "lhs": abs(float(r @ (M @ s))) / max(nT**2, 1e-300),
        "rhs": 0.0,
        "margin": -abs(float(r @ (M @ s))) / max(nT**2, 1e-300),
    }
    curl_T = mnorm(t, Kcc)
    ineq("coexact_estimate", nS, c_coex * curl_T)
    ineq("weighted_korn_link", nR, rec_kF.value * mnorm(r, AsymF))
    ineq("weight_norm_link", mnorm(s, AsymF), c_F * nS)
    semi_F = float(np.sqrt(mnorm(t, AsymF) ** 2 + curl_T**2))
    ineq("assembled_bound", nT, c_hat_F * semi_F)
    failed = [k for k, v in links.items() if v["margin"] < -ws.slack]
    return CertificationRecord("weighted", links, np.zeros((3, 3)), not failed, failed)


# --------------------------------------------------------------------------
# q-form dispatcher
# --------------------------------------------------------------------------


def generalized_poincare(q, mesh, tol=DEFAULT_EIG_TOL):
    """Constant of the rank-q estimate via the vector-proxy dualities."""
    if q == 0:
        return poincare_constant(mesh, tol)
    if q == 1:
        return maxwell_constant(mesh, tol)[0]
    if q == 2:
        return maxwell_constant(mesh.swap_tags(), tol)[0]
    if q == 3:
        return poincare_constant(mesh.swap_tags(), tol)
    raise ValueError("q must be 0..3")


# --------------------------------------------------------------------------
# certification
# --------------------------------------------------------------------------


@dataclass
class CertificationRecord:
    case: str
    links: dict  # name -> {lhs, rhs, margin}
    skew_shift: np.ndarray
    verdict: bool
    failed: list

    def margins(self):
        return {k: v["margin"] for k, v in self.links.items()}


class Workspace:
    """Mesh-bound bundle of operators, harmonic basis and constants."""

    def __init__(self, mesh, tol=DEFAULT_EIG_TOL, slack=DEFAULT_SLACK,
                 quad_order=None, deflation_tol=1e-8):
        self.mesh = mesh
        self.tol = tol
        self.slack = slack
        self.quad_order = quad_order
        self.ops = hodge.edge_operators(mesh)
        self.harmonics = hodge.harmonic_basis(mesh, self.ops, rel_tol=deflation_tol)
        self.pencil = tensor_pencil(mesh, self.ops, quad_order=quad_order)
        self.curl_incidence = assemble(
            "curl_map", self.ops.edge_space, build_space(mesh, "Face0")
        )
        self._cache = {}

    def constant(self, name):
        if name in self._cache:
            return self._cache[name]
        mesh = self.mesh
        if name == "c_p":
            rec = poincare_constant(mesh, self.tol)
        elif name == "c_k_s":
            rec = korn_constant_standard(mesh, self.tol)
        elif name == "c_k_t":
            rec = korn_constant_tangential(mesh, self.tol)
        elif name == "c_k_irrot":
            rec = korn_constant_irrotational(mesh, self.tol, self.ops, self.harmonics)
        elif name in ("c_m", "c_m_grad", "c_m_coexact"):
            cm, grad, coex = maxwell_constant(mesh, self.tol, self.ops, self.harmonics)
            self._cache.update({"c_m": cm, "c_m_grad": grad, "c_m_coexact": coex})
            return self._cache[name]
        elif name == "c_direct":
            rec, equiv = direct_main_constant(mesh, self.tol, self.ops, self.pencil)
            self._cache["norm_equivalence"] = equiv
        else:
            raise KeyError(name)
        self._cache[name] = rec
        return rec

    @property
    def case(self):
        if self.mesh.has_gamma_t:
            return "tangential"
        return "simply_connected" if len(np.unique(self.mesh.slice_ids)) == 1 else "sliced"

    def random_tensor(self, rng):
        n = self.pencil.space.free_count
        return TensorField(self.pencil.space, rng.standard_normal((3, n)))


def certify_main_inequality(T, ws):
    """Replicate the proof chain on one tensor field and report margins.

    Links: (a) split orthogonality, (b) curl preservation, (c) the coexact
    estimate, (d) the Korn link on the curl-free part, (e) the assembled
    bound.  Margins are relative; the verdict demands all >= -slack.
    """
    mesh = ws.mesh
    M, Asym, Kcc = ws.pencil.mass, ws.pencil.sym, ws.pencil.curlcurl
    slack = ws.slack

    def mnorm(vec, mat):
        return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

    split = hodge.helmholtz_split_tensor(T, ws.harmonics, ws.ops)
    R, S = split.parts()
    t, r, s = T.stacked(), R.stacked(), S.stacked()
    nT, nR, nS = mnorm(t, M), mnorm(r, M), mnorm(s, M)
    links = {}
    # degenerate links (both sides at rounding level) are measured against
    # the size of T instead of against a vanishing right-hand side
    floor = 1e-6 * max(nT, 1e-300)

    def ineq(name, lhs, rhs):
        links[name] = {
            "lhs": lhs,
            "rhs": rhs,
            "margin": (rhs - lhs) / max(abs(rhs), floor),
        }

    def equality(name, resid):
        links[name] = {"lhs": resid, "rhs": 0.0, "margin": -resid}

    # (a) mass-orthogonality of the split, relative to |T|^2 (the size at
    # which a defect would perturb the Pythagoras step of the chain)
    equality("orthogonality", abs(float(r @ (M @ s))) / max(nT**2, 1e-300))

    # (b) the coexact part carries the whole curl (incidence level, so the
    # gradient rows cancel exactly)
    Cinc = ws.curl_incidence
    curl_T = mnorm(t, Kcc)
    inc_R = np.linalg.norm(np.column_stack([Cinc @ row for row in R.rows]))
    inc_T = np.linalg.norm(np.column_stack([Cinc @ row for row in T.rows]))
    inc_floor = 1e-6 * max(np.linalg.norm(t), 1e-300)
    equality("curl_transfer", inc_R / max(inc_T, inc_floor))

    # (c) coexact estimate
    c_coex = ws.constant("c_m_coexact").value
    c_m = ws.constant("c_m").value
    ineq("coexact_estimate", nS, c_coex * curl_T)
    ineq("coexact_estimate_cm", nS, c_m * curl_T)

    # (d) Korn link on the curl-free part
    case = ws.case
    c_k = ws.constant("c_k_irrot").value
    sym_R = mnorm(r, Asym)
    if case == "tangential":
        shift = np.zeros((3, 3))
        lhs_d = nR
    elif case == "simply_connected":
        shift = hodge.project_so3(R)
        shifted = r - hodge.constant_tensor_coeffs(T.space, shift).reshape(-1)
        lhs_d = mnorm(shifted, M)
    else:
        labels, skews = hodge.piecewise_skew(R)
        vols = geometry(mesh).vols
        means = np.stack(
            [hodge._edge_cell_means(T.space, R.rows[m]) for m in range(3)]
        )
        cross = 0.0
        ssq = 0.0
        for j, lab in enumerate(labels):
            sel = mesh.slice_ids == lab
            mean_j = np.einsum("t,mtd->md", vols[sel], means[:, sel])
            cross += float(np.tensordot(mean_j, skews[j]))
            ssq += float(vols[sel].sum() * np.tensordot(skews[j], skews[j]))
        lhs_d = float(np.sqrt(max(nR**2 - 2.0 * cross + ssq, 0.0)))
        shift = skews
    ineq("korn_link", lhs_d, c_k * sym_R)

    # (e) assembled bound
    sym_T = mnorm(t, Asym)
    seminorm = float(np.sqrt(sym_T**2 + curl_T**2))
    c_hat, c_tilde = derived_bounds(c_k, c_m)
    if case == "tangential":
        ineq("assembled_bound", nT, c_hat * seminorm)
    elif case == "simply_connected":
        shifted = t - hodge.constant_tensor_coeffs(T.space, shift).reshape(-1)
        ineq("assembled_bound", mnorm(shifted, M), c_hat * seminorm)
        # the skew average of T equals the one of its curl-free part
        s_T = hodge.project_so3(TensorField(T.space, T.rows))
        denom = max(np.linalg.norm(s_T), np.linalg.norm(shift), 1e-300)
        equality("skew_consistency", float(np.linalg.norm(s_T - shift)) / denom)
    else:
        # piecewise shift loses the orthogonality, so the weaker combined
        # constant applies; the skew averages of T and R differ here since
        # the coexact part only has zero mean globally
        labels, _ = hodge.piecewise_skew(TensorField(T.space, T.rows))
        vols = geometry(mesh).vols
        means = np.stack(
            [hodge._edge_cell_means(T.space, T.rows[m]) for m in range(3)]
        )
        cross = ssq = 0.0
        for j, lab in enumerate(labels):
            sel = mesh.slice_ids == lab
            mean_j = np.einsum("t,mtd->md", vols[sel], means[:, sel])
            cross += float(np.tensordot(mean_j, shift[j]))
            ssq += float(vols[sel].sum() * np.tensordot(shift[j], shift[j]))
        lhs_e = float(np.sqrt(max(nT**2 - 2.0 * cross + ssq, 0.0)))
        ineq("assembled_bound", lhs_e, c_tilde * seminorm)

    failed = [k for k, v in links.items() if v["margin"] < -slack]
    return CertificationRecord(case, links, shift, not failed, failed)


# --------------------------------------------------------------------------
# full report
# --------------------------------------------------------------------------


def mesh_digest(mesh):
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.tets, mesh.slice_ids, mesh.btris, mesh.btri_tags):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def compute_report(mesh, tol=DEFAULT_EIG_TOL, slack=DEFAULT_SLACK,
                   weight=None, certify_samples=0, seed=0, quad_order=None,
                   deflation_tol=1e-8):
    """Compute every applicable constant and assemble the report dict."""
    ws = Workspace(mesh, tol, slack, quad_order, deflation_tol)

    records = {}
    for name in ("c_p", "c_k_s"):
        records[name] = ws.constant(name)
    if mesh.has_gamma_t:
        records["c_k_t"] = ws.constant("c_k_t")
    records["c_k_irrot"] = ws.constant("c_k_irrot")
    for name in ("c_m", "c_m_grad", "c_m_coexact"):
        records[name] = ws.constant(name)
    records["c_direct"] = ws.constant("c_direct")

    c_hat, c_tilde = derived_bounds(
        records["c_k_irrot"].value, records["c_m"].value
    )
    report = {
        "mesh": {
            "id": mesh_digest(mesh),
            "vertices": mesh.num_vertices,
            "tets": mesh.num_tets,
            "edges": mesh.num_edges,
            "faces": mesh.num_faces,
            "volume": float(mesh.tet_volumes().sum()),
        },
        "tags": {
            "gamma_t_tris": int(np.sum(mesh.btri_tags == meshes.GAMMA_T)),
            "gamma_n_tris": int(np.sum(mesh.btri_tags == meshes.GAMMA_N)),
            "slices": int(len(np.unique(mesh.slice_ids))),
            "case": ws.case,
        },
        "harmonic_dim": ws.harmonics.dim,
    }
    for name, rec in records.items():
        report[name] = rec.as_dict()
    report["c_hat"] = c_hat
    report["c_tilde"] = c_tilde
    report["norm_equivalence"] = ws._cache.get("norm_equivalence")
    bound = c_hat if ws.case != "sliced" else c_tilde
    report["tightness"] = records["c_direct"].value / bound
    report["orderings"] = _orderings(records, c_hat, mesh.has_gamma_t)
    report["orderings"]["direct_le_derived"] = bool(
        records["c_direct"].value <= bound * (1.0 + slack)
    )
    report["orderings"]["derived_bound_used"] = (
        "c_tilde" if ws.case == "sliced" else "c_hat"
    )

    if weight is not None:
        c_F, mu = matrix_coefficient_norm(weight, mesh)
        rec = korn_constant_weighted(mesh, weight, tol, ws.ops, ws.harmonics)
        report["c_F"] = c_F
        report["mu_observed"] = mu
        report["c_k_F"] = rec.as_dict()
        report["c_hat_F"] = derived_bound_weighted(
            rec.value, records["c_m"].value, c_F
        )

    verdicts = {}
    margins = {}
    if certify_samples:
        rng = np.random.default_rng(seed)
        ok = 0
        worst = None
        for i in range(certify_samples):
            cert = certify_main_inequality(ws.random_tensor(rng), ws)
            ok += cert.verdict
            for k, v in cert.margins().items():
                if k not in margins or v < margins[k]:
                    margins[k] = v
            if not cert.verdict and worst is None:
                worst = cert.failed
        verdicts["certified_samples"] = ok
        verdicts["samples"] = certify_samples
        verdicts["all_true"] = ok == certify_samples
        if worst:
            verdicts["first_failure_links"] = worst
    report["verdicts"] = verdicts
    report["margins"] = margins
    return report


def _orderings(records, c_hat, has_gamma_t):
    out = {}
    if has_gamma_t and "c_k_t" in records:
        chain = [
            records["c_k_s"].value,
            records["c_k_t"].value,
            records["c_k_irrot"].value,
            c_hat,
        ]
        out["korn_chain"] = chain
        out["korn_chain_ok"] = bool(
            all(a <= b * (1 + 1e-10) + 1e-10 for a, b in zip(chain, chain[1:]))
        )
    return out
