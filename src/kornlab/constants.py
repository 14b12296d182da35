"""Optimal discrete constants of the inequality family and certification.

Every constant is the supremum of a Rayleigh quotient over a discrete
subspace, computed as 1/sqrt(lambda_min) of a generalized eigenproblem.
Because the gradient of the scalar space lies exactly inside the edge
space and the Helmholtz splits are mass-orthogonal, the chain of
estimates behind the main inequality transfers verbatim to the discrete
level; certify_main_inequality re-checks every link on a concrete field.
No constant counts a kernel: each pencil has its kernel pinned, deflated or
constrained away and asks for one pair.  The one kernel count, the
harmonic dimension, is hodge.harmonic_basis's.
"""

import contextlib
import hashlib
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import hodge, linalg, meshes
from .assemble import assemble, tet_rule
from .hodge import SO3_BASIS
from .linalg import DEFAULT_EIG_TOL
from .spaces import TensorField, build_space

DEFAULT_SLACK = 1e-8  # certification margins absorb eigensolver error
KERNEL_REL_TOL = 1e-10
# largest relative eigenpair residual |A x - lambda B x| / (lambda |B x|) a
# constant accepts, in units of max(tol, 1e-12); it reads the same at every
# length scale, and correct pairs stay below 1e-11
RESIDUAL_FACTOR = 1e4
# relative margin of a proven lower bound that places a seeded shift just below
# it: absorbs the eigensolver error of c_k_irrot and c_m_coexact, from which
# c_direct's bound is derived, and the rounding of the clamped Korn pencil
BRACKET_MARGIN = 1e-8
# the shift of the P1 Korn pencil on a fully tagged boundary, just below the
# lower bound 1/2 of Korn's identity (_p1_korn)
KORN_SHIFT = 0.5 * (1.0 - BRACKET_MARGIN)


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
    # the pair of the pencil solved, not reported: kept P1 dofs or curl-free
    # coordinates y; only Workspace.direct_seed lifts one to Edge0^3 (W y)
    vector: np.ndarray = field(default=None, repr=False, compare=False)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("name", "vector")}


def _record(name, mesh, eig, B, dim, tol, note=None):
    """1/sqrt(lambda) of the smallest pair of a pencil on mesh with mass form B.

    The reported residual is the B-scaled |A x - lambda B x| of the pair.
    A pair that does not solve its pencil, its residual relative to
    lambda |B x| above RESIDUAL_FACTOR * max(tol, 1e-12), raises
    linalg.SolverError, which ends with the mesh's meshes.shape_advisory
    when it has one.
    """
    lam = float(eig.values[0])
    if lam <= 0:
        raise KernelError(f"{name}: nonpositive smallest eigenvalue {lam:.3e}")
    res = float(eig.residuals[0])
    x = eig.vectors[:, 0]
    Bx = B @ x
    rel = res * np.sqrt(abs(x @ Bx)) / max(lam * np.linalg.norm(Bx), 1e-300)
    if rel > RESIDUAL_FACTOR * max(tol, 1e-12):
        flat = meshes.shape_advisory(mesh)
        raise linalg.SolverError(
            f"{name}: relative eigenpair residual {rel:.3e} at lambda = {lam:.6e} "
            f"exceeds {RESIDUAL_FACTOR:.0e} * max(tol, 1e-12)" + (f"; {flat}" if flat else "")
        )
    return ConstantRecord(name, 1.0 / np.sqrt(lam), lam, res, dim, note, x)


def _empty(name):
    return ConstantRecord(name, 0.0, None, None, 0, "EmptySpace")


# --------------------------------------------------------------------------
# scalar and vector constants
# --------------------------------------------------------------------------


def poincare_constant(mesh, tol=DEFAULT_EIG_TOL, *, ops=None):
    """Optimal constant of |u| <= c |grad u| over the constrained scalars.

    ops, when given, supplies the scalar space (its p1_space).  The tag-1
    part pins the constants of every cell component it touches, and without
    one the mean-zero deflation removes a single constant; a cell component
    left with its constant unpinned raises KernelError before any solve.
    """
    count, linked = meshes.cell_components(mesh)
    unpinned = count - linked - (not mesh.has_gamma_t)
    if unpinned > 0:
        raise KernelError(f"c_p: {unpinned} cell component(s) without a tag-1 vertex keep "
                          "their constants in the kernel (the mean-zero deflation removes "
                          "only one, and only without a tag-1 part)")
    p1 = ops.p1_space if ops is not None else build_space(mesh, "P1_scalar", "gamma_t")
    if p1.free_count == 0:
        return _empty("c_p")
    A = assemble("grad", p1)
    B = assemble("mass", p1)
    deflation = None
    if not mesh.has_gamma_t:
        deflation = np.ones((p1.free_count, 1))  # pure Neumann: mean-zero
    eig = linalg.eig_smallest(A, B, k=1, deflation=deflation, tol=tol)
    return _record("c_p", mesh, eig, B, p1.free_count, tol)


def _pin_vertex0(space, *forms):
    """The forms without the free dofs of vertex 0.

    The translations lie in the kernel of both Korn forms; pinning vertex 0,
    as EdgeOperators.pinned_grad pins the potentials, removes them and
    leaves the gradient form positive definite.
    """
    keep = np.ones(space.free_count, dtype=bool)
    keep[space.dof_map[:, 0]] = False
    return tuple(F[keep][:, keep] for F in forms)


def _vertex0_rotations(mesh):
    """The rotations about vertex 0, pinned there: one row per generator S^l.

    Row l holds the P1 interpolant of x -> S^l (x - x_0) on every vertex
    but vertex 0, where it vanishes, one component after the other.  Without
    a tag-1 part these are the kept dofs of P1_vector (_pin_vertex0), and
    the pinned potentials of the three tensor rows whose gradients are the
    rows of the constant skew S^l.
    """
    x = mesh.vertices[1:] - mesh.vertices[0]
    return np.stack([(x @ S.T).T.reshape(-1) for S in SO3_BASIS])


def _p1_korn(name, mesh, tol, component_constant=False):
    """Record name of the P1 Korn pencil (symgrad, grad), on the vector
    space folded per tag-1 component when component_constant.

    Vertex 0 is pinned wherever the translations stay in the space, and
    without a tag-1 part the rotations about it are deflated too.  Any field
    the strain form annihilates beyond those makes the constant infinite and
    raises KernelError.  The pair is in the kept dofs, one component after
    the other; dim counts every free dof.

    Where every boundary triangle is tag 1, Korn's identity 2|sym grad v|^2
    = |grad v|^2 + |div v|^2 holds for every field of the space (the
    boundary terms cancel on fields constant per boundary component), so
    lambda_1 >= 1/2, and the solve runs inside linalg.seeded at KORN_SHIFT
    just below it, where the sparse pass converges in a few solves; a
    lambda_1 below KORN_SHIFT contradicts the identity and raises
    linalg.SolverError.  Every other pencil takes the unseeded shift.
    """
    pv = build_space(mesh, "P1_vector", "gamma_t", component_constant=component_constant)
    rigid = not mesh.has_gamma_t
    pinned = component_constant or rigid
    note = ("constants quotiented" if component_constant else
            "deflated: translations and rotations; strain kernel dim 6" if rigid else None)
    if pv.free_count <= 3 * pinned + 3 * rigid:
        return _empty(name)
    A, B = assemble("symgrad", pv), assemble("grad", pv)
    if pinned:
        A, B = _pin_vertex0(pv, A, B)
    deflation = _vertex0_rotations(mesh).T if rigid else None
    clamped = bool(np.all(mesh.btri_tags == meshes.GAMMA_T))
    with linalg.seeded(KORN_SHIFT) if clamped else contextlib.nullcontext():
        eig = linalg.eig_smallest(A, B, k=1, deflation=deflation, tol=tol)
    lam = float(eig.values[0])
    if lam <= KERNEL_REL_TOL * A.diagonal().sum() / B.diagonal().sum():
        raise KernelError(f"{name}: the strain form has a kernel beyond the rigid motions "
                          f"(lambda_min = {lam:.3e})")
    if clamped and lam < KORN_SHIFT:
        raise linalg.SolverError(
            f"{name}: lambda = {lam:.12e} lies below {KORN_SHIFT:.12e} on a fully tagged "
            "boundary, where Korn's identity 2|sym grad v|^2 = |grad v|^2 + |div v|^2 "
            "bounds it by 1/2")
    return _record(name, mesh, eig, B, pv.free_count, tol, note)


def korn_constant_standard(mesh, tol=DEFAULT_EIG_TOL):
    """|grad v| <= c |sym grad v| over the constrained vector fields; without
    a tag-1 part, over those whose gradients are orthogonal to the constant
    skews (the rotations x -> S (x - x_0) deflated, _p1_korn)."""
    return _p1_korn("c_k_s", mesh, tol)


def korn_constant_tangential(mesh, tol=DEFAULT_EIG_TOL):
    """Same pencil over fields constant per tag-1 boundary component.

    The global translations are pinned at vertex 0 (a folded dof when
    vertex 0 lies on the tag-1 part, still a complement of them).
    """
    if not mesh.has_gamma_t:
        raise ValueError("the tangential constant needs a nonempty tag-1 part")
    return _p1_korn("c_k_t", mesh, tol, component_constant=True)


# --------------------------------------------------------------------------
# curl-free tensor subspace machinery
# --------------------------------------------------------------------------


class _HalfForm:
    """x^T A x of a symmetric sparse A from its strict upper triangle and
    its diagonal: the terms of the full product, half of its nonzeros."""

    def __init__(self, A):
        self.upper = sp.triu(A, k=1, format="csr")
        self.diag = A.diagonal()

    def norm(self, x):
        return float(np.sqrt(max(2.0 * (x @ (self.upper @ x)) + x @ (self.diag * x), 0.0)))

    def full(self):
        """A itself, rebuilt: equal to the matrix that was halved, entry for entry."""
        return (self.upper + self.upper.T + sp.diags(self.diag)).tocsr()


def _row_blocked(form):
    """form on each of the three tensor rows: its block diagonal, three copies."""
    return sp.block_diag([form] * 3, format="csr")


def _row_images(form, W):
    """The row-blocked form times W, formed one row block W_m at a time."""
    n = form.shape[1]
    return sp.vstack([form @ W[m * n:(m + 1) * n] for m in range(3)], format="csr")


# the forms on Edge0^3 of one edge space, each held once: the edge operators
# ops (the mass and curl-curl of every row) and the strain form, the one form
# that couples the rows, as its upper half and diagonal (strain, the _HalfForm
# certification reads |sym T| through); only c_direct's solve forms the
# full Edge0^3 matrices from them
TensorPencil = namedtuple("TensorPencil", "ops strain")


def tensor_pencil(ops):
    """The TensorPencil of the edge operators ops: the strain form
    tensor_sym on their edge space, assembled here and kept as its upper
    half.  Every integrand is a polynomial of degree at most 2, integrated
    exactly by the rule of that degree.
    """
    return TensorPencil(ops, _HalfForm(assemble("tensor_sym", ops.edge_space)))


# the curl-free basis W (HarmonicBasis.curl_free_basis), the reduced strain
# and mass forms W^T Sym W and W^T M W, and the mass image M W: every norm of
# a curl-free tensor R = W y reads off them in the coordinates y
CurlFreeForms = namedtuple("CurlFreeForms", "basis sym mass mass_image")


def curl_free_forms(harmonics, pencil):
    """CurlFreeForms of the curl-free tensors, with the strain form of pencil.

    W is harmonics.curl_free_basis.  The strain form reduces through its
    half: with U its strict upper triangle and D its diagonal, W^T Sym W =
    S + S^T + W^T diag(D) W for S = W^T (U W).  M W is formed one tensor
    row at a time (_row_images).  So neither the full strain form nor the
    row-blocked mass is built.
    """
    W = harmonics.curl_free_basis
    strain = pencil.strain
    S = W.T @ (strain.upper @ W)
    sym = (S + S.T + W.T @ (sp.diags(strain.diag) @ W)).tocsr()
    MW = _row_images(pencil.ops.mass, W)
    return CurlFreeForms(W, sym, (W.T @ MW).tocsr(), MW)


def curl_free_constant(name, mesh, forms, tol=DEFAULT_EIG_TOL):
    """The Edge0^3 curl-free pencil (W^T Sym W, W^T M W) of forms, a
    CurlFreeForms of mesh with a tag-1 part (no kernel to quotient); the
    record carries the pair in the coordinates y of R = W y.
    """
    dim = forms.basis.shape[1]
    if dim == 0:
        return _empty(name)
    eig = linalg.eig_smallest(forms.sym, forms.mass, k=1, tol=tol)
    return _record(name, mesh, eig, forms.mass, dim, tol)


def korn_constant_irrotational(mesh, tol=DEFAULT_EIG_TOL, *, harmonics=None, forms=None):
    """|T| <= c |sym T| over the curl-free constrained tensor fields.

    Where those are the gradients of the admissible P1 vectors, this is
    korn_constant_standard: with a tag-1 part and no harmonic fields
    (harmonics, the mesh's basis, is computed when not given), and without
    one on each slice, a one-slice mesh being its own slice; the maximum
    over the slices matches the piecewise bound.  A slice must be simply
    connected (b1 = boundary components - chi, checked), so with its free
    boundary its pencil deflates the rotations; dim counts the potentials
    pinned at vertex 0, 3 (n_v - 1) per slice, and a strain kernel beyond
    the rigid motions raises KernelError naming the slice.  A tag-1 part
    with harmonic fields takes curl_free_constant on forms (curl_free_forms
    of harmonics when not given).  The record carries the pair of the
    pencil it solved, none off several slices: a Korn pair's kept dofs are y.
    """
    if mesh.has_gamma_t:
        harmonics = harmonics or hodge.harmonic_basis(mesh, tol=tol)
        if harmonics.dim:
            forms = forms or curl_free_forms(harmonics, tensor_pencil(harmonics.ops))
            return curl_free_constant("c_k_irrot", mesh, forms, tol)
        rec = korn_constant_standard(mesh, tol)  # nothing deflated, no note
    else:
        labels = mesh.slice_labels
        subs = [mesh] if len(labels) == 1 else [mesh.submesh(mesh.slice_ids == s) for s in labels]
        recs = []
        for s, sub in zip(labels, subs):
            b1 = meshes.betti1(sub)
            if b1:
                raise ValueError(f"slice {s} is not simply connected (b1 = {b1}): a domain "
                                 "with harmonic fields needs at least two slices when the "
                                 "tag-1 part is empty")
            try:
                recs.append(korn_constant_standard(sub, tol))
            except KernelError as exc:
                raise KernelError(f"slice {s}: {exc}") from None
        dim = sum(3 * (sub.num_vertices - 1) for sub in subs)
        if len(subs) > 1:
            best = max(recs, key=lambda r: r.value)
            return ConstantRecord("c_k_irrot", best.value, best.eigenvalue, best.residual, dim,
                                  f"max over {len(labels)} slice pencils")
        rec = replace(recs[0], dim=dim, note="deflated: constant skew tensors")
    return replace(rec, name="c_k_irrot")


def maxwell_constant(mesh, tol=DEFAULT_EIG_TOL, *, harmonics=None, grad_rec=None):
    """Maxwell constant as the max of its gradient and coexact blocks.

    Gradient block: the scalar constant (grad_rec, the poincare_constant
    record when already computed).  Coexact block: the curl-curl pencil
    restricted mass-orthogonally to the curl-free fields (gradients and
    harmonic fields deflated).  Its eigenpair is the one the harmonic
    search found above the kernel (harmonics.coexact), so it takes no
    eigensolve here.
    """
    harmonics = harmonics or hodge.harmonic_basis(mesh, tol=tol)
    ops = harmonics.ops
    e0 = ops.edge_space
    grad_rec = replace(grad_rec or poincare_constant(mesh, tol, ops=ops), name="c_m_grad")
    if e0.free_count == 0:
        coex_rec = _empty("c_m_coexact")
    else:
        coex_rec = _record("c_m_coexact", mesh, harmonics.coexact, ops.mass, e0.free_count,
                           tol, "gradients deflated")
    cm = max(grad_rec.value, coex_rec.value)
    which = "gradient" if grad_rec.value >= coex_rec.value else "coexact"
    cm_rec = ConstantRecord("c_m", cm, None, None, None, f"max attained by {which} block")
    return cm_rec, grad_rec, coex_rec


def derived_bounds(c_k, c_m):
    """The two combined constants of the main estimate.

    c_k = 0 (an empty curl-free space, EmptySpace) makes the Korn link
    vacuous, and the bounds reduce to c_hat = c_m, c_tilde = sqrt(2) c_m.
    """
    if c_k < 0 or c_m <= 0:
        raise ValueError("derived bounds need c_k >= 0 and c_m > 0")
    c_hat = max(np.sqrt(2.0) * c_k, c_m * np.sqrt(1.0 + 2.0 * c_k**2))
    c_tilde = np.sqrt(2.0) * max(c_k, c_m * (1.0 + c_k))
    assert c_tilde >= c_hat * (1.0 - 1e-15)
    return c_hat, c_tilde


def direct_lower_bound(korn, coexact, kappa=1):
    """L* <= lambda_1 of the c_direct pencil, from the chain's two links solved
    exactly.

    korn is U = 1/c_k_irrot^2 (None for an empty curl-free space), coexact
    mu = 1/c_m_coexact^2.  An admissible T splits as R + S, curl-free plus
    coexact, |T|^2 = |R|^2 + |S|^2.  The coexact link gives |Curl T|^2 >=
    mu |S|^2, and the Korn link |sym T| >= sqrt(U) |R~| - |S|, as |sym S|
    <= |S|.  R~ = R with a tag-1 part or on one slice (kappa = 1); on
    several slices (kappa = 2) R~ is R minus its per-slice skew averages,
    which T lacks, so they are S's and |R~|^2 >= |R|^2 - |S|^2.  Where
    sqrt(U) |R~| >= |S| the quotient is at least the smaller eigenvalue l
    of [[U, -sqrt(U/kappa)], [-sqrt(U/kappa), (1 + mu)/kappa]], else at
    least mu U / (1 + kappa U): L* = min(l, mu U / (1 + kappa U)), and L* =
    mu without curl-free fields.  l is the determinant U mu / kappa over
    the larger eigenvalue, a sum of positive terms: the textbook difference
    cancels once mu dwarfs U (on a mesh scaled by 1e-4 it came out above U).
    """
    if korn is None:
        return coexact
    d = (1.0 + coexact) / kappa
    top = 0.5 * (korn + d + np.hypot(korn - d, 2.0 * np.sqrt(korn / kappa)))
    return min(korn * coexact / kappa / top, coexact * korn / (1.0 + kappa * korn))


def _slice_skew_constraints(space):
    """Rows c with c @ T_stacked = <T, S^l restricted to slice j>_M.

    Three rows per slice, one per skew generator S^l: the fields they
    annihilate are the ones L2-orthogonal to the constant skews on every
    slice.  On one slice they are the rows (M d)^T of the constant skew
    tensors d, so they also stand for a B-orthogonal deflation of them.
    c_direct is their one user; c_k_irrot deflates the rotations of each
    slice's P1 pencil.  Row (j, l) holds S^l[m] @ Q_j in block m, Q_j the
    three rows of slice j in hodge.slice_moments, the matrix certification
    averages with.
    """
    labels, Q, _ = hodge.slice_moments(space)
    Q = Q.reshape(len(labels), 3, space.free_count)
    return np.einsum("lmd,jdn->jlmn", SO3_BASIS, Q).reshape(3 * len(labels), -1)


def direct_main_constant(mesh, tol=DEFAULT_EIG_TOL, *, pencil=None, bracket=None, v0=None):
    """Optimal constant in |T| <= c (|sym T|^2 + |Curl T|^2)^(1/2).

    Full tensor pencil over the constrained edge tensors, A = Sym + CC and
    B = M on Edge0^3: the one solve that forms these matrices, Sym from the
    half strain form of pencil and CC and M as the block diagonals of its
    edge operators, and drops them with the solve.  Without a tag-1 part the
    per-slice skew moments are removed by the rows of
    _slice_skew_constraints (on one slice: the constant skews, which
    annihilate both sym T and Curl T), so the pencil has no kernel.  A call
    without a bracket is one k=1 eig_smallest.

    The eigenvalue reported, bracketed and gated is the Rayleigh quotient
    (|sym x|^2 + |Curl x|^2) / |x|^2_M of the returned vector x, with
    |sym x| off the upper half of the strain form and |Curl x|^2 off the
    curl pair of the edge operators (EdgeOperators.curl_sq); the residual
    gate reads the pair (x, quotient).  The quotient of the formed A would
    lose the curl-free part of x to rounding once CC dwarfs Sym, as it does
    on a mesh scaled by s, where CC grows as s^-2.

    bracket, when given, is (lower, upper) for the smallest eigenvalue,
    from the chain of estimates (Workspace.direct_seed): lower = L*, the
    bound of direct_lower_bound, upper = 1/c_k_irrot^2 on one slice (None
    otherwise), since curl-free fields are admissible.  The solve then
    takes one shift-invert pass (linalg.seeded, with its small basis) at
    sigma = (1 - BRACKET_MARGIN) lower, started from v0 (the c_k_irrot pair
    lifted to Edge0^3, W y, or None for a random vector).  It returns the
    eigenvalue lambda nearest sigma.  As sigma < L* <= lambda_1, every
    eigenvalue lies above sigma, so the nearest one is the smallest: the
    certificate rests on c_k_irrot and c_m_coexact, each solved at a shift
    below its own spectrum, and BRACKET_MARGIN absorbs their error.
    lambda < sigma contradicts that bound, and lambda above (1 +
    BRACKET_MARGIN) upper means the solve missed the smallest pair; both
    raise linalg.SolverError.  So does _record's residual gate, and each of
    the three names the mesh diameter: CC grows as s^-2 on a mesh scaled by
    s, so a small enough mesh is one the solve cannot resolve.
    """
    pencil = pencil or tensor_pencil(hodge.edge_operators(mesh))
    ops, space = pencil.ops, pencil.ops.edge_space
    A = (pencil.strain.full() + _row_blocked(ops.curlcurl)).tocsr()
    B = _row_blocked(ops.mass)
    nslices = len(mesh.slice_labels)
    constraints = note = None
    if not mesh.has_gamma_t:
        constraints = _slice_skew_constraints(space)
        note = ("deflated: constant skew tensors" if nslices == 1
                else f"deflated: per-slice skew moments ({nslices} slices)")
    if bracket is None:
        eig = linalg.eig_smallest(A, B, k=1, constraints=constraints, tol=tol)
    else:
        with linalg.seeded((1.0 - BRACKET_MARGIN) * bracket[0], v0):
            eig = linalg.eig_smallest(A, B, k=1, constraints=constraints, tol=tol)
    # lambda is x's quotient, not off the formed A: C x is exact to rounding in x
    x = eig.vectors[:, 0]
    lam = (pencil.strain.norm(x)**2 + ops.curl_sq(x.reshape(3, -1))[1]) / float(x @ (B @ x))
    x = x[:, None]
    eig = linalg.EigenResult([lam], x, linalg._residuals(A, B, [lam], x, constraints))
    try:
        if bracket is not None:
            lower = (1.0 - BRACKET_MARGIN) * bracket[0]
            if lam < lower:
                raise linalg.SolverError(
                    f"c_direct: lambda = {lam:.12e} lies below the lower bound "
                    f"{lower:.12e} of the chain of estimates; c_k_irrot or "
                    "c_m_coexact is wrong"
                )
            upper = bracket[1]
            if upper is not None and lam > (1.0 + BRACKET_MARGIN) * upper:
                raise linalg.SolverError(
                    f"c_direct: lambda = {lam:.12e} lies above the curl-free bound "
                    f"{upper:.12e}; the solve missed the smallest pair"
                )
        return _record("c_direct", mesh, eig, B, 3 * space.free_count, tol, note)
    except linalg.SolverError as exc:  # the diameter: its hull's farthest vertex pair
        from scipy.spatial import ConvexHull
        from scipy.spatial.distance import pdist

        hull = mesh.vertices[ConvexHull(mesh.vertices).vertices]
        raise linalg.SolverError(f"{exc} (mesh diameter {pdist(hull).max():.3e})") from None


# --------------------------------------------------------------------------
# weighted variant
# --------------------------------------------------------------------------


def matrix_coefficient_norm(F, mesh):
    """(c_F, mu_observed): max spectral norm and min determinant over the
    quadrature points and the mesh vertices (the vertices catch the
    extrema of per-cell affine coefficients)."""
    from .assemble import _cell_points

    pts, _ = tet_rule(max(F.degree, 2))
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


def derived_bound_weighted(c_k_F, c_m, c_F):
    """The weighted combined constant; c_k_F = 0 is allowed as in derived_bounds."""
    if c_k_F < 0 or c_m <= 0 or c_F <= 0:
        raise ValueError("derived bounds need c_k_F >= 0, c_m > 0 and c_F > 0")
    return max(
        np.sqrt(2.0) * c_k_F, c_m * np.sqrt(1.0 + 2.0 * c_k_F**2 * c_F**2)
    )


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


# the weighted constant of one coefficient F: c_F and mu
# (matrix_coefficient_norm) and the c_k_F record
WeightedWork = namedtuple("WeightedWork", "c_F mu record")


class Workspace:
    """Mesh-bound bundle of operators, harmonic basis and constants.

    Construction builds the edge operators (mass, gradient incidence, curl
    pair, curl-curl and the scalar space of c_p) and runs the one harmonic
    eigensolve; the harmonic basis holds the operators, and c_m, c_k_irrot
    and the splits read them from it.  Everything else is built by its
    first reader and kept, and handed to every later one: the Poisson
    factor of the edge operators at the first Helmholtz split
    (certification), and the tensor pencil (pencil), whose strain form is
    assembled once for c_direct, certification and the curl-free forms and
    kept as its upper half.  So c_p, c_m and the Korn constants (but
    c_k_irrot on a tag-1 part with harmonic fields) assemble no strain form
    and factor no Poisson matrix.  The row-blocked mass and curl-curl and
    the full strain form exist only inside c_direct's solve.  The one
    curl-free basis W is harmonics.curl_free_basis.  Only where they are
    read it builds the reduced forms W^T Sym W and W^T M W (curl_free,
    reduced through the strain half and the Edge0 mass): the c_k_irrot
    pencil of a tag-1 part with harmonic fields, the c_k_F pencil, and the
    forms certification reads |R| and |sym R| off in the coordinates y of
    R = W y; without a tag-1 part, the constant skews in those coordinates
    (skew_fields), and C W (curl_free_curl).  Certification reads the curl
    pair of the edge operators one tensor row at a time.  The harmonic
    search runs at tol and also yields the coexact Maxwell pair, so
    c_m_coexact needs no eigensolve of its own.
    Constants are cached by name, and the Maxwell gradient block reuses c_p.
    Without harmonic fields the complex is exact: the curl-free tensors are
    the gradients of the admissible P1 vectors, and the tag-1 part has at
    most one component (dim H^1(Omega, Gamma_t) >= components - 1).  So,
    unless sliced, c_k_irrot solves the c_k_s pencil, which is also the
    c_k_t pencil with its dofs reordered, and those two are read off its
    pair (each record keeps its own space's dim): one Korn eigensolve per
    report.
    c_direct is solved from the bracket and start vector that c_k_irrot and
    c_m_coexact give it (direct_seed, which lifts the c_k_irrot pair to
    Edge0^3).
    """

    def __init__(self, mesh, tol=DEFAULT_EIG_TOL):
        self.mesh = mesh
        self.tol = tol
        self.harmonics = hodge.harmonic_basis(mesh, tol=tol)
        self.ops = self.harmonics.ops
        self._cache = {}

    def constant(self, name):
        if name in self._cache:
            return self._cache[name]
        mesh = self.mesh
        if name == "c_p":
            rec = poincare_constant(mesh, self.tol, ops=self.ops)
        elif (name == "c_k_s" or name == "c_k_t" and mesh.has_gamma_t) and not (
                self.harmonics.dim or self.case == "sliced"):
            irrot = self.constant("c_k_irrot")  # the c_k_s pencil, translations pinned
            # c_k_s adds vertex 0's three dofs without a tag-1 part, c_k_t its component's
            dim = irrot.dim + 3 * (name == "c_k_t" or not mesh.has_gamma_t)
            rec = _empty(name) if irrot.eigenvalue is None else replace(
                irrot, name=name, dim=dim, vector=None, note="equal to c_k_irrot: harmonic dim 0")
        elif name == "c_k_s":
            rec = korn_constant_standard(mesh, self.tol)
        elif name == "c_k_t":
            rec = korn_constant_tangential(mesh, self.tol)
        elif name == "c_k_irrot":  # harmonic fields read the forms certification shares
            rec = korn_constant_irrotational(
                mesh, self.tol, harmonics=self.harmonics,
                forms=self.curl_free if mesh.has_gamma_t and self.harmonics.dim else None)
        elif name in ("c_m", "c_m_grad", "c_m_coexact"):
            cm, grad, coex = maxwell_constant(
                mesh, self.tol, harmonics=self.harmonics, grad_rec=self.constant("c_p")
            )
            self._cache.update({"c_m": cm, "c_m_grad": grad, "c_m_coexact": coex})
            return self._cache[name]
        elif name == "c_direct":
            rec = direct_main_constant(mesh, self.tol, pencil=self.pencil,
                                       **self.direct_seed())
        else:
            raise KeyError(name)
        self._cache[name] = rec
        return rec

    def weighted(self, weight):
        """The WeightedWork of a MatrixCoefficient F (needs a tag-1 part).

        c_k_F is the Edge0^3 curl-free pencil with the F-weighted strain
        form W^T Sym_F W in place of W^T Sym W.
        """
        c_F, mu = matrix_coefficient_norm(weight, self.mesh)  # validates det F > 0
        if not self.mesh.has_gamma_t:
            raise ValueError("the weighted constant needs a nonempty tag-1 part")
        cf = self.curl_free
        sym = assemble("tensor_symF", self.ops.edge_space, coeff=weight)
        sym = (cf.basis.T @ (sym @ cf.basis)).tocsr()
        rec = curl_free_constant("c_k_F", self.mesh, cf._replace(sym=sym), self.tol)
        return WeightedWork(c_F, mu, rec)

    @cached_property
    def pencil(self):
        """The TensorPencil of the edge operators: the strain form is
        assembled here, on the first read (c_direct, curl_free, certification),
        and kept as its upper half."""
        return tensor_pencil(self.ops)

    @cached_property
    def curl_free(self):
        """CurlFreeForms of the mesh's curl-free tensors, built on first use."""
        return curl_free_forms(self.harmonics, self.pencil)

    @cached_property
    def curl_free_curl(self):
        """C W, the curl incidence of the edge operators on each row of W:
        C G = 0 on the incidence level, so the gradient columns vanish
        exactly and only the harmonic columns keep entries."""
        return _row_images(self.ops.curl, self.curl_free.basis)

    @cached_property
    def skew_fields(self):
        """(Y, W Y, M W Y) of the constant skews S^l, one row per generator.

        Row m of S^l is the gradient of x -> S^l[m] . (x - x_0), so without
        a tag-1 part S^l = W y_l exactly, y_l holding those potentials
        pinned at vertex 0 (_vertex0_rotations) and no harmonic amplitude:
        Y has rows y_l, W Y the Edge0^3 fields and M W Y their mass images.
        """
        cf = self.curl_free
        rot = _vertex0_rotations(self.mesh)
        Y = np.pad(rot, ((0, 0), (0, cf.basis.shape[1] - rot.shape[1])))
        fields, images = (np.ascontiguousarray((F @ Y.T).T) for F in (cf.basis, cf.mass_image))
        return Y, fields, images

    def direct_seed(self):
        """The bracket and start vector of the c_direct solve, from the chain.

        The Korn and coexact links, solved exactly, bound lambda_1 from below
        by L* (direct_lower_bound, kappa = 2 on several slices), 0.92-0.98
        lambda_1 on the ladder meshes where 1/c_bound^2 reads 0.29-0.53, and
        never below it.  On one slice the c_k_irrot pair y (the kept P1 dofs
        of a Korn pair, where the curl-free tensors are gradients) is lifted
        here to Edge0^3, W y: an admissible curl-free field of Rayleigh
        quotient 1/c_k_irrot^2, so lambda_1 is at most that, and W y starts
        the solve.  Sliced, or with an empty curl-free space, there is no
        such pair: no upper bound, and a random start vector.
        """
        c_k = self.constant("c_k_irrot")
        lower = direct_lower_bound(c_k.eigenvalue, self.constant("c_m_coexact").eigenvalue,
                                   2 if self.case == "sliced" else 1)
        upper = v0 = None
        if c_k.vector is not None:
            upper, v0 = c_k.eigenvalue, self.harmonics.curl_free_basis @ c_k.vector
        return dict(bracket=(lower, upper), v0=v0)

    @property
    def derived_bound(self):
        """(name, value) of the combined constant of the main estimate in
        this case: c_tilde when sliced (a piecewise skew shift loses the
        orthogonality), c_hat otherwise."""
        c_hat, c_tilde = derived_bounds(self.constant("c_k_irrot").value,
                                        self.constant("c_m").value)
        return ("c_tilde", c_tilde) if self.case == "sliced" else ("c_hat", c_hat)

    @property
    def case(self):
        if self.mesh.has_gamma_t:
            return "tangential"
        return "simply_connected" if len(self.mesh.slice_labels) == 1 else "sliced"

    def random_tensor(self, rng):
        space = self.ops.edge_space
        return TensorField(space, rng.standard_normal((3, space.free_count)))


def _piecewise_shifted_norm(norm, means, volumes, skews):
    """Mass norm of X minus the skew skews[j] on slice j, from |X|_M.

    The skews are constant per slice, so <X, S_j>_M over slice j is
    volumes[j] (means[j] : S_j) with means[j] the slice average of X.
    """
    cross = float(np.einsum("j,jab,jab->", volumes, means, skews))
    ssq = float(np.einsum("j,jab,jab->", volumes, skews, skews))
    return float(np.sqrt(max(norm**2 - 2.0 * cross + ssq, 0.0)))


def _mnorm(vec, mat):
    return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))


def _image_norm(rows, images):
    """sqrt(sum_m rows[m] @ images[m]): a norm read off the images of the rows."""
    return float(np.sqrt(max(np.vdot(rows, images), 0.0)))


def certify_main_inequality(T, ws):
    """Replicate the proof chain on one tensor field and report margins.

    Links: (a) split orthogonality, relative to |T|^2 (the size at which a
    defect would perturb the Pythagoras step), (b) curl preservation, (c)
    the coexact estimate, (d) the Korn link on the curl-free part, (e) the
    assembled bound.  Margins are relative; the verdict demands all >=
    -DEFAULT_SLACK.  Degenerate links (both sides at rounding level) are
    measured against the size of T instead of a vanishing right-hand side.
    A T of another mesh or edge space raises ValueError.

    A field costs one Helmholtz split and one-vector sparse products, and
    the operators of the Workspace are only read.  The split hands back
    M T and the coordinates y of R = grad + harmonic = W y, so M S = M T -
    (M W) y and |R|, |sym R| and |Curl R| read off the reduced forms of
    ws.curl_free.  The incidence images C t_m of the rows, which link (b)
    reads too, give |Curl T|^2 = sum_m (C t_m)^T M_f (C t_m)
    (ws.ops.curl_sq), which stays nonnegative where t^T CC t is pure
    rounding.  |sym T| reads off the upper half of the strain form
    (ws.pencil.strain), and the slice averages of T and R (d, e) are two
    dense products with the cached hodge.slice_moments.

    Without a tag-1 part the global skew average K of R is subtracted
    before any norm is taken: R - K = W (y - y_K) and T - K = t - W y_K,
    with W y_K and M W y_K from ws.skew_fields.  sym K = 0, so the strain
    norms are unchanged, and a field near a constant skew loses nothing to
    cancellation.  Several slices then shift by the per-slice skews minus
    K, through the slice averages.
    """
    space = T.space
    if not (space.mesh is ws.mesh and space.family == "Edge0" and space.constrain == "gamma_t"):
        raise ValueError("certify_main_inequality needs T on the Workspace's mesh and its "
                         "constrained edge space (Edge0, 'gamma_t')")
    cf = ws.curl_free
    split = hodge.helmholtz_split_tensor(T, harmonics=ws.harmonics)
    grad, harm, S = split.parts()
    R = TensorField(space, grad.rows + harm.rows)
    y, t = split.coords, T.stacked()
    mass_t = split.mass_images.reshape(-1)
    mass_s = mass_t - cf.mass_image @ y
    nT = _image_norm(t, mass_t)
    curl_image, curl_sq = ws.ops.curl_sq(T.rows)
    curl_T = float(np.sqrt(curl_sq))
    floor = 1e-6 * max(nT, 1e-300)
    links = {}

    def ineq(name, lhs, rhs):
        links[name] = {"lhs": lhs, "rhs": rhs, "margin": (rhs - lhs) / max(abs(rhs), floor)}

    def equality(name, resid):
        links[name] = {"lhs": resid, "rhs": 0.0, "margin": -resid}

    # (a) the parts are mass-orthogonal
    equality("orthogonality", abs(float(np.vdot(R.rows, mass_s))) / max(nT**2, 1e-300))

    # (b) the coexact part carries the whole curl (incidence level, so the
    # gradient columns of C W vanish exactly)
    inc_R = np.linalg.norm(ws.curl_free_curl @ y)
    inc_floor = 1e-6 * max(np.linalg.norm(t), 1e-300)
    equality("curl_transfer", inc_R / max(np.linalg.norm(curl_image), inc_floor))

    # (c) coexact estimate, also with the full Maxwell constant
    nS = _image_norm(S.stacked(), mass_s)
    ineq("coexact_estimate", nS, ws.constant("c_m_coexact").value * curl_T)
    c_m = ws.constant("c_m").value
    ineq("coexact_estimate_cm", nS, c_m * curl_T)

    # (d) Korn link on the curl-free part; without a tag-1 part R and T are
    # shifted by the skew average of R on every slice
    case = ws.case
    c_k = ws.constant("c_k_irrot").value
    if case == "tangential":
        shift = np.zeros((3, 3))
        lhs_d, lhs_e = _mnorm(y, cf.mass), nT
    else:
        _, means_R, slice_vols = hodge.slice_means(R)
        _, means_T, _ = hodge.slice_means(T)
        skews = 0.5 * (means_R - np.swapaxes(means_R, 1, 2))
        K = np.tensordot(slice_vols, skews, axes=1) / slice_vols.sum()
        k = 0.5 * np.tensordot(SO3_BASIS, K, axes=2)  # K = sum_l k_l S^l
        Y, WY, MWY = ws.skew_fields
        y, t = y - k @ Y, t - k @ WY
        lhs_d = _mnorm(y, cf.mass)
        lhs_e = _image_norm(t, mass_t - k @ MWY)
        if case == "sliced":
            lhs_d = _piecewise_shifted_norm(lhs_d, means_R - K, slice_vols, skews - K)
            lhs_e = _piecewise_shifted_norm(lhs_e, means_T - K, slice_vols, skews - K)
        shift = skews[0] if case == "simply_connected" else skews
    ineq("korn_link", lhs_d, c_k * _mnorm(y, cf.sym))

    # (e) assembled bound; a piecewise shift loses the orthogonality, so the
    # weaker combined constant applies on several slices
    seminorm = float(np.sqrt(ws.pencil.strain.norm(t)**2 + curl_T**2))
    ineq("assembled_bound", lhs_e, ws.derived_bound[1] * seminorm)
    if case == "simply_connected":
        # the skew average of T equals the one of its curl-free part (on
        # several slices they differ: the coexact part has zero mean only
        # globally)
        s_T = 0.5 * (means_T[0] - means_T[0].T)
        denom = max(np.linalg.norm(s_T), np.linalg.norm(shift), 1e-300)
        equality("skew_consistency", float(np.linalg.norm(s_T - shift)) / denom)
    failed = [name for name, link in links.items() if link["margin"] < -DEFAULT_SLACK]
    return CertificationRecord(case, links, shift, not failed, failed)


# --------------------------------------------------------------------------
# full report
# --------------------------------------------------------------------------


def mesh_digest(mesh):
    h = hashlib.sha256()
    for arr in (mesh.vertices, mesh.tets, mesh.slice_ids, mesh.btris, mesh.btri_tags):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def compute_report(mesh, tol=DEFAULT_EIG_TOL, weight=None, certify_samples=0, seed=0):
    """Compute every applicable constant and assemble the report dict."""
    ws = Workspace(mesh, tol)
    wt = ws.weighted(weight) if weight is not None else None  # a bad weight fails first

    names = ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_m_grad", "c_m_coexact", "c_direct")
    records = {n: ws.constant(n) for n in names if n != "c_k_t" or mesh.has_gamma_t}

    c_hat, c_tilde = derived_bounds(records["c_k_irrot"].value, records["c_m"].value)
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
            "slices": len(mesh.slice_labels),
            "case": ws.case,
        },
        "harmonic_dim": ws.harmonics.dim,
    }
    for name, rec in records.items():
        report[name] = rec.as_dict()
    report["c_hat"] = c_hat
    report["c_tilde"] = c_tilde
    # norm equivalence |T|_{HCurl} vs the semi-norm, from the c_direct eigenvalue
    lam = records["c_direct"].eigenvalue
    report["norm_equivalence"] = float(np.sqrt(lam / (1.0 + lam)))
    bound_name, bound = ws.derived_bound
    report["tightness"] = records["c_direct"].value / bound
    report["orderings"] = _orderings(records, c_hat, mesh.has_gamma_t)
    report["orderings"]["direct_le_derived"] = bool(
        records["c_direct"].value <= bound * (1.0 + DEFAULT_SLACK)
    )
    report["orderings"]["derived_bound_used"] = bound_name

    if wt is not None:
        report["c_F"] = wt.c_F
        report["mu_observed"] = wt.mu
        report["c_k_F"] = wt.record.as_dict()
        report["c_hat_F"] = derived_bound_weighted(
            wt.record.value, records["c_m"].value, wt.c_F
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
