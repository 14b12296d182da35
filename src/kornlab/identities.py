"""Machine-precision verification of the integral identities and embeddings.

Everything here runs on analytic polynomial fields over the unit cube
with exact integration (see polynomials), deliberately decoupled from the
mesh machinery: a failure isolates an algebra bug from an assembly bug.
Zero-trace requirements are met by construction through the cube bubble.
"""

from dataclasses import dataclass

import numpy as np

from .hodge import SO3_BASIS
from .polynomials import Poly3, PolyField, dot_integral, norm_sq

N_DIM = 3


class TraceError(ValueError):
    """The identity requires a zero-trace field."""


def c_alpha(alpha, n=N_DIM):
    return alpha * (n * alpha - 2.0)


def c_alpha_tilde(alpha, n=N_DIM):
    return n * (alpha - 1.0 / n) ** 2


def _grad_objects(v):
    J = v.jacobian()  # J[i][j] = d_j v_i
    sym = [
        [0.5 * (J[i][j] + J[j][i]) for j in range(3)] for i in range(3)
    ]
    div = J[0][0] + J[1][1] + J[2][2]
    curl = [
        J[2][1] - J[1][2],
        J[0][2] - J[2][0],
        J[1][0] - J[0][1],
    ]
    return J, sym, div, curl


def _dev(sym, alpha):
    tr = sym[0][0] + sym[1][1] + sym[2][2]
    out = [[sym[i][j] for j in range(3)] for i in range(3)]
    for i in range(3):
        out[i][i] = out[i][i] - alpha * tr
    return out


def verify_symgrad_identity(v):
    """Twofold-partial-integration identities for zero-trace fields.

    Returns the two relative residuals of
      |sym J|^2 - (|J|^2 + |div|^2)/2   and
      |sym J|^2 - |curl|^2/2 - |div|^2.
    """
    if not v.bubble_flag:
        raise TraceError("the identity needs a zero-trace (bubble) field")
    J, sym, div, curl = _grad_objects(v)
    n_sym = norm_sq(sym)
    n_grad = norm_sq(J)
    n_div = norm_sq([div])
    n_curl = norm_sq(curl)
    scale = max(n_sym, 1e-300)
    r1 = abs(n_sym - 0.5 * (n_grad + n_div)) / scale
    r2 = abs(n_sym - 0.5 * n_curl - n_div) / scale
    return {
        "residual_grad_div": r1,
        "residual_curl_div": r2,
        "sym_sq": n_sym,
        "grad_sq": n_grad,
        "div_sq": n_div,
        "curl_sq": n_curl,
    }


def verify_dev_identity(v, alpha):
    """|dev_a sym J|^2 = |sym J|^2 + c_a |div|^2 for any H1 field."""
    J, sym, div, _ = _grad_objects(v)
    n_dev = norm_sq(_dev(sym, alpha))
    n_sym = norm_sq(sym)
    n_div = norm_sq([div])
    ca = c_alpha(alpha)
    ca_t = c_alpha_tilde(alpha)
    scale = max(n_dev, n_sym, 1e-300)
    return {
        "residual": abs(n_dev - n_sym - ca * n_div) / scale,
        "c_alpha": ca,
        "c_alpha_tilde": ca_t,
        "relation_residual": abs(ca - (ca_t - 1.0 / N_DIM)),
    }


@dataclass
class EstimateResult:
    estimate_id: str
    lhs: float
    rhs: float
    applicable: bool

    @property
    def holds(self):
        return self.applicable and self.lhs <= self.rhs or not self.applicable

    @property
    def margin(self):
        return self.rhs - self.lhs if self.applicable else None


def verify_estimate_suite(v, alpha):
    """Evaluate the inequality list for one field and one alpha.

    The first block needs only square integrability of the gradient, the
    second block (zero trace) is skipped unless the field carries the
    bubble.  Estimates restricted to an alpha range are flagged
    not-applicable outside it.
    """
    n = N_DIM
    J, sym, div, curl = _grad_objects(v)
    nrm = {
        "grad": np.sqrt(norm_sq(J)),
        "sym": np.sqrt(norm_sq(sym)),
        "div": np.sqrt(norm_sq([div])),
        "curl": np.sqrt(norm_sq(curl)),
        "dev": np.sqrt(norm_sq(_dev(sym, alpha))),
    }
    ca = c_alpha(alpha)
    in_open = 0.0 < alpha < 2.0 / n
    in_closed = 0.0 <= alpha <= 2.0 / n
    out = [
        EstimateResult("div<=sqrtN*grad", nrm["div"], np.sqrt(n) * nrm["grad"], True),
        EstimateResult("sym<=grad", nrm["sym"], nrm["grad"], True),
        EstimateResult("sym<=dev", nrm["sym"], nrm["dev"], not in_open),
        EstimateResult(
            "div<=dev/sqrt(c_alpha)",
            nrm["div"],
            nrm["dev"] / np.sqrt(ca) if ca > 0 else np.inf,
            not in_closed,
        ),
        EstimateResult("dev<=sym", nrm["dev"], nrm["sym"], in_closed),
    ]
    if v.bubble_flag:
        out += [
            EstimateResult("curl<=grad", nrm["curl"], nrm["grad"], True),
            EstimateResult("div<=grad", nrm["div"], nrm["grad"], True),
            EstimateResult("div<=sym", nrm["div"], nrm["sym"], True),
            EstimateResult(
                "div<=sqrt(N/(N-1))*dev",
                nrm["div"],
                np.sqrt(n / (n - 1.0)) * nrm["dev"],
                True,
            ),
            EstimateResult("grad<=sqrt2*sym", nrm["grad"], np.sqrt(2.0) * nrm["sym"], True),
            EstimateResult("grad<=sqrt2*dev", nrm["grad"], np.sqrt(2.0) * nrm["dev"], True),
            EstimateResult(
                "dev<=sqrt(c_alpha+1)*sym",
                nrm["dev"],
                np.sqrt(ca + 1.0) * nrm["sym"],
                not in_open,
            ),
            EstimateResult(
                "sym<=dev/sqrt(c_alpha+1)",
                nrm["sym"],
                nrm["dev"] / np.sqrt(ca + 1.0),
                in_closed,
            ),
        ]
    return out


# --------------------------------------------------------------------------
# skew embeddings
# --------------------------------------------------------------------------


def embed_skew_scalar(u):
    """Skew tensor carrying a scalar in its (1,3)/(3,1) corner.

    Returns the embedding T, its rotation rows, and the norm relations
    |T|^2 = 2|u|^2 (exact) and |Curl T|^2 = |d1 u|^2 + 2|d2 u|^2 + |d3 u|^2
    together with the bound by 2|grad u|^2.
    """
    z = Poly3.zero()
    T = [[z, z, u], [z, z, z], [-1.0 * u, z, z]]
    d1, d2, d3 = (u.diff(a) for a in range(3))
    curl_T = [[d2, -1.0 * d1, z], [z, z, z], [z, -1.0 * d3, d2]]
    n_u = norm_sq([u])
    n_T = norm_sq(T)
    n_curl = norm_sq(curl_T)
    n_grad = norm_sq([d1, d2, d3])
    comp = norm_sq([d1]) + 2.0 * norm_sq([d2]) + norm_sq([d3])
    scale = max(n_T, 1e-300)
    return {
        "tensor": T,
        "curl": curl_T,
        "norm_residual": abs(n_T - 2.0 * n_u) / scale,
        "curl_residual": abs(n_curl - comp) / max(n_curl, 1e-300),
        "curl_sq": n_curl,
        "grad_bound": 2.0 * n_grad,
        "bound_holds": n_curl <= 2.0 * n_grad * (1.0 + 1e-14) + 1e-300,
    }


def skew_embed_vector(v):
    """The displayed skew tensor of a vector field."""
    z = Poly3.zero()
    v1, v2, v3 = v.components
    return [
        [z, -1.0 * v1, v2],
        [v1, z, -1.0 * v3],
        [-1.0 * v2, v3, z],
    ]


def _tensor_curl(T):
    """Row-wise rotation of a 3x3 polynomial matrix."""

    def curl_row(row):
        f, g, h = row
        return [
            h.diff(1) - g.diff(2),
            f.diff(2) - h.diff(0),
            g.diff(0) - f.diff(1),
        ]

    return [curl_row(T[i]) for i in range(3)]


def vector_curl_relation():
    """Linear map partials -> curl entries for the skew embedding.

    Determined by brute force on the nine monomial fields x_j e_i; returns
    the 9x9 matrix Lambda with curl_entries = Lambda @ partials, the
    reconstruction matrix Lambda^{-1}, and the smallest pointwise constant
    c with |grad A| <= c |Curl A| (each partial appears twice in grad A).
    """
    Lambda = np.zeros((9, 9))
    for comp in range(3):
        for axis in range(3):
            mono = PolyField(
                [
                    Poly3.coordinate(axis) if i == comp else Poly3.zero()
                    for i in range(3)
                ]
            )
            A = skew_embed_vector(mono)
            C = _tensor_curl(A)
            col = comp * 3 + axis  # partial d_axis v_comp
            for r in range(3):
                for c in range(3):
                    Lambda[r * 3 + c, col] = float(C[r][c](np.zeros((1, 3)))[0])
    inv = np.linalg.inv(Lambda)
    smin = np.linalg.svd(Lambda, compute_uv=False)[-1]
    c_bound = np.sqrt(2.0) / smin
    return Lambda, inv, c_bound


def embed_skew_vector(v):
    """Check the gradient/rotation relation on one concrete field.

    The nine partials of v are reconstructed from the entries of the
    rotation of the skew embedding through the fixed linear relation;
    the residual is the largest coefficient mismatch.
    """
    Lambda, inv, c_bound = vector_curl_relation()
    A = skew_embed_vector(v)
    C = _tensor_curl(A)
    partials = [v.components[i].diff(j) for i in range(3) for j in range(3)]
    curl_entries = [C[r][c] for r in range(3) for c in range(3)]
    worst = 0.0
    scale = max(
        (float(np.abs(p.c).max()) if p.c.size else 0.0) for p in partials
    )
    for row in range(9):
        recon = Poly3.zero()
        for col in range(9):
            if inv[row, col] != 0.0:
                recon = recon + inv[row, col] * curl_entries[col]
        diff = recon - partials[row]
        worst = max(worst, float(np.abs(diff.c).max()) if diff.c.size else 0.0)
    grad_sq = 2.0 * sum(norm_sq([p]) for p in partials)
    curl_sq = norm_sq(C)
    return {
        "reconstruction_residual": worst / max(scale, 1e-300) if scale else worst,
        "c_bound": c_bound,
        "grad_sq": grad_sq,
        "curl_sq": curl_sq,
        "bound_holds": grad_sq <= c_bound**2 * curl_sq * (1.0 + 1e-12) + 1e-300,
    }


# --------------------------------------------------------------------------
# projection algebra on the cube
# --------------------------------------------------------------------------

SO3_POLY_BASIS = SO3_BASIS  # the three so(3) generators, defined once in hodge


def _mean_matrix(T):
    return np.array([[T[i][j].integral_cube() for j in range(3)] for i in range(3)])


def _skew_np(mat):
    return 0.5 * (mat - mat.T)


def project_so3_poly(T):
    """Skew part of the cube average of a polynomial matrix field."""
    return _skew_np(_mean_matrix(T))


def project_rigid_poly(v):
    """Rigid part S x + b of a polynomial vector field on the cube."""
    J = v.jacobian()
    S = _skew_np(_mean_matrix(J))
    a = np.array([p.integral_cube() for p in v.components])
    centroid = np.full(3, 0.5)
    b = a - S @ centroid
    return S, a, b


def verify_projection_orthogonality(obj):
    """Reproducing relations of the skew/translation/rigid projections.

    For tensors: <skew-average, S> = <T, S> for the three skew generators
    and idempotence.  For vectors: the rigid part reproduces averages
    against constants, and removing it lands orthogonal to both constant
    skews and translations.
    """
    out = {}
    if isinstance(obj, list):  # 3x3 polynomial matrix
        T = obj
        S_T = project_so3_poly(T)
        res = 0.0
        for S in SO3_POLY_BASIS:
            Snp = np.asarray(S)
            lhs = float(np.tensordot(S_T, Snp))  # <S_T, S> over the unit cube
            rhs = dot_integral(T, [[Poly3.constant(Snp[i, j]) for j in range(3)] for i in range(3)])
            res = max(res, abs(lhs - rhs))
        out["pairing_residual"] = res
        # idempotence: projecting the constant field S_T returns S_T
        const = [[Poly3.constant(S_T[i, j]) for j in range(3)] for i in range(3)]
        out["idempotence_residual"] = float(
            np.abs(project_so3_poly(const) - S_T).max()
        )
        return out
    v = obj
    S, a, b = project_rigid_poly(v)
    x = [Poly3.coordinate(i) for i in range(3)]
    rigid = [
        Poly3.constant(b[i]) + sum((S[i, j] * x[j] for j in range(3)), Poly3.zero())
        for i in range(3)
    ]
    # <r_v, e_l> = <v, e_l>
    res_r3 = max(
        abs(rigid[i].integral_cube() - v.components[i].integral_cube())
        for i in range(3)
    )
    # grad(v - r_v) _|_ so(3)
    J = v.jacobian()
    res_so3 = 0.0
    for Sb in SO3_POLY_BASIS:
        Snp = np.asarray(Sb)
        val = dot_integral(
            J, [[Poly3.constant(Snp[i, j]) for j in range(3)] for i in range(3)]
        ) - float(np.tensordot(S, Snp))
        res_so3 = max(res_so3, abs(val))
    # (v - r_v) _|_ R^3 restates res_r3; idempotence of the rigid projection
    S2, a2, b2 = project_rigid_poly(PolyField(rigid))
    out["pairing_residual_r3"] = res_r3
    out["pairing_residual_so3"] = res_so3
    out["idempotence_residual"] = float(
        max(np.abs(S2 - S).max(), np.abs(b2 - b).max())
    )
    return out


def rigid_vanishes_iff_orthogonal(v):
    """Both directions of: rigid part zero <-> grad _|_ so(3) and v _|_ R^3."""
    S, a, b = project_rigid_poly(v)
    J = v.jacobian()
    skew_pair = max(
        abs(
            dot_integral(
                J, [[Poly3.constant(np.asarray(Sb)[i, j]) for j in range(3)] for i in range(3)]
            )
        )
        for Sb in SO3_POLY_BASIS
    )
    mean_pair = float(np.abs(a).max())
    rigid_size = float(max(np.abs(S).max(), np.abs(b).max()))
    return rigid_size, skew_pair, mean_pair
