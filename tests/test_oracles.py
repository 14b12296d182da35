"""Independent cross-checks of the assembly and eigenvalue pipelines.

These tests rebuild the key quadratic forms from pointwise Whitney basis
values with their own einsum code and compare constants and
certification quantities against the production scatter/eigensolver
path.
"""

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import hodge
from kornlab.assemble import evaluate_norms, geometry
from kornlab.meshes import generate_primitive
from kornlab.quadrature import barycentric, tet_rule
from kornlab.spaces import TensorField, build_space

from helpers import constant_tensor_coeffs, direct_pencil


def dense_tensor_forms(mesh, space):
    """Mass, sym and curl-curl forms over stacked edge tensors, assembled
    densely from pointwise basis values (independent of the scatter path)."""
    geom = geometry(mesh)
    pts, wts = tet_rule(4)
    lam = barycentric(pts)
    W = geom.edge_values(lam)  # (T,Q,6,3)
    curls = geom.edge_curls()  # (T,6,3)
    w_phys = 6.0 * np.einsum("t,q->tq", geom.vols, wts)
    nfree = space.free_count
    dofs = space.dof_map[0][mesh.tet_edges]  # (T,6)

    n = 3 * nfree
    M = np.zeros((n, n))
    S = np.zeros((n, n))
    K = np.zeros((n, n))
    T_, Q = W.shape[0], W.shape[1]
    for t in range(T_):
        for a in range(6):
            ia = dofs[t, a]
            if ia < 0:
                continue
            for b in range(6):
                ib = dofs[t, b]
                if ib < 0:
                    continue
                mass_ab = float(np.sum(w_phys[t] * np.sum(W[t, :, a] * W[t, :, b], axis=1)))
                curl_ab = float(geom.vols[t] * np.dot(curls[t, a], curls[t, b]))
                comp_ab = np.einsum("q,qi,qj->ij", w_phys[t], W[t, :, a], W[t, :, b])
                for m in range(3):
                    M[m * nfree + ia, m * nfree + ib] += mass_ab
                    K[m * nfree + ia, m * nfree + ib] += curl_ab
                    for nn in range(3):
                        # sym(e_m x u):sym(e_n x v) = (d_mn u.v + u_n v_m)/2
                        S[m * nfree + ia, nn * nfree + ib] += 0.5 * (
                            (mass_ab if m == nn else 0.0) + comp_ab[nn, m]
                        )
    return M, S, K


@pytest.fixture(scope="module")
def slab1():
    return generate_primitive("slab_mixed", 1)


def test_dense_forms_match_assembled(slab1):
    # the mass and Sym + CC that c_direct forms, and the strain half
    pencil = cst.tensor_pencil(hodge.edge_operators(slab1))
    M0, S0, K0 = dense_tensor_forms(slab1, pencil.ops.edge_space)
    A, B, _ = direct_pencil(slab1, pencil)
    M, S = B.toarray(), pencil.strain.full().toarray()
    K = A.toarray() - S
    assert np.abs(M - M0).max() <= 1e-13
    assert np.abs(S - S0).max() <= 1e-13
    assert np.abs(K - K0).max() <= 1e-12


def test_direct_constant_dense_oracle(slab1):
    space = build_space(slab1, "Edge0", "gamma_t")
    M0, S0, K0 = dense_tensor_forms(slab1, space)
    w = _gen_eigvals(S0 + K0, M0)
    rec = cst.direct_main_constant(slab1)
    assert rec.value == pytest.approx(1.0 / np.sqrt(w[0]), rel=1e-10)


def _gen_eigvals(A, B):
    L = np.linalg.cholesky(B)
    Linv = np.linalg.inv(L)
    C = Linv @ A @ Linv.T
    return np.linalg.eigvalsh(0.5 * (C + C.T))


def test_direct_constant_dense_oracle_no_tags():
    # so(3) deflation handled by explicit projection in the oracle
    mesh = generate_primitive("unit_cube", 1).retag(0)
    space = build_space(mesh, "Edge0")
    M0, S0, K0 = dense_tensor_forms(mesh, space)
    D = np.column_stack(
        [
            constant_tensor_coeffs(space, S).reshape(-1)
            for S in hodge.SO3_BASIS
        ]
    )
    from scipy.linalg import null_space as ns

    U = ns((M0 @ D).T)
    w = _gen_eigvals(U.T @ (S0 + K0) @ U, U.T @ M0 @ U)
    rec = cst.direct_main_constant(mesh)
    assert rec.value == pytest.approx(1.0 / np.sqrt(w[0]), rel=1e-9)


def _cell_centroid_slice_means(T):
    """Per-slice averages of a TensorField: volume-weighted cell-centroid
    values (exact: the fields are affine per cell)."""
    mesh = T.space.mesh
    geom = geometry(mesh)
    W = geom.edge_values(np.full((1, 4), 0.25))[:, 0]  # (T,6,3)
    cells = np.stack([
        np.einsum("te,ted->td", T.space.full_from_free(row)[0][mesh.tet_edges], W)
        for row in T.rows
    ], axis=1)  # (T,3,3)
    means, vols = [], []
    for s in np.unique(mesh.slice_ids):
        sel = mesh.slice_ids == s
        vols.append(geom.vols[sel].sum())
        means.append(np.einsum("t,tab->ab", geom.vols[sel], cells[sel]) / vols[-1])
    return np.array(means), np.array(vols)


def _shifted_norm(X, skews):
    """|X - skews[j] on slice j| from evaluate_norms and the cell averages;
    on one slice the constant skew is an Edge0 tensor, subtracted as one."""
    if len(skews) == 1:
        shift = constant_tensor_coeffs(X.space, skews[0])
        return np.sqrt(evaluate_norms(TensorField(X.space, X.rows - shift), ["L2"])["L2"])
    means, vols = _cell_centroid_slice_means(X)
    sq = (evaluate_norms(X, ["L2"])["L2"]
          - 2.0 * np.einsum("j,jab,jab->", vols, means, skews)
          + np.einsum("j,jab,jab->", vols, skews, skews))
    return np.sqrt(sq)


def test_certification_links_against_norm_oracle():
    cases = [  # (mesh, case, harmonic dim)
        (generate_primitive("slab_mixed", 2), "tangential", 0),
        (generate_primitive("unit_cube", 2).retag(0), "simply_connected", 0),
        (generate_primitive("cube_with_tunnel", 2), "sliced", 1),
    ]
    for mesh, case, harmonic_dim in cases:
        ws = cst.Workspace(mesh)
        assert (ws.case, ws.harmonics.dim) == (case, harmonic_dim)
        _check_links_against_norm_oracle(ws)


def _check_links_against_norm_oracle(ws):
    c_k = ws.constant("c_k_irrot").value
    c_hat, c_tilde = cst.derived_bounds(c_k, ws.constant("c_m").value)
    c_bound = c_tilde if ws.case == "sliced" else c_hat
    rng = np.random.default_rng(123)
    for _ in range(5):
        T = ws.random_tensor(rng)
        cert = cst.certify_main_inequality(T, ws)
        split = hodge.helmholtz_split_tensor(T, harmonics=ws.harmonics)
        G, H, S = split.parts()
        R = TensorField(T.space, G.rows + H.rows)
        nS = np.sqrt(evaluate_norms(S, ["L2"])["L2"])
        sym_T = np.sqrt(evaluate_norms(T, ["sym"])["sym"])
        curl_T = np.sqrt(evaluate_norms(T, ["curl"])["curl"])
        sym_R = np.sqrt(evaluate_norms(R, ["sym"])["sym"])
        link = cert.links["coexact_estimate"]
        assert link["lhs"] == pytest.approx(nS, rel=1e-9)
        assert link["rhs"] == pytest.approx(
            ws.constant("c_m_coexact").value * curl_T, rel=1e-9
        )
        assert cert.links["coexact_estimate_cm"]["rhs"] == pytest.approx(
            ws.constant("c_m").value * curl_T, rel=1e-9
        )
        if ws.case == "tangential":
            lhs_d = np.sqrt(evaluate_norms(R, ["L2"])["L2"])
            lhs_e = np.sqrt(evaluate_norms(T, ["L2"])["L2"])
        else:
            means_T, _ = _cell_centroid_slice_means(T)
            means_R, _ = _cell_centroid_slice_means(R)
            assert np.abs(hodge.slice_means(T)[1] - means_T).max() <= 1e-12
            assert np.abs(hodge.slice_means(R)[1] - means_R).max() <= 1e-12
            skews = 0.5 * (means_R - np.swapaxes(means_R, 1, 2))
            shift = skews if ws.case == "sliced" else skews[0]
            assert np.abs(cert.skew_shift - shift).max() <= 1e-12
            lhs_d, lhs_e = _shifted_norm(R, skews), _shifted_norm(T, skews)
        korn = cert.links["korn_link"]
        assert korn["lhs"] == pytest.approx(lhs_d, rel=1e-9)
        assert korn["rhs"] == pytest.approx(c_k * sym_R, rel=1e-9)
        bound = cert.links["assembled_bound"]
        assert bound["lhs"] == pytest.approx(lhs_e, rel=1e-9)
        assert bound["rhs"] == pytest.approx(
            c_bound * np.sqrt(sym_T**2 + curl_T**2), rel=1e-9
        )


def test_poincare_dense_oracle():
    # rebuild the scalar pencil from P1 basis values per cell
    mesh = generate_primitive("slab_mixed", 1)
    space = build_space(mesh, "P1_scalar", "gamma_t")
    geom = geometry(mesh)
    pts, wts = tet_rule(2)
    lam = barycentric(pts)
    dofs = space.dof_map[0][mesh.tets]
    n = space.free_count
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    for t in range(mesh.num_tets):
        for a in range(4):
            ia = dofs[t, a]
            if ia < 0:
                continue
            for b in range(4):
                ib = dofs[t, b]
                if ib < 0:
                    continue
                A[ia, ib] += geom.vols[t] * np.dot(geom.grads[t, a], geom.grads[t, b])
                B[ia, ib] += 6.0 * geom.vols[t] * float(
                    np.sum(wts * lam[:, a] * lam[:, b])
                )
    w = _gen_eigvals(A, B)
    rec = cst.poincare_constant(mesh)
    assert rec.value == pytest.approx(1.0 / np.sqrt(w[0]), rel=1e-11)
