"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
pass; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import sys
import time

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import hodge, identities as idn
from kornlab.assemble import MatrixCoefficient, identity_coefficient
from kornlab.cli import run
from kornlab.meshes import generate_primitive, refine_uniform
from kornlab.polynomials import Poly3, PolyField

SLACK = 1e-8
TARGET_CP = 1.0 / (np.pi * np.sqrt(3.0))  # smallest Dirichlet eigenvalue 3 pi^2
TARGET_CM = 1.0 / (np.pi * np.sqrt(2.0))  # smallest cavity eigenvalue 2 pi^2
SQRT2 = np.sqrt(2.0)


def _verdict(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def cube4_ws():
    return cst.Workspace(generate_primitive("unit_cube", 4))


@pytest.fixture(scope="module")
def slab4_ws():
    return cst.Workspace(generate_primitive("slab_mixed", 4))


@pytest.fixture(scope="module")
def tunnel_ws():
    return cst.Workspace(generate_primitive("cube_with_tunnel", 1))


def test_criterion_1_proof_chain(cube4_ws, slab4_ws):
    t0 = time.time()
    worst = np.inf
    for ws in (cube4_ws, slab4_ws):
        rng = np.random.default_rng(20260810)
        for _ in range(50):
            cert = cst.certify_main_inequality(ws.random_tensor(rng), ws)
            worst = min(worst, min(cert.margins().values()))
            if not cert.verdict:
                break
    elapsed = time.time() - t0
    _verdict(
        1,
        worst >= -SLACK and elapsed <= 300.0,
        f"100 certifications, worst link margin {worst:.2e} >= -1e-8, "
        f"{elapsed:.1f}s <= 300s",
    )


def test_criterion_2_direct_vs_derived(cube4_ws, slab4_ws, tunnel_ws):
    checks = []
    for ws, label in ((cube4_ws, "cube"), (slab4_ws, "slab"), (tunnel_ws, "tunnel")):
        cd = ws.constant("c_direct").value
        c_hat, c_tilde = cst.derived_bounds(
            ws.constant("c_k_irrot").value, ws.constant("c_m").value
        )
        bound = c_tilde if ws.case == "sliced" else c_hat
        checks.append((label, cd, bound, cd <= bound * (1.0 + SLACK), cd / bound))
    ok = all(c[3] for c in checks)
    detail = "; ".join(
        f"{label}: c_direct={cd:.4f} <= {bound:.4f}, tightness {t:.3f}"
        for label, cd, bound, _, t in checks
    )
    _verdict(2, ok, detail)


def _two_plate_cube(n):
    mesh = generate_primitive("unit_cube", n)
    coords = mesh.vertices[mesh.btris]
    tags = np.zeros(len(mesh.btris), dtype=np.int64)
    tags[np.all(np.abs(coords[:, :, 0]) < 1e-12, axis=1)] = 1
    tags[np.all(np.abs(coords[:, :, 0] - 1.0) < 1e-12, axis=1)] = 1
    return mesh.retag(tags)


def test_criterion_3_ordering_chain(cube4_ws, slab4_ws):
    meshes_with_tags = [
        cube4_ws,
        slab4_ws,
        cst.Workspace(generate_primitive("unit_cube", 2)),
        cst.Workspace(generate_primitive("slab_mixed", 2)),
        cst.Workspace(generate_primitive("cube_with_tunnel", 2).retag(1)),
        cst.Workspace(_two_plate_cube(2)),  # disconnected tag-1 part
    ]
    ok = True
    chains = []
    for ws in meshes_with_tags:
        # solved separately: without harmonic fields the Workspace reads
        # c_k_s and c_k_t off c_k_irrot
        s = cst.korn_constant_standard(ws.mesh).value
        t = cst.korn_constant_tangential(ws.mesh).value
        k = ws.constant("c_k_irrot").value
        c_hat, _ = cst.derived_bounds(k, ws.constant("c_m").value)
        chain_ok = (
            s <= t * (1 + 1e-10) + 1e-10
            and t <= k * (1 + 1e-10) + 1e-10
            and k <= c_hat * (1 + 1e-10)
        )
        ok = ok and chain_ok
        chains.append(f"{s:.3f}<={t:.3f}<={k:.3f}<={c_hat:.3f}")
    _verdict(3, ok, "c_k_s <= c_k_t <= c_k <= c_hat on 6 tagged meshes: "
             + "; ".join(chains))


def test_criterion_4_analytic_convergence():
    t0 = time.time()
    cp, cc, cks = [], [], []
    for n in (2, 4, 8):
        mesh = generate_primitive("unit_cube", n)
        cp.append(cst.poincare_constant(mesh).value)
        cks.append(cst.korn_constant_standard(mesh).value)
        cc.append(cst.maxwell_constant(mesh)[2].value)
    elapsed = time.time() - t0
    cp_ok = cp[0] < cp[1] < cp[2] < TARGET_CP and abs(cp[2] - TARGET_CP) / TARGET_CP <= 0.05
    cc_ok = abs(cc[2] - TARGET_CM) / TARGET_CM <= 0.08
    cks_ok = all(v <= SQRT2 * (1 + 1e-12) for v in cks) and cks[2] >= 0.9 * SQRT2
    _verdict(
        4,
        cp_ok and cc_ok and cks_ok and elapsed <= 600.0,
        f"c_p {cp[2]:.5f}->({TARGET_CP:.5f}) err {abs(cp[2]-TARGET_CP)/TARGET_CP:.1%}; "
        f"c_m_coexact {cc[2]:.5f}->({TARGET_CM:.5f}) err {abs(cc[2]-TARGET_CM)/TARGET_CM:.1%}; "
        f"c_k_s {cks[2]:.5f} <= sqrt2 within 10%; {elapsed:.1f}s <= 600s",
    )


def test_criterion_5_topology():
    dims = {}
    cube = generate_primitive("unit_cube", 2)
    dims["cube_tagged"] = hodge.harmonic_basis(cube).dim
    dims["cube_free"] = hodge.harmonic_basis(cube.retag(0)).dim
    tunnel = generate_primitive("cube_with_tunnel", 1)
    dims["tunnel_free"] = hodge.harmonic_basis(tunnel).dim
    dims["cube_refined"] = hodge.harmonic_basis(refine_uniform(cube)).dim
    dims["tunnel_refined"] = hodge.harmonic_basis(refine_uniform(tunnel)).dim
    ok = (
        dims["cube_tagged"] == 0
        and dims["cube_free"] == 0
        and dims["tunnel_free"] == 1
        and dims["cube_refined"] == 0
        and dims["tunnel_refined"] == 1
    )
    _verdict(5, ok, f"harmonic dimensions {dims} (exact integers)")


def test_criterion_6_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(602214076)
    worst_sym = 0.0
    for _ in range(100):
        v = PolyField.random(rng, 5, bubble_flag=True)
        r = idn.verify_symgrad_identity(v)
        worst_sym = max(worst_sym, r["residual_grad_div"], r["residual_curl_div"])
    worst_dev = 0.0
    worst_margin = 0.0
    v_h1 = PolyField.random(rng, 5)
    v_h10 = PolyField.random(rng, 4, bubble_flag=True)
    for alpha in np.linspace(-2.0, 2.0, 20):
        worst_dev = max(worst_dev, idn.verify_dev_identity(v_h1, float(alpha))["residual"])
        for field in (v_h1, v_h10):
            for est in idn.verify_estimate_suite(field, float(alpha)):
                if est.applicable:
                    rel = (est.lhs - est.rhs) / max(abs(est.rhs), 1e-300)
                    worst_margin = max(worst_margin, rel)
    elapsed = time.time() - t0
    ok = worst_sym <= 1e-12 and worst_dev <= 1e-12 and worst_margin <= 1e-12 \
        and elapsed <= 60.0
    _verdict(
        6,
        ok,
        f"100 bubble fields: worst identity residual {worst_sym:.2e}; "
        f"20 alphas: dev residual {worst_dev:.2e}, estimate violation "
        f"{worst_margin:.2e}; {elapsed:.1f}s <= 60s",
    )


def test_criterion_7_projection_algebra():
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(50):
        v = PolyField.random(rng, 3)
        out = idn.verify_projection_orthogonality(v)
        worst = max(worst, out["pairing_residual_r3"], out["pairing_residual_so3"],
                    out["idempotence_residual"])
    # rigid motions reproduce exactly on a mesh
    mesh = generate_primitive("unit_cube", 2)
    from kornlab.spaces import build_space, interpolate

    pv = build_space(mesh, "P1_vector")
    J = 0.4 * hodge.SO3_BASIS[0] - 0.9 * hodge.SO3_BASIS[1]
    b = np.array([0.2, 0.1, -0.3])
    proj = hodge.project_rigid(interpolate(lambda x: x @ J.T + b, pv))
    rigid_exact = max(np.abs(proj.spin - J).max(), np.abs(proj.offset - b).max())
    # equivalence in both directions on constructed cases
    v = PolyField.random(rng, 3)
    S, a, bb = idn.project_rigid_poly(v)
    x = [Poly3.coordinate(i) for i in range(3)]
    reduced = PolyField(
        [
            v.components[i]
            - sum((S[i, j] * x[j] for j in range(3)), Poly3.constant(bb[i]))
            for i in range(3)
        ]
    )
    size, skew_pair, mean_pair = idn.rigid_vanishes_iff_orthogonal(reduced)
    S2, _, b2 = idn.project_rigid_poly(reduced)
    forward = max(skew_pair, mean_pair)  # rigid part removed -> orthogonal
    backward = max(np.abs(S2).max(), np.abs(b2).max())  # orthogonal -> zero rigid
    ok = worst <= 1e-12 and rigid_exact <= 1e-13 and forward <= 1e-12 \
        and backward <= 1e-12
    _verdict(
        7,
        ok,
        f"50 cubic fields worst residual {worst:.2e} <= 1e-12; rigid "
        f"reproduction {rigid_exact:.2e} <= 1e-13; equivalence fwd {forward:.2e} "
        f"bwd {backward:.2e}",
    )


def test_criterion_8_skew_embeddings(cube4_ws):
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(20):
        u = PolyField.random(rng, 4, ncomp=1)
        r = idn.embed_skew_scalar(u[0])
        worst = max(worst, r["norm_residual"], r["curl_residual"])
        assert r["bound_holds"]
    eq = idn.embed_skew_scalar(Poly3.coordinate(1))
    equality = abs(eq["curl_sq"] - eq["grad_bound"])
    # Poincare recovery: the optimal scalar constant is dominated by the
    # computed combined constant
    c_hat, _ = cst.derived_bounds(
        cube4_ws.constant("c_k_irrot").value, cube4_ws.constant("c_m").value
    )
    c_p = cube4_ws.constant("c_p").value
    ok = worst <= 1e-13 and equality <= 1e-13 and c_p <= c_hat * (1 + 1e-12)
    _verdict(
        8,
        ok,
        f"norm relations exact ({worst:.2e}); equality case u=x2 "
        f"({equality:.2e}); Poincare recovery c_p={c_p:.5f} <= c_hat={c_hat:.5f}",
    )


def test_criterion_9_weighted(slab4_ws):
    mesh = slab4_ws.mesh
    ck = slab4_ws.constant("c_k_irrot").value
    cm = slab4_ws.constant("c_m").value
    c_hat, _ = cst.derived_bounds(ck, cm)
    rec_id = slab4_ws.weighted(identity_coefficient()).record
    chat_id = cst.derived_bound_weighted(rec_id.value, cm, 1.0)
    rec_2 = slab4_ws.weighted(identity_coefficient(2.0)).record
    rejected = False
    bad = MatrixCoefficient(
        lambda p: np.broadcast_to(np.diag([1.0, 1.0, -1.0]), (len(p), 3, 3)).copy(),
        degree=0,
    )
    try:
        cst.matrix_coefficient_norm(bad, mesh)
    except cst.NonPositiveDeterminant:
        rejected = True
    ok = (
        abs(rec_id.value - ck) <= 1e-10 * ck
        and abs(chat_id - c_hat) <= 1e-10 * c_hat
        and abs(rec_2.value - ck / 2.0) <= 1e-10 * ck
        and rejected
    )
    _verdict(
        9,
        ok,
        f"F=Id: c_k_F={rec_id.value:.6f}=c_k, c_hat_F=c_hat; F=2Id: "
        f"c_k_F={rec_2.value:.6f}=c_k/2; nonpositive det rejected={rejected}",
    )


def test_criterion_10_dispatcher():
    mesh = generate_primitive("slab_mixed", 2)
    q0 = cst.generalized_poincare(0, mesh).value
    q1 = cst.generalized_poincare(1, mesh).value
    q2 = cst.generalized_poincare(2, mesh).value
    q3 = cst.generalized_poincare(3, mesh).value
    swapped = mesh.swap_tags()
    ok = (
        q0 == cst.poincare_constant(mesh).value
        and q1 == cst.maxwell_constant(mesh)[0].value
        and q2 == cst.maxwell_constant(swapped)[0].value
        and q3 == cst.poincare_constant(swapped).value
    )
    _verdict(
        10,
        ok,
        f"q=0..3 dualities exact: ({q0:.5f}, {q1:.5f}, {q2:.5f}, {q3:.5f})",
    )


def test_criterion_11_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["constants", "--primitive", "slab_mixed", "--n", "2",
            "--deterministic", "--certify-samples", "5", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    _verdict(11, identical, "repeated deterministic runs are byte-identical")
