"""The c_direct eigensolve seeded from the chain of estimates.

A Workspace solves c_direct from the bracket its own c_k_irrot and c_m
give: the main estimate bounds lambda_1 from below by 1/c_bound^2 (c_hat,
or c_tilde on several slices), and on one slice the lifted curl-free pair
W y bounds it from above by 1/c_k_irrot^2 and starts the solve.  Above the
crossover that is one factorization and one ARPACK pass at the shift
(1 - BRACKET_MARGIN)/(2 c_bound^2), and a result outside the bracket raises.
The seed reaches linalg as a context (linalg.seeded), so eig_smallest keeps
the signature that stand-in solvers copy.
"""

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import linalg
from kornlab.meshes import generate_primitive

from helpers import direct_pencil, three_patches

# references: dense LAPACK on the QR-constrained pencil, and for n=8 ARPACK
# shift-invert on the saddle-point operator, both from an implementation
# independent of kornlab.linalg (perfbench/oracle.py, refs.json)
SEEDED = {
    "unit_cube6": ("unit_cube", 6, None, 1.4067232961382838),
    "unit_cube4_untagged": ("unit_cube", 4, 0, 2.2227451765005464),
    "tunnel2": ("cube_with_tunnel", 2, None, 4.880950378000458),
}


def _mesh(kind, n, tag):
    mesh = generate_primitive(kind, n)
    return mesh if tag is None else mesh.retag(tag)


def _chain_workspace(mesh):
    """A Workspace with c_k_irrot and c_m computed, as compute_report has them."""
    ws = cst.Workspace(mesh)
    ws.constant("c_k_irrot")
    ws.constant("c_m")
    return ws


def _spy_solver(monkeypatch):
    """Record the shift of every ARPACK pass, every factorization and the
    seed (shift, v0) in force at each eig_smallest call."""
    calls = {"sigma": [], "factor": 0, "seed": []}
    arpack, factor, eig_smallest = linalg._arpack, linalg._factor, linalg.eig_smallest

    def spy_arpack(A, B, k, sigma, *args):
        calls["sigma"].append(sigma)
        return arpack(A, B, k, sigma, *args)

    def spy_factor(*args):
        calls["factor"] += 1
        return factor(*args)

    def spy_eig(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
        calls["seed"].append(linalg._seed.get())
        return eig_smallest(A, B, k, deflation, constraints, tol)

    monkeypatch.setattr(linalg, "_arpack", spy_arpack)
    monkeypatch.setattr(linalg, "_factor", spy_factor)
    monkeypatch.setattr(linalg, "eig_smallest", spy_eig)
    return calls


@pytest.mark.parametrize("kind, n, tag, ref", list(SEEDED.values()), ids=list(SEEDED))
def test_seeded_direct_is_one_factorization_and_one_pass(kind, n, tag, ref, monkeypatch):
    ws = _chain_workspace(_mesh(kind, n, tag))
    c_k = ws.constant("c_k_irrot")
    calls = _spy_solver(monkeypatch)
    rec = ws.constant("c_direct")
    assert rec.dim >= linalg.DENSE_CROSSOVER
    assert calls["factor"] == 1 and len(calls["sigma"]) == 1
    (sigma,) = calls["sigma"]
    lower = ws.direct_seed()["bracket"][0]
    assert sigma == pytest.approx(0.5 * lower, rel=1e-7) and 2 * sigma <= rec.eigenvalue
    assert rec.value == pytest.approx(ref, rel=1e-10)
    ((seed_sigma, v0),) = calls["seed"]
    assert seed_sigma == sigma
    if ws.case == "sliced":
        assert v0 is None and c_k.vector is None
    else:
        assert v0.tobytes() == (ws.harmonics.curl_free_basis @ c_k.vector).tobytes()
        # W y is admissible with the curl-free Rayleigh quotient 1/c_k_irrot^2
        A, B, _ = direct_pencil(ws.mesh, ws.pencil)
        quotient = v0 @ (A @ v0) / (v0 @ (B @ v0))
        assert quotient == pytest.approx(c_k.eigenvalue, rel=1e-10)
        assert rec.eigenvalue <= c_k.eigenvalue * (1 + cst.BRACKET_MARGIN)


@pytest.mark.parametrize("make", [lambda: generate_primitive("unit_cube", 4),
                                  lambda: generate_primitive("unit_cube", 4).retag(0),
                                  lambda: three_patches(4)],
                         ids=["unit_cube4", "unit_cube4_untagged", "three_patches4"])
def test_direct_seed_lifts_the_c_k_irrot_pair(make):
    # the record keeps its own pencil's pair (kept P1 dofs of the Korn
    # pencil, curl-free coordinates y of the Edge0^3 one); direct_seed lifts
    # it to W y, bit for bit the rows of a Korn pair mapped through the
    # pinned gradients, or y through the basis of the curl-free forms
    ws = _chain_workspace(make())
    c_k = ws.constant("c_k_irrot")
    v0 = ws.direct_seed()["v0"]
    if ws.harmonics.dim:
        lifted = ws.curl_free.basis @ c_k.vector
    else:  # each row the gradient of one component
        lifted = (ws.ops.pinned_grad @ c_k.vector.reshape(3, -1).T).T.reshape(-1)
    assert v0.tobytes() == lifted.tobytes()
    assert v0.tobytes() == (ws.harmonics.curl_free_basis @ c_k.vector).tobytes()
    # one W per Workspace: the lift and the curl-free forms share the basis's
    assert ws.curl_free.basis is ws.harmonics.curl_free_basis


def test_seeded_direct_unit_cube_n8_needs_one_factorization(monkeypatch):
    # lambda_2 / lambda_1 ~ 1.001: the seeded solve still factors once
    ws = _chain_workspace(generate_primitive("unit_cube", 8))
    calls = _spy_solver(monkeypatch)
    rec = ws.constant("c_direct")
    assert calls["factor"] == 1
    assert rec.value == pytest.approx(1.410272155021159, rel=1e-10)


@pytest.mark.parametrize("kind, n, tag", [("unit_cube", 2, None)]
                         + [case[:3] for case in SEEDED.values()], ids=["unit_cube2", *SEEDED])
def test_seeded_direct_needs_no_kernel_count(kind, n, tag, monkeypatch):
    # lambda >= 2 sigma > 0 already rules out a kernel: the seeded solve is
    # one eig_smallest call for one pair.  So is the unseeded one, since a
    # tag-1 part or the skew-moment rows leave the pencil no kernel to count
    mesh = _mesh(kind, n, tag)
    ws = _chain_workspace(mesh)
    calls = []
    eig_smallest = linalg.eig_smallest

    def spy_eig(A, B, k=1, **kwargs):
        calls.append(("eig_smallest", k))
        return eig_smallest(A, B, k, **kwargs)

    monkeypatch.setattr(linalg, "eig_smallest", spy_eig)
    rec = ws.constant("c_direct")
    assert calls == [("eig_smallest", 1)]
    calls.clear()
    alone = cst.direct_main_constant(mesh, pencil=ws.pencil)
    assert calls == [("eig_smallest", 1)]
    assert alone.value == pytest.approx(rec.value, rel=1e-10)


def test_start_vector_without_the_smallest_pair_still_finds_it():
    # W y made B-orthogonal to the lambda_1 eigenvector: alone it starts a
    # Krylov space that holds lambda_2 = 0.5081 (above the curl-free bound),
    # the random share of the start vector brings lambda_1 back
    ws = _chain_workspace(generate_primitive("unit_cube", 6))
    seed = ws.direct_seed()
    A, B, _ = direct_pencil(ws.mesh, ws.pencil)
    x1 = linalg.eig_smallest(A, B, k=1, tol=1e-12).vectors[:, 0]
    x1 = x1 / np.sqrt(x1 @ (B @ x1))
    wy = seed["v0"]
    perp = wy - (x1 @ (B @ wy)) * x1
    assert abs(x1 @ (B @ perp)) < 1e-12 * np.sqrt(perp @ (B @ perp))
    rec = cst.direct_main_constant(ws.mesh, ws.tol, pencil=ws.pencil,
                                   bracket=seed["bracket"], v0=perp)
    assert rec.value == pytest.approx(SEEDED["unit_cube6"][3], rel=1e-10)


def _stubbed_direct(monkeypatch, pick):
    """ws.constant("c_direct") on tagged unit_cube n=2 (78 dofs, dense) with
    eig_smallest returning pick(two smallest pairs, lower bound) instead."""
    ws = _chain_workspace(generate_primitive("unit_cube", 2))
    lower = ws.direct_seed()["bracket"][0]
    real = linalg.eig_smallest

    def stub(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
        return pick(real(A, B, 2, deflation, constraints, tol), lower)

    monkeypatch.setattr(linalg, "eig_smallest", stub)
    return ws


@pytest.mark.parametrize("share", [0.25, 0.75])
def test_pair_below_the_main_estimate_raises(monkeypatch, share):
    # lambda_1 at share * lower: below the shift (lower / 2) and between the
    # shift and the bound.  c_direct reads the quotient of the returned
    # vector, so the bound is made too high, as a wrong c_k_irrot or c_m
    # would make it, and the true pair is returned (78 dofs, dense)
    ws = _chain_workspace(generate_primitive("unit_cube", 2))
    lam = cst.direct_main_constant(ws.mesh, pencil=ws.pencil).eigenvalue
    monkeypatch.setattr(ws, "direct_seed", lambda: dict(bracket=(lam / share, None), v0=None))
    with pytest.raises(linalg.SolverError, match="below the lower bound"):
        ws.constant("c_direct")


def test_missed_smallest_pair_raises(monkeypatch):
    def second(eig, lower):
        return linalg.EigenResult(eig.values[1:], eig.vectors[:, 1:], eig.residuals[1:])

    ws = _stubbed_direct(monkeypatch, second)
    # the second pair (0.7204) lies above the curl-free bound (0.5556)
    with pytest.raises(linalg.SolverError, match="missed the smallest pair"):
        ws.constant("c_direct")


def test_a_real_solve_shifted_above_lambda_1_is_refused(monkeypatch):
    # the gate of a shift near lambda_1 on a real seeded solve: on slab_mixed
    # n=6 the shift (1 - 2e-3) U, U = 1/c_k_irrot^2, lies above lambda_1, and
    # shift-invert returns the pair nearest it.  The lower bound that puts the
    # shift there (sigma = (1 - BRACKET_MARGIN) lower / 2) refuses that pair
    ws = _chain_workspace(generate_primitive("slab_mixed", 6))
    lam_1 = ws.constant("c_direct").eigenvalue
    seed = ws.direct_seed()
    upper = seed["bracket"][1]
    sigma = (1.0 - 2e-3) * upper
    lower = 2.0 * sigma / (1.0 - cst.BRACKET_MARGIN)
    calls = _spy_solver(monkeypatch)
    returned = []
    arpack = linalg._arpack

    def keep(*args):
        vals, vecs = arpack(*args)
        returned.extend(vals)
        return vals, vecs

    monkeypatch.setattr(linalg, "_arpack", keep)
    with pytest.raises(linalg.SolverError, match="below the lower bound"):
        cst.direct_main_constant(ws.mesh, pencil=ws.pencil, bracket=(lower, upper),
                                 v0=seed["v0"])
    assert calls["sigma"] == [pytest.approx(sigma, rel=1e-15)]
    assert lam_1 == pytest.approx(0.0775650, rel=1e-6) and lam_1 < sigma
    assert returned == [pytest.approx(0.0809088, rel=1e-6)]
