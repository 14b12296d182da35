"""Eigensolves seeded just below a proven lower bound.

A Workspace solves c_direct from the bracket its own c_k_irrot and
c_m_coexact give: the Korn and coexact links, solved exactly, bound
lambda_1 from below by L* (constants.direct_lower_bound), never below
1/c_bound^2, and on one slice the lifted curl-free pair W y bounds it from
above by 1/c_k_irrot^2 and starts the solve.  Above the crossover that is
one factorization and one ARPACK pass, with linalg's small seeded basis,
at the shift (1 - BRACKET_MARGIN) L*, and a result outside the bracket
raises.  On a fully tagged boundary Korn's identity bounds the P1 Korn
pencil by 1/2, and it is seeded just below that.  The seed reaches linalg
as a context (linalg.seeded), so eig_smallest keeps the signature that
stand-in solvers copy.
"""

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import linalg
from kornlab.meshes import generate_primitive

from helpers import direct_pencil, three_patches

FORCED_DENSE = 10**9  # every pencil dense, as in test_sparse_parity
PATCHED_CROSSOVER = 16  # every pencil above 16 dofs sparse

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
    """Record the shift of every ARPACK pass, its operator applications,
    every factorization and the seed (shift, v0) in force at each
    eig_smallest call."""
    calls = {"sigma": [], "applications": 0, "factor": 0, "seed": []}
    arpack, factor, eig_smallest = linalg._arpack, linalg._factor, linalg.eig_smallest

    def spy_arpack(A, B, k, sigma, op, *args):
        calls["sigma"].append(sigma)

        def counted(x):
            calls["applications"] += 1
            return op(x)

        return arpack(A, B, k, sigma, counted, *args)

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
    assert sigma == pytest.approx((1 - cst.BRACKET_MARGIN) * lower, rel=1e-15)
    assert sigma <= rec.eigenvalue
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
    # lambda_2 / lambda_1 ~ 1.001: the seeded solve still factors once, and
    # at 0.95 lambda_1 its pass takes 41 operator applications (111 at half
    # of 1/c_bound^2 with eigsh's default basis)
    ws = _chain_workspace(generate_primitive("unit_cube", 8))
    calls = _spy_solver(monkeypatch)
    rec = ws.constant("c_direct")
    assert calls["factor"] == 1
    assert calls["applications"] <= 45
    assert rec.value == pytest.approx(1.410272155021159, rel=1e-10)


@pytest.mark.parametrize("kind, ceiling", [("unit_cube", 30), ("slab_mixed", 12)])
def test_seeded_direct_pass_takes_few_applications(kind, ceiling, monkeypatch):
    # the shift just below L* (0.95 and 0.97 lambda_1) and the small basis:
    # 25 and 9 operator applications (61 and 21 at half of 1/c_bound^2 with
    # the default basis)
    ws = _chain_workspace(generate_primitive(kind, 6))
    calls = _spy_solver(monkeypatch)
    rec = ws.constant("c_direct")
    assert len(calls["sigma"]) == 1
    assert calls["applications"] <= ceiling
    assert ws.direct_seed()["bracket"][0] >= 0.9 * rec.eigenvalue


@pytest.mark.parametrize("kind, n, tag", [("unit_cube", 2, None)]
                         + [case[:3] for case in SEEDED.values()], ids=["unit_cube2", *SEEDED])
def test_seeded_direct_needs_no_kernel_count(kind, n, tag, monkeypatch):
    # L* > 0 already rules out a kernel: the seeded solve is
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
    # lambda_1 at share * lower, far below the shift (1 - BRACKET_MARGIN)
    # lower and just below it.  c_direct reads the quotient of the returned
    # vector, so the bound is made too high, as a wrong c_k_irrot or
    # c_m_coexact would make it, and the true pair is returned (78 dofs, dense)
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
    # shift there (sigma = (1 - BRACKET_MARGIN) lower) refuses that pair
    ws = _chain_workspace(generate_primitive("slab_mixed", 6))
    lam_1 = ws.constant("c_direct").eigenvalue
    seed = ws.direct_seed()
    upper = seed["bracket"][1]
    sigma = (1.0 - 2e-3) * upper
    lower = sigma / (1.0 - cst.BRACKET_MARGIN)
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


def _scaled_cube(s):
    return generate_primitive("unit_cube", 2).transformed(matrix=s * np.eye(3))


# tunnel n=3 (5904 dofs) is solved by the unseeded sparse pass, every other
# pencil dense
BOUND_MESHES = {
    "unit_cube2": lambda: _mesh("unit_cube", 2, None),
    "unit_cube2_untagged": lambda: _mesh("unit_cube", 2, 0),
    "unit_cube3": lambda: _mesh("unit_cube", 3, None),
    "unit_cube3_untagged": lambda: _mesh("unit_cube", 3, 0),
    "slab_mixed2": lambda: _mesh("slab_mixed", 2, None),
    "tunnel2": lambda: _mesh("cube_with_tunnel", 2, None),
    "tunnel3": lambda: _mesh("cube_with_tunnel", 3, None),
    "three_patches4": lambda: three_patches(4),
    **{f"unit_cube2_scaled{s:g}": (lambda s=s: _scaled_cube(s)) for s in (1e-4, 1e-2, 1e2, 1e4)},
}


@pytest.mark.parametrize("make", list(BOUND_MESHES.values()), ids=list(BOUND_MESHES))
def test_chain_lower_bound_lies_below_lambda_1(make, monkeypatch, request):
    # L* <= lambda_1 <= the factored quotient of the computed vector, and
    # L* >= 1/c_bound^2, so the bracket never loosens.  The unseeded pass
    # of tunnel n=3 does not read L*.  On the mesh scaled by 1e-4 mu dwarfs
    # U: a bound computed by the textbook difference came out above U
    mesh = make()
    if request.node.callspec.id != "tunnel3":
        monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    ws = _chain_workspace(mesh)
    lower = ws.direct_seed()["bracket"][0]
    A, B, C = direct_pencil(mesh, ws.pencil)
    x = linalg.eig_smallest(A, B, k=1, constraints=C, tol=1e-12).vectors[:, 0]
    quotient = (ws.pencil.strain.norm(x)**2 + ws.ops.curl_sq(x.reshape(3, -1))[1]) / (x @ (B @ x))
    assert 0 < lower <= quotient
    assert lower >= 1.0 / ws.derived_bound[1]**2
    korn = ws.constant("c_k_irrot").eigenvalue
    assert korn is None or lower <= korn


def test_chain_lower_bound_without_cancellation():
    # mu / U = 1e12, where the textbook difference ((a + d) - hypot(a - d,
    # 2 b)) / 2 loses nine digits: l = U mu / (kappa lambda_max) keeps them,
    # l = U (1 - 1/mu) to first order; no curl-free space leaves L* = mu
    U, mu = 0.5555555555555556, 0.5555555555555556e12
    for kappa in (1, 2):
        lower = cst.direct_lower_bound(U, mu, kappa)
        assert lower < U and lower == pytest.approx(U * (1 - 1 / mu), rel=1e-12)
    assert cst.direct_lower_bound(None, 3.0) == 3.0


# kind, n and whether the pencil has PATCHED_CROSSOVER dofs (the n=2 unit
# cube keeps 3)
CLAMPED = {"unit_cube2": ("unit_cube", 2, False), "unit_cube3": ("unit_cube", 3, True),
           "tunnel2_tagged": ("cube_with_tunnel", 2, True)}


@pytest.mark.parametrize("kind, n, sparse_path", list(CLAMPED.values()), ids=list(CLAMPED))
@pytest.mark.parametrize("korn", [cst.korn_constant_standard, cst.korn_constant_tangential],
                         ids=["c_k_s", "c_k_t"])
def test_clamped_korn_pencil_lies_above_one_half(kind, n, sparse_path, korn, monkeypatch):
    # Korn's identity: lambda_1 >= 1/2 on a fully tagged boundary, on the
    # dense path and on the sparse one seeded just below it
    mesh = generate_primitive(kind, n).retag(1)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", FORCED_DENSE)
    dense = korn(mesh)
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", PATCHED_CROSSOVER)
    calls = _spy_solver(monkeypatch)
    sparse = korn(mesh)
    assert calls["sigma"] == ([cst.KORN_SHIFT] if sparse_path else [])
    assert dense.eigenvalue >= 0.5
    assert sparse.value == pytest.approx(dense.value, rel=1e-10)


@pytest.mark.parametrize("kind, shifted", [("unit_cube", True), ("slab_mixed", False)])
def test_korn_shift_only_on_a_fully_tagged_boundary(kind, shifted, monkeypatch):
    # tagged unit_cube n=6 (375 dofs) is clamped all round: the pass is
    # seeded at 1/2 (1 - BRACKET_MARGIN), with no start vector; slab_mixed
    # n=6 has a free part and keeps sigma_0 < 0
    mesh = generate_primitive(kind, 6)
    calls = _spy_solver(monkeypatch)
    rec = cst.korn_constant_standard(mesh)
    assert rec.dim >= linalg.DENSE_CROSSOVER
    if shifted:
        assert calls["seed"] == [(cst.KORN_SHIFT, None)]
        assert calls["sigma"] == [cst.KORN_SHIFT] and rec.eigenvalue >= 0.5
    else:
        assert calls["seed"] == [None]
        (sigma,) = calls["sigma"]
        assert sigma < 0


def test_clamped_korn_pair_below_one_half_raises(monkeypatch):
    # a returned pair below the shift contradicts Korn's identity
    real = linalg.eig_smallest

    def low(A, B, k=1, deflation=None, constraints=None, tol=1e-10):
        eig = real(A, B, k, deflation, constraints, tol)
        return linalg.EigenResult(0.9 * eig.values, eig.vectors, eig.residuals)

    monkeypatch.setattr(linalg, "eig_smallest", low)
    with pytest.raises(linalg.SolverError, match="Korn's identity"):
        cst.korn_constant_standard(generate_primitive("unit_cube", 3))
