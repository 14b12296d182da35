"""Certification reuses what depends only on the mesh.

Each EdgeOperators factors its Poisson matrix G^T M G once; every later
Helmholtz split is a pair of triangular solves.  The slice moments are
built once per mesh and the curl incidence and Face0 mass with the
Workspace, so a sample after the first does only the work that depends on
its field.  The pinned margins were
recorded before the factorization was cached and the piecewise-shift
loop of certify_main_inequality was folded, and must not move.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from kornlab import constants as cst
from kornlab import hodge, linalg
from kornlab.assemble import assemble
from kornlab.meshes import generate_primitive
from kornlab.spaces import TensorField, build_space

CHAIN = ("c_m", "c_m_coexact", "c_k_irrot")  # the constants certification reads

# certify_main_inequality margins for ws.random_tensor(default_rng(seed)),
# seeds 0, 1, 2, computed with a fresh factorization per Poisson solve
PINNED_MARGINS = {
    "tunnel_sliced": [
        {"orthogonality": -8.882866858411048e-18, "curl_transfer": -4.9488783219996924e-17,
         "coexact_estimate": 0.7495844344155901, "coexact_estimate_cm": 0.917789231240522,
         "korn_link": 0.7465920314586739, "assembled_bound": 0.9874849501201866},
        {"orthogonality": -2.5234392719612473e-17, "curl_transfer": -4.064995986565172e-17,
         "coexact_estimate": 0.7484296660527975, "coexact_estimate_cm": 0.9174101238371034,
         "korn_link": 0.7416003173449244, "assembled_bound": 0.9873971284976342},
        {"orthogonality": -3.389138473337637e-18, "curl_transfer": -3.763772054576118e-17,
         "coexact_estimate": 0.7531504822279299, "coexact_estimate_cm": 0.9189599553183219,
         "korn_link": 0.747097188025357, "assembled_bound": 0.9877718273016135},
    ],
    "cube_simply_connected": [
        {"orthogonality": -3.6451155794277e-17, "curl_transfer": -2.6469732177226348e-17,
         "coexact_estimate": 0.600240449232464, "coexact_estimate_cm": 0.7026620297383926,
         "korn_link": 0.3683128964815651, "assembled_bound": 0.9541962084966681,
         "skew_consistency": -5.719914737838407e-16},
        {"orthogonality": -2.6102651190090584e-18, "curl_transfer": -2.7555487763694048e-17,
         "coexact_estimate": 0.6180824635656955, "coexact_estimate_cm": 0.7159327779094765,
         "korn_link": 0.37026048333493805, "assembled_bound": 0.9600606031530726,
         "skew_consistency": -3.455959268445218e-15},
        {"orthogonality": -3.895607780803165e-17, "curl_transfer": -2.332630487214274e-17,
         "coexact_estimate": 0.5848424971759775, "coexact_estimate_cm": 0.6912091556247643,
         "korn_link": 0.37042052093700895, "assembled_bound": 0.9573080877251937,
         "skew_consistency": -1.124756583061458e-15},
    ],
    "slab_tangential": [
        {"orthogonality": -2.3395623146031375e-17, "curl_transfer": -1.984899810353815e-17,
         "coexact_estimate": 0.6607708161878612, "coexact_estimate_cm": 0.8424572251230149,
         "korn_link": 0.5685708742416609, "assembled_bound": 0.9704798669843484},
        {"orthogonality": -1.4098610258903016e-17, "curl_transfer": -2.2069360737039232e-17,
         "coexact_estimate": 0.6903140312961583, "coexact_estimate_cm": 0.8561775071890954,
         "korn_link": 0.5612042526277908, "assembled_bound": 0.973163596626824},
        {"orthogonality": -2.3765460213110998e-17, "curl_transfer": -2.5152048691726722e-17,
         "coexact_estimate": 0.694643064675266, "coexact_estimate_cm": 0.8581879708037394,
         "korn_link": 0.5609150638933631, "assembled_bound": 0.9730160713938313},
    ],
}


def _mesh(label):
    if label == "tunnel_sliced":
        return generate_primitive("cube_with_tunnel", 2)
    if label == "cube_simply_connected":
        return generate_primitive("unit_cube", 2).retag(0)
    return generate_primitive("slab_mixed", 2)


@pytest.fixture(scope="module")
def workspaces():
    return {label: cst.Workspace(_mesh(label)) for label in PINNED_MARGINS}


@pytest.mark.parametrize("label", ["tunnel_sliced", "slab_tangential"])
def test_certification_factors_poisson_once(workspaces, label, monkeypatch):
    ws = workspaces[label]
    for name in CHAIN:
        ws.constant(name)
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in ((spla, "splu"), (cst, "assemble"), (hodge, "assemble"),
                         (cst, "build_space"), (hodge, "build_space"),
                         (hodge, "_slice_moments"), (hodge, "helmholtz_split_tensor")):
        spy(module, name)
    rng = np.random.default_rng(7)
    assert cst.certify_main_inequality(ws.random_tensor(rng), ws).verdict
    assert calls.count("splu") == 1
    assert calls.count("helmholtz_split_tensor") == 1
    for _ in range(5):
        calls.clear()
        assert cst.certify_main_inequality(ws.random_tensor(rng), ws).verdict
        # no assembly, space, factorization or slice-moment matrix; one split
        assert calls == ["helmholtz_split_tensor"]


@pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-10])
def test_gradient_rows_with_noise_certify(workspaces, noise):
    # t^T CC t is pure rounding for rows within noise of gradients; |Curl T|
    # read as the Face0 mass norm of the incidence images C t_m is not.
    # Exact gradient rows (noise 0) have S and Curl T at rounding level
    ws = workspaces["slab_tangential"]
    rng = np.random.default_rng(3)
    rows = _gradient_rows(ws.ops, rng)
    rows += noise * rng.standard_normal(rows.shape)
    cert = cst.certify_main_inequality(TensorField(ws.ops.edge_space, rows), ws)
    assert cert.verdict, cert.failed


def _gradient_rows(ops, rng):
    """Three tensor rows, each the exact gradient of a random potential."""
    return np.stack([ops.grad @ rng.standard_normal(ops.p1_space.free_count)
                     for _ in range(3)])


# an exactly curl-free T has S = T - R and Curl T at rounding level, so the
# coexact links divide the rounding of the Poisson solve by the 1e-6 |T|
# floor; it grows with the solve's condition, and so with the mesh
@pytest.mark.parametrize("make", [lambda: generate_primitive("cube_with_tunnel", 2),
                                  lambda: generate_primitive("cube_with_tunnel", 3),
                                  lambda: generate_primitive("cube_with_tunnel", 4),
                                  lambda: generate_primitive("unit_cube", 4).retag(0),
                                  lambda: generate_primitive("unit_cube", 6).retag(0),
                                  lambda: generate_primitive("unit_cube", 2),
                                  lambda: generate_primitive("unit_cube", 4),
                                  lambda: generate_primitive("slab_mixed", 2),
                                  lambda: generate_primitive("slab_mixed", 4)],
                         ids=["tunnel2", "tunnel3", "tunnel4", "unit_cube4_untagged",
                              "unit_cube6_untagged", "unit_cube2", "unit_cube4",
                              "slab_mixed2", "slab_mixed4"])
def test_exact_gradient_rows_certify(make):
    # worst margins (coexact_estimate): -1.49e-9, -4.74e-9 and -4.08e-9 on
    # tunnel n=2, 3 and 4, -1.08e-9 and -7.44e-9 on untagged unit_cube n=4 and 6,
    # against the -1e-8 slack.  With a tag-1 part
    # (the tangential case, no skew shift) -1.89e-10 and -9.35e-11 on
    # unit_cube n=2 and 4, -1.65e-10 and -1.35e-10 on slab_mixed n=2 and 4
    ws = cst.Workspace(make())
    rows = _gradient_rows(ws.ops, np.random.default_rng(3))
    cert = cst.certify_main_inequality(TensorField(ws.ops.edge_space, rows), ws)
    assert cert.verdict, cert.failed


@pytest.mark.parametrize("make", [
    pytest.param(lambda: generate_primitive("cube_with_tunnel", 3), id="tunnel3",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "coexact_estimate and coexact_estimate_cm fail at -2.65e-8"))),
    pytest.param(lambda: generate_primitive("unit_cube", 6).retag(0), id="unit_cube6_untagged",
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "coexact_estimate and coexact_estimate_cm fail at -3.76e-8, "
                     "assembled_bound at -3.97e-8"))),
])
def test_exact_constant_skew_certifies(make):
    # the constant skew S^0, exactly curl-free and without noise
    ws = cst.Workspace(make())
    T = TensorField(ws.ops.edge_space, ws.skew_fields[1][0].reshape(3, -1))
    cert = cst.certify_main_inequality(T, ws)
    assert cert.verdict, cert.failed


@pytest.mark.parametrize("label", ["tunnel_sliced", "slab_tangential"])
def test_cached_poisson_solve_matches_fresh_solve(workspaces, label):
    ws = workspaces[label]
    mesh = ws.mesh
    e0 = build_space(mesh, "Edge0", "gamma_t")
    p1 = build_space(mesh, "P1_scalar", "gamma_t")
    G = assemble("mixed_grad", p1, e0)
    M = assemble("mass", e0)
    K = (G.T @ (M @ G)).tocsr()
    pinned = not mesh.has_gamma_t
    assert pinned == (label == "tunnel_sliced")
    rng = np.random.default_rng(11)
    for _ in range(2):  # the second solve runs against the cached factor
        v = rng.standard_normal(e0.free_count)
        cached = ws.ops.poisson(ws.ops.grad_t @ (ws.ops.mass @ v))
        cached = np.r_[0.0, cached] if pinned else cached  # the pinned vertex 0 carries 0
        rhs = G.T @ (M @ v)
        fresh = np.zeros(p1.free_count)
        if pinned:
            fresh[1:] = linalg.solve_spd(K[1:, 1:], rhs[1:])
        else:
            fresh = linalg.solve_spd(K, rhs)
        assert np.linalg.norm(cached - fresh) <= 1e-13 * np.linalg.norm(fresh)


@pytest.mark.parametrize("label", list(PINNED_MARGINS))
def test_certification_margins_pinned(workspaces, label):
    ws = workspaces[label]
    for seed, expected in enumerate(PINNED_MARGINS[label]):
        cert = cst.certify_main_inequality(ws.random_tensor(np.random.default_rng(seed)), ws)
        assert cert.case == label.split("_", 1)[1]
        margins = cert.margins()
        assert margins.keys() == expected.keys()
        for link, value in expected.items():
            assert abs(margins[link] - value) <= 1e-12, (seed, link)
