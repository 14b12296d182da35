"""A constants report builds each form and each space once per Workspace.

The Workspace holds the edge operators and the harmonic basis, and builds
the tensor pencil and the Poisson factor for their first reader; every
constant reads them instead of assembling its own copy, the Maxwell
gradient block reuses c_p, and the harmonic search also yields the
coexact Maxwell pair.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import hodge, linalg
from kornlab.meshes import generate_primitive

from helpers import two_plates

asm = importlib.import_module("kornlab.assemble")  # the package exports the function too
spaces = importlib.import_module("kornlab.spaces")


def _space_key(space):
    if space is None:
        return None
    return (id(space.mesh), space.family, space.constrain, space.component_constant)


def _spy_assemble(monkeypatch):
    """Record (form, trial, test) of every assemble call, by every importer."""
    calls = []
    real = asm.assemble

    def spy(form, trial, test=None, coeff=None, quad_order=None):
        calls.append((form, _space_key(trial), _space_key(test)))
        return real(form, trial, test, coeff=coeff, quad_order=quad_order)

    for module in (asm, cst, hodge):
        monkeypatch.setattr(module, "assemble", spy)
    return calls


@pytest.mark.parametrize("kind, n", [("slab_mixed", 2), ("unit_cube", 4)])
def test_report_assembles_each_form_once(kind, n, monkeypatch):
    calls = _spy_assemble(monkeypatch)
    poincare = []
    real_poincare = cst.poincare_constant

    def spy_poincare(*args, **kwargs):
        poincare.append(args[0])
        return real_poincare(*args, **kwargs)

    monkeypatch.setattr(cst, "poincare_constant", spy_poincare)
    report = cst.compute_report(generate_primitive(kind, n))
    assert "c_k_t" in report  # every constant of the tagged case ran
    repeats = {key: count for key, count in Counter(calls).items() if count > 1}
    assert repeats == {}
    assert [form for form, _, _ in calls].count("tensor_sym") == 1
    assert len(poincare) == 1


@pytest.mark.parametrize("make", [lambda: generate_primitive("cube_with_tunnel", 2).retag(0),
                                  lambda: generate_primitive("unit_cube", 3)],
                         ids=["tunnel2_untagged", "unit_cube3"])
def test_workspace_builds_strain_form_and_poisson_factor_for_first_reader(make, monkeypatch):
    # the Korn, Poincare and Maxwell constants read neither the strain form
    # nor the Poisson factor, so a Workspace builds them only for c_direct,
    # the curl-free forms and certification
    calls = _spy_assemble(monkeypatch)
    factored = []
    real_solver = linalg.spd_solver

    def spy_solver(A):
        factored.append(A.shape)
        return real_solver(A)

    monkeypatch.setattr(linalg, "spd_solver", spy_solver)
    mesh = make()
    ws = cst.Workspace(mesh)
    for name in ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m"):
        if name != "c_k_t" or mesh.has_gamma_t:
            ws.constant(name)
    ws.random_tensor(np.random.default_rng(0))
    assert ws.harmonics.dim == (0 if mesh.has_gamma_t else 1)
    assert [form for form, _, _ in calls].count("tensor_sym") == 0
    assert factored == []
    ws.constant("c_direct")
    assert [form for form, _, _ in calls].count("tensor_sym") == 1


@pytest.mark.parametrize("kind, n", [("slab_mixed", 2), ("unit_cube", 4)])
def test_report_builds_each_space_once(kind, n, monkeypatch):
    calls = []
    real = spaces.build_space

    def spy(mesh, family, constrain=None, component_constant=False):
        calls.append((id(mesh), family, constrain, component_constant))
        return real(mesh, family, constrain, component_constant)

    for module in (spaces, cst, hodge):
        monkeypatch.setattr(module, "build_space", spy)
    cst.compute_report(generate_primitive(kind, n))
    assert "P1_scalar" in [family for _, family, _, _ in calls]
    assert {key: count for key, count in Counter(calls).items() if count > 1} == {}


@pytest.mark.parametrize("n, sparse", [(4, True), (2, False)], ids=["sparse", "dense"])
def test_report_solves_curlcurl_pencil_once(n, sparse, monkeypatch):
    # the harmonic search yields the coexact Maxwell pair as well
    ops_built = []
    real_ops = hodge.edge_operators

    def spy_ops(*args, **kwargs):
        ops_built.append(real_ops(*args, **kwargs))
        return ops_built[-1]

    solves = []
    for name in ("eig_smallest", "null_space_gen"):
        real = getattr(linalg, name)

        def spy(A, *args, _real=real, _name=name, **kwargs):
            solves.append((_name, A))
            return _real(A, *args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    monkeypatch.setattr(hodge, "edge_operators", spy_ops)
    report = cst.compute_report(generate_primitive("slab_mixed", n))
    (ops,) = ops_built
    curlcurl = [name for name, A in solves if A is ops.curlcurl]
    assert curlcurl == ["eig_smallest"]
    assert (ops.edge_space.free_count >= linalg.DENSE_CROSSOVER) == sparse
    assert report["c_m_coexact"]["note"] == "gradients deflated"
    assert report["c_m_coexact"]["residual"] <= 1e-10


def test_report_measures_kernels_by_eigensolve(monkeypatch):
    # no dense kernel diagnostic and no extra solve: four, c_k_s being read
    # off the c_k_irrot solve (the strain-kernel note of a separate c_k_s
    # solve is covered in test_constants.py)
    calls = Counter()
    for name in ("eig_smallest", "null_space"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, spy)
    report = cst.compute_report(generate_primitive("unit_cube", 4).retag(0))
    assert report["c_k_s"]["note"] == "equal to c_k_irrot: harmonic dim 0"
    assert calls == {"eig_smallest": 4}


@pytest.mark.parametrize(
    "make, samples, builds",
    [(lambda: generate_primitive("unit_cube", 3), 0, 0),
     (lambda: generate_primitive("unit_cube", 3).retag(0), 0, 0),
     (lambda: generate_primitive("slab_mixed", 3), 0, 0),
     (lambda: generate_primitive("cube_with_tunnel", 2), 2, 1),
     (lambda: generate_primitive("cube_with_tunnel", 2).retag(1), 2, 1),
     (lambda: two_plates(2), 2, 1)],
    ids=["unit_cube3", "unit_cube3_untagged", "slab_mixed3", "tunnel2_sliced",
         "tunnel2_tagged", "two_plates2"],
)
def test_report_builds_curl_free_forms_only_where_read(make, samples, builds, monkeypatch):
    # the curl-free tensors of a report without harmonic fields beside a
    # tag-1 part are gradients, solved on the P1 Korn pencil; only
    # certification and a harmonic c_k_irrot read the Edge0^3 reductions,
    # built once and shared between them
    mesh = make()
    calls = []
    real = cst.curl_free_forms

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cst, "curl_free_forms", spy)
    report = cst.compute_report(mesh, certify_samples=samples)
    assert len(calls) == builds
    if samples:
        assert report["verdicts"]["all_true"]
