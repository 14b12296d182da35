"""A constants report builds each form and each space once per Workspace.

The Workspace holds the edge operators, the harmonic basis and the tensor
pencil; every constant reads them instead of assembling its own copy, the
Maxwell gradient block reuses c_p, and the harmonic search also yields
the coexact Maxwell pair.
"""

import importlib
from collections import Counter

import pytest

from kornlab import constants as cst
from kornlab import hodge, linalg
from kornlab.meshes import generate_primitive

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
