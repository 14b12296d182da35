"""A constants report builds each form once per Workspace.

The Workspace holds the edge operators, the harmonic basis and the tensor
pencil; every constant reads them instead of assembling its own copy, and
the Maxwell gradient block reuses c_p.
"""

import importlib
from collections import Counter

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab import hodge
from kornlab.assemble import MatrixCoefficient
from kornlab.meshes import generate_primitive

asm = importlib.import_module("kornlab.assemble")  # the package exports the function too


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


def test_weighted_certification_assembles_weighted_strain_once(monkeypatch):
    ws = cst.Workspace(generate_primitive("slab_mixed", 2))
    for name in ("c_m", "c_m_coexact"):
        ws.constant(name)

    def evaluator(p):
        out = np.broadcast_to(np.eye(3), (len(p), 3, 3)).copy()
        out[:, 0, 0] = 1.0 + 0.5 * p[:, 0]
        return out

    calls = _spy_assemble(monkeypatch)
    rng = np.random.default_rng(4)
    cert = cst.certify_weighted_inequality(
        ws.random_tensor(rng), ws, MatrixCoefficient(evaluator, degree=1)
    )
    assert cert.verdict, cert.failed
    assert [form for form, _, _ in calls] == ["tensor_symF"]


def test_workspace_pencil_matches_assembled_tensor_forms():
    # the mass and curl-curl blocks come from the edge operators; they must
    # equal the tensor forms assemble still offers
    ws = cst.Workspace(generate_primitive("cube_with_tunnel", 1))
    e0 = ws.ops.edge_space
    for mat, form in ((ws.pencil.mass, "tensor_mass"), (ws.pencil.curlcurl, "tensor_curlcurl")):
        ref = asm.assemble(form, e0)
        assert mat.shape == ref.shape
        assert abs(mat - ref).max() == 0.0
