"""Galerkin monotonicity: constants do not fall under nested refinement.

Each constant below is 1/sqrt(lambda_1) of a conforming Rayleigh-Ritz
problem whose constraints are fixed functionals.  On nested meshes the finer
admissible space holds the coarser one, so the finer lambda_1 can only be
lower and the constant can only grow.  The Kuhn grids of generate_primitive
at n and 2n are nested, and so is refine_uniform (Bey's scheme).  c_k_irrot
is such a constant where it solves a P1 Korn pencil (no harmonic field
beside a tag-1 part); c_m_coexact is not, since the discrete gradients
change with the mesh.  The coarse side is dense, the fine side of c_direct
and of the untagged Korn pencils sparse.
"""

import numpy as np
import pytest

from kornlab import constants as cst
from kornlab.meshes import generate_primitive, refine_uniform

MONOTONE = ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_direct")
KINDS = {
    "unit_cube": ("unit_cube", None),
    "unit_cube_untagged": ("unit_cube", 0),
    "slab_mixed": ("slab_mixed", None),
    "tunnel": ("cube_with_tunnel", None),
}


def _mesh(kind, tag, n):
    mesh = generate_primitive(kind, n)
    return mesh if tag is None else mesh.retag(tag)


def _monotone_values(ws):
    names = [n for n in MONOTONE if n != "c_k_t" or ws.mesh.has_gamma_t]
    if ws.mesh.has_gamma_t and ws.harmonics.dim:  # c_k_irrot is no P1 Korn pencil
        names.remove("c_k_irrot")
    return {name: ws.constant(name).value for name in names}


@pytest.mark.parametrize("refine", ["n_to_2n", "refine_uniform"])
@pytest.mark.parametrize("label", list(KINDS))
def test_monotone_constants_do_not_fall_under_refinement(label, refine):
    kind, tag = KINDS[label]
    coarse = cst.Workspace(_mesh(kind, tag, 2))
    fine_mesh = _mesh(kind, tag, 4) if refine == "n_to_2n" else refine_uniform(coarse.mesh)
    fine = cst.Workspace(fine_mesh)
    before, after = _monotone_values(coarse), _monotone_values(fine)
    assert before.keys() == after.keys()
    rel = max(coarse.tol, 1e-12)
    fell = {name: (before[name], after[name]) for name in before
            if after[name] < before[name] * (1.0 - rel)}
    assert not fell, fell
    assert all(np.isfinite(v) and v > 0 for v in after.values())
