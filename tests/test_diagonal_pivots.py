"""Every SuperLU factor is a symmetric LDL^T: diagonal pivots only.

linalg._factor runs SuperLU in symmetric mode without threshold pivoting,
so each factor is P K P^T = L U with perm_r == perm_c, and its fill is the
ordering's at every shift.  The bordered c_direct matrices are the hard
case: their constraint rows form a zero diagonal block, and a shift above
the smallest eigenvalue makes A - sigma B indefinite.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kornlab import constants, linalg
from kornlab.meshes import generate_primitive

from helpers import direct_pencil

# the meshes of the dense and sparse benchmark ladders: kind, n, tag-0 retag
LADDERS = {
    "unit_cube4": ("unit_cube", 4, False),
    "unit_cube4_untagged": ("unit_cube", 4, True),
    "slab_mixed4": ("slab_mixed", 4, False),
    "tunnel2": ("cube_with_tunnel", 2, False),
    "unit_cube6": ("unit_cube", 6, False),
    "slab_mixed6": ("slab_mixed", 6, False),
}


def _mesh(kind, n, untagged):
    mesh = generate_primitive(kind, n)
    return mesh.retag(0) if untagged else mesh


def _spy_factors(monkeypatch):
    """Record (K, factor) for every spla.splu call."""
    factored = []
    real = spla.splu

    def capture(K, *args, **kwargs):
        factored.append((K, real(K, *args, **kwargs)))
        return factored[-1][1]

    monkeypatch.setattr(spla, "splu", capture)
    return factored


@pytest.mark.parametrize("label", list(LADDERS))
def test_every_report_factor_keeps_diagonal_pivots(label, monkeypatch):
    factored = _spy_factors(monkeypatch)
    constants.compute_report(_mesh(*LADDERS[label]), certify_samples=1)
    assert factored
    for K, lu in factored:
        assert np.array_equal(lu.perm_r, lu.perm_c), K.shape


@pytest.mark.parametrize("kind, n", [("unit_cube", 4), ("cube_with_tunnel", 2)])
def test_bordered_fill_does_not_depend_on_the_shift(kind, n, monkeypatch):
    # the untagged c_direct matrix, bordered by its skew-moment rows, at
    # the solve's shift just below the chain's lower bound L* and inside
    # the spectrum
    mesh = _mesh(kind, n, True)
    ws = constants.Workspace(mesh)
    lam = ws.constant("c_direct").eigenvalue
    shift = (1.0 - constants.BRACKET_MARGIN) * ws.direct_seed()["bracket"][0]
    A, B, C = direct_pencil(mesh, ws.pencil)
    factored = _spy_factors(monkeypatch)
    for sigma in (shift, 0.999 * lam, 1.3 * lam):
        linalg._saddle_inverse(A, B, sigma, sp.csr_matrix(C))
    assert len(factored) == 3
    fill = [lu.nnz for _, lu in factored]
    for K, lu in factored:
        assert K.shape[0] == A.shape[0] + C.shape[0]
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert abs(lu.nnz - fill[0]) <= 1e-3 * fill[0]
        assert linalg._backward_error(K, lu) <= 1e-14


def test_an_off_diagonal_pivot_is_refused():
    # [[0, 1], [1, 0]] has a zero diagonal: SuperLU swaps its columns
    # (perm_r = [0, 1], perm_c = [1, 0]), an accurate LU but no LDL^T
    K = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(linalg.SolverError, match="2x2 swap matrix took an off-diagonal pivot"):
        linalg._factor(K, "swap matrix")
