"""Flat cells: the curl-curl form keeps the gradients as its exact kernel.

The fixtures are unit_cube n=5 with one interior vertex moved toward the
opposite face of one of its cells (helpers.sliver), to a worst volume of
1.7e-7, 1.7e-9 and 1.7e-10 h^3 (the Kuhn cells read 1/6).  The curl-curl
form is C^T M_f C of the integer incidence, so C grad = 0 leaves C^T M_f C
grad at rounding level at every cell shape; the per-cell curls left a
kernel residual of 1.5e-11 on the first fixture, above the 1e-12 the
sparse eigensolver checks its deflation against, and every constant
failed.  On the first fixture every constant now agrees with the dense
path; flatter ones give values or name their failure (SolverError),
never an internal error.
"""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from kornlab import constants as cst
from kornlab import hodge, linalg
from kornlab.cli import EXIT_OK, run
from kornlab.meshes import validate, write_mesh

from helpers import sliver

RATIOS = (1.7e-7, 1.7e-9, 1.7e-10)
NAMES = ("c_p", "c_k_s", "c_k_t", "c_k_irrot", "c_m", "c_m_grad", "c_m_coexact", "c_direct")
PATHS = {"default": linalg.DENSE_CROSSOVER, "dense": 10**9}


@pytest.fixture(scope="module")
def slivers():
    return {ratio: sliver(ratio) for ratio in RATIOS}


def _constants(mesh, crossover):
    """name -> value, or the SolverError a constant raised; any other
    exception propagates."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "DENSE_CROSSOVER", crossover)
        try:
            ws = cst.Workspace(mesh)
        except linalg.SolverError as exc:
            return dict.fromkeys(NAMES, exc)
        for name in NAMES:
            try:
                out[name] = ws.constant(name).value
            except linalg.SolverError as exc:
                out[name] = exc
    return out


@pytest.mark.parametrize("ratio", RATIOS)
def test_fixture_is_as_flat_as_stated(slivers, ratio):
    vols = np.sort(slivers[ratio].tet_volumes()) * 5**3
    assert vols[0] == pytest.approx(ratio, rel=1e-5)
    assert vols[2] >= 1.0 / 18  # the rest keep a third of the Kuhn 1/6


@pytest.mark.parametrize("ratio", RATIOS)
def test_gradients_are_the_exact_kernel_of_curlcurl(slivers, ratio):
    # column-wise |CC d| / (|CC|_F |d|) over the pinned gradients d
    ops = hodge.edge_operators(slivers[ratio])
    CC, D = ops.curlcurl, ops.pinned_grad
    res = spla.norm(CC @ D, axis=0) / (np.linalg.norm(CC.data) * spla.norm(D, axis=0))
    assert res.max() <= 1e-15
    assert (CC != CC.T).nnz == 0


def test_constants_on_a_sliver_match_the_dense_path(slivers):
    mesh = slivers[1.7e-7]
    got, dense = (_constants(mesh, crossover) for crossover in PATHS.values())
    for name in NAMES:
        assert not isinstance(got[name], Exception), (name, got[name])
        assert got[name] == pytest.approx(dense[name], rel=1e-10), name


def test_cli_constants_on_a_sliver(slivers, tmp_path):
    path = tmp_path / "sliver.msh"
    write_mesh(slivers[1.7e-7], path)
    out = tmp_path / "rep.json"
    assert run(["constants", "--mesh", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["c_p"]["value"] > 0


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("ratio", RATIOS[1:])
def test_flatter_slivers_give_values_or_named_errors(slivers, ratio, path):
    got = _constants(slivers[ratio], PATHS[path])
    for name, value in got.items():
        assert isinstance(value, linalg.SolverError) or np.isfinite(value) and value > 0, name
    assert np.isfinite(got["c_p"])  # the scalar pencil has no curl in it


def test_validate_advises_on_a_sliver(slivers, tmp_path, capsys):
    warnings = validate(slivers[1.7e-7])
    assert len(warnings) == 1
    assert warnings[0].startswith("cell ") and "longest edge" in warnings[0]
    # kornlab validate prints it as a warning and still accepts the mesh
    path = tmp_path / "sliver.msh"
    write_mesh(slivers[1.7e-7], path)
    assert run(["validate", "--mesh", str(path)]) == EXIT_OK
    assert f"warning: {warnings[0]}" in capsys.readouterr().out.splitlines()


def test_residual_gate_names_the_flat_cell(slivers):
    # the sparse coexact pair fails its residual gate on the 1.7e-9 sliver;
    # the error names the cell validate advises on
    advisory = validate(slivers[1.7e-9])[0]
    with pytest.raises(linalg.SolverError, match="c_m_coexact: relative eigenpair residual") \
            as err:
        cst.Workspace(slivers[1.7e-9]).constant("c_m")
    assert str(err.value).endswith(f"; {advisory}")
    assert "cell 345 " in advisory and "3.27e-10" in advisory
