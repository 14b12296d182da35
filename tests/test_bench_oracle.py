"""The benchmark oracle's calls into kornlab, run on small meshes.

perfbench/oracle.py regenerates the benchmark references: reference_values
runs a Workspace with linalg.eig_smallest swapped for its own solvers, and
cross_check captures the pencil of constants.direct_main_constant(mesh) and
solves it by dense LAPACK and by ARPACK.  Running both here keeps those
calls working whenever a signature or a solve they rely on changes.
"""

import importlib.util
from pathlib import Path

import pytest

from kornlab import constants, linalg
from kornlab.meshes import generate_primitive

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cross_check_of_the_standalone_direct_constant():
    eig_smallest = linalg.eig_smallest
    mesh = generate_primitive("unit_cube", 2)
    dense, arpack, rel = _oracle().cross_check(mesh, constants, linalg)
    assert dense > 0 and rel <= 1e-10
    assert linalg.eig_smallest is eig_smallest  # the capture is undone
    # cross_check captures the first eig_smallest call of the standalone
    # c_direct: that call must still solve the c_direct pencil, not another
    # pencil that c_direct solves on its way
    direct = constants.direct_main_constant(mesh).eigenvalue
    assert abs(dense - direct) <= 1e-10 * direct


@pytest.mark.parametrize("kind, n", [("unit_cube", 2), ("cube_with_tunnel", 1)])
def test_reference_values_swap_in_the_oracle_solvers(kind, n):
    # every eigenvalue comes from the oracle: a constant whose solve no
    # longer goes through linalg.eig_smallest would record method "none"
    mesh = generate_primitive(kind, n)
    names = ["c_p", "c_k_s"] + ["c_k_t"] * mesh.has_gamma_t + ["c_k_irrot", "c_m", "c_direct"]
    eig_smallest = linalg.eig_smallest
    refs = _oracle().reference_values(f"{kind}/n{n}", mesh, names, constants, linalg)
    assert linalg.eig_smallest is eig_smallest
    ws = constants.Workspace(mesh)
    for name, ref in refs.items():
        value = ws.constant(name).value
        assert abs(ref["value"] - value) <= 1e-10 * abs(value), name
    for name in ("c_p", "c_k_s", "c_direct"):
        assert refs[name]["method"] != "none", name
