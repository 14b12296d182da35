"""The benchmark oracle's standalone c_direct call, run on a small mesh.

perfbench/oracle.py regenerates the benchmark references; its cross_check
captures the pencil of constants.direct_main_constant(mesh) and solves it
by dense LAPACK and by ARPACK.  Running it here keeps that call working
whenever a signature it relies on changes.
"""

import importlib.util
from pathlib import Path

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
    dense, arpack, rel = _oracle().cross_check(generate_primitive("unit_cube", 2),
                                               constants, linalg)
    assert dense > 0 and rel <= 1e-10
    assert linalg.eig_smallest is eig_smallest  # the capture is undone
