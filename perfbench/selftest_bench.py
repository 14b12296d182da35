"""Tests of the benchmark itself, on unit_cube n=2 and a few samples.

Kept out of the tier-1 collection by its file name; run with

    python3 -m pytest perfbench/selftest_bench.py
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)
import spans  # noqa: E402
import workloads as wl  # noqa: E402

TINY = "unit_cube/n2"


@pytest.fixture(scope="module")
def kl():
    return wl.Kornlab()


@pytest.fixture(scope="module")
def tiny_refs(kl):
    import oracle

    mesh = wl.make_mesh(kl, TINY)
    names = wl.constants_for(kl, mesh)
    values = oracle.reference_values(TINY, mesh, names, kl.constants, kl.linalg)
    return {"meshes": {TINY: values}}


@pytest.fixture
def tiny(monkeypatch, tiny_refs):
    """Every workload shrunk to unit_cube n=2; traced certification of 3 samples."""
    for name in wl.LADDERS:
        monkeypatch.setitem(wl.LADDERS, name, (TINY,))
    monkeypatch.setattr(wl, "CERTIFY_MESH", TINY)
    monkeypatch.setattr(wl, "load_refs", lambda: tiny_refs)
    monkeypatch.setattr(run, "CERTIFY_TRACED", 3)
    monkeypatch.setattr(run, "OUT_DIR", os.path.join(HERE, "..", ".perfbench_out", "selftest"))


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.layer_units(spans.span_names()))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_every_mesh_has_references(kl):
    refs = wl.load_refs()["meshes"]
    for label in wl.all_mesh_labels():
        names = wl.constants_for(kl, wl.make_mesh(kl, label))
        keys = {k for n in names for k in (wl.MAXWELL if n == "c_m" else (n,))}
        assert keys <= set(refs[label]), label


@pytest.mark.parametrize("workload", ["dense_ladder", "certify_sliced"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.layer_units(spans.span_names()) if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        expected = {**expected, **run.PRINTED}
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[1:-1]
               if not ln.startswith("failed:")}
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["fail_share"] == "share"
    if trace:
        assert result["metrics"]["linalg.eig_smallest.sparse.calls"]["value"] == 0
    if trace and workload == "certify_sliced":
        for path in ("dense", "sparse"):
            timed = result["metrics"][f"linalg.eig_smallest.{path}.timed_calls"]
            assert timed["value"] == 0


def test_perturbed_reference_fails_the_operation(kl, tiny_refs):
    mesh = wl.make_mesh(kl, TINY)
    tally = wl.Tally(tiny_refs)
    ws = tally.run(TINY, "Workspace", lambda: kl.constants.Workspace(mesh))
    tally.constant(TINY, ws, "c_m")
    assert tally.failed == 0

    bad = json.loads(json.dumps(tiny_refs))
    bad["meshes"][TINY]["c_m_coexact"]["value"] *= 1.0 + 1e-8
    tally = wl.Tally(bad)
    tally.constant(TINY, ws, "c_m")
    assert tally.attempted == 1 and tally.failed == 1 and tally.wrong == 1
    assert "c_m_coexact" in tally.failures[0][3]


def test_traced_self_times_within_wall(kl, tiny_refs):
    import numpy as np

    tracer = spans.Tracer(kl.modules(), kl.linalg.DENSE_CROSSOVER)
    tracer.install()
    tally = wl.Tally(tiny_refs)
    t0 = time.perf_counter()
    try:
        tracer.enabled = True
        mesh = wl.make_mesh(kl, TINY)
        wl.ladder_pass(kl, [(TINY, mesh)], tally, tracer)
        ws = kl.constants.Workspace(mesh)
        rng = np.random.default_rng(0)
        wl.certify_batch(kl, ws, [ws.random_tensor(rng) for _ in range(3)], tally)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    assert tally.failed == 0
    agg = tracer.layer_metrics()
    assert 0 < sum(a["self_s"] for a in agg.values()) <= wall
    assert agg["constants.certify_main_inequality"]["calls"] == 3
    assert agg["assemble.assemble"]["repeat_calls"] > 0
