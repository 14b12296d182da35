"""Workload definitions: mesh ladders, operations and the correctness gate.

An operation is one `Workspace` build, one constant (`c_m` counts once and
is checked on all three Maxwell values) or one certification sample.  It
fails if it raises, if a value misses its reference by more than REL_TOL
relative, or if a certification verdict is false.  A failed operation never
stops the pass.
"""

import copy
import importlib
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REL_TOL = 1e-10  # the ROADMAP gate against the dense oracle

LADDERS = {
    "dense_ladder": ("unit_cube/n4", "unit_cube/n4/none", "slab_mixed/n4",
                     "cube_with_tunnel/n2"),
    "sparse_ladder": ("unit_cube/n6", "slab_mixed/n6"),
    # the known sparse-path defects; fails on purpose, so not in BENCHMARK.json
    "sparse_defects": ("cube_with_tunnel/n4", "unit_cube/n8"),
}
CERTIFY_MESH = "cube_with_tunnel/n4"
CERTIFY_CHAIN = ("c_m", "c_k_irrot")
WORKLOADS = ("dense_ladder", "sparse_ladder", "certify_sliced")  # BENCHMARK.json's
MAXWELL = ("c_m", "c_m_grad", "c_m_coexact")
LAYERS = ("meshes", "spaces", "assemble", "linalg", "hodge", "constants")


class Kornlab:
    """The kornlab modules of the checkout, imported from its `src/`."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "kornlab", "__init__.py")):
            raise FileNotFoundError(f"no kornlab sources under {src}")
        sys.path.insert(0, src)
        for name in LAYERS:
            setattr(self, name, importlib.import_module(f"kornlab.{name}"))

    def modules(self):
        return {name: getattr(self, name) for name in LAYERS}


def all_mesh_labels():
    labels = [lab for ladder in LADDERS.values() for lab in ladder]
    return list(dict.fromkeys(labels + [CERTIFY_MESH]))


def make_mesh(kl, label):
    """`kind/nN[/none]`: a primitive, retagged to all tag 0 for `none`."""
    kind, n, *tags = label.split("/")
    mesh = kl.meshes.generate_primitive(kind, int(n[1:]))
    return mesh.retag(0) if tags == ["none"] else mesh


def constants_for(kl, mesh):
    """The constants compute_report requests, in its order."""
    has_gamma_t = mesh.tagged_vertices(kl.meshes.GAMMA_T).size > 0
    return ["c_p", "c_k_s"] + ["c_k_t"] * has_gamma_t + ["c_k_irrot", "c_m", "c_direct"]


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


def rel_err(value, ref):
    return abs(value - ref) / abs(ref) if ref else abs(value)


class Tally:
    """Attempted and failed operations, their latencies and failure notes."""

    def __init__(self, refs, rel_tol=REL_TOL):
        self.refs = refs
        self.rel_tol = rel_tol
        self.attempted = 0
        self.failures = []  # (label, op, kind, detail)
        self.op_s = []

    @property
    def failed(self):
        return len(self.failures)

    @property
    def wrong(self):
        """Operations that returned a wrong value or a false verdict."""
        return sum(kind != "raised" for _, _, kind, _ in self.failures)

    def run(self, label, op, fn, timed=True):
        """Run one operation; returns its result, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the loop goes on; the failure is recorded
            self.failures.append((label, op, "raised", f"{type(exc).__name__}: {exc}"))
            result = None
        if timed:
            self.op_s.append(time.perf_counter() - t0)
        return result

    def skip(self, label, op, why):
        self.attempted += 1
        self.failures.append((label, op, "raised", why))

    def check_constants(self, label, op, ws):
        for key in MAXWELL if op == "c_m" else (op,):
            value = float(ws.constant(key).value)
            ref = self.refs["meshes"][label][key]["value"]
            err = rel_err(value, ref)
            if err > self.rel_tol:
                self.failures.append(
                    (label, op, "wrong", f"{key} = {value!r}, reference {ref!r} "
                     f"(relative error {err:.2e})"))
                return

    def constant(self, label, ws, name, timed=True):
        if ws is None:
            self.skip(label, name, "Workspace failed")
            return
        n_before = self.failed
        self.run(label, name, lambda: ws.constant(name), timed)
        if self.failed == n_before:
            self.check_constants(label, name, ws)

    def certify(self, label, ws, field, constants):
        cert = self.run(label, "certify",
                        lambda: constants.certify_main_inequality(field, ws))
        if cert is not None and not cert.verdict:
            self.failures.append((label, "certify", "verdict", f"failed links {cert.failed}"))


def ladder_pass(kl, templates, tally, tracer=None):
    """One constants report per ladder mesh; returns the pass wall time."""
    t0 = time.perf_counter()
    for label, template in templates:
        if tracer is not None:
            tracer.begin_report(label)
        # a fresh Mesh object, so no cache that kornlab attaches to a mesh
        # (geometry, ...) survives from an earlier pass
        mesh = copy.copy(template)
        ws = tally.run(label, "Workspace", lambda: kl.constants.Workspace(mesh))
        for name in constants_for(kl, mesh):
            tally.constant(label, ws, name)
    return time.perf_counter() - t0


def certify_setup(kl, tally, tracer=None):
    """Mesh, Workspace and the chain constants the certification reads."""
    if tracer is not None:
        tracer.begin_report(CERTIFY_MESH)
    mesh = make_mesh(kl, CERTIFY_MESH)
    ws = tally.run(CERTIFY_MESH, "Workspace", lambda: kl.constants.Workspace(mesh),
                   timed=False)
    for name in CERTIFY_CHAIN:
        tally.constant(CERTIFY_MESH, ws, name, timed=False)
    return ws


def certify_batch(kl, ws, fields, tally):
    t0 = time.perf_counter()
    for field in fields:
        tally.certify(CERTIFY_MESH, ws, field, kl.constants)
    return time.perf_counter() - t0


def quantile(values, q):
    """Percentile q (0..100), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
