"""kornlab benchmark: constants reports and certification, outside in.

    python3 perfbench/run.py --workload dense_ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # each workload in turn

Each workload runs in its own single-threaded process as a closed loop:
the next operation starts when the previous one has returned.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print every metric by name
and unit, the failure share, the seed and the BLAS thread count.  The
whole result, and with `--trace 1` every span, also goes to
`.perfbench_out/` in the checkout.  See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
# pinned before numpy is first imported: two OpenBLAS threads on two cores
# roughly double certification latency and its spread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402

import workloads as wl  # noqa: E402

LADDER_SETUPS = 5  # set-up repeats; setup_s reports their median
CERTIFY_SETUPS = 3
IMPORT_REPEATS = 4  # fresh interpreters timing the imports, beside this one
# what run.py imports before its first set-up, timed in a fresh interpreter
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import sys; "
                "sys.path.insert(0, {here!r}); import numpy, scipy.linalg, workloads; "
                "workloads.Kornlab(); print(time.perf_counter() - t0)")
CERTIFY_TRACED = 25  # samples a traced run certifies untraced, then traced
OUT_DIR = os.path.join(wl.ROOT, ".perfbench_out")

END_TO_END = {"setup_s": "s", "report_s.p90": "s", "peak_rss_mb": "MB"}
# Printed next to the end-to-end metrics but not in the JSON result.  Where
# the machine's speed flips between two levels with its neighbours' load, a
# run's median lands on either level, while the 90th percentile of its
# passes stays on the slower one.  A sparse_ladder operation runs once per
# run, so a percentile over operations there is one operation's time.
PRINTED = {"report_s.p50": "s", "op_ms.p50": "ms", "op_ms.p90": "ms"}


def layer_units(span_names):
    units = {}
    for name in span_names:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name.startswith(("constants.", "hodge.")):
            units[f"{name}.total_s"] = "s"
    for name in ("linalg.eig_smallest.sparse.failed",
                 "linalg.eig_smallest.sparse.dim_max",
                 "linalg.eig_smallest.sparse.timed_calls",
                 "linalg.eig_smallest.dense.timed_calls",
                 "hodge.harmonic_basis.eig_calls",
                 "spaces.build_space.repeat_calls",
                 "assemble.assemble.repeat_calls",
                 "trace.spans"):
        units[name] = "count"
    for name in ("trace.wall_s", "trace.self_sum_s", "trace.untraced_s",
                 "trace.traced_s", "trace.overhead_s"):
        units[name] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=wl.WORKLOADS + ("sparse_defects", "all"))
    p.add_argument("--seed", type=int, default=0,
                   help="drives the random tensor fields of certify_sliced; "
                        "the ladders are deterministic and ignore it")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the timed closed loop (untraced runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_imports(n):
    """Import time of n fresh interpreters, one after the other."""
    code = IMPORT_PROBE.format(here=wl.HERE)
    return [float(subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(n)]


def warm_up():
    """Touch the LAPACK/BLAS routines the solvers use before timing."""
    a = np.random.default_rng(0).standard_normal((200, 200))
    s = a @ a.T + 200.0 * np.eye(200)
    sla.eigh(s, s + np.eye(200))
    sla.cho_solve(sla.cho_factor(s), a)


class Run:
    def __init__(self, args):
        self.args = args
        self.kl = wl.Kornlab()
        self.import_s = [time.perf_counter() - T_START]
        if not args.trace:
            self.import_s += time_imports(IMPORT_REPEATS)
        self.tally = wl.Tally(wl.load_refs())
        self.tracer = None
        self.traced_wall = 0.0
        if args.trace:
            from spans import Tracer

            self.tracer = Tracer(self.kl.modules(), self.kl.linalg.DENSE_CROSSOVER)
            self.tracer.install()
        self.setup_s = []
        self.pass_s = []
        self.extra = dict.fromkeys(("trace.untraced_s", "trace.traced_s",
                                    "trace.overhead_s"), 0.0)

    def traced(self, on, phase):
        if self.tracer is not None:
            self.tracer.enabled = on
            self.tracer.phase = phase

    # -- workloads --------------------------------------------------------

    def ladder(self):
        labels = wl.LADDERS[self.args.workload]
        for _ in range(LADDER_SETUPS):
            t0 = time.perf_counter()
            warm_up()
            templates = [(lab, wl.make_mesh(self.kl, lab)) for lab in labels]
            self.setup_s.append(time.perf_counter() - t0)
        self.timed(lambda tracer: wl.ladder_pass(self.kl, templates, self.tally, tracer))

    def certify(self):
        for _ in range(CERTIFY_SETUPS):
            t0 = time.perf_counter()
            warm_up()
            ws = wl.certify_setup(self.kl, self.tally, self.tracer)
            self.setup_s.append(time.perf_counter() - t0)
        if ws is None:  # nothing to certify against
            self.tally.skip(wl.CERTIFY_MESH, "certify", "Workspace failed")
            self.pass_s.append(float("nan"))
            return
        rng = np.random.default_rng(self.args.seed)

        def fields(n):
            return [ws.random_tensor(rng) for _ in range(n)]

        if self.tracer is None:  # a pass is one certified sample
            self.timed(lambda _: wl.certify_batch(self.kl, ws, fields(1), self.tally))
        else:
            same = fields(CERTIFY_TRACED)
            self.timed(lambda _: wl.certify_batch(self.kl, ws, same, self.tally))

    def timed(self, one_pass):
        """Closed loop of passes for --seconds; traced runs do one pass
        untraced, then the same pass traced, to measure the overhead."""
        if self.tracer is None:
            t_end = time.perf_counter() + self.args.seconds
            while not self.pass_s or time.perf_counter() < t_end:
                self.pass_s.append(one_pass(None))
            return
        self.traced(False, "timed")
        untraced = one_pass(None)
        self.traced(True, "timed")
        traced = one_pass(self.tracer)
        self.traced(False, "timed")
        self.extra.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                           "trace.overhead_s": traced - untraced})
        self.pass_s.append(traced)

    def execute(self):
        self.traced(True, "setup")
        t0 = time.perf_counter()
        if self.args.workload == "certify_sliced":
            self.certify()
        else:
            self.ladder()
        wall = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.uninstall()
            # the untraced repetition ran with recording off
            self.traced_wall = wall - self.extra["trace.untraced_s"]

    # -- results ----------------------------------------------------------

    def end_to_end(self):
        op_ms = [1e3 * s for s in self.tally.op_s] or [float("nan")]
        return {
            "setup_s": statistics.median(self.import_s) + statistics.median(self.setup_s),
            "report_s.p50": wl.quantile(self.pass_s, 50),
            "report_s.p90": wl.quantile(self.pass_s, 90),
            "op_ms.p50": wl.quantile(op_ms, 50),
            "op_ms.p90": wl.quantile(op_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self):
        from spans import span_names

        agg = self.tracer.layer_metrics()
        units = layer_units(span_names())
        out = {}
        for name in units:
            head, _, field = name.rpartition(".")
            if head in agg:
                out[name] = agg[head][field]
        out["trace.spans"] = len(self.tracer.spans)
        out["trace.wall_s"] = self.traced_wall
        out["trace.self_sum_s"] = sum(a["self_s"] for a in agg.values())
        out.update(self.extra)
        return out, units

    def result(self):
        """(JSON result, extra metrics that are only printed)."""
        if self.tracer is None:
            values, units, extra = self.end_to_end(), END_TO_END, PRINTED
        else:
            (values, units), extra = self.per_layer(), {}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        printed = {k: {"value": values[k], "unit": extra[k]} for k in extra}
        return {"correct": self.tally.wrong == 0, "attempted": self.tally.attempted,
                "failed": self.tally.failed, "metrics": metrics}, printed


def report(args, run, result, printed):
    """Human-readable lines before the JSON line, and the result file."""
    t = run.tally
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} passes={len(run.pass_s)} "
          f"ops={len(t.op_s)} setups={len(run.setup_s)}")
    for name, m in {**result["metrics"], **printed}.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_share':48s} {t.failed / t.attempted:>16.6g} share "
          f"({t.failed}/{t.attempted})")
    for label, op, kind, detail in t.failures:
        print(f"failed: {label} {op} [{kind}] {detail}")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "printed": printed, "workload": args.workload, "seed": args.seed,
                   "blas_threads": BLAS_THREADS, "fail_share": t.failed / t.attempted,
                   "failures": t.failures, "pass_s": run.pass_s,
                   "setup_repeats_s": run.setup_s, "import_s": run.import_s}, fh, indent=1)
    if run.tracer is not None:
        run.tracer.write(stem + ".spans.jsonl")


def run_all(args):
    """Every workload in its own process, one after the other."""
    for name in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd).returncode
        if code != 0:
            return code
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        run = Run(args)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    run.execute()
    result, printed = run.result()
    report(args, run, result, printed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
