"""Spans around kornlab's public functions, installed from outside.

`Tracer.install()` rebinds module attributes in the running process so
that every call of a wrapped function records a span: name, start, end,
parent span, mesh label and phase ("setup" or "timed").  Names imported
directly into other modules (`constants.assemble`, `hodge.build_space`,
...) are rebound too, since those modules look them up in their own
globals.  Nothing under `src/` is edited.  Spans stay in memory and are
written out as JSON lines once the run ends.
"""

import functools
import json
import time

# (module, attribute, span name); the span name of eig_smallest gets a
# ".dense"/".sparse" suffix from the dimension of A.
WRAPPED = (
    ("meshes", "generate_primitive", "meshes.generate_primitive"),
    ("spaces", "build_space", "spaces.build_space"),
    ("hodge", "build_space", "spaces.build_space"),
    ("constants", "build_space", "spaces.build_space"),
    ("assemble", "assemble", "assemble.assemble"),
    ("hodge", "assemble", "assemble.assemble"),
    ("constants", "assemble", "assemble.assemble"),
    ("linalg", "eig_smallest", "linalg.eig_smallest"),
    ("linalg", "null_space_gen", "linalg.null_space_gen"),
    ("linalg", "null_space", "linalg.null_space"),
    ("linalg", "solve_spd", "linalg.solve_spd"),
    ("hodge", "edge_operators", "hodge.edge_operators"),
    ("hodge", "harmonic_basis", "hodge.harmonic_basis"),
    ("hodge", "helmholtz_split_tensor", "hodge.helmholtz_split_tensor"),
    ("constants", "Workspace", "constants.Workspace"),
    ("constants", "tensor_pencil", "constants.tensor_pencil"),
    ("constants", "poincare_constant", "constants.poincare_constant"),
    ("constants", "korn_constant_standard", "constants.korn_constant_standard"),
    ("constants", "korn_constant_tangential", "constants.korn_constant_tangential"),
    ("constants", "korn_constant_irrotational", "constants.korn_constant_irrotational"),
    ("constants", "maxwell_constant", "constants.maxwell_constant"),
    ("constants", "direct_main_constant", "constants.direct_main_constant"),
    ("constants", "certify_main_inequality", "constants.certify_main_inequality"),
)

EIG_SPLIT = ("linalg.eig_smallest.dense", "linalg.eig_smallest.sparse")
REPEAT_KEYED = ("spaces.build_space", "assemble.assemble")
EIGENSOLVES = EIG_SPLIT + ("linalg.null_space_gen",)


def span_names():
    names = {name for _, _, name in WRAPPED if name != "linalg.eig_smallest"}
    return sorted(names | set(EIG_SPLIT))


def _mesh_key(mesh):
    """Content key of a mesh, so slice submeshes built in turn never alias."""
    return (mesh.num_vertices, mesh.num_tets,
            hash(mesh.vertices.tobytes()), hash(mesh.btri_tags.tobytes()))


def _space_key(space):
    return (_mesh_key(space.mesh), space.family, space.constrain,
            space.component_constant)


def _call_key(name, args, kwargs):
    """Key under which two calls compute the same result."""
    if name == "spaces.build_space":
        mesh, *rest = args
        return (_mesh_key(mesh), tuple(rest), tuple(sorted(kwargs.items())))
    form, trial, *rest = args
    test = rest[0] if rest else kwargs.get("test")
    coeff = kwargs.get("coeff")
    return (form, _space_key(trial), None if test is None else _space_key(test),
            None if coeff is None else id(coeff), kwargs.get("quad_order"))


class Tracer:
    """In-memory span recorder; `enabled` switches recording on and off."""

    def __init__(self, kornlab_modules, crossover):
        self.modules = kornlab_modules
        self.crossover = crossover
        self.enabled = False
        self.phase = "setup"
        self.label = None
        self.report = None  # calls repeat only within one report
        self._reports = 0
        self.spans = []  # [name, start, end, parent, label, phase, failed, dim]
        self.seen = set()
        self.repeats = {}
        self._stack = []
        self._saved = []

    def install(self):
        for mod, attr, name in WRAPPED:
            module = self.modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_report(self, label):
        self.label = label
        self._reports += 1
        self.report = self._reports

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name, dim = name, None
            if name == "linalg.eig_smallest":
                dim = args[0].shape[0]
                span_name = EIG_SPLIT[dim >= tracer.crossover]
            if span_name in REPEAT_KEYED:
                key = (tracer.report, span_name, _call_key(span_name, args, kwargs))
                if key in tracer.seen:
                    tracer.repeats[span_name] = tracer.repeats.get(span_name, 0) + 1
                tracer.seen.add(key)
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            span = [span_name, time.perf_counter(), None, parent,
                    tracer.label, tracer.phase, False, dim]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _inside(self, name, parent):
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self):
        """Per-layer aggregates: self_s, calls, total_s and the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        agg = {n: {"self_s": 0.0, "calls": 0, "total_s": 0.0} for n in span_names()}
        for i, (name, start, end, parent, *_) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            if not self._inside(name, parent):  # a recursive call counts once
                a["total_s"] += end - start
            # nested spans of a single thread never overlap, so the covered
            # part of the interval is the sum of the child durations
            a["self_s"] += end - start - child[i]
        sparse = [s for s in self.spans if s[0] == EIG_SPLIT[1]]
        agg[EIG_SPLIT[1]]["failed"] = sum(s[6] for s in sparse)
        agg[EIG_SPLIT[1]]["dim_max"] = max((s[7] for s in sparse), default=0)
        agg["hodge.harmonic_basis"]["eig_calls"] = sum(
            1 for s in self.spans
            if s[0] in EIGENSOLVES and s[3] is not None
            and self.spans[s[3]][0] == "hodge.harmonic_basis"
        )
        agg["linalg.eig_smallest.dense"]["timed_calls"] = sum(
            1 for s in self.spans if s[0] == EIG_SPLIT[0] and s[5] == "timed")
        agg[EIG_SPLIT[1]]["timed_calls"] = sum(
            1 for s in sparse if s[5] == "timed")
        for name in REPEAT_KEYED:
            agg[name]["repeat_calls"] = self.repeats.get(name, 0)
        return agg

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, label, phase, failed, dim in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "mesh": label, "phase": phase, "failed": failed, "dim": dim,
                }) + "\n")
