"""Outside-in tracer: runs CLI invocations in process with every public
function of the six correlpoly modules wrapped in a timing span.

    python3 bench/tracer.py PLAN.json OUT.json

PLAN.json holds {"invocations": [argv, ...]}; `correlpoly` must be importable
(the harness puts the checkout's src/ on PYTHONPATH). OUT.json receives the
spans, the work counts read from the wrapped functions' arguments and
results, and each invocation's exit code, stdout and stderr. Nothing under
src/ changes: the wrappers replace the functions by object identity in every
correlpoly namespace, so aliases such as `vertex_gen.enumerate_states` are
caught.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.abc
import importlib.machinery
import inspect
import io
import json
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "logic_core", "vertex_gen", "exact_hull", "quantum", "realization")


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, invocation
    index]; imports belong to no invocation (-1)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.invocation = -1
        self.samples = {}  # span name -> [(args, result)] for the counters

    @contextlib.contextmanager
    def span(self, name):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1,
                           self.invocation])
        self.stack.append(i)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[i][2] = time.perf_counter()

    def wrap(self, name, fn, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if keep:
                self.samples.setdefault(name, []).append((args, out))
            return out
        return traced


class _TimedImports(importlib.abc.MetaPathFinder):
    """Records a `<layer>.import` span around executing each layer module."""

    def __init__(self, rec):
        self.rec = rec

    def find_spec(self, fullname, path, target=None):
        layer = fullname.rpartition(".")[2]
        if not fullname.startswith("correlpoly.") or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None:
            exec_module, rec = spec.loader.exec_module, self.rec

            def timed(module):
                with rec.span(f"{layer}.import"):
                    exec_module(module)
            spec.loader.exec_module = timed
        return spec


def install(rec, keep=()):
    """Import the six layers with their import spans, then wrap every public
    function they define in every correlpoly namespace holding it. Returns
    the cli module."""
    finder = _TimedImports(rec)
    sys.meta_path.insert(0, finder)
    try:
        import correlpoly.cli as cli
    finally:
        sys.meta_path.remove(finder)
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"correlpoly.{layer}"]
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = (fn, rec.wrap(name, fn, name in keep))
    for modname, mod in list(sys.modules.items()):
        if modname == "correlpoly" or modname.startswith("correlpoly."):
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
    return cli


def run(invocations, keep=()):
    rec = Recorder()
    cli = install(rec, keep)
    results = []
    for i, argv in enumerate(invocations):
        rec.invocation = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return rec, results


# --- analysis of the spans -----------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the time its direct children cover.
    Children of one span never overlap, since the program is single-threaded."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _bits(x):
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# functions whose arguments and results the counters read
NEEDS = ("logic_core.enumerate_states", "vertex_gen.gen_noncontextual_vertices",
         "vertex_gen.gen_state_vertices", "exact_hull.hull", "exact_hull.vertices",
         "exact_hull.parse_dd", "exact_hull.emit_dd", "quantum.eigensystem")


def counts(spans, samples):
    """Work counts over all invocations: sums, except that sizes and bit
    lengths are maxima and `dedup_ratio` is distinct points over points."""
    calls = {}
    in_optimizer = []
    for name, _, _, parent, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        in_optimizer.append(parent >= 0 and (spans[parent][0] == "quantum.maximize_bound"
                                             or in_optimizer[parent]))

    def args_out(name):
        return samples.get(name, [])

    def out(name):
        return [o for _, o in args_out(name)]

    hulls = args_out("exact_hull.hull")
    verts = args_out("exact_hull.vertices")
    rows = [r for _, h in hulls for r in h.inequalities + h.linearities]
    rows += [p for _, v in verts for p in v.points]
    points_in = sum(len(v.points) for (v,), _ in hulls)
    distinct = sum(len({tuple(map(Fraction, p)) for p in v.points}) for (v,), _ in hulls)
    return {
        "logic_core.enumerate_states.calls": calls.get("logic_core.enumerate_states", 0),
        "logic_core.enumerate_states.states": sum(map(len, out("logic_core.enumerate_states"))),
        "logic_core.parity_certificate.calls": calls.get("logic_core.parity_certificate", 0),
        "vertex_gen.gen_noncontextual_vertices.atoms": max(
            (len(logic.atoms)
             for (logic,), _ in args_out("vertex_gen.gen_noncontextual_vertices")), default=0),
        "vertex_gen.gen_noncontextual_vertices.points": sum(
            len(v.points) for v in out("vertex_gen.gen_noncontextual_vertices")),
        "vertex_gen.gen_state_vertices.points": sum(
            len(v.points) for v in out("vertex_gen.gen_state_vertices")),
        "exact_hull.hull.points_in": points_in,
        "exact_hull.hull.points_distinct": distinct,
        "exact_hull.hull.dedup_ratio": distinct / points_in if points_in else 1.0,
        "exact_hull.hull.affine_dim": max(
            (h.dimension - len(h.linearities) for _, h in hulls), default=0),
        "exact_hull.hull.facets": sum(len(h.inequalities) for _, h in hulls),
        "exact_hull.hull.linearities": sum(len(h.linearities) for _, h in hulls),
        "exact_hull.vertices.constraints_in": sum(
            len(h.inequalities) + len(h.linearities) for (h,), _ in verts),
        "exact_hull.vertices.vertices_out": sum(len(v.points) for _, v in verts),
        "exact_hull.canonicalize.calls": calls.get("exact_hull.canonicalize", 0),
        "exact_hull.parse_dd.rows": sum(
            len(r.points) if hasattr(r, "points") else len(r.inequalities) + len(r.linearities)
            for r in out("exact_hull.parse_dd")),
        "exact_hull.emit_dd.bytes": sum(len(t.encode()) for t in out("exact_hull.emit_dd")),
        "exact_hull.max_coef_bits": max((_bits(Fraction(x)) for r in rows for x in r), default=0),
        "realization.load_builtin.calls": calls.get("realization.load_builtin", 0),
        "realization.parse_vectors.calls": calls.get("realization.parse_vectors", 0),
        "quantum.realize_operator.calls": calls.get("quantum.realize_operator", 0),
        "quantum.eigensystem.calls": calls.get("quantum.eigensystem", 0),
        "quantum.eigensystem.dim_max": max(
            (h.shape[0] for (h,), _ in args_out("quantum.eigensystem")), default=0),
        "quantum.maximize_bound.evals": sum(
            1 for (name, *_), inside in zip(spans, in_optimizer)
            if inside and name == "quantum.eigenvalues"),
    }


if __name__ == "__main__":
    with open(sys.argv[1]) as f:
        plan = json.load(f)
    rec, results = run(plan["invocations"], keep=NEEDS)
    doc = {"spans": rec.spans, "invocations": results, "counts": counts(rec.spans, rec.samples)}
    with open(sys.argv[2], "w") as f:
        json.dump(doc, f)
