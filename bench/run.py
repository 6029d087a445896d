"""correlpoly benchmark: runs one workload through the `correlpoly` CLI and
prints its metrics, checked answers included, as one JSON line.

    python3 bench/run.py --workload facets --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout: the program is imported from ./src and
every CLI call is a fresh `python3 -m correlpoly.cli` subprocess, one at a
time, started through bench/launch.py. With --trace 0 the workload repeats
until --seconds have passed and the end-to-end metrics are medians over those
repetitions. With --trace 1 the
workload runs once untraced and once in process under bench/tracer.py, which
gives self time per layer and work counts. Every answer is checked; a wrong
one counts as failed.

The harness and every process it starts are pinned to one CPU.
bench/hostspeed.py samples that CPU's speed with a fixed kernel while the
workload runs, and every time reported is the measured time scaled by
REFERENCE_S over the kernel's mean time in the same interval: seconds on an
uncontended core of the reference host. On a shared host a core's speed
swings up to 2x within minutes, and without this the medians of runs minutes
apart differ by more than any useful bound. The measured times are kept
beside the scaled ones in the results file. Two limits follow. The program
cannot use a second core here. And the program's own cache use slows the
kernel beside it a little: in one test the kernel ran 5-15% slower next to a
memory-heavy child than next to a pure loop. So a change to how the program
uses memory can move the scale; the measured times show whether it did.

Every generated input comes from --seed, so a claim is repeated on a second
seed by running again with another --seed. The full record of a run, with the
seed, code identity and machine, goes to
.bench_out/results/<workload>-s<seed>-trace<0|1>.json; traced spans go to
.bench_out/traces/. Self-tests: python3 bench/selftest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import hostspeed
import tracer
import workloads

OUT = Path(".bench_out")
SETUP_BATCH = 3  # set-up samples taken before the first and after every repetition
CHILD_DEADLINE_S = 170  # every run must end within 180 s
SETUP_ARGV = [sys.executable, "-c", "import correlpoly.cli"]
LAUNCHER = [sys.executable, "-S", str(Path(__file__).with_name("launch.py"))]
SPEED_WINDOW_S = 1.0  # shortest interval whose speed samples are averaged


# --- statistics -----------------------------------------------------------------

def tail_percentile(n):
    """The highest of the 50th, 90th, 99th and 99.9th percentiles that has at
    least ten of `n` samples beyond it, or None."""
    for p in (99.9, 99, 90, 50):
        if n * (100 - p) / 100 >= 10 - 1e-9:
            return p
    return None


def summarize(values):
    """Median, quartiles, sample count, and the tail percentile when the
    sample count allows one."""
    xs = sorted(values)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    out = {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs), "tail": None}
    p = tail_percentile(len(xs))
    if p is not None:
        out["tail"] = {"p": p, "value": xs[math.ceil(p / 100 * len(xs)) - 1]}
    return out


# --- child processes --------------------------------------------------------------

def _kill_group(pgid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(argv, env, stdout_path, stderr_path, deadline):
    """Run one child to completion through launch.py: (exit code, wall s,
    cpu s, max RSS MiB). At `deadline` the child is killed with its launcher."""
    report = stdout_path.with_suffix(".launch")
    report.unlink(missing_ok=True)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*LAUNCHER, str(report), *argv], stdout=out, stderr=err,
                                env=env, start_new_session=True)
        killer = threading.Timer(max(deadline - time.monotonic(), 0), _kill_group, (proc.pid,))
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
    if not report.exists():  # killed at the deadline
        return proc.returncode, time.perf_counter() - t0, 0.0, 0.0
    code, wall, cpu, rss = report.read_text().split()
    return int(code), float(wall), float(cpu), int(rss) / 1024


def run_rep(invocations, env, work, deadline):
    """One workload run: its invocations in sequence, then their outputs."""
    walls, cpu, rss = [], 0.0, 0.0
    codes = []
    t0 = time.perf_counter()
    for i, inv in enumerate(invocations):
        code, wall, c, r = spawn([sys.executable, "-m", "correlpoly.cli", *inv.argv], env,
                                 work / f"{i}.out", work / f"{i}.err", deadline)
        codes.append(code)
        walls.append(wall)
        cpu += c
        rss = max(rss, r)
    t1 = time.perf_counter()
    outputs = [(codes[i], (work / f"{i}.out").read_bytes(), (work / f"{i}.err").read_text())
               for i in range(len(invocations))]
    return {"wall_s": sum(walls), "cpu_s": cpu, "peak_rss_mib": rss, "invocation_wall_s": walls,
            "interval": (t0, t1), "outputs": outputs}


def setup_times(env, work, deadline):
    """SETUP_BATCH set-up samples and the interval they were taken in."""
    times = []
    t0 = time.perf_counter()
    for _ in range(SETUP_BATCH):
        code, wall, _, _ = spawn(SETUP_ARGV, env, work / "setup.out", work / "setup.err", deadline)
        if code != 0:
            raise SystemExit("cannot import correlpoly.cli: "
                             + (work / "setup.err").read_text().strip()[-300:])
        times.append(wall)
    return times, (t0, time.perf_counter())


# --- answer checks ------------------------------------------------------------------

class Checker:
    """Checks every answer; an invocation with any error counts as failed.
    Outputs are also compared with the first output of the same invocation
    in this run and with the record of earlier runs of the same seed and
    code, so output that changes from run to run is caught."""

    def __init__(self, invocations, record):
        self.invocations = invocations
        self.record = record
        self.first = [None] * len(invocations)
        self.attempted = 0
        self.failed = 0
        self.errors = []  # (invocation index or -1 for the run, message)

    def check(self, i, code, stdout, stderr, traced=False):
        self.attempted += 1
        inv = self.invocations[i]
        digest = hashlib.sha256(stdout).hexdigest()
        errs = []
        if self.first[i] is None:
            self.first[i] = digest
        elif digest != self.first[i]:
            errs.append("traced stdout differs from untraced stdout" if traced
                        else "stdout differs from this run's first stdout")
        recorded = self.record.get("digests")
        if recorded and recorded[i] != digest:
            errs.append("stdout differs from an earlier run of this seed")
        errs += workloads.check_invocation(inv, code, stdout.decode(), stderr)
        self.errors += [(i, e) for e in errs]
        self.failed += bool(errs)

    def flag(self, message):
        self.errors.append((-1, message))
        self.failed += 1

    def digests(self):
        return list(self.first)


# --- run identity -------------------------------------------------------------------

def source_identity():
    h = hashlib.sha256()
    lines = 0
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            h.update(str(path).encode() + b"\0" + data)
            if path.suffix == ".py":
                lines += data.count(b"\n")
    return h.hexdigest()[:16], lines


def run_metadata(seed, src_sha, src_lines):
    commit = None
    if Path(".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit, "src_sha256": src_sha, "src_py_lines": src_lines,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu_model}


# --- the two kinds of run -------------------------------------------------------------

class HostSpeed:
    """bench/hostspeed.py sampling the speed of the CPU the children run on,
    from construction until stop(), which returns its samples."""

    def __init__(self, path, env):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("hostspeed.py")), str(path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        time.sleep(4 * hostspeed.PERIOD_S)  # past the sampler's own start-up

    def stop(self):
        self.proc.terminate()
        self.proc.wait()
        rows = (line.split() for line in self.path.read_text().splitlines())
        return [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]


def speed_scale(samples, t0, t1):
    """REFERENCE_S over the kernel's mean time in [t0, t1], an interval
    widened to SPEED_WINDOW_S about its middle when it is shorter."""
    mid, half = (t0 + t1) / 2, max(t1 - t0, SPEED_WINDOW_S) / 2
    got = [dt for start, dt in samples if mid - half <= start <= mid + half]
    if not got:
        raise SystemExit("bench: no host speed samples while the workload ran")
    return hostspeed.REFERENCE_S / statistics.fmean(got)


def measure(invocations, env, work, seconds, checker, deadline):
    """Repetitions of the workload, with batches of set-up samples between
    them, until another repetition would end after `seconds`."""
    reps, batches = [], [setup_times(env, work, deadline)]
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        reps.append(checked_rep(invocations, env, work, checker, deadline))
        batches.append(setup_times(env, work, deadline))
        if time.perf_counter() - t0 + (time.perf_counter() - t) > seconds:
            return reps, batches


def checked_rep(invocations, env, work, checker, deadline):
    rep = run_rep(invocations, env, work, deadline)
    for i, (code, out, err) in enumerate(rep.pop("outputs")):
        checker.check(i, code, out, err)
    return rep


def traced_run(invocations, env, work, checker, deadline, trace_path):
    plan = work / "plan.json"
    plan.write_text(json.dumps({"invocations": [list(inv.argv) for inv in invocations]}))
    code, _, _, _ = spawn([sys.executable, str(Path(__file__).with_name("tracer.py")),
                           str(plan), str(trace_path)], env,
                          work / "trace.out", work / "trace.err", deadline)
    if code != 0:
        raise SystemExit("traced run failed: " + (work / "trace.err").read_text()[-500:])
    doc = json.loads(trace_path.read_text())
    for i, res in enumerate(doc["invocations"]):
        checker.check(i, res["code"], res["stdout"].encode(), res["stderr"], traced=True)
    return doc


def layer_times(spans, own):
    """Self seconds per function span name and per layer (imports included),
    from `own`, the self time of each span."""
    by_name = {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
    layers = {layer: sum(t for n, t in by_name.items() if n.split(".")[0] == layer)
              for layer in tracer.LAYERS}
    return by_name, layers


def end_to_end(invocations, env, work, seconds, checker, deadline):
    """Metrics of a run with tracing off, and its record. Times are scaled
    by the speed of their CPU while they were measured (see hostspeed.py)."""
    speed = HostSpeed(work / "hostspeed.txt", env)
    try:
        reps, batches = measure(invocations, env, work, seconds, checker, deadline)
    finally:
        samples = speed.stop()
    for rep in reps:
        rep["speed_scale"] = k = speed_scale(samples, *rep["interval"])
        rep["scaled_wall_s"], rep["scaled_cpu_s"] = rep["wall_s"] * k, rep["cpu_s"] * k
    setup = [t for times, _ in batches for t in times]
    scaled_setup = [t * speed_scale(samples, *interval)
                    for times, interval in batches for t in times]
    summary = {"wall_s": summarize([r["scaled_wall_s"] for r in reps]),
               "cpu_s": summarize([r["scaled_cpu_s"] for r in reps]),
               "peak_rss_mib": summarize([r["peak_rss_mib"] for r in reps]),
               "setup_s": summarize(scaled_setup),
               "measured_wall_s": summarize([r["wall_s"] for r in reps]),
               "measured_cpu_s": summarize([r["cpu_s"] for r in reps]),
               "measured_setup_s": summarize(setup),
               "speed_scale": summarize([r["speed_scale"] for r in reps])}
    for k, s in summary.items():
        tail = (f"p{s['tail']['p']:g} {s['tail']['value']:.4f}" if s["tail"]
                else "no tail percentile")
        print(f"{k}: median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']} {tail}")
    metrics = {k: {"value": summary[k]["median"], "unit": unit}
               for k, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
                               ("setup_s", "s"))}
    metrics["pass_ratio"] = {"value": 1 - checker.failed / checker.attempted, "unit": "1"}
    return metrics, {"reps": reps, "summary": summary, "setup_s_samples": setup,
                     "speed_samples": len(samples)}


def per_layer(invocations, env, work, checker, deadline, record, trace_path):
    """Metrics of one untraced and one traced run of the workload, and their
    record. Work counts must repeat those of earlier runs of the seed. Times
    are scaled as in end_to_end, each span's by the speed in its interval."""
    speed = HostSpeed(work / "hostspeed.txt", env)
    try:
        batches = [setup_times(env, work, deadline)]
        rep = checked_rep(invocations, env, work, checker, deadline)
        batches.append(setup_times(env, work, deadline))
        doc = traced_run(invocations, env, work, checker, deadline, trace_path)
    finally:
        samples = speed.stop()
    setup = [t * speed_scale(samples, *interval) for times, interval in batches for t in times]
    untraced_wall = rep["wall_s"] * speed_scale(samples, *rep["interval"])
    spans, counts = doc["spans"], doc["counts"]
    own = [t * speed_scale(samples, start, end)
           for t, (_, start, end, _, _) in zip(tracer.self_times(spans), spans)]
    by_name, layers = layer_times(spans, own)
    for name, t in sorted(by_name.items(), key=lambda kv: -kv[1])[:12]:
        print(f"self {t:9.4f} s  {name}")
    if record.get("counts") not in (None, counts):
        changed = sorted(k for k in counts if record["counts"].get(k) != counts[k])
        checker.flag("counts differ from an earlier run of this seed: " + ", ".join(changed))
    record["counts"] = counts
    # the traced invocations share one process: charge each the set-up a
    # fresh process pays, so traced and untraced walls compare
    mains = sum((end - start) * speed_scale(samples, start, end)
                for name, start, end, parent, _ in spans if name == "cli.main" and parent == -1)
    traced_wall = len(invocations) * statistics.median(setup) + mains
    calls = counts["quantum.eigensystem.calls"]
    per_call = by_name["quantum.eigensystem"] / calls if calls else None
    metrics = {f"{layer}.self_s": {"value": t, "unit": "s"} for layer, t in layers.items()}
    metrics.update({k: {"value": v, "unit": "1" if k.endswith("ratio") else "count"}
                    for k, v in counts.items()})
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return metrics, {"untraced": rep, "setup_s_samples": setup, "trace": {
        "function_self_s": dict(sorted(by_name.items())),
        "quantum.eigensystem.s_per_call": per_call,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(spans),
        "spans_file": str(trace_path)}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + CHILD_DEADLINE_S
    # children inherit the pin, so they and the speed sampler share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not Path("src/correlpoly/cli.py").is_file():
        print("bench: run from the root of a correlpoly checkout (no src/correlpoly/cli.py)",
              file=sys.stderr)
        return 2
    src = str(Path("src").resolve())
    sys.path.insert(0, src)  # the quantum checks rebuild operators with the program
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    tag = f"{args.workload}-s{args.seed}"
    work, inputs = OUT / "work" / tag, OUT / "inputs" / tag
    work.mkdir(parents=True, exist_ok=True)
    invocations = workloads.build(args.workload, args.seed, inputs)

    src_sha, src_lines = source_identity()
    # earlier runs count as the same run only with the same program, argv and inputs
    key = hashlib.sha256(src_sha.encode() + json.dumps([inv.argv for inv in invocations]).encode()
                         + b"".join(f.read_bytes() for f in sorted(inputs.iterdir())))
    record_path = OUT / "records" / f"{tag}-{key.hexdigest()[:16]}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    checker = Checker(invocations, record)

    # untimed first import, so bytecode compilation is not counted as set-up
    spawn(SETUP_ARGV, env, work / "setup.out", work / "setup.err", deadline)
    if args.trace == 0:
        metrics, result = end_to_end(invocations, env, work, args.seconds, checker, deadline)
    else:
        trace_path = OUT / "traces" / f"{tag}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        metrics, result = per_layer(invocations, env, work, checker, deadline, record, trace_path)

    record.setdefault("digests", checker.digests())
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record))
    for i, e in checker.errors:
        print(f"FAILED invocation {i}: {e}")
    result.update(workload=args.workload, meta=run_metadata(args.seed, src_sha, src_lines),
                  argv=[list(inv.argv) for inv in invocations], metrics=metrics,
                  checks={"attempted": checker.attempted, "failed": checker.failed,
                          "fail_ratio": checker.failed / checker.attempted,
                          "errors": [{"invocation": i, "error": e} for i, e in checker.errors]})
    results_path = OUT / "results" / f"{tag}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(result, indent=1))
    print(f"results: {results_path}")
    print(json.dumps({"correct": not checker.errors, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
