"""Self-tests of the benchmark harness. Run from the checkout root:

    python3 bench/selftest.py
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path("src").resolve()))

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = Path(".bench_out/selftest")


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [["cli.main", 0.0, 12.0, -1, 0],
                 ["exact_hull.hull", 1.0, 11.0, 0, 0],
                 ["exact_hull.canonicalize", 2.0, 5.0, 1, 0],
                 ["exact_hull.emit_dd", 3.0, 4.0, 2, 0],
                 ["exact_hull.canonicalize", 6.0, 7.0, 1, 0]]
        own = tracer.self_times(spans)
        self.assertEqual(own, [2.0, 6.0, 2.0, 1.0, 1.0])
        by_name, layers = run.layer_times(spans, own)
        self.assertEqual(by_name["exact_hull.canonicalize"], 3.0)
        self.assertEqual(layers["exact_hull"], 10.0)
        self.assertEqual(layers["cli"], 2.0)
        self.assertEqual(sum(own), 12.0)  # self times partition the root span

    def test_traced_cli_run(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        op = SCRATCH / "one-projector.op"
        op.write_text("sites 1\nterm 1 a@1\nbind a proj builtin:cabello18 a1\n")
        plan, out = SCRATCH / "plan.json", SCRATCH / "trace.json"
        argvs = [["hull", "--logic", "builtin:epr-2x2", "--terms", "preset:chsh-expect",
                  "--golden", "builtin:chsh-2x2"],
                 ["quantum", "--expr", str(op)]]
        plan.write_text(json.dumps({"invocations": argvs}))
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), PYTHONHASHSEED="0")
        subprocess.run([sys.executable, str(Path(__file__).with_name("tracer.py")),
                        str(plan), str(out)], env=env, check=True)
        doc = json.loads(out.read_text())
        spans = doc["spans"]
        parent = {i: spans[p][0] if p >= 0 else None for i, (_, _, _, p, _) in enumerate(spans)}
        pairs = {(parent[i], s[0]) for i, s in enumerate(spans)}
        self.assertIn(("exact_hull.hull", "exact_hull.canonicalize"), pairs)
        # called through the aliases vertex_gen.enumerate_states and
        # quantum.load_builtin_vectors
        self.assertIn(("vertex_gen.gen_state_vertices", "logic_core.enumerate_states"), pairs)
        self.assertIn(("quantum.parse_operator_expr", "realization.load_builtin"), pairs)
        imports = {f"{layer}.import" for layer in tracer.LAYERS}
        self.assertEqual({s[0] for s in spans if s[3] == -1} - imports, {"cli.main"})
        # a span belongs to the invocation of its parent
        self.assertTrue(all(s[4] == spans[s[3]][4] for s in spans if s[3] >= 0))
        self.assertEqual({s[4] for s in spans if s[0] == "cli.main"}, {0, 1})
        for res, argv in zip(doc["invocations"], argvs):
            direct = subprocess.run([sys.executable, "-m", "correlpoly.cli", *argv], env=env,
                                    capture_output=True, text=True)
            self.assertEqual(res["stdout"], direct.stdout)
            self.assertEqual(res["code"], direct.returncode)
        self.assertEqual(doc["counts"]["exact_hull.hull.facets"], 16)
        self.assertEqual(doc["counts"]["logic_core.enumerate_states.states"], 16)


class MetricNames(unittest.TestCase):
    def test_traced_metrics_are_the_per_layer_metrics_of_benchmark_json(self):
        declared = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
        emitted = ([f"{layer}.self_s" for layer in tracer.LAYERS]
                   + list(tracer.counts([], {})) + ["trace.overhead_s"])
        self.assertEqual([m["name"] for m in declared], emitted)


class Percentiles(unittest.TestCase):
    def test_tail_percentile_from_sample_count(self):
        for n, p in ((1, None), (19, None), (20, 50), (99, 50), (100, 90),
                     (999, 90), (1000, 99), (9999, 99), (10000, 99.9)):
            self.assertEqual(run.tail_percentile(n), p, n)

    def test_summary_leaves_ten_samples_beyond_the_tail(self):
        s = run.summarize(list(range(100, 0, -1)))
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail"], {"p": 90, "value": 90})
        self.assertIsNone(run.summarize([3.0, 1.0, 2.0])["tail"])


class HostSpeedScaling(unittest.TestCase):
    def test_scale_is_reference_over_the_mean_kernel_time_in_the_interval(self):
        ref = run.hostspeed.REFERENCE_S
        samples = [(float(t), ref * (2 if t < 10 else 1)) for t in range(20)]
        self.assertAlmostEqual(run.speed_scale(samples, 2.0, 6.0), 0.5)
        self.assertAlmostEqual(run.speed_scale(samples, 12.0, 16.0), 1.0)
        self.assertAlmostEqual(run.speed_scale(samples, 8.0, 11.0), 1 / 1.5)

    def test_short_interval_is_widened(self):
        samples = [(10.0, 0.002), (10.4, 0.004)]
        self.assertAlmostEqual(run.speed_scale(samples, 10.1, 10.2),
                               run.hostspeed.REFERENCE_S / 0.003)
        with self.assertRaises(SystemExit):
            run.speed_scale(samples, 20.0, 20.1)

    def test_sampler_runs_until_stopped(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        speed = run.HostSpeed(SCRATCH / "hostspeed.txt", dict(os.environ))
        samples = speed.stop()
        self.assertIsNotNone(speed.proc.returncode)
        self.assertGreaterEqual(len(samples), 2)
        self.assertTrue(all(dt > 0 for _, dt in samples))


class Spawn(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        # a child exec'd straight from this process, which holds numpy,
        # would report this process's peak RSS as its own
        SCRATCH.mkdir(parents=True, exist_ok=True)
        code, wall, cpu, rss = run.spawn([sys.executable, "-S", "-c", "pass"], dict(os.environ),
                                         SCRATCH / "spawn.out", SCRATCH / "spawn.err",
                                         time.monotonic() + 60)
        self.assertEqual(code, 0)
        self.assertGreater(wall, 0)
        self.assertLess(rss, 20)

    def test_child_is_killed_at_the_deadline(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        t0 = time.monotonic()
        code, _, _, _ = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                                  dict(os.environ), SCRATCH / "spawn.out", SCRATCH / "spawn.err",
                                  t0 + 0.5)
        self.assertNotEqual(code, 0)
        self.assertLess(time.monotonic() - t0, 10)


class AnswerChecks(unittest.TestCase):
    def setUp(self):
        self.facets = workloads.build("facets", 0, SCRATCH / "inputs" / "facets")
        self.contextual = workloads.build("contextual", 0, SCRATCH / "inputs" / "contextual")
        self.spectrum = workloads.build("spectrum", 0, SCRATCH / "inputs" / "spectrum")
        self.optimize = workloads.build("optimize", 0, SCRATCH / "inputs" / "optimize")

    def test_golden_rows(self):
        inv = self.facets[0]
        good = inv.golden.read_text()
        self.assertEqual(workloads.check_invocation(inv, 0, good, "golden match\n"), [])
        lines = good.splitlines()
        dropped = "\n".join(lines[:-3] + lines[-2:]) + "\n"  # one facet row fewer
        self.assertTrue(workloads.check_invocation(inv, 0, dropped, "golden match\n"))
        self.assertTrue(workloads.check_invocation(inv, 0, good, "3 inequalities\n"))

    def test_exit_code(self):
        inv = self.contextual[1]  # states builtin:cabello18 must exit 2
        out = "0 states\na1 a2\nparity certificate: 9 contexts (odd); ...\n"
        self.assertEqual(workloads.check_invocation(inv, 2, out, ""), [])
        self.assertTrue(workloads.check_invocation(inv, 0, out, ""))
        self.assertTrue(workloads.check_invocation(inv, 2, "0 states\n", ""))

    def test_state_count(self):
        inv = self.contextual[2]
        self.assertEqual(workloads.check_invocation(inv, 0, "82 states\n", ""), [])
        self.assertTrue(workloads.check_invocation(inv, 0, "81 states\n", ""))

    def test_spectrum(self):
        inv = self.spectrum[0]
        evs = [float(x) for x in np.linalg.eigvalsh(workloads._operator("cabelloT"))]
        good = json.dumps({"eigenvalues": evs, "lambda_max": evs[-1]})
        self.assertEqual(workloads.check_invocation(inv, 0, good, ""), [])
        evs[100] += 1e-8
        bad = json.dumps({"eigenvalues": evs, "lambda_max": evs[-1]})
        self.assertTrue(workloads.check_invocation(inv, 0, bad, ""))

    def test_spectrum_of_a_consistently_wrong_operator(self):
        # a program that builds the operator wrongly computes, and is checked
        # against, the spectrum of that wrong operator; the constants catch it
        from correlpoly import quantum
        expr = quantum.load_preset_expr("cabelloT")
        wrong = quantum.realize_operator(dataclasses.replace(expr, terms=expr.terms[1:]))
        inv = self.spectrum[0]
        evs = [float(x) for x in np.linalg.eigvalsh(wrong)]
        doc = json.dumps({"eigenvalues": evs, "lambda_max": evs[-1]})
        workloads._reference_spectrum.cache_clear()
        try:
            with mock.patch.object(workloads, "_operator", lambda *a: wrong):
                errors = workloads.check_invocation(inv, 0, doc, "")
        finally:
            workloads._reference_spectrum.cache_clear()
        self.assertEqual(len(errors), 1)
        self.assertIn("expected", errors[0])

    def test_optimum(self):
        from correlpoly import quantum
        chsh = self.optimize[0]
        expr = quantum.load_preset_expr("chsh")
        best, params = quantum.maximize_bound(expr)
        doc = {"optimized": {"lambda_max": best, "params": params}}
        self.assertEqual(workloads.check_invocation(chsh, 0, json.dumps(doc), ""), [])
        doc["optimized"]["lambda_max"] = best + 1e-8
        self.assertEqual(len(workloads.check_invocation(chsh, 0, json.dumps(doc), "")), 2)
        # the right optimum reported with parameters that do not reach it
        zeros = {name: 0.0 for name in expr.param_names}
        doc = {"optimized": {"lambda_max": 2 * math.sqrt(2), "params": zeros}}
        errors = workloads.check_invocation(chsh, 0, json.dumps(doc), "")
        self.assertEqual(len(errors), 1)
        self.assertIn("eigvalsh", errors[0])

    def test_mermin_maximum_is_four_at_the_start(self):
        from correlpoly import quantum
        inv = self.optimize[1]
        path = Path(inv.argv[2])
        expr = quantum.parse_operator_expr(path.read_text())
        evs = [float(x) for x in np.linalg.eigvalsh(quantum.realize_operator(expr))]
        self.assertAlmostEqual(evs[-1], 4.0, delta=1e-12)
        doc = {"eigenvalues": evs, "optimized": {"lambda_max": evs[-1], "params": expr.defaults}}
        self.assertEqual(workloads.check_invocation(inv, 0, json.dumps(doc), ""), [])
        doc["optimized"]["lambda_max"] = 4.0 + 1e-8
        self.assertEqual(len(workloads.check_invocation(inv, 0, json.dumps(doc), "")), 2)
        self.assertEqual(workloads.check_invocation(inv, 3, json.dumps(doc), "")[0],
                         "exit code 3, expected 0")

    def test_stdout_must_repeat(self):
        inv = self.contextual[2]
        checker = run.Checker([inv], {})
        checker.check(0, 0, b"82 states\n", "")
        checker.check(0, 0, b"82 states\n", "")
        self.assertEqual(checker.failed, 0)
        checker.check(0, 0, b"82 states\nx\n", "")
        self.assertEqual(checker.failed, 1)
        recorded = run.Checker([inv], {"digests": checker.digests()})
        recorded.check(0, 0, b"82 states\nx\n", "")
        self.assertEqual(recorded.failed, 1)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        text = (workloads.GOLDEN / "cabello-contextual.ext").read_text()
        a = workloads.shuffle_dd_rows(text, workloads._rng("facets", 3))
        self.assertEqual(a, workloads.shuffle_dd_rows(text, workloads._rng("facets", 3)))
        self.assertNotEqual(a, workloads.shuffle_dd_rows(text, workloads._rng("facets", 4)))
        self.assertNotEqual(a, text)
        self.assertEqual(workloads.dd_rows(a), workloads.dd_rows(text))

    def test_mermin_settings_follow_the_seed(self):
        a = workloads.mermin_expr(workloads._rng("optimize", 3))
        self.assertEqual(a, workloads.mermin_expr(workloads._rng("optimize", 3)))
        self.assertNotEqual(a, workloads.mermin_expr(workloads._rng("optimize", 4)))


if __name__ == "__main__":
    unittest.main()
