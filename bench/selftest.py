"""Self-tests of the benchmark itself (not part of the ffstat test suite).

    python3 bench/selftest.py

Checks BENCHMARK.json against the names the code reports, the tracer's
self-time arithmetic on a synthetic span tree with pool threads, that
wrappers are gone after a traced run, the compare verdicts, and a smoke
run of each workload's first command against its golden digest.
"""

import os
import re
import statistics
import sys
import threading
import time
import unittest

import run
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))

    def test_names_units_and_counts(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        names += [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m)
            self.assertIn(m["better"], ("lower", "higher"))
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_bounds(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        for m in e2e.values():
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            self.assertLessEqual(m["bound"], setup["bound"])

    def test_names_match_what_the_code_reports(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(workloads.WORKLOADS))
        e2e = run.end_to_end([{"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}], [0.1], 1)
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]], list(e2e))
        layers = list(tracer.layer_metrics({"spans": {}, "counts": {}}, 0))
        self.assertEqual([m["name"] for m in self.bench["per_layer"]],
                         layers + ["trace.overhead_s"])


class SelfTimeTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(tracer.union_length([(3, 7), (5, 9), (12, 20)], 0, 15), 9)
        self.assertEqual(tracer.union_length([], 0, 1), 0)

    def test_span_tree_with_pool_threads(self):
        now = [0.0]
        t = tracer.Tracer(clock=lambda: now[0])

        def at(when, fn, *args):
            now[0] = when
            return fn(*args)

        def worker(start, stop, hot):
            w = at(start, t.enter, "moments.scan_family")
            if hot:
                h = at(start + 0.5, t.enter, "biquad.pair_sum")
                at(start + 1.5, t.exit, h)
            at(stop, t.exit, w)

        a = at(0, t.enter, "moments.error_decomposition")
        b = at(1, t.enter, "tables.legendre_array")
        at(2, t.exit, b)
        # two pool threads overlapping on [5, 7]; run one after the other
        for args in ((3, 7, True), (5, 9, False)):
            th = threading.Thread(target=worker, args=args)
            th.start()
            th.join(timeout=10)
            self.assertFalse(th.is_alive())
        at(10, t.exit, a)

        spans = t.summary()["spans"]
        # 10 s minus legendre_array (1 s) minus the union [3, 9] of the workers
        self.assertEqual(spans["moments.error_decomposition"], [1, 10.0, 3.0])
        self.assertEqual(spans["tables.legendre_array"], [1, 1.0, 1.0])
        # busy seconds add up over threads; self drops the nested pair_sum
        self.assertEqual(spans["moments.scan_family"], [2, 8.0, 7.0])
        self.assertEqual(spans["biquad.pair_sum"], [1, 1.0, 1.0])
        m = tracer.layer_metrics(t.summary(), 0)
        self.assertEqual(m["moments.self_s"], 10.0)
        self.assertEqual(m["tables.self_s"], 1.0)
        self.assertEqual(m["biquad.self_s"], 1.0)

    def test_nested_same_name_counts_inclusive_once(self):
        now = [0.0]
        t = tracer.Tracer(clock=lambda: now[0])
        outer = t.enter("ffpoly.primes")
        now[0] = 1
        inner = t.enter("ffpoly.primes")
        now[0] = 3
        t.exit(inner)
        now[0] = 4
        t.exit(outer)
        self.assertEqual(t.summary()["spans"]["ffpoly.primes"], [2, 4.0, 4.0])


class WrapperTest(unittest.TestCase):
    def test_wrappers_installed_then_removed(self):
        if run.SRC not in sys.path:
            sys.path.insert(0, run.SRC)
        import ffstat.cli  # noqa: F401  (loads every module)
        from ffstat import _tables, lfunc, moments

        def snapshot():
            return {(m.__name__, k): v for m in tracer._ffstat_modules()
                    for k, v in vars(m).items() if callable(v)}

        def methods():
            out = {}
            for _, mod, path, _ in tracer.TARGETS:
                owner, _, attr = path.rpartition(".")
                if owner:
                    out[path] = vars(getattr(sys.modules[mod], owner)).get(attr)
            return out

        before, before_methods = snapshot(), methods()
        t = tracer.Tracer()
        with tracer.wrapped(t) as missing:
            self.assertEqual(missing, [])
            self.assertTrue(getattr(lfunc.poly_tables, "__bench_wrapped__", False))
            self.assertIs(lfunc.poly_tables, moments.poly_tables)
            self.assertIs(lfunc.poly_tables, _tables.poly_tables)
            rep = lfunc.l_suite(3, max_deg=2, n_max=2)
        self.assertEqual(snapshot(), before)
        self.assertEqual(methods(), before_methods)
        self.assertFalse(any(getattr(v, "__bench_wrapped__", False)
                             for v in snapshot().values()))
        m = tracer.layer_metrics(t.summary(), 0)
        self.assertEqual(m["lfunc.l_suite.moduli"], rep.moduli)
        self.assertGreater(m["tables.legendre_array.calls"], 0)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
        seeds = list(range(10))
        v = run.verdict
        self.assertEqual(v(base, [x * 0.8 for x in base], 0.1, True, seeds, seeds), "better")
        self.assertEqual(v(base, [x * 1.2 for x in base], 0.1, True, seeds, seeds), "worse")
        self.assertEqual(v(base, list(base), 0.1, True, seeds, seeds), "unchanged")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(v(base, noisy, 0.1, True, seeds, seeds), "unresolved")
        self.assertEqual(v(base, [x * 1.2 for x in base], 0.1, False, seeds, seeds), "better")
        # the medians differ by 20 %, but the pairs disagree: host drift
        drift = [9.9 if i in (1, 4) else 12.0 for i in range(10)]
        q1, med, q3 = statistics.quantiles(drift, n=4)
        self.assertLess((q3 - q1) / med, 0.1)
        self.assertEqual(v(base, drift, 0.1, True, seeds, seeds), "unresolved")


class SmokeTest(unittest.TestCase):
    """The first command of each workload runs, untraced and traced, and
    prints its golden output."""

    def test_first_commands(self):
        golden = run.load_json(os.path.join(run.HERE, "golden.json"))["digests"]
        workdir = run.make_workdir("selftest")
        try:
            runner = run.Runner(workdir, golden, time.monotonic() + 600)
            probe = runner.probe()
            for name, make in workloads.WORKLOADS.items():
                first = make(0)[:1]
                with self.subTest(workload=name):
                    plain = runner.run_pass(first)
                    self.assertEqual((plain["attempted"], plain["failed"]), (1, 0))
                    self.assertEqual(plain["traces"], [])
                    # import plus the host-speed reference stays below the
                    # command's own peak, so the reference never sets it
                    self.assertLess(probe["peak_rss_mb"], plain["peak_rss_mb"])
                    if name == "family":
                        traced = runner.run_pass(first, trace=True)
                        self.assertEqual((traced["attempted"], traced["failed"]), (1, 0))
                        m = tracer.layer_metrics(tracer.merge(traced["traces"]), 0)
                        self.assertGreater(m["cache.store.bytes"], 0)
                        self.assertEqual(m["cache.load.misses"], 1)
        finally:
            run.remove_workdir(workdir)


if __name__ == "__main__":
    unittest.main()
