"""Self-tests of the benchmark: python3 bench/selftest.py (from a checkout root)."""

import contextlib
import io
import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import wzbc.cli  # noqa: E402
from check import check_job, digest  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics, summarize  # noqa: E402
from workloads import (  # noqa: E402
    BINARY_RANGES, GAUSSIAN_RANGES, SEEDED_BINARY, WORKLOADS, Job, compare_job,
    binary_problems, gaussian_problems, write_problems,
)

WORK = os.path.join(ROOT, ".bench_build", "bench", "selftest")


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return wzbc.cli.main(list(argv))


class BenchSelfTest(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(WORK, ignore_errors=True)
        self.files = write_problems(WORKLOADS["binary-layered"], 3, os.path.join(WORK, "p"))

    def compare(self, name, schemes, resolution, trace=False):
        path, problem = self.files["fixture"]
        job = compare_job(name, path, problem, schemes, resolution, 3, WORK)
        tracer = Tracer()
        if trace:
            tracer.install()
        try:
            rc = run_main(job.argv)
        finally:
            tracer.uninstall()
        return job, rc, tracer

    def test_corrupted_csv_counts_as_failed(self):
        job, rc, _ = self.compare("ok", ["cds", "separate"], 7)
        self.assertEqual(check_job(job, rc, ""), [])
        csv = os.path.join(job.out, "cds.csv")
        with open(csv, "a", encoding="utf-8") as fh:
            fh.write(f"0.05,{job.problem['beta'][1] + 1e-6}\n")  # above beta_2
        self.assertTrue(check_job(job, rc, ""))
        os.remove(csv)
        self.assertTrue(any("missing" in e for e in check_job(job, rc, "")))
        self.assertTrue(check_job(job, 2, ""))

    def test_channel_rate_calls_per_layered_sweep(self):
        for r in (5, 7):
            _, rc, tracer = self.compare(f"lds-{r}", ["lds"], r, trace=True)
            self.assertEqual(rc, 0)
            functions = summarize(tracer.spans)
            values, absent = layer_metrics(functions, tracer.wrapped)
            self.assertEqual(absent, [])
            self.assertEqual(values["binary.binary_lds_channel_rates.calls"], 2 * (r + r * r))

    def test_traced_and_untraced_digests_match(self):
        schemes = ["cds", "lds", "separate", "uncoded"]
        plain, rc_plain, _ = self.compare("plain", schemes, 7)
        traced, rc_traced, tracer = self.compare("traced", schemes, 7, trace=True)
        self.assertEqual((rc_plain, rc_traced), (0, 0))
        self.assertTrue(tracer.spans)
        self.assertEqual(digest(plain.out), digest(traced.out))
        # self times partition the root spans
        total = sum(v["self_s"] for v in summarize(tracer.spans).values())
        roots = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent < 0)
        self.assertAlmostEqual(total, roots, places=9)

    def test_uninstall_restores_the_library(self):
        original = wzbc.cli.lower_envelope_indices
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(wzbc.cli.lower_envelope_indices, original)
        tracer.uninstall()
        self.assertIs(wzbc.cli.lower_envelope_indices, original)

    def test_validate_job_check(self):
        job = Job("validate-x", ("validate",))
        self.assertEqual(check_job(job, 0, "[PASS] x: ok"), [])
        self.assertTrue(check_job(job, 1, "[FAIL] x: bad"))

    def test_seeded_problems(self):
        self.assertEqual(binary_problems(9), binary_problems(9))
        self.assertNotEqual(binary_problems(9), binary_problems(10))
        seeded = [p for k, p in binary_problems(9).items() if k != "fixture"]
        self.assertEqual(len(seeded), SEEDED_BINARY)
        self.assertEqual(sorted(p["kappa"] for p in seeded),
                         ["1"] * (SEEDED_BINARY // 2) + ["1/2"] * (SEEDED_BINARY // 2))
        for axis, (lo, hi) in enumerate(BINARY_RANGES):
            values = [(p["p"] + p["beta"])[axis] for p in seeded]
            self.assertTrue(all(lo <= v <= hi for v in values))
            strata = sorted(int((v - lo) / (hi - lo) * len(values)) for v in values)
            self.assertEqual(strata, list(range(len(values))))
        for p in gaussian_problems(9).values():
            values = [p["P"], *p["W"], *p["N"]]
            self.assertTrue(all(lo <= v <= hi for v, (lo, hi) in zip(values, GAUSSIAN_RANGES)))

    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        self.assertEqual([w["why"] for w in bench["workloads"]],
                         [w.why for w in WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [tuple(m) for m in PER_LAYER])


if __name__ == "__main__":
    unittest.main()
