"""wzbc benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/wzbc.  The workload's problem
files are drawn from the seed into .bench_build/bench/.  For S seconds, fresh
interpreters each run the whole job list through wzbc.cli.main, and between
them further fresh interpreters only import wzbc.cli and load the problem
files (set-up).  Every job's output is checked (check.py) and the CSVs of
every run of the job list are digested; all runs of one invocation must agree.

On a shared 2-vCPU cloud VM the CPU speed swings by up to 1.8x over minutes,
and a whole run can fall in a slow spell.  So each job and each set-up is
divided by the time of a fixed reference kernel run beside it in the same
interpreter (child.py), and times are reported in seconds of a machine on
which that kernel takes REFERENCE_S: wall_s is the sum over jobs of the
median scaled job time, setup_s the median scaled set-up.  The unscaled
median wall time of the job list and the sample counts go into record.json
and the summary lines.  peak_rss_mb is the median peak resident memory of
the interpreters that run the job list.

With --trace 0 the last stdout line is the end-to-end metrics; with --trace 1
untraced and traced job-list runs alternate and it is the per-layer metrics
(spans.py).  Their times are unscaled medians over the traced runs, with
trace.wall_s that of the job list; trace.overhead_s is the traced minus the
untraced wall_s, both scaled.  The spans of the last traced run are written to
the work directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_job, csv_files, digest  # noqa: E402
from spans import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, write_problems  # noqa: E402

SETUP_FIRST = 3  # set-up samples before the first job-list run
SETUP_BETWEEN = 1  # set-up samples after each job-list run
RUN_LIMIT_S = 170.0  # an invocation must end within 180 s
REFERENCE_S = 0.05  # reference kernel time that defines the reported time scale


def _child(spec, path, timeout, threads):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, WZBC_THREADS=str(threads))
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), path],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not os.path.isfile(spec["result"]):
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def _machine(threads):
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "WZBC_THREADS": threads}


def scaled_wall(runs) -> float:
    """Sum over jobs of the job's median time, each time divided by the mean of
    the reference kernel times before and after it, in seconds at REFERENCE_S."""
    ratios = [[job["seconds"] * 2.0 / (r["ref_s"][i] + r["ref_s"][i + 1])
               for i, job in enumerate(r["jobs"])] for r in runs]
    return REFERENCE_S * sum(statistics.median(job) for job in zip(*ratios))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wzbc", "cli.py")):
        print(f"error: no wzbc source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_build", "bench", f"{workload.name}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    files = write_problems(workload, args.seed, os.path.join(work, "problems"))
    problem_paths = [path for path, _ in files.values()]

    def spec(name, jobs=(), trace=False, spans_out=None):
        return {"src": src, "problems": problem_paths, "trace": trace,
                "jobs": [list(j.argv) for j in jobs], "spans_out": spans_out,
                "result": os.path.join(work, f"{name}.result.json")}

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - began)

    setup, setup_scaled = [], []

    def sample_setup(count):
        for _ in range(count):
            name = f"setup-{len(setup)}"
            res = _child(spec(name), os.path.join(work, f"{name}.spec.json"), remaining(),
                         workload.threads)
            setup.append(res["setup_s"])
            setup_scaled.append(REFERENCE_S * res["setup_s"] / res["ref_s"][0])

    sample_setup(SETUP_FIRST)

    runs = []  # one entry per run of the job list
    attempted = failed = 0
    failures = []
    deadline = time.perf_counter() + args.seconds
    spans_out = os.path.join(work, "spans.json")
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        name = f"run-{len(runs)}"
        out_root = os.path.join(work, name)
        jobs = workload.jobs(args.seed, files, out_root)
        res = _child(spec(name, jobs, traced, spans_out if traced else None),
                     os.path.join(work, f"{name}.spec.json"), remaining(), workload.threads)
        for job, outcome in zip(jobs, res["jobs"]):
            attempted += 1
            errors = check_job(job, outcome["rc"], outcome["output"])
            if outcome["error"]:
                errors.append(outcome["error"].strip().splitlines()[-1])
            if errors:
                failed += 1
                failures.append(f"{name} {job.name}: {'; '.join(errors)}")
        res["traced"] = traced
        res["digest"] = digest(out_root)
        res["csv_bytes"] = sum(size for _, size in csv_files(out_root))
        runs.append(res)
        sample_setup(SETUP_BETWEEN)
        if len(runs) > 2:
            shutil.rmtree(out_root, ignore_errors=True)  # keep the first two runs' outputs
        need_pair = args.trace and len(runs) < 2
        if time.perf_counter() >= deadline and not need_pair:
            break
        if remaining() < 2.0 * max(r["wall_s"] + r["setup_s"] for r in runs):
            break

    plain = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    digests = sorted({r["digest"] for r in runs})
    deterministic = len(digests) == 1
    correct = failed == 0 and deterministic
    wall = scaled_wall(plain)

    if args.trace:
        first = traced_runs[0]
        metrics, absent = layer_metrics(first["functions"], first["wrapped"])
        times = [layer_metrics(r["functions"], r["wrapped"])[0] for r in traced_runs]
        timed = [k for k in metrics if k.endswith("self_s") or k.endswith("samples_per_s")]
        counts_repeat = all(
            t[k] == metrics[k] for t in times for k in metrics if k not in timed
        )
        correct = correct and counts_repeat
        for key in timed:
            metrics[key] = statistics.median(t[key] for t in times)
        traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
        metrics["cli.csv_bytes"] = first["csv_bytes"]
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = scaled_wall(traced_runs) - wall
        metrics["trace.unattributed_s"] = statistics.median(
            r["wall_s"] - sum(v["self_s"] for v in r["functions"].values()) for r in traced_runs
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
        probe_errors = sorted({e for r in traced_runs for e in r["probe_errors"]})
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}
        absent = probe_errors = []
        counts_repeat = None

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "why": workload.why, "machine": _machine(workload.threads),
        "jobs": [" ".join(j.argv) for j in workload.jobs(args.seed, files, "OUT")],
        "job_list_runs": len(plain), "traced_runs": len(traced_runs),
        "job_list_wall_s": [r["wall_s"] for r in plain],
        "job_wall_s": [[j["seconds"] for j in r["jobs"]] for r in plain],
        "setup_s_samples": setup,
        "reference_s": [r["ref_s"] for r in plain],
        "csv_digests": digests, "deterministic": deterministic,
        "failures": failures, "absent": absent, "probe_errors": probe_errors,
        "counts_repeat": counts_repeat,
        "metrics": metrics,
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name} seed {args.seed}: {len(plain)} job-list run(s), "
          f"{len(traced_runs)} traced; machine {record['machine']}")
    print(f"wall_s {wall:.4f} scaled from {len(plain)} job-list run(s), unscaled median "
          f"{statistics.median(r['wall_s'] for r in plain):.4f}; setup_s from {len(setup)} "
          f"sample(s), unscaled median {statistics.median(setup):.4f}; "
          f"csv digest {' '.join(d[:16] for d in digests)}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if not deterministic:
        print("FAILED the job-list runs wrote different CSVs")
    if counts_repeat is False:
        print("FAILED per-layer counts differ between traced runs")
    if absent:
        print(f"absent from the library: {', '.join(absent)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
