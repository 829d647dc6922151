"""One fresh interpreter of a benchmark run: python3 child.py SPEC.json

SPEC names the wzbc source directory, the problem files, the jobs (argv
lists for wzbc.cli.main), whether to trace, and where to write the result.
The child times importing wzbc.cli and loading the problem files (set-up),
then each job, and reports its own peak resident memory.  A fixed reference
kernel is timed after set-up and after every job, so that the driver can
scale each time by the machine's speed at that moment.  Only the standard
library is imported before the set-up clock starts.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_job(cli, argv):
    """(return code, error text, captured output) of one wzbc.cli.main call."""
    out = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = -1, traceback.format_exc(limit=5)
    return rc, error, out.getvalue()


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter and numpy work that wzbc never runs."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    a = np.arange(20_000, dtype=float)  # small, so it never sets the memory peak
    for _ in range(400):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - start


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import wzbc.cli
    import wzbc.core

    for path in spec["problems"]:
        wzbc.core.load_problem(path)
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    jobs = []
    ref_s = [reference_kernel()]
    for argv in spec["jobs"]:
        start = time.perf_counter()
        rc, error, output = run_job(wzbc.cli, argv)
        jobs.append({"rc": rc, "error": error, "output": output[-2000:],
                     "seconds": time.perf_counter() - start})
        ref_s.append(reference_kernel())
    if tracer is not None:
        tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "wall_s": sum(job["seconds"] for job in jobs),
        "ref_s": ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": jobs,
    }
    if tracer is not None:
        from spans import summarize

        result["functions"] = summarize(tracer.spans)
        result["wrapped"] = sorted(tracer.wrapped)
        result["probe_errors"] = sorted(tracer.probe_errors)
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent", "counts"],
                           "spans": tracer.spans}, fh)
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])


if __name__ == "__main__":
    main(sys.argv[1])
