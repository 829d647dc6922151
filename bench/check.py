"""Output checks for benchmark jobs, from oracles rather than golden bytes.

A compare job fails when it exits nonzero, when a requested scheme's CSV is
missing, when a row leaves [0, N_k] (Gaussian) or [0, beta_k] (binary), when
an envelope curve is not strictly increasing in D1 and strictly decreasing
in D2, when a row beats the problem's converse point by more than
CONVERSE_TOL, or, for a kappa = 1 Gaussian problem, when an lds row differs
from gaussian_lds_closed_form by more than CLOSED_FORM_TOL.  A validate job
fails when it exits nonzero or reports a failed suite.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction

BOUND_SLACK = 1e-12
CONVERSE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
# curves that are lower convex envelopes, by problem kind
ENVELOPES = {"binary": ("cds", "lds", "separate"), "gaussian": ("lds",)}


def read_csv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            d1, d2 = line.split(",")
            rows.append((float(d1), float(d2)))
    return rows


def _upper_bounds(problem):
    return problem["N"] if problem["kind"] == "gaussian" else problem["beta"]


def _closed_form_errors(problem, rows):
    from wzbc import gaussian as gs
    from wzbc.core import GaussianProblem

    gp = GaussianProblem(problem["P"], tuple(problem["W"]), tuple(problem["N"]), Fraction(1))
    assign = gs.choose_refinement_receiver(gp)
    worst = 0.0
    for row in rows:
        expected = gs.gaussian_lds_closed_form(gp, assign, row[assign.c])
        worst = max(worst, abs(row[assign.r] - expected))
    if worst > CLOSED_FORM_TOL:
        return [f"lds differs from the closed form by {worst:.3e}"]
    return []


def check_compare(job, rc) -> list:
    """Reasons the compare job failed (empty when it passed)."""
    if rc != 0:
        return [f"exit code {rc}"]
    problem = job.problem
    curves = {}
    for scheme in job.schemes:
        path = os.path.join(job.out, f"{scheme}.csv")
        if not os.path.isfile(path):
            return [f"{scheme}.csv missing"]
        curves[scheme] = read_csv(path)
    errors = []
    upper = _upper_bounds(problem)
    for scheme, rows in curves.items():
        if not rows:
            errors.append(f"{scheme}: no rows")
            continue
        for row in rows:
            if not all(-BOUND_SLACK <= d <= u + BOUND_SLACK for d, u in zip(row, upper)):
                errors.append(f"{scheme}: row {row} outside [0, {upper}]")
                break
        if scheme in ENVELOPES[problem["kind"]] and not (
            problem["kind"] == "gaussian" and Fraction(problem["kappa"]) == 1
        ):
            for (x0, y0), (x1, y1) in zip(rows, rows[1:]):
                if not (x1 > x0 and y1 < y0):
                    errors.append(f"{scheme}: envelope not monotone at {(x0, y0)}, {(x1, y1)}")
                    break
    converse = curves["converse"][0]
    for scheme, rows in curves.items():
        if scheme == "converse":
            continue
        gap = max(c - d for row in rows for d, c in zip(row, converse))
        if gap > CONVERSE_TOL:
            errors.append(f"{scheme}: beats the converse by {gap:.3e}")
    if (problem["kind"] == "gaussian" and Fraction(problem["kappa"]) == 1
            and "lds" in curves):
        errors += _closed_form_errors(problem, curves["lds"])
    return errors


def check_validate(rc, output) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    if "[PASS]" not in output or "[FAIL]" in output:
        return ["suite did not pass"]
    return []


def check_job(job, rc, output) -> list:
    if job.problem is None:
        return check_validate(rc, output)
    return check_compare(job, rc)


def digest(directory) -> str:
    """sha256 over the relative paths and bytes of every CSV under directory."""
    h = hashlib.sha256()
    for path, size in csv_files(directory):
        h.update(os.path.relpath(path, directory).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def csv_files(directory) -> list:
    """Sorted (path, size) of every CSV under directory."""
    found = []
    for root, _, names in os.walk(directory):
        for name in names:
            if name.endswith(".csv"):
                path = os.path.join(root, name)
                found.append((path, os.path.getsize(path)))
    return sorted(found)
