"""Command-line front end.

Subcommands:
  compare   -- compute scheme curves for a problem file, emit CSVs + gnuplot script
  validate  -- run a named property suite, nonzero exit on failure
  point     -- evaluate a single scheme at explicit parameters, print JSON

Exit codes: 0 success, 1 validation failure, 2 usage error (including a
WZBC_THREADS value that is not a positive integer, a compare --resolution
below 3, a compare run that skipped every scheme, and a point parameter that
the scheme does not read or that is given twice).  compare skips a scheme
whose evaluation fails or whose rows leave the distortion bounds.
Each validate suite has one named tolerance, ``max-dev`` (``n-stderr`` for
mc-uncoded), which ``--tolerance NAME=VALUE`` overrides; any other name, or a
value that is not a finite number >= 0, is a usage error.
CSV files carry "# key=value" comment headers and "D1,D2" data rows; output is
byte-identical across runs for identical manifests and seeds.  The environment
variable WZBC_THREADS caps worker threads for Monte Carlo batches.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import binary as bn
from . import gaussian as gs
from .core import (
    BLOCK_CELLS,
    BinaryProblem,
    BoundsViolation,
    GaussianProblem,
    load_problem,
    require_within_bounds,
)
from .dmc import binary_superposition_inputs, lds_rate_triple, scheme1_rate_triple
from .infotheory import binary_convolution, wz_rate_kernel
from .mcsim import SimConfig, simulate_uncoded_binary, simulate_uncoded_gaussian
from .optimize import lower_envelope_indices

class UsageError(Exception):
    pass


def _threads() -> int:
    raw = os.environ.get("WZBC_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise UsageError(f"WZBC_THREADS must be a positive integer, got {raw!r}")
    return threads


def _write_csv(path, scheme, params, rows):
    # "%.17g" formats float(x), so numpy floats and Fractions print as floats
    body = ("%.17g,%.17g\n" * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# scheme={scheme}, params={params}\n# columns=D1,D2\n")
        fh.write(body)


def _receiver_xy(assign, d_c, d_r):
    """(D1, D2) arrays of a curve given in (D_c, D_r) arrays."""
    return (d_c, d_r) if assign.c == 0 else (d_r, d_c)


def _receiver_rows(assign, d_c, d_r):
    """Sorted (D1, D2) rows of a curve given in (D_c, D_r) arrays."""
    d1, d2 = _receiver_xy(assign, d_c, d_r)
    return sorted(zip(d1.tolist(), d2.tolist()))


def _gaussian_lds(problem, resolution, extend_flat):
    assign = gs.choose_refinement_receiver(problem)
    if problem.kappa == 1:
        dmin, dmax = gs.gaussian_lds_dc_range(problem, assign)
        top = problem.sideinfo_vars[assign.c] if extend_flat else dmax
        d_c = np.linspace(dmin, top, resolution)
        d_r = gs.gaussian_lds_closed_form(problem, assign, d_c, extend_flat)
        return _receiver_rows(assign, d_c, d_r)
    top = problem.sideinfo_vars[assign.c]
    for _ in range(2):
        # the envelope ends at the first sample of minimal D_r (past the knee
        # the curve is the constant floor), so the second pass spends every
        # sample on D_c up to there
        d_c = np.linspace(gs.gaussian_cds(problem).D[assign.c], top, resolution)
        d_r = gs.gaussian_lds_curve(problem, assign, d_c)
        top = d_c[np.argmin(d_r)]
    x, y = _receiver_xy(assign, d_c, d_r)
    keep = lower_envelope_indices(x, y)
    return [(x[i], y[i]) for i in keep]


def _gaussian_scheme3(problem, resolution, extend_flat):
    assign = gs.choose_refinement_receiver(problem)
    if problem.kappa == 1:
        lo = problem.sideinfo_vars[assign.c] * problem.noise_vars[assign.c] / (
            problem.power + problem.noise_vars[assign.c]
        )
        d_c = np.linspace(lo, problem.sideinfo_vars[assign.c], resolution)
        d_r = gs.gaussian_scheme3_closed_form(problem, assign, d_c)
        return _receiver_rows(assign, d_c, d_r)
    return _receiver_rows(assign, *gs.gaussian_scheme3_curve(problem, assign, resolution))


def _gaussian_separate(problem, resolution, extend_flat):
    sweep = gs.gaussian_separate_sweep(problem, resolution)
    b, _ = gs.separate_coding_labels(problem)
    return sorted(
        (db, dg) if b == 0 else (dg, db) for db, dg in zip(sweep["d_b"], sweep["d_g"])
    )


# compare's schemes per problem type, in the order of the usage error's list:
# name -> (problem, resolution, extend_flat) -> rows of (D1, D2)
COMPARE_SCHEMES = {
    GaussianProblem: {
        "converse": lambda problem, *_: [tuple(gs.gaussian_trivial_converse(problem))],
        "uncoded": lambda problem, *_: [gs.gaussian_uncoded(problem).D],
        "cds": lambda problem, *_: [gs.gaussian_cds(problem).D],
        "lds": _gaussian_lds,
        "separate": _gaussian_separate,
        "scheme3": _gaussian_scheme3,
    },
    BinaryProblem: {
        "converse": lambda problem, *_: [bn.binary_trivial_converse(problem)],
        "uncoded": lambda problem, *_: [bn.binary_uncoded(problem).D],
        "cds": lambda problem, res, _: [p.D for p in bn.binary_cds_region(problem, res).points],
        "lds": lambda problem, res, _: [p.D for p in bn.binary_lds_region(problem, res).points],
        "separate": lambda problem, res, _: [
            p.D for p in bn.binary_separate_region(problem, res).points
        ],
    },
}


def _emit_plot_script(out_dir, csvs):
    lines = [
        "set datafile separator ','",
        "set xlabel 'D1'",
        "set ylabel 'D2'",
        "set key top right",
        "set term pngcairo size 900,700",
        "set output 'tradeoff.png'",
    ]
    parts = []
    for scheme, fname in csvs:
        style = "points pt 7 ps 1.5" if scheme in ("converse", "uncoded", "cds") else "linespoints"
        parts.append(f"'{fname}' using 1:2 with {style} title '{scheme}'")
    lines.append("plot \\\n  " + ", \\\n  ".join(parts))
    path = os.path.join(out_dir, "plot.gp")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cmd_compare(args) -> int:
    if args.resolution < 3:
        raise UsageError(f"--resolution must be at least 3, got {args.resolution}")
    problem = load_problem(args.problem)
    if problem.receivers != 2:
        raise UsageError(
            f"compare requires exactly 2 receivers, problem has {problem.receivers}"
        )
    if args.kappa_override is not None:
        problem = dataclasses.replace(problem, kappa=args.kappa_override)
    # a repeated name is computed and written once
    schemes = list(dict.fromkeys(s.strip() for s in args.schemes.split(",") if s.strip()))
    if not schemes:
        raise UsageError("empty scheme list")
    known = COMPARE_SCHEMES[type(problem)]
    gaussian_only = COMPARE_SCHEMES[GaussianProblem].keys() - known.keys()
    for s in schemes:
        if s not in known:
            if s.split("-")[0] in gaussian_only:
                raise UsageError(f"gaussian-only scheme: {s!r}")
            raise UsageError(f"unknown scheme {s!r}; known: {', '.join(known)}")
    if "converse" not in schemes:
        schemes.insert(0, "converse")  # converse bounds are always emitted
    os.makedirs(args.out, exist_ok=True)
    manifest = f"problem={os.path.basename(args.problem)};kappa={problem.kappa};" \
               f"resolution={args.resolution};seed={args.seed}"
    csvs = []
    for scheme in schemes:
        try:
            rows = known[scheme](problem, args.resolution, args.extend_flat)
            require_within_bounds(problem, np.asarray(rows, dtype=float).reshape(-1, 2).T)
        except (ValueError, BoundsViolation, OverflowError) as exc:
            print(f"scheme {scheme} skipped: {exc}", file=sys.stderr)
            continue
        fname = f"{scheme}.csv"
        _write_csv(os.path.join(args.out, fname), scheme, manifest, rows)
        csvs.append((scheme, fname))
    if not csvs:
        raise UsageError("no scheme produced output")
    script = _emit_plot_script(args.out, csvs)
    print(f"wrote {len(csvs)} CSV file(s) and {script} to {args.out}")
    return 0


def _report(name, ok, detail) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _suite_gaussian_oracle(tol, seed):
    """Parametric sweep envelope vs the closed-form layered curve.

    Three instances at kappa = 1 against ``gaussian_lds_closed_form`` on its
    domain, and the fixture at kappa = 1/2 against ``gaussian_lds_curve`` on
    [D_c of cds, N_c].  The line gives the largest deviation, then that of
    each instance in this order.
    """
    rng = np.random.default_rng(seed)
    instances = [
        (1.0, (1.0, 0.5), (0.8, 0.4), Fraction(1)),
        (1.0, (2.0, 0.5), (0.3, 0.9), Fraction(1)),
        (
            float(rng.uniform(0.5, 4)),
            tuple(rng.uniform(0.25, 4, 2)),
            tuple(rng.uniform(0.1, 1, 2)),
            Fraction(1),
        ),
        (1.0, (1.0, 0.5), (0.8, 0.4), Fraction(1, 2)),
    ]
    deviations = []
    for P, W, N, kappa in instances:
        problem = GaussianProblem(P, W, N, kappa)
        assign = gs.choose_refinement_receiver(problem)
        env_dc, env_dr = gs.lds_cloud_envelope(problem, assign, 400, 400)
        if kappa == 1:
            dmin, dmax = gs.gaussian_lds_dc_range(problem, assign)
            curve = gs.gaussian_lds_closed_form
        else:
            dmin, dmax = gs.gaussian_cds(problem).D[assign.c], N[assign.c]
            curve = gs.gaussian_lds_curve
        samples = np.linspace(dmin, dmax, 50)
        env = np.interp(samples, env_dc, env_dr)
        exact = curve(problem, assign, samples)
        deviations.append(float(np.max(np.abs(env - exact))))
    worst = max(deviations)
    each = ", ".join(f"{d:.3e}" for d in deviations)
    return _report(
        "gaussian-oracle", worst < tol, f"max deviation {worst:.3e} (tol {tol:g}); instances {each}"
    )


def _suite_gaussian_ordering(tol, seed):
    """Layered <= separate and layered <= reversed-decoding closed forms."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(8):
        P = float(rng.uniform(0.5, 4))
        W = tuple(rng.uniform(0.25, 4, 2))
        N = tuple(rng.uniform(0.1, 1, 2))
        problem = GaussianProblem(P, W, N, Fraction(1))
        assign = gs.choose_refinement_receiver(problem)
        dmin, dmax = gs.gaussian_lds_dc_range(problem, assign)
        d_c = np.linspace(dmin, dmax, 64)
        lds = gs.gaussian_lds_closed_form(problem, assign, d_c)
        worst = max(worst, np.max(lds - gs.gaussian_scheme3_closed_form(problem, assign, d_c)))
        b, _ = gs.separate_coding_labels(problem)
        if b == assign.c:
            worst = max(worst, np.max(lds - gs.gaussian_separate_closed_form(problem, d_c)))
    return _report("gaussian-ordering", worst <= tol, f"max violation {worst:.3e} (tol {tol:g})")


def _brute_wz_distortion(beta, rate, count=800):
    """Smallest q*alpha + (1-q)*beta over the count x count grid of q in [0, 1]
    and alpha in [0, beta] with q*r(alpha, beta) <= rate, in blocks of q rows
    of at most BLOCK_CELLS cells."""
    qs = np.linspace(0.0, 1.0, count)
    alphas = np.linspace(0.0, beta, count)
    r = wz_rate_kernel(alphas, beta)
    rows = max(1, BLOCK_CELLS // count)
    best = math.inf  # the q = 0 row is always feasible
    for lo in range(0, count, rows):
        q = qs[lo:lo + rows, None]
        d = q * alphas + (1.0 - q) * beta
        best = min(best, float(np.min(d, initial=math.inf, where=q * r <= rate)))
    return best


def _suite_binary_oracle(tol, seed):
    """Point-to-point value vs 2-D brute force and the pinned sub-grid equality."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        beta = float(rng.uniform(0.05, 0.5))
        rate = float(rng.uniform(0.0, 1.0))
        brute = _brute_wz_distortion(beta, rate)
        val = bn.binary_wz_distortion(beta, rate)
        worst = max(worst, abs(brute - val))
    problem = BinaryProblem((0.05, 0.1), (0.2, 0.1), Fraction(1))
    a = bn.binary_cds_points(problem, 21)
    b = bn.binary_lds_cds_pinned_points(problem, 21)
    same = sorted(zip(*(v.tolist() for v in a))) == sorted(zip(*(v.tolist() for v in b)))
    ok = worst < tol and same
    return _report(
        "binary-oracle", ok, f"max deviation {worst:.3e} (tol {tol:g}); sub-grid equality {same}"
    )


def _suite_dmc_consistency(tol, seed):
    """Generic engine vs the binary closed forms on random parameters.

    The 100 draws form one batch, so each engine evaluation is one call.
    """
    rng = np.random.default_rng(seed)
    p_c, p_r, g_c, g_r = rng.uniform(0.01, 0.49, (100, 4)).T
    eng = lds_rate_triple(binary_superposition_inputs(p_c, p_r, 0.5, g_r, "uc"))
    closed, _ = bn._channel_rate_table(p_c, p_r, 1, 0.5, g_r, bn.TChoice.T_EQUALS_UC)
    eng2 = lds_rate_triple(binary_superposition_inputs(p_c, p_r, g_c, g_r, "xor"))
    shared = wz_rate_kernel(g_c, g_r)
    g = np.minimum(binary_convolution(g_c, g_r), 0.5)
    raw = (
        wz_rate_kernel(p_c, g) - shared,
        wz_rate_kernel(p_r, g) - shared,
        shared,
    )
    inputs = binary_superposition_inputs(p_c, p_r, g_c, g_r, "uc")
    s1 = scheme1_rate_triple(inputs)
    l1 = lds_rate_triple(inputs)
    pairs = ((eng.as_tuple(), closed.T), (eng2.as_tuple(), raw), (s1.as_tuple(), l1.as_tuple()))
    worst = max(float(np.max(np.abs(x - y))) for a, b in pairs for x, y in zip(a, b))
    return _report("dmc-consistency", worst < tol, f"max deviation {worst:.3e} (tol {tol:g})")


def _suite_mc_uncoded(n_stderr, seed):
    """Monte Carlo empirical distortions vs the uncoded closed forms."""
    threads = _threads()
    cfg = SimConfig(samples=10**6, seed=seed)
    pg = GaussianProblem(1.0, (1.0, 0.5), (0.8, 0.4), Fraction(1))
    target = tuple(gs.gaussian_uncoded(pg).D)
    est = simulate_uncoded_gaussian(pg, cfg, threads)
    ok_g = est.within(target, n_stderr)
    pb = BinaryProblem((0.05, 0.1), (0.2, 0.1), Fraction(1))
    estb = simulate_uncoded_binary(pb, cfg, threads)
    ok_b = estb.within(tuple(bn.binary_uncoded(pb).D), n_stderr)
    detail = (
        f"gaussian {tuple(round(m, 5) for m in est.mean)} vs {tuple(round(t, 5) for t in target)}, "
        f"binary {tuple(round(m, 5) for m in estb.mean)} (threshold {n_stderr:g} stderr)"
    )
    return _report("mc-uncoded", ok_g and ok_b, detail)


# suite name -> (suite function, its tolerance name, default tolerance)
VALIDATE_SUITES = {
    "gaussian-oracle": (_suite_gaussian_oracle, "max-dev", 1e-4),
    "gaussian-ordering": (_suite_gaussian_ordering, "max-dev", 1e-10),
    "binary-oracle": (_suite_binary_oracle, "max-dev", 1e-3),
    "dmc-consistency": (_suite_dmc_consistency, "max-dev", 1e-9),
    "mc-uncoded": (_suite_mc_uncoded, "n-stderr", 4.0),
}


def cmd_validate(args) -> int:
    suite = args.suite
    if suite not in VALIDATE_SUITES:
        raise UsageError(f"unknown suite {suite!r}; known: {', '.join(VALIDATE_SUITES)}")
    run, tol_name, tol = VALIDATE_SUITES[suite]
    for item in args.tolerance or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"tolerance override must be NAME=VALUE, got {item!r}")
        if key != tol_name:
            raise UsageError(
                f"suite {suite} has no tolerance {key!r}; its tolerance is {tol_name}"
            )
        try:
            tol = float(val)
        except ValueError:
            tol = math.nan
        if not (math.isfinite(tol) and tol >= 0.0):
            raise UsageError(f"tolerance {key} must be a finite number >= 0, got {val!r}")
    return 0 if run(tol, args.seed) else 1


def _parse_params(items, scheme, names):
    """NAME=VALUE items as a dict; each name at most once and one of ``names``."""
    params = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"parameter must be NAME=VALUE, got {item!r}")
        if key not in names:
            takes = ", ".join(names) if names else "no parameters"
            raise UsageError(f"{scheme} point has no parameter {key!r}; it takes {takes}")
        if key in params:
            raise UsageError(f"parameter {key!r} given twice")
        params[key] = val if key == "t" else float(val)
    return params


def cmd_point(args) -> int:
    problem = load_problem(args.problem)
    scheme = args.scheme
    # scheme -> the parameter names it reads
    if isinstance(problem, GaussianProblem):
        kind, schemes = "gaussian", {"uncoded": (), "cds": (), "lds": ("nu", "gamma")}
    else:
        lds = ("q_c", "q_r", "alpha_c", "alpha_r", "gamma_r", "t", "gamma_c")
        kind, schemes = "binary", {"uncoded": (), "lds": lds}
    if scheme not in schemes:
        raise UsageError(f"unknown {kind} point scheme {scheme!r}")
    params = _parse_params(args.param, f"{kind} {scheme}", schemes[scheme])
    flags = []
    if kind == "gaussian":
        if scheme == "uncoded":
            point = gs.gaussian_uncoded(problem)
        elif scheme == "cds":
            point = gs.gaussian_cds(problem)
        else:
            if "nu" not in params:
                raise UsageError("lds point requires nu=<value> (and optional gamma=<value>)")
            assign = gs.choose_refinement_receiver(problem)
            lds_params = gs.GaussianLdsParams(params["nu"], params.get("gamma", 0.0))
            rates = gs.gaussian_lds_channel_rates(problem, assign, lds_params)
            if rates.clamped:
                flags.append("rate-clamped")
            point = gs.gaussian_lds_distortions(problem, assign, rates)
    else:
        if scheme == "uncoded":
            point = bn.binary_uncoded(problem)
        else:
            needed = ("q_c", "q_r", "alpha_c", "alpha_r", "gamma_r")
            if not all(k in params for k in needed):
                raise UsageError(f"binary lds point requires {', '.join(needed)} (and t=uc|xor)")
            t = params.get("t", "uc")
            if t not in ("uc", "xor"):
                raise UsageError(f"binary lds point requires t=uc or t=xor, got t={t!r}")
            if "gamma_c" in params and t != "xor":
                # the T = U_c rates fix the common-layer input at gamma_c = 1/2
                raise UsageError("binary lds point takes gamma_c only with t=xor")
            t_choice = bn.TChoice(t)
            src = bn.BinarySourceParams(
                params["q_c"], params["q_r"], params["alpha_c"], params["alpha_r"]
            )
            ch = bn.BinaryChannelParams(params.get("gamma_c", 0.5), params["gamma_r"], t_choice)
            beta_c, beta_r = problem.sideinfo_crossovers
            p_c, p_r = problem.crossovers
            source = bn.binary_lds_source_rates(src, beta_c, beta_r)
            channel = bn.binary_lds_channel_rates(p_c, p_r, ch, problem.kappa)
            if channel.clamped:
                flags.append("rate-clamped")
            feasible = all(
                s <= c + bn.FEAS_TOL for s, c in zip(source.as_tuple(), channel.as_tuple())
            )
            if not feasible:
                raise UsageError(
                    f"source rates {source.as_tuple()} exceed channel rates {channel.as_tuple()}"
                )
            d1 = bn.layer_distortion(src.q_c, src.alpha_c, beta_c)
            d2 = bn.layer_distortion(src.q_r, src.alpha_r, beta_r)
            point = bn.DistortionPoint(D=(d1, d2), scheme="lds", params=params)
    print(
        json.dumps(
            {
                "scheme": point.scheme,
                "D1": point.D[0],
                "D2": point.D[1],
                "params": params,
                "flags": flags,
            },
            sort_keys=True,
        )
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="wzbc",
        description="Distortion tradeoff regions for lossy broadcast with receiver "
        "side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser("compare", help="compute scheme curves, emit CSVs + plot script")
    p_compare.add_argument("--problem", required=True, help="problem JSON file")
    p_compare.add_argument("--schemes", required=True,
                           help="comma-separated scheme list")
    p_compare.add_argument("--resolution", type=int, default=41,
                           help="grid points per axis, at least 3 (default 41)")
    p_compare.add_argument("--out", required=True, help="output directory")
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--kappa-override", default=None,
                           help='replace the problem kappa (e.g. "1/2")')
    p_compare.add_argument("--extend-flat", action="store_true",
                           help="continue the kappa = 1 layered closed-form curve flat "
                                "beyond its natural right endpoint (no effect at other kappa)")
    p_compare.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="run a named property suite")
    p_val.add_argument("--suite", required=True, help=", ".join(VALIDATE_SUITES))
    p_val.add_argument("--seed", type=int, default=42)
    p_val.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
    p_val.set_defaults(func=cmd_validate)

    p_point = sub.add_parser("point", help="evaluate one scheme at explicit parameters")
    p_point.add_argument("--problem", required=True)
    p_point.add_argument("--scheme", required=True)
    p_point.add_argument("--param", action="append", metavar="NAME=VALUE",
                         help="scheme parameter (repeatable)")
    p_point.set_defaults(func=cmd_point)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
