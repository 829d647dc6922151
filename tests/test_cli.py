import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from wzbc import gaussian as gs
from wzbc.cli import _brute_wz_distortion, _write_csv, main
from wzbc.core import load_problem
from wzbc.gaussian import (
    choose_refinement_receiver,
    gaussian_cds,
    gaussian_lds_closed_form,
    gaussian_lds_dc_range,
    gaussian_lds_distortions,
    gaussian_scheme3_rates,
)
from wzbc.infotheory import wz_rate_kernel

from test_gaussian import (
    reference_lds_closed_form,
    reference_lds_curve,
    reference_parametric_cloud,
    reference_scheme3_closed_form,
)
from test_optimize import reference_envelope_indices

GAUSSIAN = {"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5], "N": [0.8, 0.4], "kappa": "1"}
BINARY = {"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, 0.1], "kappa": "1"}


@pytest.fixture
def gaussian_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(GAUSSIAN))
    return str(path)


@pytest.fixture
def binary_file(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(BINARY))
    return str(path)


def read_rows(path):
    rows = []
    for line in open(path):
        if line.startswith("#"):
            continue
        a, b = line.strip().split(",")
        rows.append((float(a), float(b)))
    return rows


def test_compare_gaussian_happy_path(tmp_path, gaussian_file):
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--problem", gaussian_file,
            "--schemes", "converse,uncoded,cds,lds,separate,scheme3",
            "--resolution", "21",
            "--out", str(out),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "cds.csv", "converse.csv", "lds.csv", "plot.gp",
        "scheme3.csv", "separate.csv", "uncoded.csv",
    ]
    problem = load_problem(gaussian_file)
    # every CSV row respects the distortion bounds
    for name in names:
        if not name.endswith(".csv"):
            continue
        for d1, d2 in read_rows(out / name):
            assert -1e-12 <= d1 <= problem.sideinfo_vars[0] + 1e-12
            assert -1e-12 <= d2 <= problem.sideinfo_vars[1] + 1e-12
    assert read_rows(out / "cds.csv") == [pytest.approx((0.4, 0.26666666666666666))]
    header = open(out / "lds.csv").readline()
    assert header.startswith("# scheme=lds, params=")


def test_compare_output_byte_identical(tmp_path, gaussian_file):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    args = ["compare", "--problem", gaussian_file, "--schemes", "lds,separate",
            "--resolution", "33", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("lds.csv", "separate.csv", "converse.csv", "plot.gp"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_compare_converse_always_emitted(tmp_path, gaussian_file):
    out = tmp_path / "out"
    assert main(["compare", "--problem", gaussian_file, "--schemes", "cds",
                 "--out", str(out)]) == 0
    assert (out / "converse.csv").exists()


def test_compare_repeated_scheme_is_computed_once(tmp_path, gaussian_file, capsys):
    out = tmp_path / "o"
    assert main(["compare", "--problem", gaussian_file, "--schemes", "lds,lds,converse",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == ["converse.csv", "lds.csv"]
    assert capsys.readouterr().out == f"wrote 2 CSV file(s) and {out / 'plot.gp'} to {out}\n"
    assert (out / "plot.gp").read_text(encoding="utf-8").count("'lds.csv'") == 1


def test_compare_binary_rejects_gaussian_only_scheme(tmp_path, binary_file, capsys):
    # only a name whose prefix is a Gaussian-only scheme is called gaussian-only
    for scheme, err in [
        ("scheme3-closed-form", "error: gaussian-only scheme: 'scheme3-closed-form'\n"),
        ("lds-closed-form", "error: unknown scheme 'lds-closed-form'; "
                            "known: converse, uncoded, cds, lds, separate\n"),
    ]:
        code = main(["compare", "--problem", binary_file, "--schemes", scheme,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == err


def test_compare_empty_scheme_list(tmp_path, gaussian_file):
    assert main(["compare", "--problem", gaussian_file, "--schemes", " ",
                 "--out", str(tmp_path / "o")]) == 2


def test_compare_unknown_scheme(tmp_path, gaussian_file, binary_file, capsys):
    for problem, known in [
        (gaussian_file, "converse, uncoded, cds, lds, separate, scheme3"),
        (binary_file, "converse, uncoded, cds, lds, separate"),
    ]:
        assert main(["compare", "--problem", problem, "--schemes", "sorcery",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: unknown scheme 'sorcery'; known: {known}\n"


def test_compare_kappa_mismatch_skips_scheme_but_continues(tmp_path, gaussian_file, capsys):
    out = tmp_path / "out"
    code = main(["compare", "--problem", gaussian_file, "--kappa-override", "2",
                 "--schemes", "uncoded,cds", "--resolution", "11", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "uncoded" in err and "bandwidth match" in err
    assert not (out / "uncoded.csv").exists()
    assert (out / "cds.csv").exists()


def test_compare_extend_flat(tmp_path):
    data = {"kind": "gaussian", "P": 1.0, "W": [2.0, 0.5], "N": [0.3, 0.9], "kappa": "1"}
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["compare", "--problem", str(path), "--schemes", "lds",
                 "--resolution", "41", "--extend-flat", "--out", str(out)]) == 0
    rows = read_rows(out / "lds.csv")
    # flat continuation reaches D_c = N_c with D_r pinned at the refinement floor
    assert rows[-1][0] == pytest.approx(0.3, abs=1e-12)
    assert rows[-1][1] == pytest.approx(0.3, abs=1e-12)  # 0.9 * 0.5 / 1.5


def _expected_data_lines(rows):
    return [f"{float(d1):.17g},{float(d2):.17g}\n" for d1, d2 in rows]


def _receiver_pair(assign, d_c, d_r):
    return (d_c, d_r) if assign.c == 0 else (d_r, d_c)


@pytest.mark.parametrize(
    "data, kappa",
    [
        (GAUSSIAN, "1/2"),
        ({"kind": "gaussian", "P": 1.0, "W": [2.0, 0.5], "N": [0.3, 0.9], "kappa": "1"}, "1/2"),
        ({"kind": "gaussian", "P": 1.0, "W": [2.0, 0.5], "N": [0.3, 0.9], "kappa": "1"}, "1"),
        (GAUSSIAN, "1"),
    ],
)
def test_compare_gaussian_rows_equal_reference_construction(tmp_path, data, kappa):
    # lds and scheme3 rows at resolution 301 against scalar loops of the
    # closed forms and the envelope without the sampled prefilter
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**data, "kappa": kappa}))
    out = tmp_path / "out"
    argv = ["compare", "--problem", str(path), "--schemes", "lds,scheme3",
            "--resolution", "301", "--out", str(out)]
    if kappa == "1":
        argv.append("--extend-flat")
    assert main(argv) == 0
    problem = load_problem(str(path))
    assign = choose_refinement_receiver(problem)
    n_c = problem.sideinfo_vars[assign.c]
    if kappa == "1":
        dmin, _ = gaussian_lds_dc_range(problem, assign)
        lds = [
            _receiver_pair(assign, d, reference_lds_closed_form(problem, assign, d, True))
            for d in np.linspace(dmin, n_c, 301)
        ]
        w_c = problem.noise_vars[assign.c]
        scheme3 = [
            _receiver_pair(assign, d, reference_scheme3_closed_form(problem, assign, d))
            for d in np.linspace(n_c * w_c / (problem.power + w_c), n_c, 301)
        ]
    else:
        # samples on [D_c of cds, N_c], then again up to the first minimiser of D_r
        top = n_c
        for _ in range(2):
            d_c = np.linspace(gaussian_cds(problem).D[assign.c], top, 301)
            d_r = np.array([reference_lds_curve(problem, assign, d) for d in d_c.tolist()])
            top = d_c[np.argmin(d_r)]
        x, y = _receiver_pair(assign, d_c, d_r)
        lds = [(x[i], y[i]) for i in reference_envelope_indices(x, y)]
        scheme3 = [
            gaussian_lds_distortions(
                problem, assign, gaussian_scheme3_rates(problem, assign, nu)
            ).D
            for nu in np.linspace(0.0, 1.0, 301)
        ]
    lines = open(out / "scheme3.csv").readlines()
    assert lines[2:] == _expected_data_lines(sorted(scheme3))
    if kappa == "1":
        lines = open(out / "lds.csv").readlines()
        assert lines[2:] == _expected_data_lines(lds)
        assert lds[-1][assign.c] == n_c  # the flat continuation reaches N_c
    else:
        # numpy's vectorized pow may differ from the scalar loop in the last bit
        got = read_rows(out / "lds.csv")
        assert len(got) == len(lds)
        assert np.max(np.abs(np.array(got) - np.array(lds))) <= 1e-15
        # an inner bound: on or below the envelope of the full-grid cloud
        cloud = reference_parametric_cloud(problem, assign, 301, 301)
        keep = reference_envelope_indices(cloud["d_c"], cloud["d_r"])
        for row in got:
            env = np.interp(row[assign.c], cloud["d_c"][keep], cloud["d_r"][keep])
            assert row[assign.r] <= env + 1e-12


@pytest.mark.parametrize("kappa", ["1/2", "2"])
@pytest.mark.parametrize(
    "P, W, N",
    [
        (1.0, [1.0, 0.5], [0.8, 0.4]),
        (1.0, [2.0, 0.5], [0.3, 0.9]),
        (1.0, [0.5, 1.0], [0.9, 0.3]),
        (1.0, [1.0, 0.5], [0.3, 0.9]),
    ],
)
def test_compare_lds_emits_at_most_one_floor_row(tmp_path, P, W, N, kappa):
    # the refinement floor is one constant, so the envelope keeps one vertex on it
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "gaussian", "P": P, "W": W, "N": N, "kappa": kappa}))
    out = tmp_path / "out"
    assert main(["compare", "--problem", str(path), "--schemes", "lds",
                 "--resolution", "1001", "--out", str(out)]) == 0
    problem = load_problem(str(path))
    r = choose_refinement_receiver(problem).r
    floor = problem.sideinfo_vars[r] / (1.0 + P / problem.noise_vars[r]) ** float(problem.kappa)
    rows = read_rows(out / "lds.csv")
    assert sum(abs(row[r] - floor) <= 1e-12 for row in rows) <= 1
    assert all(row[r] >= floor - 1e-15 for row in rows)


def test_point_lds_full_power_equals_cds(gaussian_file, capsys):
    assert main(["point", "--problem", gaussian_file, "--scheme", "lds",
                 "--param", "nu=1", "--param", "gamma=0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    problem = load_problem(gaussian_file)
    cds = gaussian_cds(problem)
    assert (payload["D1"], payload["D2"]) == pytest.approx(cds.D, abs=1e-12)
    assert payload["flags"] == []


def test_point_lds_interior_matches_closed_form(gaussian_file, capsys):
    assert main(["point", "--problem", gaussian_file, "--scheme", "lds",
                 "--param", "nu=0.5", "--param", "gamma=0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    problem = load_problem(gaussian_file)
    assign = choose_refinement_receiver(problem)
    d_c = payload["D1"] if assign.c == 0 else payload["D2"]
    d_r = payload["D2"] if assign.c == 0 else payload["D1"]
    assert d_r == pytest.approx(gaussian_lds_closed_form(problem, assign, d_c), abs=1e-12)


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_point_lds_rejects_non_finite_gamma(gaussian_file, capsys, gamma):
    assert main(["point", "--problem", gaussian_file, "--scheme", "lds",
                 "--param", "nu=0.5", "--param", f"gamma={gamma}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma must be finite" in captured.err


def test_point_uncoded_bandwidth_mismatch(tmp_path, capsys):
    data = dict(GAUSSIAN, kappa="2")
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(data))
    assert main(["point", "--problem", str(path), "--scheme", "uncoded"]) == 2
    assert "bandwidth match" in capsys.readouterr().err


def test_point_binary_lds(binary_file, capsys):
    code = main(["point", "--problem", binary_file, "--scheme", "lds",
                 "--param", "q_c=0.5", "--param", "q_r=0.5",
                 "--param", "alpha_c=0.05", "--param", "alpha_r=0.05",
                 "--param", "gamma_r=0.0", "--param", "t=uc"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["D1"] == pytest.approx(0.5 * 0.05 + 0.5 * 0.2)
    assert payload["D2"] == pytest.approx(0.5 * 0.05 + 0.5 * 0.1)


def test_validate_unknown_suite():
    assert main(["validate", "--suite", "nonsense"]) == 2


def test_validate_dmc_suite_runs():
    assert main(["validate", "--suite", "dmc-consistency", "--seed", "42"]) == 0


def test_validate_tolerance_override_can_fail():
    assert main(["validate", "--suite", "dmc-consistency", "--seed", "42",
                 "--tolerance", "max-dev=1e-30"]) == 1


def test_validate_gaussian_oracle_includes_the_exact_curve_at_kappa_half(monkeypatch, capsys):
    # the fourth instance compares the 400x400 cloud envelope of the fixture at
    # kappa = 1/2 with gaussian_lds_curve, and its deviation counts in the verdict
    curve = gs.gaussian_lds_curve
    seen = []

    def spy(problem, assign, samples):
        seen.append((problem.kappa, len(samples)))
        return curve(problem, assign, samples)

    monkeypatch.setattr(gs, "gaussian_lds_curve", spy)
    assert main(["validate", "--suite", "gaussian-oracle", "--seed", "42"]) == 0
    assert seen == [(Fraction(1, 2), 50)]
    assert capsys.readouterr().out == GAUSSIAN_ORACLE_LINES[42] + "\n"
    monkeypatch.setattr(gs, "gaussian_lds_curve", lambda p, a, d: curve(p, a, d) + 1e-4)
    assert main(["validate", "--suite", "gaussian-oracle", "--seed", "42"]) == 1


@pytest.mark.parametrize(
    "text, extra",
    [
        ('{"kind": "binary", "p": [NaN, 0.1], "beta": [0.2, 0.1], "kappa": "1"}', []),
        ('{"kind": "gaussian", "P": Infinity, "W": [1.0, 0.5], "N": [0.8, 0.4], "kappa": "1"}', []),
        ('{"kind": "gaussian", "P": null, "W": [1.0, 0.5], "N": [0.8, 0.4], "kappa": "1"}', []),
        ('{"kind": "gaussian", "P": 1.0, "W": 5, "N": [0.8, 0.4], "kappa": "1"}', []),
        ('{"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, null], "kappa": "1"}', []),
        ("[1, 2]", []),
        ('{"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5], "N": [0.8, 0.4], "kappa": "1e400"}', []),
        ('{"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, 0.1], "kappa": "1e400"}', []),
        ('{"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5], "N": [0.8, 0.4], "kappa": "1e-400"}', []),
        ('{"kind": "binary", "p": [0.05, 0.1], "beta": [0.2, 0.1], "kappa": "1e-400"}', []),
        (json.dumps(GAUSSIAN), ["--kappa-override", "1e400"]),
    ],
    ids=["nan-crossover", "inf-power", "null-power", "scalar-noise", "null-beta", "top-level-list",
         "huge-kappa-gaussian", "huge-kappa-binary", "tiny-kappa-gaussian", "tiny-kappa-binary",
         "huge-kappa-override"],
)
def test_compare_malformed_problem_is_usage_error(tmp_path, capsys, text, extra):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["compare", "--problem", str(path), "--schemes", "cds,uncoded,lds",
                 "--out", str(tmp_path / "o"), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_compare_subnormal_kappa_runs(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(dict(GAUSSIAN, kappa="1e-320")))
    assert main(["compare", "--problem", str(path), "--schemes", "cds,lds,separate",
                 "--resolution", "11", "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "o" / "lds.csv").exists()


def test_compare_rejects_three_receivers(tmp_path, capsys):
    data = {"kind": "gaussian", "P": 1.0, "W": [1, 0.5, 2], "N": [0.8, 0.4, 0.6],
            "kappa": "1"}
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(data))
    assert main(["compare", "--problem", str(path), "--schemes", "cds",
                 "--out", str(tmp_path / "o")]) == 2
    assert "exactly 2 receivers" in capsys.readouterr().err


def test_compare_binary_under_python_O(tmp_path, binary_file):
    # the output bounds are checked by explicit raises, which -O keeps
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    args = ["compare", "--problem", binary_file, "--schemes", "cds,lds,separate",
            "--resolution", "11"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "wzbc.cli", *args, "--out", str(tmp_path / "opt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    for name in ("converse.csv", "cds.csv", "lds.csv", "separate.csv"):
        assert (tmp_path / "opt" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_malformed_thread_count_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("WZBC_THREADS", value)
    assert main(["validate", "--suite", "mc-uncoded"]) == 2
    assert "WZBC_THREADS" in capsys.readouterr().err


# printed lines of the scalar-loop engine and of the float-array error count,
# which the batched engine and np.count_nonzero must reproduce
DMC_LINES = {
    1: "[PASS] dmc-consistency: max deviation 1.110e-15 (tol 1e-09)",
    13: "[PASS] dmc-consistency: max deviation 8.882e-16 (tol 1e-09)",
    42: "[PASS] dmc-consistency: max deviation 1.110e-15 (tol 1e-09)",
}
MC_LINES = {
    13: "[PASS] mc-uncoded: gaussian (0.44405, 0.22201) vs (0.44444, 0.22222), "
        "binary (0.04981, 0.10021) (threshold 4 stderr)",
    42: "[PASS] mc-uncoded: gaussian (0.44559, 0.22176) vs (0.44444, 0.22222), "
        "binary (0.04973, 0.09977) (threshold 4 stderr)",
}

BINARY_ORACLE_LINES = {
    1: "[PASS] binary-oracle: max deviation 1.073e-05 (tol 0.001); sub-grid equality True",
    13: "[PASS] binary-oracle: max deviation 3.903e-04 (tol 0.001); sub-grid equality True",
    42: "[PASS] binary-oracle: max deviation 2.691e-04 (tol 0.001); sub-grid equality True",
}
# the third instance is drawn from the seed
GAUSSIAN_ORACLE_LINES = {
    seed: "[PASS] gaussian-oracle: max deviation 5.066e-05 (tol 0.0001); "
          f"instances 7.129e-07, 5.066e-05, {third}, 3.734e-07"
    for seed, third in ((1, "2.145e-06"), (13, "2.473e-08"), (42, "8.506e-06"))
}


@pytest.mark.parametrize(
    "suite, seed, line",
    [("binary-oracle", seed, line) for seed, line in sorted(BINARY_ORACLE_LINES.items())]
    + [("gaussian-oracle", seed, line) for seed, line in sorted(GAUSSIAN_ORACLE_LINES.items())],
)
def test_validate_oracle_printed_line_is_unchanged(capsys, suite, seed, line):
    assert main(["validate", "--suite", suite, "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == line + "\n"


def whole_grid_wz_distortion(beta, rate):
    """The brute force as one 800 x 800 grid: the blocked oracle must equal it."""
    qs = np.linspace(0.0, 1.0, 800)
    alphas = np.linspace(0.0, beta, 800)
    r = wz_rate_kernel(alphas, beta)
    feas = np.outer(qs, r) <= rate
    d = qs[:, None] * alphas[None, :] + (1.0 - qs[:, None]) * beta
    return float(d[feas].min())


@pytest.mark.parametrize("seed", sorted(BINARY_ORACLE_LINES))
def test_blocked_brute_force_equals_whole_grid(seed):
    rng = np.random.default_rng(seed)  # the suite's draws
    for _ in range(5):
        beta = float(rng.uniform(0.05, 0.5))
        rate = float(rng.uniform(0.0, 1.0))
        assert _brute_wz_distortion(beta, rate) == whole_grid_wz_distortion(beta, rate)
    # rate 0 leaves only the q = 0 row; a rate above every r(alpha) admits the
    # whole grid, so the minimum is the q = 1, alpha = 0 corner
    assert _brute_wz_distortion(0.3, 0.0) == whole_grid_wz_distortion(0.3, 0.0) == 0.3
    assert _brute_wz_distortion(0.3, 2.0) == whole_grid_wz_distortion(0.3, 2.0) == 0.0


@pytest.mark.parametrize("seed", sorted(DMC_LINES))
def test_validate_dmc_printed_line_is_unchanged(capsys, seed):
    assert main(["validate", "--suite", "dmc-consistency", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == DMC_LINES[seed] + "\n"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed", sorted(MC_LINES))
def test_validate_mc_uncoded_printed_line_is_unchanged(monkeypatch, capsys, seed, threads):
    monkeypatch.setenv("WZBC_THREADS", threads)
    assert main(["validate", "--suite", "mc-uncoded", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == MC_LINES[seed] + "\n"


@pytest.mark.parametrize(
    "suite, item, message",
    [
        ("dmc-consistency", "max-deviation=0", "no tolerance 'max-deviation'"),
        ("mc-uncoded", "max-dev=1", "no tolerance 'max-dev'; its tolerance is n-stderr"),
        ("gaussian-oracle", "n-stderr=4", "no tolerance 'n-stderr'"),
        ("dmc-consistency", "max-dev=nan", "finite number >= 0"),
        ("dmc-consistency", "max-dev=inf", "finite number >= 0"),
        ("dmc-consistency", "max-dev=-1e-3", "finite number >= 0"),
        ("mc-uncoded", "n-stderr=-4", "finite number >= 0"),
        ("mc-uncoded", "n-stderr=NaN", "finite number >= 0"),
        ("dmc-consistency", "max-dev=abc", "finite number >= 0"),
        ("dmc-consistency", "max-dev", "NAME=VALUE"),
    ],
)
def test_validate_bad_tolerance_is_usage_error(capsys, suite, item, message):
    assert main(["validate", "--suite", suite, "--tolerance", item]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before the suite runs
    assert message in captured.err


def test_validate_zero_tolerance_is_accepted():
    assert main(["validate", "--suite", "dmc-consistency", "--tolerance", "max-dev=0"]) == 1


def test_csv_rows_print_float_of_every_value(tmp_path):
    # np.float64, Fraction, int and 0-d array values print as format(float(x), ".17g")
    rows = [(np.float64(1 / 3), Fraction(2, 3)), (1, np.array(0.1)), (0.0, 1e-300)]
    path = tmp_path / "x.csv"
    _write_csv(path, "lds", "m", rows)
    expected = "# scheme=lds, params=m\n# columns=D1,D2\n" + "".join(
        f"{format(float(a), '.17g')},{format(float(b), '.17g')}\n" for a, b in rows
    )
    assert path.read_text(encoding="utf-8") == expected
