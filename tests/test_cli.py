import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from wzbc import binary as bn
from wzbc import gaussian as gs
from wzbc.cli import _write_csv, main
from wzbc.core import BoundsViolation, GaussianProblem, TradeoffCurve, load_problem
from wzbc.gaussian import (
    choose_refinement_receiver,
    gaussian_cds,
    gaussian_lds_closed_form,
    gaussian_lds_dc_range,
    gaussian_lds_distortions,
    gaussian_scheme3_rates,
)

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


@pytest.mark.parametrize("resolution", [0, 2, -5])
@pytest.mark.parametrize("kind", ["gaussian", "binary"])
def test_compare_rejects_a_resolution_below_three(tmp_path, capsys, kind, resolution):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(GAUSSIAN if kind == "gaussian" else BINARY))
    out = tmp_path / "o"
    code = main(["compare", "--problem", str(path), "--schemes", "converse,cds,lds,separate",
                 "--resolution", str(resolution), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --resolution must be at least 3, got {resolution}\n"
    assert not out.exists()


# binary problems of the pinned compare bytes: the README fixture (the good
# receiver has the worse side information) and two fixed problems, one per
# separate-coding side-information order
PINNED_BINARY_PROBLEMS = {
    "fixture": BINARY,
    "good-first": {"kind": "binary", "p": [0.1, 0.03], "beta": [0.3, 0.12], "kappa": "1"},
    "bad-first": {"kind": "binary", "p": [0.12, 0.04], "beta": [0.05, 0.35], "kappa": "1"},
}
# sha256 of converse.csv, cds.csv, lds.csv and separate.csv
PINNED_BINARY_SHA256 = {
    ("fixture", "1", 15): (
        "433b4fdc8c41b07852b72cf80c57c2adaa24a19aa56aef4dff1ada4349886f16",
        "ff7561526cda89a4748889716e0ff877f338e910e981d2a52897d92c9250a0ab",
        "ea1a0c5db036e9abf03a918b799f78b9c126f054f17fbd6abb57085042ecac73",
        "6fc9f1002fbf2abcd4277ae011fa101ca45acd8849a71e12f5f5be81294a4190",
    ),
    ("fixture", "1", 27): (
        "f937608e6357fb86de7ffd511b41860427aa3aeffa1f29158fdec34cf2aa3f04",
        "4ff592b97c9dca2e0a7567c6bef5f661327dd9c2b75a988bce038bc48c1fa592",
        "1f74e6c8a4a01d72e87346716b4cfa290f24902b721f79b65dfcfbf84f6f823b",
        "17d9e5e668cc4150eaafd7638ba007ef4e0e22d9f1f1b70d5b71b6178bc423ce",
    ),
    ("fixture", "1/2", 15): (
        "9a8614d96825dba776c354b0dbf2cfc97a9be07ca8f500116f74c52ecd69253b",
        "35fd288ef0d7c1ee4478d642ccd9a045c38d7b5faf47336c9568bb52d9824590",
        "1dc288d02b8a54af22eaa5c7c4e850c05d618f11463e11806ab4ce33c2cbdc39",
        "b059413375116e5f1b8a8d35e28e5d3fdc97a0dddd8944ca2273f9eac02ed4b9",
    ),
    ("fixture", "1/2", 27): (
        "64f8afa401a98f2d85429690bb577abae448d2727994f3f6c4fce63c23406d67",
        "3cc1413b26534224a790a4e102b121ca0d6b10f888fe05ea945770ee49e4d199",
        "37bcdbd3563ab8268244d8e1cc80297afa3606ba5e194743acbc6572a4cbcf79",
        "ef65b7a10124b50cb511a4e7982f8a8dbb4478c15b1ad6de78370978f0274271",
    ),
    ("good-first", "1", 15): (
        "32a7f35ea8854b6e2365c13203011ee3c979ee81be2e2d5435d776f7e9a41f2a",
        "845693491af402abfb492ffc48814bb9ec37a58d3c4b968e7f31aa378fa07dce",
        "3e633c9c964cf7718d49164ba524aac5632efa0d3e984f64d3d93d6cfa80ad7a",
        "649fdd9f7f658cae3627831f9a5f29c9cecfa0dc30b0461b5dc437d895b5751b",
    ),
    ("good-first", "1", 27): (
        "67c57dd0ffd6372ebd12507f68f9879a8d6c0267f28c7c39df8a20d8d22137fd",
        "21b5c3520b5c671ff27c0c87441ad05a8665f1f6b771cd59de289914bc1b8d49",
        "1fff65d3c4a9f2da75d618ab5bc47d31211945ad03de0f4620adcb4d5b8fd072",
        "fa2ac9c95176824145872c6b19d4f5639f08ae4505a11f93512dd78313985632",
    ),
    ("good-first", "1/2", 15): (
        "860c0e2ff1dff248d436e0f08a0a002e8b21060a7ed6bf60fe6b0f24a3df273e",
        "54d24e6000b9a8deb806eff4e2b96fb753733ef116411ca06535e8ff7592137d",
        "84e388ec82f585221701a34bdb608b0c5d5192bc50b0e9ed65e0a4ac694b39d1",
        "db9e1fb110b90467cb848ccd387d510eeccf50737503cffeb18b1c2de47fc7fd",
    ),
    ("good-first", "1/2", 27): (
        "3d93124d5d96f94436aabe5086269f90967fb1b6e2b0697847552be9b7619953",
        "2b4d0f3579c9ae493c29d371fa6807242903240bd88084d0cb8568462ddfbf2a",
        "ed3f17421d151f576056b4bb0c7239d491c16355248a94581cc73e3694688a72",
        "7a073d16709535cb1cc4cb4254ec56c8c8873febfee680418c71f111625bb4c8",
    ),
    ("bad-first", "1", 15): (
        "7e416dab089d6b029f7725b919eb1a58415faab33d13f67785c6d2b5ac610853",
        "50774c0049365ceec60f510642243c2d6693def0516b6d8666edf2857e89886a",
        "c7c4f2517c376e368cd9ae07851f044d363bd11e7c75747db7136c3ee2c669ef",
        "8adfcc97e72ca2fac8c057d7af33e0c163e40f42f22840831bb13834633ee531",
    ),
    ("bad-first", "1", 27): (
        "d6fe86bf27b75ab1c38f9f310f7b5c850e1b34136fa729c45c0c0cfc0e93a0f4",
        "d638bc04a3f9c6aac733b211b526d2467bc0b683c3dd502fc8daee237c04bf44",
        "e702c3408415ea536e03a8b0707f4c27d32e12bcf5d0f8154b1f7d1b48f11fee",
        "e094269217cc0b841839617028f9d2ceab8d2972fabf80d34879a4c73ec788f9",
    ),
    ("bad-first", "1/2", 15): (
        "3832b2d019ebd3a7ae816dfa7389543ef20fe79aa132e530a7a2649205362306",
        "81cc5be98caa6ab6ae140c5b4a5162261582f839d8782a531fa19056313c833f",
        "21d4fc6d61096222554a8b29e134c8769a7156b2affb3ac6ae7c83e7849fa919",
        "c8c861405416e05229d000595e0490c197a4b6a99e17d9343d4badb1ae9cea55",
    ),
    ("bad-first", "1/2", 27): (
        "c1d0bddd02a04c5aa0f73b803c8e9a026a8cf8ae837986402ae01dd0719215f7",
        "8b5c6479b91e7d660014c89d2bd9e36155344a30317ad265f880dca70a930432",
        "7f420ddd6c14d4119795e63227475c7f652f8d4d023a6f108e5575143b61f580",
        "6d45760b2b170c7729ea74f426c535537d2e253acfeb06549d4cdc51398b16c8",
    ),
}


@pytest.mark.parametrize("name, kappa, resolution", list(PINNED_BINARY_SHA256))
def test_compare_binary_csv_bytes_are_pinned(tmp_path, name, kappa, resolution):
    """compare's binary CSVs keep their bytes, so a refactor of the binary
    sweeps can be checked byte for byte.

    The digests were taken with numpy's default SIMD dispatch on an x86-64
    CPU; the binary kernels call numpy's vectorized log2, whose last bit can
    depend on the dispatch path a CPU takes (ROADMAP item 5), so on another
    path these pins can fail while the curves agree to rounding.
    """
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(PINNED_BINARY_PROBLEMS[name]))
    out = tmp_path / "o"
    assert main(["compare", "--problem", str(path), "--schemes", "converse,cds,lds,separate",
                 "--resolution", str(resolution), "--kappa-override", kappa,
                 "--out", str(out)]) == 0
    got = tuple(
        hashlib.sha256((out / f"{scheme}.csv").read_bytes()).hexdigest()
        for scheme in ("converse", "cds", "lds", "separate")
    )
    assert got == PINNED_BINARY_SHA256[name, kappa, resolution]


# Gaussian problems of the pinned compare bytes, all at kappa = 1: the README
# fixture (separate coding's good receiver has the better side information),
# one with W_c <= W_r, and one whose good receiver has the worse side
# information, so that separate coding takes the max of its two constraints
PINNED_GAUSSIAN_PROBLEMS = {
    "fixture": GAUSSIAN,
    "wc-below-wr": {"kind": "gaussian", "P": 1.5, "W": [0.6, 1.2], "N": [0.95, 0.35],
                    "kappa": "1"},
    "ng-above-nb": {"kind": "gaussian", "P": 1.0, "W": [2.0, 0.5], "N": [0.3, 0.9],
                    "kappa": "1"},
}
PINNED_GAUSSIAN_SCHEMES = ("converse", "uncoded", "cds", "lds", "separate", "scheme3")
# sha256 of each scheme's CSV, keyed by (problem, resolution, --extend-flat)
PINNED_GAUSSIAN_SHA256 = {
    ("fixture", 41, False): (
        "27c4cbdaf81b5ec298f08e5a3ec60324bd4a0a8892c19384bd44d7dace14e047",
        "71ced45fe4adb709e8b33142b6686a3a518c06ca8bd846cf3d41ca3af8fe1ac9",
        "af9b851f59fcbe79c9bb66f20cac4153c2beb606bbc12e103182d8fd48b9373d",
        "dfeaf233e7e169cc1802ad1160e730fd1bab573d734edda04e42619bc3457600",
        "7c1931b549cd33d422f27dd43ebe797727e4a10f76d20c1d84fa019e48292b89",
        "6c157af51edcfa0503386ce64156f18a191a5c3ec681c4811e27499c92c1951c",
    ),
    ("wc-below-wr", 41, False): (
        "9e1f5aec546f622ef6999fee6968afc28007c0f37195edc7ef6dd95eb4538a4d",
        "9ece07cc345efdb805a49f6f9cba4f99f211aebb2cb74fb17da923b524527cb2",
        "35f6aad737e1aff0ca05210142ec27f4aee8a528911acb0c81fefdfed7500bbd",
        "6673865a38d84e48598832246ad8d8a87dd1817daa4f090cbd3cb79d36e0ab8e",
        "791a9bd6a9afe0a05a364af479662c4ca73d6400f2d8b71f04b727175f832d4c",
        "b5051aa2f7f2feeb14046ec3d5f2beb645d5e25e26fcb528794c0c9b79f7f05e",
    ),
    ("ng-above-nb", 41, False): (
        "49a03789b7695769968bf3a9629ad271bd964298cd01d2d5291bf22a3509a752",
        "4f4d79cfc4ebfc8579da4e6fce46ecc4728cb1c29ac0c586dba32de6f85d4607",
        "38f2da422fb66340b020cba84c23b5d615c70ba4f843ac95c2f83e6b006df9fd",
        "394db3d9f147a084467cacb9b7a06f6450c8f87fd4df9196a406c50b169f9f96",
        "b90531fa92b06bdd2d2b6ac93978b6e8fe54846a059703cc0dbc9f5c472b4741",
        "42f88841fa3a1c55e7c3d758b5d3b03610df7ea489f62985a773f8e0b8c487e5",
    ),
    ("fixture", 401, False): (
        "6f8eaffb5fc8442d97f6d6f7de2a352cd86ed97015d92b24acafc4ef25122a4a",
        "7f74017c7132eff3f92440d45dffaa89d3cf52fbeeedcc8fff3f8174364044e8",
        "4cdb52c62e338ddd77d1228fec81cbb2a07f1474dbb5b8a3743ae77ce647da90",
        "70b567263e04909b05c31770140a3d1c467eb09c6ce57c4fc373fe231346c674",
        "89a39454d45233a3f9c577569645bd87836659767125db5b711903940a78b7f1",
        "57889a405e0dbb9f3f6a52249759d5bc38f727c7692112c4c078b2582d805c09",
    ),
    ("wc-below-wr", 401, False): (
        "f9e276ad78cbfe9c6d0f35ea96119dadf83d73cdfc22b69cacad3573e3db511b",
        "46e986f839ae17512f0801e0f35c7bb9af15771782c384203f57533466711d75",
        "4f484634dd02f654fcd34e0bc30b74a81f36af06788fc4dbd0936fdec04f5861",
        "974ed34f7a3465ca7c5d4eff657f305f016cdf55d26c5097ccb54d12b89089f0",
        "9dffd39aa301e6fc9677c6f931bb7c7a38e0ffbd5d4832257f61eaf0ed879dea",
        "3bbad0626325277f25082f4e422600a46bcbe99ad66ccb93aad640b0f18d4580",
    ),
    ("ng-above-nb", 401, False): (
        "7a50b09915241037f5b29ecebb34366ea1b002a3b99a5838ad3e1e2edb2a3a0e",
        "cd650eb02fe740949f099cec0810535d13efe357c725809fc7a8ad162263c7a7",
        "616274cb0dfe3a3bd60be22abf1e7cb0136625fbfc65a4b2d3b25fd3bb006f47",
        "61958a1db75d400fae755395a9d801b8e11cd3b782425be736ab0927a927e356",
        "e983535ff6b1a54efbdb194aa37269d3008348d4471ad2d84269d57639d61ca6",
        "a5a403c235f1da171246dc8d01f6e4187538e794c35cec25b53cc88782614992",
    ),
    ("wc-below-wr", 41, True): (
        "9e1f5aec546f622ef6999fee6968afc28007c0f37195edc7ef6dd95eb4538a4d",
        "9ece07cc345efdb805a49f6f9cba4f99f211aebb2cb74fb17da923b524527cb2",
        "35f6aad737e1aff0ca05210142ec27f4aee8a528911acb0c81fefdfed7500bbd",
        "16bcda5c1b1985e63692af05af374c17c87f870caff0f039d18ef2c5817d9794",
        "791a9bd6a9afe0a05a364af479662c4ca73d6400f2d8b71f04b727175f832d4c",
        "b5051aa2f7f2feeb14046ec3d5f2beb645d5e25e26fcb528794c0c9b79f7f05e",
    ),
}


@pytest.mark.parametrize("name, resolution, extend_flat", list(PINNED_GAUSSIAN_SHA256))
def test_compare_gaussian_csv_bytes_are_pinned(tmp_path, name, resolution, extend_flat):
    """compare's kappa = 1 Gaussian CSVs keep their bytes, so a refactor of
    gaussian.py can be checked byte for byte.

    The digests were the same with numpy's dispatch cut to its baseline
    (NPY_DISABLE_CPU_FEATURES) and with glibc's FMA code paths off.  Curves
    at other kappa call numpy's vectorized transcendentals, whose last bit
    can depend on the dispatch path (ROADMAP item 5), so they are not pinned.
    """
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(PINNED_GAUSSIAN_PROBLEMS[name]))
    out = tmp_path / "o"
    argv = ["compare", "--problem", str(path), "--schemes", ",".join(PINNED_GAUSSIAN_SCHEMES),
            "--resolution", str(resolution), "--out", str(out)]
    assert main(argv + ["--extend-flat"] * extend_flat) == 0
    got = tuple(
        hashlib.sha256((out / f"{scheme}.csv").read_bytes()).hexdigest()
        for scheme in PINNED_GAUSSIAN_SCHEMES
    )
    assert got == PINNED_GAUSSIAN_SHA256[name, resolution, extend_flat]


def test_compare_kappa_mismatch_skips_scheme_but_continues(tmp_path, gaussian_file, capsys):
    out = tmp_path / "out"
    code = main(["compare", "--problem", gaussian_file, "--kappa-override", "2",
                 "--schemes", "uncoded,cds", "--resolution", "11", "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "uncoded" in err and "bandwidth match" in err
    assert not (out / "uncoded.csv").exists()
    assert (out / "cds.csv").exists()


GAUSSIAN_SCHEMES = ("converse", "uncoded", "cds", "lds", "separate", "scheme3")


# ill-conditioned problems: {scheme: text of its skip line}, in scheme order,
# and whether a numpy RuntimeWarning is expected on the way
@pytest.mark.parametrize(
    "data, skipped, warns",
    [
        pytest.param(
            {"P": 0.001, "W": [1e-6, 1e8], "N": [0.5, 1e-6], "kappa": "1"},
            {"lds": "D1 = 0.502631373808608 lies outside [0, 0.5]",
             "scheme3": "D1 = 0.5000010452010196 lies outside [0, 0.5]"},
            False,
            id="rows-above-N1",
        ),
        pytest.param(
            {"P": 0.001, "W": [1e8, 1e-8], "N": [1e-8, 0.5], "kappa": "1"},
            {"lds": "D2 = inf lies outside [0, 0.5]"},
            True,
            id="infinite-row",
        ),
        pytest.param(
            {"P": 0.5, "W": [0.5, 1e-300], "N": [1e-300, 1e-8], "kappa": "2"},
            {"converse": "", "uncoded": "bandwidth match", "cds": "", "lds": "", "scheme3": ""},
            False,
            id="overflow",
        ),
    ],
)
def test_compare_skips_a_scheme_whose_rows_leave_the_bounds_or_overflow(
    tmp_path, capsys, data, skipped, warns
):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(dict(data, kind="gaussian")))
    out = tmp_path / "out"
    argv = ["compare", "--problem", str(path), "--schemes", ",".join(GAUSSIAN_SCHEMES),
            "--resolution", "41", "--out", str(out)]
    if warns:
        with pytest.warns(RuntimeWarning):
            code = main(argv)
    else:
        code = main(argv)
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(skipped)
    for line, (scheme, text) in zip(err, skipped.items()):
        assert line.startswith(f"scheme {scheme} skipped: ") and text in line
    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == sorted(f"{s}.csv" for s in GAUSSIAN_SCHEMES if s not in skipped)
    caps = data["N"]
    for name in written:
        for row in read_rows(out / name):
            assert all(0.0 <= d <= cap + 1e-12 for d, cap in zip(row, caps)), (name, row)
        rows = (out / name).read_text(encoding="utf-8").splitlines()[2:]
        assert not [row for row in rows if row.startswith("-") or ",-" in row], name


# entries whose rows are lower convex envelope vertices
ENVELOPE_SCHEMES = {"gaussian": {"lds"}, "binary": {"cds", "lds", "separate"}}


@pytest.mark.parametrize("kappa", ["1", "1/2"])
@pytest.mark.parametrize("kind, table", [("gaussian", gs.SCHEMES), ("binary", bn.SCHEMES)])
def test_compare_writes_every_scheme_table_entry_bit_for_bit(tmp_path, kind, table, kappa):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(GAUSSIAN if kind == "gaussian" else BINARY, kappa=kappa)))
    out = tmp_path / "out"
    assert main(["compare", "--problem", str(path), "--schemes", ",".join(table),
                 "--resolution", "15", "--out", str(out)]) == 0
    problem = load_problem(path)
    for name, entry in table.items():
        if name == "uncoded" and kappa != "1":
            with pytest.raises(ValueError, match="bandwidth match"):
                entry(problem, 15, False)
            assert not (out / "uncoded.csv").exists()
            continue
        curve = entry(problem, 15, False)
        assert curve.scheme == name
        written = [[x.hex() for x in row] for row in read_rows(out / f"{name}.csv")]
        assert written == [[x.hex() for x in row] for row in curve.D.tolist()], name
        if name in ENVELOPE_SCHEMES[kind]:
            assert np.all(np.diff(curve.d1()) > 0) and np.all(np.diff(curve.d2()) < 0), name


def test_compare_exits_2_when_every_scheme_is_skipped(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"kind": "gaussian", "P": 0.5, "W": [0.5, 1e-300], "N": [1e-300, 1e-8], "kappa": "2"}
    ))
    out = tmp_path / "out"
    code = main(["compare", "--problem", str(path), "--schemes", "cds,lds", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        "scheme converse skipped", "scheme cds skipped", "scheme lds skipped", "error"
    ]
    assert err[-1] == "error: no scheme produced output"
    assert list(out.glob("*.csv")) == []


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


@pytest.mark.parametrize("t", ["bogus", "UC", ""])
def test_point_binary_lds_rejects_an_unknown_t(binary_file, capsys, t):
    code = main(["point", "--problem", binary_file, "--scheme", "lds",
                 "--param", "q_c=0.5", "--param", "q_r=0.5",
                 "--param", "alpha_c=0.05", "--param", "alpha_r=0.05",
                 "--param", "gamma_r=0.0", "--param", f"t={t}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: binary lds point requires t=uc or t=xor, got t={t!r}\n"


BINARY_LDS_PARAMS = ["q_c=0.2", "q_r=0.2", "alpha_c=0.1", "alpha_r=0.1", "gamma_r=0"]


def run_point(path, scheme, params):
    argv = ["point", "--problem", path, "--scheme", scheme]
    for item in params:
        argv += ["--param", item]
    return main(argv)


@pytest.mark.parametrize(
    "kind, scheme, params, message",
    [
        ("gaussian", "lds", ["nu=0.5", "gama=0.3"],
         "gaussian lds point has no parameter 'gama'; it takes nu, gamma"),
        ("gaussian", "lds", ["nu=0.5", "t=uc"],
         "gaussian lds point has no parameter 't'; it takes nu, gamma"),
        ("gaussian", "cds", ["nu=0.5"],
         "gaussian cds point has no parameter 'nu'; it takes no parameters"),
        ("gaussian", "uncoded", ["gamma=0"],
         "gaussian uncoded point has no parameter 'gamma'; it takes no parameters"),
        ("binary", "uncoded", ["q_c=0.2"],
         "binary uncoded point has no parameter 'q_c'; it takes no parameters"),
        ("binary", "lds", BINARY_LDS_PARAMS + ["nu=0.5"],
         "binary lds point has no parameter 'nu'; it takes q_c, q_r, alpha_c, alpha_r, "
         "gamma_r, t, gamma_c"),
        ("gaussian", "lds", ["nu=0.5", "nu=0.6"], "parameter 'nu' given twice"),
        ("binary", "lds", BINARY_LDS_PARAMS + ["t=xor", "t=xor"], "parameter 't' given twice"),
    ],
)
def test_point_rejects_a_name_its_scheme_does_not_read_or_a_repeat(
    gaussian_file, binary_file, capsys, kind, scheme, params, message
):
    path = gaussian_file if kind == "gaussian" else binary_file
    assert run_point(path, scheme, params) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


OVERFLOWING = {"kind": "gaussian", "P": 0.5, "W": [0.5, 1e-300], "N": [1e-300, 1e-8],
               "kappa": "2"}


def out_of_bounds(problem):
    raise BoundsViolation("D1 = 2.0 outside [0, 0.8]")


@pytest.mark.parametrize(
    "scheme, params, fault",
    [("cds", [], None), ("lds", ["nu=0.5"], None), ("uncoded", [], out_of_bounds)],
    ids=["cds-overflow", "lds-overflow", "uncoded-out-of-bounds"],
)
def test_point_overflow_or_bounds_violation_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                              scheme, params, fault):
    # (1 + P/W)^2 overflows at W = 1e-300; a point out of the bounds ends the same way
    path = tmp_path / "p.json"
    if fault is None:
        path.write_text(json.dumps(OVERFLOWING))
    else:
        path.write_text(json.dumps(GAUSSIAN))
        monkeypatch.setattr(gs, "gaussian_uncoded", fault)
    assert run_point(str(path), scheme, params) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: gaussian {scheme} point failed: ")
    assert captured.err.count("\n") == 1


def test_import_of_the_cli_loads_only_the_stdlib_and_numpy():
    # modules that site loads before the import (such as _distutils_hack) do not count
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; before = set(sys.modules); import wzbc.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"numpy", "wzbc"} <= loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "wzbc"}


@pytest.mark.parametrize("t", [["t=uc"], []], ids=["t=uc", "t-default"])
def test_point_binary_lds_takes_gamma_c_only_with_xor(binary_file, capsys, t):
    # the T = U_c rates fix gamma_c at 1/2, so a gamma_c there would be echoed unread
    assert run_point(binary_file, "lds", BINARY_LDS_PARAMS + t + ["gamma_c=0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: binary lds point takes gamma_c only with t=xor\n"
    assert run_point(binary_file, "lds", BINARY_LDS_PARAMS + ["t=xor", "gamma_c=0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["D1"], payload["D2"]) == pytest.approx((0.18, 0.1), abs=1e-15)
    assert payload["params"]["gamma_c"] == 0.1


def test_validate_unknown_suite():
    assert main(["validate", "--suite", "nonsense"]) == 2


def test_validate_dmc_suite_runs():
    assert main(["validate", "--suite", "dmc-consistency", "--seed", "42"]) == 0


def test_validate_tolerance_override_can_fail():
    assert main(["validate", "--suite", "dmc-consistency", "--seed", "42",
                 "--tolerance", "max-dev=1e-30"]) == 1


def test_validate_gaussian_oracle_includes_the_exact_curve_at_kappa_half(monkeypatch, capsys):
    # the fourth instance checks gaussian_lds_curve on the fixture at kappa =
    # 1/2: once per block of its 400x400 sweep, then at the 50 witness samples
    curve = gs.gaussian_lds_curve
    seen = []

    def spy(problem, assign, samples):
        seen.append((problem.kappa, len(samples)))
        return curve(problem, assign, samples)

    monkeypatch.setattr(gs, "gaussian_lds_curve", spy)
    assert main(["validate", "--suite", "gaussian-oracle", "--seed", "42"]) == 0
    problem = GaussianProblem(1.0, (1.0, 0.5), (0.8, 0.4), Fraction(1, 2))
    cells = gs.lds_parametric_cloud(problem, gs.choose_refinement_receiver(problem))["d_c"].size
    assert {kappa for kappa, _ in seen} == {Fraction(1, 2)}
    assert len(seen) == 11 and sum(n for _, n in seen[:-1]) == cells and seen[-1][1] == 50
    assert capsys.readouterr().out == GAUSSIAN_ORACLE_LINES[42] + "\n"
    monkeypatch.setattr(gs, "gaussian_lds_curve", lambda p, a, d: curve(p, a, d) + 1e-4)
    assert main(["validate", "--suite", "gaussian-oracle", "--seed", "42"]) == 1


# (suite, patched module, patched name): each faulted curve or value must
# fail the suite that checks it
ORACLE_FAULTS = [
    ("gaussian-oracle", gs, "gaussian_lds_curve"),
    ("gaussian-oracle", gs, "gaussian_lds_closed_form"),
    ("binary-oracle", bn, "binary_wz_distortion"),
]


@pytest.mark.parametrize("scale", [1 + 1e-9, 1 - 1e-9], ids=["up", "down"])
@pytest.mark.parametrize("suite, module, name", ORACLE_FAULTS, ids=[f[2] for f in ORACLE_FAULTS])
def test_validate_oracle_fails_a_relative_fault_of_1e_9(monkeypatch, capsys, suite, module,
                                                        name, scale):
    exact = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: exact(*args, **kw) * scale)
    assert main(["validate", "--suite", suite, "--seed", "42"]) == 1
    assert capsys.readouterr().out.startswith(f"[FAIL] {suite}: max deviation ")


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


@pytest.mark.parametrize(
    "data, scheme",
    [
        ({"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5, 0.2], "N": [0.8, 0.4, 0.3],
          "kappa": "1"}, "uncoded"),
        ({"kind": "gaussian", "P": 1.0, "W": [1.0, 0.5, 0.2], "N": [0.8, 0.4, 0.3],
          "kappa": "1"}, "cds"),
        ({"kind": "binary", "p": [0.05, 0.1, 0.2], "beta": [0.2, 0.1, 0.3]}, "uncoded"),
    ],
    ids=["gaussian-uncoded", "gaussian-cds", "binary-uncoded"],
)
def test_point_rejects_three_receivers(tmp_path, capsys, data, scheme):
    # a point for receivers 1 and 2 alone would silently drop receiver 3
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(data))
    assert run_point(str(path), scheme, []) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need exactly 2 receivers (")
    assert captured.err.count("\n") == 1


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


# printed lines of the scalar-loop engine, which the batched engine must
# reproduce, and of the flips-only binary Monte Carlo batch
DMC_LINES = {
    1: "[PASS] dmc-consistency: max deviation 1.110e-15 (tol 1e-09)",
    13: "[PASS] dmc-consistency: max deviation 8.882e-16 (tol 1e-09)",
    42: "[PASS] dmc-consistency: max deviation 1.110e-15 (tol 1e-09)",
}
MC_LINES = {
    13: "[PASS] mc-uncoded: gaussian (0.44355, 0.22202) vs (0.44444, 0.22222), "
        "binary (0.04989, 0.10023) (threshold 4 stderr)",
    42: "[PASS] mc-uncoded: gaussian (0.445, 0.2218) vs (0.44444, 0.22222), "
        "binary (0.04982, 0.0997) (threshold 4 stderr)",
}

BINARY_ORACLE_LINES = {
    1: "[PASS] binary-oracle: max deviation 2.776e-17 (tol 1e-12); sub-grid equality True",
    13: "[PASS] binary-oracle: max deviation 7.698e-18 (tol 1e-12); sub-grid equality True",
    42: "[PASS] binary-oracle: max deviation 2.082e-17 (tol 1e-12); sub-grid equality True",
}
# the third instance is drawn from the seed
GAUSSIAN_ORACLE_LINES = {
    seed: f"[PASS] gaussian-oracle: max deviation {worst} (tol 1e-12); "
          f"instances 4.163e-16, 3.701e-16, {third}, 2.776e-16"
    for seed, worst, third in ((1, "8.750e-16", "8.750e-16"), (13, "4.163e-16", "3.311e-16"),
                               (42, "9.155e-16", "9.155e-16"))
}


@pytest.mark.parametrize(
    "suite, seed, line",
    [("binary-oracle", seed, line) for seed, line in sorted(BINARY_ORACLE_LINES.items())]
    + [("gaussian-oracle", seed, line) for seed, line in sorted(GAUSSIAN_ORACLE_LINES.items())],
)
def test_validate_oracle_printed_line_is_unchanged(capsys, suite, seed, line):
    assert main(["validate", "--suite", suite, "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == line + "\n"


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
    _write_csv(path, "lds", "m", TradeoffCurve(rows, "lds").D)
    expected = "# scheme=lds, params=m\n# columns=D1,D2\n" + "".join(
        f"{format(float(a), '.17g')},{format(float(b), '.17g')}\n" for a, b in rows
    )
    assert path.read_text(encoding="utf-8") == expected
