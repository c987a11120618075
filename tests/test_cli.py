import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracgi
from fracgi import cli, theory
from fracgi.cli import main
from fracgi.reports import read_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def workers_seen(monkeypatch):
    """The worker count of every pass the CLI runs, in order."""
    seen = []
    real_pass = cli.moments.multi_order_pass

    def spy(*args, **kwargs):
        seen.append(kwargs["workers"])
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(cli.moments, "multi_order_pass", spy)
    return seen


# -- predict -----------------------------------------------------------------


def test_predict_recurrence_values(capsys):
    code, out, _ = run(capsys, "predict", "--m", "20", "--mu", "1", "--nu", "1", "--n", "120000")
    assert code == 0
    payload = json.loads(out)
    assert payload["visibility"] == pytest.approx(1 / 41, rel=1e-12)
    assert payload["peak_snr"] == pytest.approx(14.49681407115578, rel=1e-12)
    assert payload["moment_finite"] and payload["variance_finite"]


def test_predict_negative_mu(capsys):
    code, out, _ = run(capsys, "predict", "--m", "20", "--mu", "-1", "--nu", "1")
    assert code == 0
    assert json.loads(out)["visibility"] == pytest.approx(1 / 39, rel=1e-12)


def test_predict_domain_violation_exit_3(capsys):
    code, _, err = run(capsys, "predict", "--m", "2", "--mu", "-2.2", "--nu", "0.1")
    assert code == 3
    assert "m+mu+nu" in err


@pytest.mark.parametrize("flag,value,reason", [
    ("--n", "-5", "n_samples >= 1 required"),
    ("--i0", "0", "i0 must be positive and finite"),
    ("--i0", "-1", "i0 must be positive and finite"),
    ("--i0", "inf", "i0 must be positive and finite"),
])
def test_predict_bad_sampling_count_or_intensity_exit_3(capsys, flag, value, reason):
    code, out, err = run(capsys, "predict", "--m", "20", "--mu", "1", "--nu", "1", flag, value)
    assert code == 3 and out == ""
    assert err == f"domain error: {reason}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [("--mu", "250", "--nu", "1"),
                                  ("--mu", "1", "--nu", "1", "--i0", "1e300")])
def test_predict_refuses_moments_past_a_double_exit_3(capsys, args):
    code, out, err = run(capsys, "predict", "--m", "20", *args)
    assert code == 3 and out == ""
    assert "moment overflows a double" in err


def test_predict_writes_strict_json(capsys, monkeypatch):
    # a non-finite field is an error, never the non-JSON token Infinity
    real = theory.predict
    monkeypatch.setattr(theory, "predict",
                        lambda *args: dataclasses.replace(real(*args), peak_snr=float("inf")))
    code, out, err = run(capsys, "predict", "--m", "20", "--mu", "1", "--nu", "1")
    assert code == 1 and out == ""
    assert "JSON" in err


# -- simulate ----------------------------------------------------------------


def test_simulate_deterministic_across_workers(tmp_path, capsys):
    args = ["simulate", "--n-samples", "4000", "--orders=-0.618:0.5,0.618:0.5", "--seed", "9"]
    code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"), "--workers", "1")
    code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"), "--workers", "2")
    assert code1 == code2 == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_simulate_bytes_independent_of_workers_and_blas_threads(tmp_path):
    # the six README orders; each run in its own process so that the BLAS
    # thread count is fixed before numpy loads. Letter A runs in 2048-frame
    # batches, the 64x64 mask in 64-frame batches; each run has several shards.
    orders = "-2.7183:0.5,-1.414:0.5,-0.618:0.5,0.618:0.5,1.414:0.5,2.7183:0.5"
    wide = tmp_path / "wide.pgm"
    ones = np.random.default_rng(3).random(64 * 64) < 0.3
    wide.write_bytes(b"P5\n64 64\n255\n" + np.where(ones, 255, 0).astype(np.uint8).tobytes())
    for name, args in (("letter", ["--n-samples", "20000"]),
                       ("wide", ["--n-samples", "10000", "--object", str(wide)])):
        for workers in (1, 2):
            env = dict(os.environ, PYTHONPATH=str(Path(fracgi.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=str(workers))
            proc = subprocess.run(
                [sys.executable, "-m", "fracgi.cli", "simulate", *args,
                 "--seed", "7", f"--orders={orders}", "--workers", str(workers),
                 "--out", str(tmp_path / f"{name}{workers}")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        assert tree_bytes(tmp_path / f"{name}1") == tree_bytes(tmp_path / f"{name}2")


def test_simulate_outputs(tmp_path, capsys):
    code, out, _ = run(
        capsys, "simulate", "--n-samples", "3000", "--orders", "1:1",
        "--seed", "4", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    report = read_report(tmp_path / "run" / "report.json")
    assert report.n_samples == 3000
    assert report.results[0].v_analytic == pytest.approx(1 / 41, rel=1e-12)
    pgms = list((tmp_path / "run").glob("*.pgm"))
    assert len(pgms) == 1
    assert (tmp_path / "run" / (pgms[0].name + ".json")).exists()


def test_simulate_mask_file_with_binarize(tmp_path, capsys):
    mask_path = tmp_path / "obj.csv"
    mask_path.write_text("0,0.75;0.75,0")
    code, _, _ = run(
        capsys, "simulate", "--object", str(mask_path), "--binarize", "0.5",
        "--n-samples", "2000", "--orders", "1:1", "--seed", "1",
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    report = read_report(tmp_path / "r" / "report.json")
    assert report.results[0].v_analytic is not None  # binarized mask has m=2


def test_simulate_grayscale_mask_file(tmp_path, capsys):
    # a grayscale mask has no binary closed form: empirical V only
    mask_path = tmp_path / "blob.csv"
    mask_path.write_text("0,0.25,0.25,0\n0.25,1,1,0.25\n0.25,1,1,0.25\n0,0.5,0.5,0\n")
    code, out, _ = run(
        capsys, "simulate", "--object", str(mask_path), "--n-samples", "5000",
        "--orders=-1.414:0.5,0.618:0.5,2.7183:0.5", "--seed", "3",
        "--out", str(tmp_path / "r"),
    )
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "r").glob("*.pgm")) == [
        "ghost_01_mu-1.414_nu0.5.pgm", "ghost_02_mu0.618_nu0.5.pgm", "ghost_03_mu2.7183_nu0.5.pgm",
    ]
    report = read_report(tmp_path / "r" / "report.json")
    assert [r.mu for r in report.results] == [-1.414, 0.618, 2.7183]
    for result in report.results:
        assert result.v_empirical is not None
        assert result.v_analytic is None and result.rp_analytic is None
    assert out.count("V_analytic=None") == 3


def test_simulate_omits_empirical_snr_of_infinite_variance_orders(tmp_path, capsys):
    # m = 2: mu=-1.5, nu=0.1 has a moment (m+mu+nu > 0) but m+2mu+2nu < 0
    mask_path = tmp_path / "obj.csv"
    mask_path.write_text("1,1\n0,0\n")
    code, out, _ = run(
        capsys, "simulate", "--object", str(mask_path), "--n-samples", "20000",
        "--orders=-1.5:0.1,1:1", "--seed", "1", "--out", str(tmp_path / "r"),
    )
    assert code == 0
    heavy, light = read_report(tmp_path / "r" / "report.json").results
    assert heavy.rp_empirical is None and heavy.rp_analytic is None
    assert heavy.v_empirical is not None
    assert "Rp_emp=None" in out.splitlines()[0]
    assert light.rp_empirical > 0 and light.rp_analytic > 0


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_mu_zero_is_a_domain_error_and_writes_nothing(tmp_path, capsys, command):
    argv = [command, "--n-samples", "100", "--orders", "0:0.5", "--seed", "1"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "domain error: mu = 0 is rejected: the image degenerates to a constant\n"
    assert not (tmp_path / "x").exists()


def test_simulate_nu_too_negative_domain_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "simulate", "--n-samples", "100", "--orders=1:-0.6",
        "--seed", "1", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    assert err == "domain error: nu = -0.6 is rejected: the reference order must be positive\n"


@pytest.mark.parametrize("command, nu", [("simulate", "0"), ("validate", "-0.2")])
def test_nonpositive_nu_is_refused_and_writes_nothing(tmp_path, capsys, command, nu):
    argv = [command, "--n-samples", "2000", f"--orders=1:{nu}", "--seed", "1"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"domain error: nu = {nu} is rejected: the reference order must be positive\n"
    assert not (tmp_path / "x").exists()


def test_simulate_missing_object_usage_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "simulate", "--object", str(tmp_path / "nope.pgm"),
        "--n-samples", "100", "--orders", "1:1", "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "validate"])
@pytest.mark.parametrize("i0", ["0", "-1", "inf", "nan"])
def test_bad_i0_is_a_domain_error_and_writes_nothing(tmp_path, capsys, command, i0):
    argv = [command, "--n-samples", "100", "--orders=1:1", "--seed", "1", "--i0", i0]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "x")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "domain error: i0 must be positive and finite\n"
    assert not (tmp_path / "x").exists()


def test_simulate_bad_seed_writes_nothing(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--n-samples", "100", "--orders=1:1", "--seed=-1",
                         "--out", str(tmp_path / "x"))
    assert code == 3 and out == ""
    assert err == "domain error: seed must be a 64-bit unsigned integer\n"
    assert not (tmp_path / "x").exists()


def test_workers_flag_and_env_validation(tmp_path, capsys):
    args = ["simulate", "--n-samples", "100", "--orders", "1:1", "--seed", "1",
            "--out", str(tmp_path / "x")]
    code, _, err = run(capsys, *args, "--workers", "0")
    assert code == 2 and err == "error: --workers must be positive, got 0\n"
    assert not (tmp_path / "x").exists()
    code, _, _ = run(capsys, *args, "--workers", "1")
    assert code == 0


def test_workers_env_override(tmp_path, capsys, monkeypatch, workers_seen):
    # --workers is the one worker setting: the environment neither changes nor refuses a run
    args = ["simulate", "--n-samples", "2000", "--orders", "1:1", "--seed", "2"]
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    monkeypatch.setenv("FRACGI_WORKERS", "0")
    code2, _, err = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == code2 == 0 and err == ""
    assert workers_seen == [1, 1]
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


# -- sweep ---------------------------------------------------------------------


def test_sweep_single_point(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--m", "20", "--mu", "1:1:1", "--nu", "1:1:1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) == pytest.approx(1 / 41, rel=1e-12)


def test_sweep_excludes_mu_zero(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run(
        capsys, "sweep", "--m", "20", "--mu=-0.2:0.2:0.1", "--nu", "0.5:0.5:1", "--out", str(out)
    )
    assert code == 0
    assert "mu = 0 excluded" in err
    mus = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
    assert 0.0 not in mus
    assert len(mus) == 4


def test_sweep_flags_invalid_domain_rows(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "sweep", "--m", "2", "--mu=-2.2:-2.2:1", "--nu", "0.1:0.1:1", "--out", str(out)
    )
    assert code == 0
    line = out.read_text().splitlines()[1]
    assert ",,," in line or ",," in line
    assert line.endswith("false,false")


def test_sweep_matches_scalar_closed_forms(tmp_path, capsys):
    # every cell of the array sweep against validity_domain and predict,
    # with exact float equality; the grid holds cells where the moment, or
    # only the estimator variance, does not exist
    out = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--m", "2,20", "--mu=-3:3:0.1", "--nu=-1:3:0.1",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 2 * 60 * 41
    seen = set()
    for line in lines:
        m, mu, nu, v, rp, moment_ok, variance_ok = line.split(",")
        m, mu, nu = int(m), float(mu), float(nu)
        flags = theory.validity_domain(m, mu, nu)
        seen.add((flags.moment_finite, flags.variance_finite))
        assert (moment_ok, variance_ok) == (
            str(flags.moment_finite).lower(), str(flags.variance_finite).lower())
        if not flags.moment_finite:
            assert v == rp == ""
            continue
        pred = theory.predict(m, mu, nu, 1)
        assert float(v) == pred.visibility
        if flags.variance_finite:
            assert float(rp) == pred.rp_per_sqrt_n
        else:
            assert rp == ""
    assert seen == {(True, True), (True, False), (False, False)}


def test_sweep_takes_each_log_gamma_once_per_argument(tmp_path, capsys, lgamma_calls):
    # each call evaluates distinct values: per m, the 1800 cells of m+mu+nu
    # hold 157 or 158 of them, and the whole sweep 991
    code, _, _ = run(capsys, "sweep", "--m", "20,30", "--mu=-3:3:0.1", "--nu", "0.1:3:0.1",
                     "--out", str(tmp_path / "s.csv"))
    assert code == 0
    assert all(len(call) == len(set(call)) for call in lgamma_calls)
    assert sum(map(len, lgamma_calls)) <= 1000
    # cells where a moment or its variance does not exist never reach log Gamma
    lgamma_calls.clear()
    code, _, _ = run(capsys, "sweep", "--m", "2,20", "--mu=-3:3:0.1", "--nu=-1:3:0.1",
                     "--out", str(tmp_path / "invalid.csv"))
    assert code == 0
    assert lgamma_calls and min(min(call) for call in lgamma_calls) > 0


def test_sweep_through_nu_zero_warns_nothing(tmp_path, capsys):
    # at nu = 0 the signal and background moments are equal: V and the peak
    # SNR are exactly 0, with no divide-by-zero warning on the way
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "sweep", "--m", "20", "--mu=-3:3:0.1", "--nu=-1:0.1:0.1",
                           "--out", str(out))
    assert code == 0, err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    at_zero = [row for row in rows if float(row[2]) == 0.0]
    assert len(at_zero) == 60
    assert all(float(row[3]) == 0.0 and float(row[4]) == 0.0 for row in at_zero)


def test_sweep_past_moment_overflow_warns_nothing(tmp_path, capsys):
    # the moments overflow a double from mu of about 160 at m = 20, but the
    # CSV holds only V and R_p/sqrt(N), which stay finite
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "sweep", "--m", "20", "--mu=250:300:50", "--nu", "1:1:1",
                           "--out", str(out))
    assert code == 0, err
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["250", "300"]
    assert all(0 < float(row[3]) < 1 and 0 < float(row[4]) < 1e-60 for row in rows)


def test_sweep_malformed_range(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--m", "20", "--mu", "1:2", "--nu", "1:1:1",
                       "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "--mu" in err


@pytest.mark.parametrize("flag, value", [
    ("--mu", "nan:1:0.1"), ("--mu", "-inf:1:0.1"), ("--mu", "0:inf:1"), ("--nu", "0:1:nan"),
])
def test_sweep_refuses_non_finite_range_parts(tmp_path, capsys, flag, value):
    ranges = {"--mu": "1:1:1", "--nu": "1:1:1", flag: value}
    code, out, err = run(capsys, "sweep", "--m", "20", *(f"{k}={v}" for k, v in ranges.items()),
                         "--out", str(tmp_path / "s.csv"))
    assert code == 2 and out == ""
    assert err == f"error: {flag} has non-finite parts: {value!r}\n"
    assert not (tmp_path / "s.csv").exists()


def test_sweep_refuses_ranges_of_more_than_2_20_values(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s.csv"
    # a span past double range, then 2^20 + 1 values; refused before any list is built
    for value in ("-1e308:1e308:1", "1:1048577:1"):
        code, _, err = run(capsys, "sweep", "--m", "20", f"--mu={value}", "--nu", "1:1:1",
                           "--out", str(out))
        assert code == 2
        assert err == f"error: --mu has more than 1048576 values: {value!r}\n"
    assert not out.exists()
    # the cap is inclusive: a range of exactly that many values runs
    monkeypatch.setattr(cli, "_MAX_RANGE_VALUES", 16)
    argv = ["sweep", "--m", "20", "--nu", "1:1:1", "--out", str(out)]
    assert run(capsys, *argv, "--mu=1:17:1")[0] == 2 and not out.exists()
    assert run(capsys, *argv, "--mu=1:16:1")[0] == 0
    assert len(out.read_text().splitlines()) == 1 + 16


# -- validate ------------------------------------------------------------------


def test_validate_passes(capsys):
    code, out, _ = run(capsys, "validate", "--m", "20", "--n-samples", "20000", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 12  # six orders x two classes


def test_validate_null_pairing(capsys):
    code, out, _ = run(
        capsys, "validate", "--m", "5", "--n-samples", "20000", "--seed", "3", "--null-pairing"
    )
    assert code == 0
    assert "FAIL" not in out


def test_validate_null_pairing_skips_infinite_variance_rows(capsys):
    # null pairing decouples bucket and reference, so both classes need
    # m+2mu > 0: at m=5, mu=-2.7183 gives -0.4366 and no 5-SE gate exists
    code, out, _ = run(
        capsys, "validate", "--m", "5", "--n-samples", "20000", "--seed", "3", "--null-pairing"
    )
    assert code == 0
    lines = out.splitlines()
    for label in ("signal", "background"):
        assert f"SKIP mu=-2.7183 nu=0.5 {label}: estimator variance infinite " \
            "(m+2*mu = -0.4366 <= 0)" in lines
    assert out.count("SKIP") == 2 and out.count("PASS") == 10 and "FAIL" not in out
    assert lines[-1] == "no check failed; 2 skipped (infinite estimator variance)"


def test_validate_custom_orders(capsys):
    code, out, _ = run(
        capsys, "validate", "--m", "5", "--n-samples", "15000", "--seed", "6",
        "--orders", "1:1",
    )
    assert code == 0
    assert out.count("PASS") == 2


def test_validate_honours_workers(capsys, workers_seen):
    outputs = []
    for flags in (["--workers", "1"], ["--workers", "2"], []):
        code, out, _ = run(capsys, "validate", *flags)
        assert code == 0
        outputs.append(out)
    assert workers_seen == [1, 2, 1]
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count("PASS") == 12


def test_validate_skips_infinite_variance_rows(capsys):
    # m=2 at (-1.5, 0.1): m+2mu+2nu = -0.8 and m+2mu = -1, so neither
    # class has a finite estimator variance and no 5-SE gate exists
    code, out, _ = run(
        capsys, "validate", "--m", "2", "--n-samples", "20000", "--seed", "3",
        "--orders=-1.5:0.1,-1.2:0.5",
    )
    assert code == 0
    lines = out.splitlines()
    assert "SKIP mu=-1.5 nu=0.1 signal: estimator variance infinite " \
        "(m+2*mu+2*nu = -0.8 <= 0)" in lines
    assert "SKIP mu=-1.5 nu=0.1 background: estimator variance infinite " \
        "(m+2*mu = -1 <= 0)" in lines
    # background references are independent of the bucket: only m+2mu counts
    assert "SKIP mu=-1.2 nu=0.5 background: estimator variance infinite " \
        "(m+2*mu = -0.4 <= 0)" in lines
    assert any(line.startswith("PASS mu=-1.2 nu=0.5 signal:") for line in lines)
    assert out.count("PASS") == 1 and "FAIL" not in out
    assert "all checks passed" not in out
    assert lines[-1] == "no check failed; 3 skipped (infinite estimator variance)"


@pytest.mark.parametrize("argv", [
    ["validate", "--n-samples", "4000", "--orders=150:0.5"],
    ["simulate", "--n-samples", "4000", "--orders=150:0.5"],
    # each of the two 8192-frame shards' sums is finite, their total is not
    ["simulate", "--i0", "5.7e59", "--orders=2:0.5", "--n-samples", "16384", "--seed", "1"],
], ids=["validate", "simulate", "shard-merge"])
def test_power_overflow_is_a_domain_error(tmp_path, argv):
    if argv[0] == "simulate":
        argv = [*argv, "--out", str(tmp_path / "run")]
    env = dict(os.environ, PYTHONPATH=str(Path(fracgi.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "fracgi.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("domain error: non-finite power")
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "run").exists()  # not even an empty directory
