"""Acceptance suite: every criterion as a test, printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the Monte-Carlo checks use fixed seeds, so outcomes are
reproducible.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.integrate import quad

from fracgi.cli import main as cli_main
from fracgi.metrics import class_average_matrix
from fracgi.moments import MomentOrder, multi_order_pass
from fracgi.objects import ObjectMask, block_mask, classify_units, letter_a_mask
from fracgi.speckle import SampleSet, SpeckleConfig
from fracgi.theory import (
    bucket_pdf_general,
    moment_background,
    moment_general,
    moment_signal,
    peak_snr_per_sqrt_n,
    visibility,
)

GRID_MUS = (-2.7183, -1.414, -0.618, 0.618, 1.414, 2.7183)
GRID_NU = 0.5
N_SAMPLES = 200_000
SEED = 7

GRAY = ObjectMask(width=3, height=1, units=np.array([0.2, 0.5, 1.0]))


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def grid_run():
    """The m=20 reference experiment: six grid orders plus (1,1)."""
    mask = letter_a_mask()
    classes = classify_units(mask)
    orders = [MomentOrder(mu, GRID_NU) for mu in GRID_MUS] + [MomentOrder(1.0, 1.0)]
    config = SpeckleConfig(i0=1.0, seed=SEED, n=mask.n)
    samples = SampleSet(config, mask, N_SAMPLES)
    start = time.perf_counter()
    # class-pooled statistics: column 0 is the signal class, column 1 the background
    class_stats = multi_order_pass(samples, orders, groups=class_average_matrix(classes))
    elapsed = time.perf_counter() - start
    return {
        "mask": mask,
        "classes": classes,
        "orders": orders,
        "samples": samples,
        "stats": dict(zip(orders, class_stats)),
        "elapsed": elapsed,
    }


def test_criterion_1_mc_vs_closed_form(grid_run):
    worst = 0.0
    for order in grid_run["orders"][:6]:
        st = grid_run["stats"][order]
        for col, closed in enumerate(
            (moment_signal(20, order.mu, order.nu), moment_background(20, order.mu, order.nu))
        ):
            dev = abs(st.joint_mean[col] - closed) / st.joint_se()[col]
            worst = max(worst, dev)
    ok = worst < 5.0 and grid_run["elapsed"] < 60.0
    announce(
        "criterion 1 (MC vs closed form, m=20, N=200k)",
        ok,
        f"worst deviation {worst:.2f} SE (< 5), runtime {grid_run['elapsed']:.1f}s (< 60s)",
    )


def test_criterion_2_sign_law(grid_run):
    ok = True
    details = []
    for order in grid_run["orders"][:6]:
        st = grid_run["stats"][order]
        g = st.g[0]
        se = st.g_se()[0]
        good = math.copysign(1, g - 1.0) == math.copysign(1, order.mu) and abs(g - 1) > 5 * se
        ok &= good
        details.append(f"mu={order.mu:+.4g}:|g-1|/SE={abs(g - 1) / se:.0f}")
    announce("criterion 2 (sign law, |g-1| > 5 SE)", ok, " ".join(details))


def test_criterion_3_classic_contrast(grid_run):
    results = []
    # m=20 from the shared run (order (1,1) was accumulated alongside)
    st20 = grid_run["stats"][grid_run["orders"][6]]
    results.append((20, st20))
    mask5 = block_mask(5)
    samples5 = SampleSet(SpeckleConfig(i0=1.0, seed=11, n=mask5.n), mask5, N_SAMPLES)
    (st5,) = multi_order_pass(
        samples5, [MomentOrder(1.0, 1.0)], groups=class_average_matrix(classify_units(mask5))
    )
    results.append((5, st5))

    ok = True
    details = []
    for m, st in results:
        g, se = st.g[0], st.g_se()[0]
        contrast_ok = abs(g - 1.0 - 1.0 / m) < 5 * se
        v_exact = abs(visibility(m, 1, 1) - 1.0 / (2 * m + 1)) < 1e-12
        ok &= contrast_ok and v_exact
        details.append(f"m={m}: g-1={g - 1:.5f} (1/m={1 / m:.3f}), V=1/{2 * m + 1}")
    announce("criterion 3 (classic contrast anchor)", ok, " ".join(details))


def test_criterion_4_visibility_properties():
    start = time.perf_counter()
    mu = np.round(np.arange(-3.0, 3.0001, 0.1), 12)
    mu = mu[mu != 0.0]
    nu = np.round(np.arange(0.1, 3.0001, 0.1), 12)
    surfaces = {m: visibility(m, mu[:, None], nu[None, :]) for m in (20, 30)}

    ok = True
    for m, v in surfaces.items():
        ok &= bool(np.all(np.diff(v, axis=1) > 0))       # increasing in nu
        neg, pos = v[mu < 0], v[mu > 0]
        ok &= bool(np.all(np.diff(neg, axis=0) < 0))     # increasing in |mu|, mu<0
        ok &= bool(np.all(np.diff(pos, axis=0) > 0))     # increasing in |mu|, mu>0
    ok &= bool(np.all(surfaces[30] < surfaces[20]))      # larger m degrades V

    # negative orders beat positive ones; deviations are findings, not failures
    findings = []
    for m, v in surfaces.items():
        neg_desc = v[mu < 0][::-1]  # |mu| = 0.1 .. 3.0
        pos = v[mu > 0]
        bad = np.argwhere(~(neg_desc > pos))
        if bad.size:
            findings.append(f"m={m}: {bad.shape[0]} grid points with V(-mu) <= V(+mu)")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    note = "; findings: " + "; ".join(findings) if findings else "; V(-mu) > V(+mu) everywhere"
    announce(
        "criterion 4 (visibility properties on the grid)",
        ok,
        f"monotonicity + m-ordering hold, {elapsed:.2f}s (< 5s)" + note,
    )


def test_criterion_5_snr_shape():
    nus = np.round(np.arange(0.01, 3.0001, 0.01), 12)
    curves = {mu: peak_snr_per_sqrt_n(20, mu, nus) for mu in (1.0, -1.0)}
    interior = all(0 < int(np.argmax(c)) < len(nus) - 1 for c in curves.values())
    negative_wins = curves[-1.0].max() > curves[1.0].max()
    announce(
        "criterion 5 (peak-SNR shape in nu)",
        interior and negative_wins,
        f"interior maxima at nu={nus[int(np.argmax(curves[1.0]))]:.2f} (mu=+1), "
        f"nu={nus[int(np.argmax(curves[-1.0]))]:.2f} (mu=-1); "
        f"max ratio neg/pos={curves[-1.0].max() / curves[1.0].max():.3f}",
    )


def test_criterion_6_distributional_checks():
    details = []
    ok = True
    for m in (2, 5):
        mask = ObjectMask(width=m, height=1, units=np.ones(m))
        samples = SampleSet(SpeckleConfig(i0=1.0, seed=21 + m, n=m), mask, 100_000)
        model = bucket_pdf_general(mask, 1.0)
        p = scipy_stats.kstest(samples.buckets(), lambda x: model.cdf(x)).pvalue
        ok &= p > 1e-3
        details.append(f"KS m={m}: p={p:.3f}")

    model = bucket_pdf_general(GRAY, 1.0)
    total, _ = quad(lambda x: float(model.pdf(np.array([x]))[0]), 0, np.inf)
    norm_ok = abs(total - 1.0) <= 1e-9
    rng = np.random.default_rng(2024)
    draws = sum(rng.exponential(t, size=1_000_000) for t in (0.2, 0.5, 1.0))
    p_gray = scipy_stats.kstest(draws, lambda x: model.cdf(np.atleast_1d(x))).pvalue
    ok &= norm_ok and p_gray > 1e-3
    details.append(f"hypoexp: |integral-1|={abs(total - 1):.1e}, KS p={p_gray:.3f}")
    announce("criterion 6 (distributional checks)", ok, " ".join(details))


def test_criterion_7_quadrature_oracle():
    mask = letter_a_mask()
    classes = classify_units(mask)
    signal_pixel = int(classes.one_units[0])
    background_pixel = int(classes.zero_units[0])
    worst = 0.0
    for mu in GRID_MUS + (1.0,):
        nu = GRID_NU if mu != 1.0 else 1.0
        worst = max(
            worst,
            abs(moment_general(mask, signal_pixel, mu, nu) / moment_signal(20, mu, nu) - 1),
            abs(
                moment_general(mask, background_pixel, mu, nu)
                / moment_background(20, mu, nu)
                - 1
            ),
        )
    gray_value = moment_general(GRAY, 1, 1.0, 1.0)
    gray_err = abs(gray_value - 2.2) / 2.2
    ok = worst <= 1e-6 and gray_err <= 1e-8
    announce(
        "criterion 7 (quadrature vs closed forms)",
        ok,
        f"binary worst rel {worst:.1e} (<= 1e-6), grayscale mu=nu=1 rel {gray_err:.1e} (<= 1e-8)",
    )


def test_criterion_8_determinism(tmp_path):
    def run_sim(out: Path, workers: str) -> dict:
        code = cli_main(
            [
                "simulate", "--n-samples", "4000",
                "--orders=-0.618:0.5,1.414:0.5",
                "--seed", "5", "--out", str(out), "--workers", workers,
            ]
        )
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_sim(tmp_path / "a", "1")
    second = run_sim(tmp_path / "b", "2")
    third = run_sim(tmp_path / "c", "1")
    ok = first == second == third
    announce(
        "criterion 8 (byte-identical runs, any worker count)",
        ok,
        f"{len(first)} files compared across 3 runs",
    )


def test_criterion_9_null_test(grid_run):
    orders = grid_run["orders"][:6]
    images = multi_order_pass(grid_run["samples"], orders, pair_shift=1)
    worst = 0.0
    for image in images:
        z = np.abs(image.g - 1.0) / image.g_se()
        worst = max(worst, float(z.max()))
    announce(
        "criterion 9 (shuffled pairing leaves no image)",
        worst < 5.0,
        f"worst per-pixel |g-1| = {worst:.2f} SE (< 5) over six orders",
    )
