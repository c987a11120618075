import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import fracgi
from fracgi.objects import ObjectMask, letter_a_mask
from fracgi.theory import (
    DomainError,
    ErlangModel,
    GammaMixtureModel,
    QuadratureError,
    bucket_pdf_general,
    joint_pdf_binary,
    moment_background,
    moment_general,
    moment_signal,
    peak_snr,
    peak_snr_per_sqrt_n,
    predict,
    validity_domain,
    visibility,
)

# frozen oracle values (independent high-precision evaluation)
GAMMA_3_2 = 0.886226925452758
RP_20_1_1_120K = 14.49681407115578         # sqrt(120000/571) by Gamma recurrence
GRAY_SIGNAL_FRACTIONAL = 1.284846685375186  # E[(X+Y/2)^0.618 Y^0.5], 30-digit 2D quadrature
GRAY_BACKGROUND_FRACTIONAL = 1.1713501485772135  # E[X^0.618]*Gamma(3/2), same oracle
GRAY_PIXEL0_NEG = 2.1687164685584478  # GRAY pixel 0, mu=-2.5 nu=0.5, mpmath 30 digits
# 4x4 blob of scripts/grayscale_demo.py at mu=-1.414 nu=0.5, one pixel per level:
# (pixel, value), mpmath 30-digit Laplace-transform integral
BLOB_UNITS = np.array(
    [0.0, 0.25, 0.25, 0.0, 0.25, 1.0, 1.0, 0.25, 0.25, 1.0, 1.0, 0.25, 0.0, 0.5, 0.5, 0.0]
)
BLOB_NEGATIVE_ORDER = {
    0.0: (0, 0.07688191183068889),
    0.25: (1, 0.07432177159145452),
    0.5: (13, 0.07215192656830781),
    1.0: (5, 0.06857265561274146),
}

GRAY = ObjectMask(width=3, height=1, units=np.array([0.2, 0.5, 1.0]))


# -- closed-form moments -----------------------------------------------------


def test_moment_background_examples():
    assert moment_background(20, 1, 1) == pytest.approx(20.0, rel=1e-13)
    assert moment_background(5, 0, 0.5) == pytest.approx(GAMMA_3_2, rel=1e-13)
    expected = math.exp(math.lgamma(20.618) + math.lgamma(1.5) - math.lgamma(20))
    assert moment_background(20, 0.618, 0.5) == pytest.approx(expected, rel=1e-13)


def test_moment_signal_examples():
    assert moment_signal(20, 1, 1) == pytest.approx(21.0, rel=1e-13)
    assert moment_signal(20, -1, 1) == pytest.approx(0.05, rel=1e-13)
    assert moment_signal(20, -1.414, 0.5) < moment_background(20, -1.414, 0.5)


def test_moment_scaling_in_i0():
    assert moment_signal(5, 1.2, 0.7, i0=2.0) == pytest.approx(
        moment_signal(5, 1.2, 0.7) * 2.0**1.9, rel=1e-12
    )


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        moment_background(2, -2.5, 0.4)
    with pytest.raises(DomainError):
        moment_signal(2, -2.2, 0.1)
    with pytest.raises(DomainError):
        moment_background(3, 1.0, -1.2)


def test_background_factorizes_in_nu():
    # <I_B^mu I^nu>_0 = <I_B^mu> * Gamma(1+nu) I0^nu, exactly in log domain
    for m in (2, 5, 20, 30):
        for mu in (-2.5, -0.7, 0.9, 3.0):
            if m + mu <= 0:
                continue
            for nu in (0.3, 1.1, 2.9):
                lhs = moment_background(m, mu, nu)
                rhs = moment_background(m, mu, 0.0) * math.exp(math.lgamma(1 + nu))
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sign_inequalities_across_grid():
    for m in (2, 5, 20, 30):
        for mu in np.arange(-3.0, 3.01, 0.5):
            if mu == 0 or m + mu <= 0 or m + mu + 0.5 <= 0:
                continue
            for nu in (0.5, 1.5, 3.0):
                diff = moment_signal(m, mu, nu) - moment_background(m, mu, nu)
                assert math.copysign(1, diff) == math.copysign(1, mu)


# -- visibility and peak SNR -------------------------------------------------


def test_visibility_recurrence_values():
    assert visibility(20, 1, 1) == pytest.approx(1 / 41, rel=1e-12)
    assert visibility(20, -1, 1) == pytest.approx(1 / 39, rel=1e-12)
    assert visibility(30, 1, 1) == pytest.approx(1 / 61, rel=1e-12)
    assert visibility(30, 1, 1) < visibility(20, 1, 1)


def test_visibility_requires_m_at_least_2():
    with pytest.raises(DomainError):
        visibility(1, 1.0, 0.5)


def test_peak_snr_recurrence_value():
    assert peak_snr(20, 1, 1, 120000) == pytest.approx(RP_20_1_1_120K, rel=1e-12)


def test_peak_snr_existence_condition():
    with pytest.raises(DomainError) as err:
        peak_snr(2, -1.5, 0.2, 1000)
    assert "m+2*mu+2*nu" in str(err.value)


def test_peak_snr_interior_maximum_in_nu():
    nus = np.arange(0.05, 3.0001, 0.05)
    for mu in (1.0, -1.0):
        values = peak_snr_per_sqrt_n(20, mu, nus)
        peak = int(np.argmax(values))
        assert 0 < peak < len(nus) - 1
    neg = peak_snr_per_sqrt_n(20, -1.0, nus).max()
    pos = peak_snr_per_sqrt_n(20, 1.0, nus).max()
    assert neg > pos


def test_predict_bundle():
    pred = predict(20, -1.0, 1.0, 120000)
    assert pred.visibility == pytest.approx(1 / 39, rel=1e-12)
    assert pred.variance_finite and pred.moment_finite
    with pytest.raises(DomainError):
        predict(2, -2.2, 0.1, 1000)


def test_predict_variance_divergent_keeps_moments():
    # nu in (-1, -1/2]: moments exist but the estimator variance does not
    pred = predict(20, 1.0, -0.55, 1000)
    assert pred.moment_finite and not pred.variance_finite
    assert pred.peak_snr is None
    assert pred.visibility > 0


# -- validity domain ---------------------------------------------------------


def test_validity_examples():
    flags = validity_domain(20, -2.7183, 0.5)
    assert flags.moment_finite and flags.variance_finite
    flags = validity_domain(2, -2.2, 0.1)
    assert not flags.moment_finite
    assert any("m+mu+nu" in r for r in flags.reasons)
    flags = validity_domain(50, 1.0, -0.6)
    assert not flags.variance_finite
    assert any("1+2*nu" in r for r in flags.reasons)


def test_validity_from_grayscale_mask():
    # three nonzero units -> effective exponent 3
    flags = validity_domain(GRAY, -2.8, 0.1)
    assert flags.moment_finite  # 3 - 2.8 + 0.1 > 0
    flags = validity_domain(GRAY, -3.2, 0.1)
    assert not flags.moment_finite


# -- bucket densities --------------------------------------------------------


def test_erlang_m1_is_exponential():
    model = ErlangModel(m=1, scale=2.0)
    xs = np.array([0.0, 0.5, 3.0])
    np.testing.assert_allclose(model.pdf(xs), np.exp(-xs / 2.0) / 2.0, rtol=1e-12)


def test_erlang_zero_at_origin_for_m2():
    model = ErlangModel(m=2, scale=1.0)
    assert model.pdf(np.array([0.0]))[0] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 3])
def test_erlang_density_vanishes_at_infinity(m):
    model = ErlangModel(m=m, scale=1.0)
    assert model.pdf(np.inf) == 0.0
    np.testing.assert_array_equal(model.pdf(np.array([np.inf, -np.inf])), [0.0, 0.0])
    assert joint_pdf_binary(m, 1.0, np.inf, 0.5, 0) == 0.0


def test_erlang_mode():
    model = ErlangModel(m=2, scale=1.0)
    xs = np.linspace(0.5, 1.5, 2001)
    assert xs[np.argmax(model.pdf(xs))] == pytest.approx(1.0, abs=1e-3)


def test_erlang_normalization_and_cdf():
    model = ErlangModel(m=5, scale=1.3)
    total, _ = quad(lambda x: model.pdf(np.array([x]))[0], 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert model.cdf(np.array([1e4]))[0] == pytest.approx(1.0, abs=1e-12)


def test_joint_pdf_support_constraint():
    assert joint_pdf_binary(5, 1.0, 2.0, 2.5, 1) == 0.0


def test_joint_pdf_background_factorizes():
    val = joint_pdf_binary(5, 1.0, 3.0, 0.7, 0)
    bucket = ErlangModel(m=5, scale=1.0).pdf(np.array([3.0]))[0]
    assert val == pytest.approx(bucket * math.exp(-0.7), rel=1e-12)


@pytest.mark.parametrize("m", [2, 5, 20])
def test_joint_pdf_marginalizes_to_bucket_pdf(m):
    for i_b in (0.8, float(m), 2.0 * m):
        val, _ = quad(lambda ii: float(joint_pdf_binary(m, 1.0, i_b, ii, 1)), 0, i_b)
        target = float(ErlangModel(m=m, scale=1.0).pdf(np.array([i_b]))[0])
        assert val == pytest.approx(target, rel=1e-9)


def test_joint_pdf_m1_signal_rejected():
    with pytest.raises(DomainError):
        joint_pdf_binary(1, 1.0, 1.0, 0.5, 1)


# -- general bucket law ------------------------------------------------------


def test_binary_mask_gives_erlang():
    model = bucket_pdf_general(letter_a_mask(), 1.0)
    assert isinstance(model, ErlangModel)
    assert model.m == 20


def test_single_unit_modified_average():
    mask = ObjectMask(width=1, height=1, units=np.array([0.5]))
    model = bucket_pdf_general(mask, 1.0)
    assert isinstance(model, ErlangModel)
    assert model.m == 1
    assert model.mean == pytest.approx(0.5)


def test_all_zero_mask_rejected():
    mask = ObjectMask(width=2, height=1, units=np.zeros(2))
    with pytest.raises(DomainError):
        bucket_pdf_general(mask, 1.0)


def test_three_pole_hypoexponential():
    model = bucket_pdf_general(GRAY, 1.0)
    assert isinstance(model, GammaMixtureModel)
    assert model.mean == pytest.approx(1.7, rel=1e-12)
    total, _ = quad(lambda x: float(model.pdf(np.array([x]))[0]), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    # density nonnegative and CDF saturated over the reference grid
    xs = np.linspace(0.0, 20.0 * 1.7, 10_000)
    assert model.pdf(xs).min() >= 0.0
    assert model.cdf(np.array([20.0 * 1.7]))[0] > 1 - 1e-6


def test_hypoexponential_matches_monte_carlo():
    model = bucket_pdf_general(GRAY, 1.0)
    rng = np.random.default_rng(2024)
    draws = sum(rng.exponential(t, size=1_000_000) for t in (0.2, 0.5, 1.0))
    result = stats.kstest(draws, lambda x: model.cdf(np.atleast_1d(x)))
    assert result.pvalue > 1e-3


def test_repeated_plus_distinct_poles():
    mask = ObjectMask(width=3, height=1, units=np.array([0.5, 0.5, 1.0]))
    model = bucket_pdf_general(mask, 1.0)
    assert isinstance(model, GammaMixtureModel)
    total, _ = quad(lambda x: float(model.pdf(np.array([x]))[0]), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(77)
    draws = (
        rng.exponential(0.5, 500_000)
        + rng.exponential(0.5, 500_000)
        + rng.exponential(1.0, 500_000)
    )
    result = stats.kstest(draws, lambda x: model.cdf(np.atleast_1d(x)))
    assert result.pvalue > 1e-3


def test_gray_law_matches_high_precision_partial_fractions():
    # distinct rates lam_j = 1/t_j: f(x) = sum_j c_j lam_j exp(-lam_j x) and
    # F(x) = 1 - sum_j c_j exp(-lam_j x), c_j = prod_(i!=j) lam_i/(lam_i-lam_j),
    # summed at 50 digits so the signed terms cannot cancel
    model = bucket_pdf_general(GRAY, 1.0)
    xs = np.array([0.2, 0.5, 1.0, 1.7, 3.0, 5.0, 8.0])
    with mp.workdps(50):
        lam = [1 / mp.mpf(float(t)) for t in GRAY.units]
        coef = [mp.fprod(li / (li - lj) for li in lam if li != lj) for lj in lam]
        decay = [[mp.exp(-lj * mp.mpf(float(x))) for lj in lam] for x in xs]
        pdf = [float(mp.fsum(c * lj * e for c, lj, e in zip(coef, lam, row))) for row in decay]
        cdf = [float(1 - mp.fsum(c * e for c, e in zip(coef, row))) for row in decay]
    np.testing.assert_allclose(model.pdf(xs), pdf, rtol=1e-12)
    np.testing.assert_allclose(model.cdf(xs), cdf, rtol=1e-12)


def test_blob_law_matches_laplace_inversion():
    # repeated levels (6 x 0.25, 2 x 0.5, 4 x 1): invert prod_j (1 + s t_j)^-k_j
    # and that transform over s, by 30-digit Talbot contours
    mask = ObjectMask(width=4, height=4, units=BLOB_UNITS)
    model = bucket_pdf_general(mask, 1.0)
    levels = np.unique(BLOB_UNITS[BLOB_UNITS > 0], return_counts=True)
    xs = np.array([3.0, 5.0, 7.0, 9.0, 12.0])
    with mp.workdps(30):
        def transform(s):
            return mp.fprod((1 + s * mp.mpf(float(t))) ** -int(k) for t, k in zip(*levels))

        pdf = [float(mp.invertlaplace(transform, float(x), method="talbot")) for x in xs]
        cdf = [float(mp.invertlaplace(lambda s: transform(s) / s, float(x), method="talbot"))
               for x in xs]
    np.testing.assert_allclose(model.pdf(xs), pdf, rtol=1e-12)
    np.testing.assert_allclose(model.cdf(xs), cdf, rtol=1e-12)


def _quadrature(upper: float, panels: int = 64):
    """Nodes and weights of 32-point Gauss-Legendre panels on [0, upper]."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, upper, panels + 1)
    half = np.diff(edges)[:, None] / 2
    return (edges[:-1, None] + half * (nodes + 1)).ravel(), (half * weights).ravel()


MIXTURE_MASKS = {
    "blob": BLOB_UNITS,
    "gray": GRAY.units,
    "repeated": np.array([0.5, 0.5, 1.0]),
    "clustered": np.array([0.5, 0.5 * (1 + 1e-8)]),
    "400-unit": np.random.default_rng(0).choice([0.125, 0.25, 0.5, 0.75, 1.0], size=400),
    "64x64-six-level": np.random.default_rng(5).choice([0, 0.2, 0.4, 0.6, 0.8, 1.0], 4096),
    "8-bit-8x8": np.random.default_rng(7).integers(1, 256, 64) / 255,
}


@pytest.mark.parametrize("name", MIXTURE_MASKS)
def test_mixture_is_a_distribution(name):
    units, i0 = MIXTURE_MASKS[name], 1.7
    model = bucket_pdf_general(ObjectMask(width=units.size, height=1, units=units), i0)
    assert isinstance(model, GammaMixtureModel)
    assert model.mean == pytest.approx(i0 * units.sum(), rel=1e-12)
    sd = i0 * math.sqrt(float(units @ units))
    upper = model.mean + 40 * sd
    xs = np.linspace(0.0, upper, 401)
    pdf, cdf = model.pdf(xs), model.cdf(xs)
    assert pdf.min() >= 0.0
    assert cdf.min() >= 0.0 and cdf.max() <= 1.0
    assert np.diff(cdf).min() >= -1e-10
    assert cdf[-1] == pytest.approx(1.0, abs=1e-10)
    # mass, mean and variance of the density against i0*sum t and i0^2*sum t^2
    x, w = _quadrature(upper)
    density = model.pdf(x) * w
    mass = density.sum()
    mean = density @ x
    variance = density @ (x - mean) ** 2
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(model.mean, rel=1e-9)
    assert variance == pytest.approx(sd**2, rel=1e-9)
    # the CDF is not the integral of the pdf by construction: check that it is
    x, w = _quadrature(model.mean, panels=32)
    assert model.cdf(model.mean) == pytest.approx(model.pdf(x) @ w, abs=1e-10)


@pytest.mark.parametrize("name", ["two-level", "64x64-six-level"])
def test_mixture_weights_are_the_negative_binomial_sum(name):
    # P(N = n), N = sum_j NegBin(k_j, t_min/t_j), by direct convolution of
    # scipy pmfs. 950 units at 1 beside 50 at 1/2 make N ~ NegBin(950, 1/2),
    # whose unnormalised recursion crosses its 1e280 rescale 4 decades
    # below the peak
    units = np.repeat([0.5, 1.0], [50, 950]) if name == "two-level" else MIXTURE_MASKS[name]
    model = bucket_pdf_general(ObjectMask(width=units.size, height=1, units=units), 1.0)
    levels, counts = np.unique(units[units > 0], return_counts=True)
    pmf = np.ones(1)
    for t, k in zip(levels[1:], counts[1:]):
        p = levels[0] / t
        pmf = np.convolve(pmf, stats.nbinom.pmf(np.arange(int(stats.nbinom.isf(1e-20, k, p))), k, p))
    first = model.shape - counts.sum()
    expected = pmf[first:first + model.weights.size]
    bulk = expected > 1e-10 * expected.max()
    np.testing.assert_allclose(model.weights[bulk], expected[bulk] / expected.sum(), rtol=1e-9)


def test_400_unit_mask_matches_monte_carlo():
    # 400 units at five levels: ~1700 mixture terms
    units = MIXTURE_MASKS["400-unit"]
    model = bucket_pdf_general(ObjectMask(width=20, height=20, units=units), 1.0)
    rng = np.random.default_rng(400)
    # k units at level t sum to a Gamma(k, t) draw
    draws = sum(rng.gamma(k, t, 200_000) for t, k in zip(*np.unique(units, return_counts=True)))
    assert stats.kstest(draws, model.cdf).pvalue > 1e-3


def test_heavy_mask_rejected_with_clear_error():
    # 8-bit levels down to 1/255 need ~1.3e5 (16x16) to ~9e5 (64x64) mixture
    # terms; the term count is predicted and refused before any work
    for side in (16, 64):
        units = np.random.default_rng(7).integers(1, 256, side * side) / 255
        mask = ObjectMask(width=side, height=side, units=units)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="Monte-Carlo"):
            bucket_pdf_general(mask, 1.0)
        assert time.perf_counter() - start < 1.0


def test_clustered_poles_fall_back_to_inversion():
    # levels 1e-8 apart: the mixture needs three terms and stays exact
    mask = ObjectMask(width=2, height=1, units=np.array([0.5, 0.5 * (1 + 1e-8)]))
    model = bucket_pdf_general(mask, 1.0)
    assert isinstance(model, GammaMixtureModel)
    # indistinguishable from the merged-pole Erlang limit at this gap
    limit = ErlangModel(m=2, scale=0.5)
    xs = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(model.pdf(xs), limit.pdf(xs), rtol=1e-7)
    np.testing.assert_allclose(model.cdf(xs), limit.cdf(xs), rtol=1e-7)


# -- general moments from the Laplace transform ------------------------------


@pytest.mark.parametrize("mu", [-2.7183, -1.414, -0.618, 0.618, 1.414, 2.7183])
def test_moment_general_binary_signal(mu):
    mask = letter_a_mask()
    got = moment_general(mask, 3, mu, 0.5)  # pixel 3 is a t=1 unit
    assert got == pytest.approx(moment_signal(20, mu, 0.5), rel=1e-10)


@pytest.mark.parametrize("mu", [-2.7183, -0.618, 1.414])
def test_moment_general_binary_background(mu):
    mask = letter_a_mask()
    got = moment_general(mask, 0, mu, 0.5)  # pixel 0 is a t=0 unit
    assert got == pytest.approx(moment_background(20, mu, 0.5), rel=1e-10)


def test_moment_general_grayscale_integer_orders():
    # direct expectation algebra: E[I_B I_i] = I0^2 (sum t_j + t_i) = 2.2
    assert moment_general(GRAY, 1, 1.0, 1.0) == pytest.approx(2.2, rel=1e-8)


def test_moment_general_grayscale_fractional_orders():
    got = moment_general(GRAY, 1, 0.618, 0.5)
    assert got == pytest.approx(GRAY_SIGNAL_FRACTIONAL, rel=1e-8)


def test_moment_general_grayscale_background_pixel():
    mask = ObjectMask(width=4, height=1, units=np.array([0.2, 0.5, 1.0, 0.0]))
    got = moment_general(mask, 3, 0.618, 0.5)
    assert got == pytest.approx(GRAY_BACKGROUND_FRACTIONAL, rel=1e-8)


def test_moment_general_single_unit_mask():
    mask = ObjectMask(width=2, height=1, units=np.array([1.0, 0.0]))
    expected = math.exp(math.lgamma(1 + 0.7 + 0.5))
    assert moment_general(mask, 0, 0.7, 0.5) == pytest.approx(expected, rel=1e-12)


def test_moment_general_monte_carlo_cross_check():
    # raw pixel intensity I_1 ~ Exp(1); the bucket holds the weighted 0.5*I_1
    rng = np.random.default_rng(5)
    n_draws = 400_000
    raw = rng.exponential(1.0, (3, n_draws))
    bucket = GRAY.units @ raw
    sample = bucket**-0.8 * raw[1] ** 0.9  # pixel 1, mu=-0.8 nu=0.9
    se = sample.std() / math.sqrt(n_draws)
    got = moment_general(GRAY, 1, -0.8, 0.9)
    assert abs(got - sample.mean()) < 5 * se


def test_moment_general_preconditions():
    with pytest.raises(DomainError):
        moment_general(GRAY, 1, 1.0, -1.5)  # nu <= -1
    # finite: 2 other units + (1+nu) of the pixel itself exceed 2.5
    assert moment_general(GRAY, 0, -2.5, 0.5) == pytest.approx(GRAY_PIXEL0_NEG, rel=1e-10)
    with pytest.raises(DomainError):
        moment_general(GRAY, 0, -3.6, 0.5)  # 2 + 1.5 - 3.6 <= 0: diverges
    with pytest.raises(DomainError):
        moment_general(GRAY, 3, 1.0, 0.5)  # pixel out of range
    with pytest.raises(DomainError):
        moment_general(GRAY, 1, 1.0, 0.5, i0=0.0)  # no mean intensity
    zero = ObjectMask(width=2, height=1, units=np.zeros(2))
    with pytest.raises(DomainError):
        moment_general(zero, 0, 1.0, 0.5)  # bucket identically zero


def test_moment_general_near_divergent_order():
    # two units at mu=-1.9: s^-mu phi(s) falls off only like s^-0.1
    mask = ObjectMask(width=3, height=1, units=np.array([1.0, 1.0, 0.0]))
    got = moment_general(mask, 2, -1.9, 0.5)
    assert got == pytest.approx(moment_background(2, -1.9, 0.5), rel=1e-10)


@pytest.mark.parametrize("level", sorted(BLOB_NEGATIVE_ORDER))
def test_moment_general_blob_negative_order(level):
    pixel, expected = BLOB_NEGATIVE_ORDER[level]
    blob = ObjectMask(width=4, height=4, units=BLOB_UNITS)
    assert blob.units[pixel] == level
    assert moment_general(blob, pixel, -1.414, 0.5) == pytest.approx(expected, rel=1e-10)


def test_moment_general_large_six_level_mask():
    units = np.random.default_rng(0).choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], size=4096)
    mask = ObjectMask(width=64, height=64, units=units)
    for pixel in (0, 1, 2):
        # E[I_B I_i] = I0^2 (sum_j t_j + t_i)
        got = moment_general(mask, pixel, 1.0, 1.0, i0=1.5)
        assert got == pytest.approx(1.5**2 * (units.sum() + units[pixel]), rel=1e-10)
        assert math.isfinite(moment_general(mask, pixel, 0.618, 0.5))


def test_moment_general_failures_are_typed():
    # the only exceptions are DomainError and QuadratureError, never a bare
    # OverflowError, even where the moment exceeds a double
    with pytest.raises(QuadratureError):
        moment_general(GRAY, 0, 400.0, 0.5)
    with pytest.raises(DomainError):
        moment_general(GRAY, 0, math.inf, 0.5)


def test_import_does_not_load_quadrature():
    # scipy.integrate is imported by moment_general on first use only, and
    # no scipy.linalg user is left
    src = str(Path(fracgi.__file__).parents[1])
    code = "import sys, fracgi; assert not {'scipy.integrate', 'scipy.linalg'} & set(sys.modules)"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
