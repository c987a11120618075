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
from scipy.special import gammainc

import fracgi
from fracgi import theory
from fracgi.moments import MomentOrder, multi_order_pass
from fracgi.objects import ObjectMask, letter_a_mask
from fracgi.speckle import SampleSet, SpeckleConfig
from fracgi.theory import (
    DomainError,
    GammaMixtureModel,
    QuadratureError,
    bucket_pdf_general,
    moment_general,
    predict,
    validity_domain,
)

# frozen oracle values (independent high-precision evaluation)
GAMMA_3_2 = 0.886226925452758
RP_20_1_1_120K = 14.49681407115578         # sqrt(120000/571) by Gamma recurrence
GRAY_SIGNAL_FRACTIONAL = 1.284846685375186  # E[(X+Y/2)^0.618 Y^0.5], 30-digit 2D quadrature
GRAY_BACKGROUND_FRACTIONAL = 1.1713501485772135  # E[X^0.618]*Gamma(3/2), same oracle
GRAY_PIXEL0_NEG = 2.1687164685584478  # GRAY pixel 0, mu=-2.5 nu=0.5, mpmath 30 digits
# 4x4 grayscale blob (three levels around a transparent border) at
# mu=-1.414 nu=0.5, one pixel per level: (pixel, value), mpmath 30-digit
# Laplace-transform integral
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


def moments(m, mu, nu, i0=1.0):
    """(background, signal) closed-form moments at one order pair."""
    pred = predict(m, mu, nu, 1, i0)
    return pred.moment_background, pred.moment_signal


def test_moment_background_examples():
    assert moments(20, 1, 1)[0] == pytest.approx(20.0, rel=1e-13)
    assert moments(5, 0, 0.5)[0] == pytest.approx(GAMMA_3_2, rel=1e-13)
    expected = math.exp(math.lgamma(20.618) + math.lgamma(1.5) - math.lgamma(20))
    assert moments(20, 0.618, 0.5)[0] == pytest.approx(expected, rel=1e-13)


def test_moment_signal_examples():
    assert moments(20, 1, 1)[1] == pytest.approx(21.0, rel=1e-13)
    assert moments(20, -1, 1)[1] == pytest.approx(0.05, rel=1e-13)
    background, signal = moments(20, -1.414, 0.5)
    assert signal < background


def test_moment_scaling_in_i0():
    assert moments(5, 1.2, 0.7, i0=2.0)[1] == pytest.approx(
        moments(5, 1.2, 0.7)[1] * 2.0**1.9, rel=1e-12
    )


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        moments(2, -2.5, 0.4)
    with pytest.raises(DomainError):
        moments(2, -2.2, 0.1)
    with pytest.raises(DomainError):
        moments(3, 1.0, -1.2)
    # log Gamma past double range is inf, as in scipy, never an OverflowError
    with pytest.raises(DomainError, match="degenerate variance"), np.errstate(invalid="ignore"):
        predict(20, 1e306, 1.0, 1)


@pytest.mark.parametrize("i0", [0.0, -1.0, math.inf, math.nan])
def test_moments_refuse_nonpositive_or_nonfinite_i0(i0):
    with pytest.raises(DomainError, match="i0 must be positive and finite"):
        predict(20, 1.0, 1.0, 1000, i0)


def test_predict_refuses_fewer_than_one_sample():
    for n in (0, -5):
        with pytest.raises(DomainError, match="n_samples >= 1 required"):
            predict(20, 1.0, 1.0, n)


def test_background_factorizes_in_nu():
    # <I_B^mu I^nu>_0 = <I_B^mu> * Gamma(1+nu) I0^nu, exactly in log domain
    for m in (2, 5, 20, 30):
        for mu in (-2.5, -0.7, 0.9, 3.0):
            if m + mu <= 0:
                continue
            for nu in (0.3, 1.1, 2.9):
                lhs = moments(m, mu, nu)[0]
                rhs = moments(m, mu, 0.0)[0] * math.exp(math.lgamma(1 + nu))
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sign_inequalities_across_grid():
    for m in (2, 5, 20, 30):
        for mu in np.arange(-3.0, 3.01, 0.5):
            if mu == 0 or m + mu <= 0 or m + mu + 0.5 <= 0:
                continue
            for nu in (0.5, 1.5, 3.0):
                background, signal = moments(m, mu, nu)
                assert math.copysign(1, signal - background) == math.copysign(1, mu)


# -- visibility and peak SNR -------------------------------------------------


def visibility(m, mu, nu):
    return predict(m, mu, nu, 1).visibility


def test_visibility_recurrence_values():
    assert visibility(20, 1, 1) == pytest.approx(1 / 41, rel=1e-12)
    assert visibility(20, -1, 1) == pytest.approx(1 / 39, rel=1e-12)
    assert visibility(30, 1, 1) == pytest.approx(1 / 61, rel=1e-12)
    assert visibility(30, 1, 1) < visibility(20, 1, 1)


def test_visibility_requires_m_at_least_2():
    with pytest.raises(DomainError, match="m >= 2 required"):
        visibility(1, 1.0, 0.5)


def test_peak_snr_recurrence_value():
    assert predict(20, 1, 1, 120000).peak_snr == pytest.approx(RP_20_1_1_120K, rel=1e-12)


def test_peak_snr_existence_condition():
    pred = predict(2, -1.5, 0.2, 1000)
    assert pred.moment_finite and not pred.variance_finite
    assert pred.rp_per_sqrt_n is None and pred.peak_snr is None
    assert any("m+2*mu+2*nu" in r for r in validity_domain(2, -1.5, 0.2).reasons)


def test_peak_snr_interior_maximum_in_nu():
    nus = np.arange(0.05, 3.0001, 0.05)
    curves = {mu: np.array([predict(20, mu, nu, 1).rp_per_sqrt_n for nu in nus])
              for mu in (1.0, -1.0)}
    for values in curves.values():
        peak = int(np.argmax(values))
        assert 0 < peak < len(nus) - 1
    assert curves[-1.0].max() > curves[1.0].max()


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


@pytest.mark.parametrize("i0", [1.0, 0.7])
@pytest.mark.parametrize("mu, nu", [(-2.7183, 0.5), (-1.414, 1.3), (0.618, 0.5), (2.7183, 2.0),
                                    (1.0, -0.55)])
def test_predict_fields_equal_the_public_closed_forms(mu, nu, i0):
    # the published Gamma-ratio forms of the module docstring, in 30-digit mpmath
    pred = predict(20, mu, nu, 120000, i0)
    with mp.workdps(30):
        m, mu_, nu_ = mp.mpf(20), mp.mpf(mu), mp.mpf(nu)
        background = mp.gamma(m + mu_) * mp.gamma(1 + nu_) / mp.gamma(m)
        signal = mp.gamma(m + mu_ + nu_) * mp.gamma(1 + nu_) / mp.gamma(m + nu_)
        scale = mp.mpf(i0) ** (mu_ + nu_)
        fields = [(pred.moment_background, background * scale, 1e-13),
                  (pred.moment_signal, signal * scale, 1e-13),
                  (pred.visibility, abs(signal - background) / (signal + background), 1e-11)]
        if nu > -0.5:
            second = (mp.gamma(m + 2 * mu_ + 2 * nu_) * mp.gamma(1 + 2 * nu_)
                      / mp.gamma(m + 2 * nu_))
            rp = abs(signal - background) / mp.sqrt(second - signal**2)
            fields.append((pred.rp_per_sqrt_n, rp, 1e-11))
            assert pred.peak_snr == math.sqrt(120000) * pred.rp_per_sqrt_n
        else:  # 1+2*nu <= 0: the estimator variance does not exist
            assert pred.rp_per_sqrt_n is None and pred.peak_snr is None
    for value, expected, rel in fields:
        assert type(value) is float
        assert value == pytest.approx(float(expected), rel=rel)


@pytest.mark.parametrize("args, message", [
    ((20, 1.0, 1.0, 0, 1.0), "n_samples >= 1 required"),
    ((20, 1.0, 1.0, 1000, 0.0), "i0 must be positive and finite"),
    ((20, 1.0, 1.0, 1000, math.inf), "i0 must be positive and finite"),
    ((1, 1.0, 1.0, 1000, 1.0), "m >= 2 required"),
    ((1, 1.0, -0.55, 1000, 1.0), "m >= 2 required"),
    ((2, -2.2, 0.1, 1000, 1.0),
     "orders mu=-2.2, nu=0.1: m+mu+nu = -0.1 <= 0; m+mu = -0.2 <= 0; m+2*mu+2*nu = -2.2 <= 0"),
    ((20, 1.0, -1.2, 1000, 1.0), "orders mu=1, nu=-1.2: 1+nu = -0.2 <= 0; 1+2*nu = -1.4 <= 0"),
])
def test_predict_refusals_keep_their_messages(args, message):
    with pytest.raises(DomainError) as err:
        predict(*args)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu, nu, i0", [(250.0, 1.0, 1.0), (1.0, 1.0, 1e300), (-19.5, 1.0, 1e-300)])
def test_predict_refuses_moments_past_a_double(mu, nu, i0):
    # the moments exist but overflow a double: refused with no overflow
    # warning on the way, where an inf field used to come out
    with pytest.raises(DomainError, match="moment overflows a double"):
        predict(20, mu, nu, 120000, i0)
    # mu = 150 is still finite, about 3e288
    assert math.isfinite(predict(20, 150.0, 1.0, 120000).moment_signal)


def test_predict_takes_each_log_gamma_once(lgamma_calls):
    # m+mu+nu, m+mu, m+nu, m, 1+nu and, for the variance, m+2mu+2nu, 1+2nu, m+2nu
    predict(20, -1.414, 0.5, 120000, 0.7)
    args = [x for call in lgamma_calls for x in call]
    assert len(args) == len(set(args)) == 8


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


def erlang(m, i0, level=1.0):
    """Bucket law of m units of one transmittance level."""
    return bucket_pdf_general(ObjectMask(width=m, height=1, units=np.full(m, level)), i0)


def test_erlang_m1_is_exponential():
    model = erlang(1, 2.0)
    xs = np.array([0.0, 0.5, 3.0])
    np.testing.assert_allclose(model.pdf(xs), np.exp(-xs / 2.0) / 2.0, rtol=1e-12)


# (m, level, i0) by test id: unit-level masks, and three units at level 0.3
ERLANG_CASES = {f"{i0}-{m}": (m, 1.0, i0) for i0 in (0.3, 2.5) for m in (1, 2, 5, 20, 200)}
ERLANG_CASES["level0.3-3"] = (3, 0.3, 0.7)


@pytest.mark.parametrize("m, level, i0", ERLANG_CASES.values(), ids=ERLANG_CASES.keys())
def test_erlang_matches_scipy_gamma(m, level, i0):
    scale = i0 * level
    law = stats.gamma(m, scale=scale)
    xs = law.ppf(np.linspace(1e-6, 1 - 1e-6, 501))
    model = erlang(m, i0, level)
    assert (model.shape, model.scale, model.weights.tolist()) == (m, scale, [1.0])
    assert model.mean == pytest.approx(law.mean(), rel=1e-15)
    np.testing.assert_allclose(model.pdf(xs), law.pdf(xs), rtol=1e-12)
    np.testing.assert_allclose(model.cdf(xs), gammainc(m, xs / scale), rtol=1e-12)


@pytest.mark.parametrize("m", [200, 1500, 4096])
def test_erlang_matches_mpmath_at_large_shapes(m):
    # 40-digit oracle over +-6 sd: Poisson terms restarted from
    # t*log(y) - y - lgamma(t+1) lose ~t ulp (1.6e-13 to 6e-12 here)
    model = erlang(m, 1.0)
    xs = m + math.sqrt(m) * np.linspace(-6.0, 6.0, 49)
    with mp.workdps(40):
        points = [mp.mpf(float(x)) for x in xs]
        pdf = [float(mp.exp((m - 1) * mp.log(x) - x - mp.loggamma(m))) for x in points]
        cdf = [float(mp.gammainc(m, 0, x, regularized=True)) for x in points]
    np.testing.assert_allclose(model.pdf(xs), pdf, rtol=5e-14)
    np.testing.assert_allclose(model.cdf(xs), cdf, rtol=5e-14)


def test_erlang_zero_at_origin_for_m2():
    model = erlang(2, 1.0)
    assert model.pdf(np.array([0.0]))[0] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1, 3])
def test_erlang_density_vanishes_at_infinity(m):
    # m = 1 is the exponential law: 1/scale at 0, nothing below 0
    model = erlang(m, 2.0)
    xs = [-np.inf, -1.0, 0.0, np.inf]
    pdf = [0.0, 0.0, 0.5 if m == 1 else 0.0, 0.0]
    cdf = [0.0, 0.0, 0.0, 1.0]
    assert [model.pdf(x) for x in xs] == pdf
    assert [model.cdf(x) for x in xs] == cdf
    np.testing.assert_array_equal(model.pdf(np.array(xs)), pdf)
    np.testing.assert_array_equal(model.cdf(np.array(xs)), cdf)


def test_erlang_mode():
    model = erlang(2, 1.0)
    xs = np.linspace(0.5, 1.5, 2001)
    assert xs[np.argmax(model.pdf(xs))] == pytest.approx(1.0, abs=1e-3)


def test_erlang_normalization_and_cdf():
    model = erlang(5, 1.3)
    total, _ = quad(lambda x: model.pdf(np.array([x]))[0], 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert model.cdf(np.array([1e4]))[0] == pytest.approx(1.0, abs=1e-12)


# -- general bucket law ------------------------------------------------------


def test_binary_mask_gives_erlang():
    model = bucket_pdf_general(letter_a_mask(), 1.0)
    assert isinstance(model, GammaMixtureModel)
    assert (model.shape, model.scale, model.mean) == (20, 1.0, 20.0)
    assert model.weights.tolist() == [1.0]


def test_single_unit_modified_average():
    mask = ObjectMask(width=1, height=1, units=np.array([0.5]))
    model = bucket_pdf_general(mask, 1.0)
    assert isinstance(model, GammaMixtureModel)
    assert (model.shape, model.scale) == (1, 0.5)
    assert model.weights.tolist() == [1.0]
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
    limit = stats.gamma(2, scale=0.5)
    xs = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(model.pdf(xs), limit.pdf(xs), rtol=1e-7)
    np.testing.assert_allclose(model.cdf(xs), limit.cdf(xs), rtol=1e-7)


# -- general moments from the Laplace transform ------------------------------


# 64x64 binary mask with 39 ones; at this m the closed forms keep ~1e-14
WIDE_BINARY = ObjectMask(width=64, height=64,
                         units=(np.random.default_rng(1).random(4096) < 0.01).astype(float))
EXTRA_MU = [-2.5, -0.999, 0.999, 5.5]
# 64x64 binary mask with 30 % ones (1240): at mu = -10 and -20 the integrand is a
# peak (K-mu)^-1/2 wide in u, which a step of 0.25 resolves only to 2e-9 and 4e-7
DENSE_BINARY = ObjectMask(width=64, height=64,
                          units=(np.random.default_rng(1).random(4096) < 0.3).astype(float))


def binary_cases(mus):
    """(mask, mu) cases: letter A keeps the bare mu as its id."""
    return ([pytest.param(letter_a_mask(), mu, id=f"{mu}") for mu in mus]
            + [pytest.param(WIDE_BINARY, mu, id=f"64x64-{mu}") for mu in mus]
            + [pytest.param(DENSE_BINARY, mu, id=f"dense-{mu}") for mu in (-10.0, -20.0)])


def binary_moment(m: int, mu: float, nu: float, t: int) -> float:
    """The binary closed form in 40-digit mpmath; in doubles it loses ~1e-12 at m ~ 1200."""
    with mp.workdps(40):
        return float(mp.gamma(m + mu + t * nu) * mp.gamma(1 + nu) / mp.gamma(m + t * nu))


@pytest.mark.parametrize(
    "mask,mu", binary_cases([-2.7183, -1.414, -0.618, 0.618, 1.414, 2.7183] + EXTRA_MU)
)
def test_moment_general_binary_signal(mask, mu):
    pixel = int(np.flatnonzero(mask.units == 1)[0])
    expected = binary_moment(int(mask.units.sum()), mu, 0.5, 1)
    assert moment_general(mask, pixel, mu, 0.5) == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("mask,mu", binary_cases([-2.7183, -0.618, 1.414] + EXTRA_MU))
def test_moment_general_binary_background(mask, mu):
    pixel = int(np.flatnonzero(mask.units == 0)[0])
    expected = binary_moment(int(mask.units.sum()), mu, 0.5, 0)
    assert moment_general(mask, pixel, mu, 0.5) == pytest.approx(expected, rel=1e-13, abs=0)


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
    assert got == pytest.approx(moments(2, -1.9, 0.5)[0], rel=1e-10)


@pytest.mark.parametrize("level", sorted(BLOB_NEGATIVE_ORDER))
def test_moment_general_blob_negative_order(level):
    pixel, expected = BLOB_NEGATIVE_ORDER[level]
    blob = ObjectMask(width=4, height=4, units=BLOB_UNITS)
    assert blob.units[pixel] == level
    assert moment_general(blob, pixel, -1.414, 0.5) == pytest.approx(expected, rel=1e-10)


def test_blob_pass_matches_moment_general_at_every_pixel_and_order():
    # the joint law holds for grayscale masks too, so a pass over the blob
    # matches the analytic moments at all 16 pixels and three orders: worst
    # 2.84 SE at N = 50000, seed 3. A sampler whose buckets drop one 0.25
    # unit reads 13-27 SE
    blob = ObjectMask(width=4, height=4, units=BLOB_UNITS)
    samples = SampleSet(SpeckleConfig(i0=1.0, seed=3, n=blob.n), blob, 50_000)
    orders = [MomentOrder(mu, 0.5) for mu in (-1.414, 0.618, 2.7183)]
    for order, image in zip(orders, multi_order_pass(samples, orders), strict=True):
        expected = [moment_general(blob, pixel, order.mu, order.nu) for pixel in range(blob.n)]
        deviation = np.abs(image.joint_mean - expected) / image.joint_se()
        assert deviation.max() < 5, (order, deviation)


def test_moment_general_large_six_level_mask():
    units = np.random.default_rng(0).choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], size=4096)
    mask = ObjectMask(width=64, height=64, units=units)
    for pixel in (0, 1, 2):
        # E[I_B I_i] = I0^2 (sum_j t_j + t_i)
        got = moment_general(mask, pixel, 1.0, 1.0, i0=1.5)
        assert got == pytest.approx(1.5**2 * (units.sum() + units[pixel]), rel=1e-10)
        assert math.isfinite(moment_general(mask, pixel, 0.618, 0.5))


def test_moment_general_node_blocks_add_up(monkeypatch):
    # a many-level mask runs in node blocks of bounded memory; blocks of at
    # most one node sum to the one-block value
    mask = ObjectMask(width=64, height=64, units=np.random.default_rng(3).random(4096))
    whole = moment_general(mask, 0, 2.5, 0.5, i0=1 / 2048)
    monkeypatch.setattr(theory, "_CELLS", 4096)
    assert moment_general(mask, 0, 2.5, 0.5, i0=1 / 2048) == pytest.approx(whole, rel=1e-14)


@pytest.mark.parametrize("mu", [150.5, 250.5, 400.5])
def test_moment_general_high_orders_on_many_units(mu):
    # on 2000 ones the derivative recursion's h_K outgrows a double from
    # K ~ 250 on, while the moment itself is 7e4 at mu = 250.5
    mask = ObjectMask(width=2000, height=1, units=np.ones(2000))
    expected = moments(2000, mu, 0.5, 1 / 2000)[1]
    assert moment_general(mask, 0, mu, 0.5, 1 / 2000) == pytest.approx(expected, rel=1e-10)


def test_moment_general_failures_are_typed():
    # the only exceptions are DomainError and QuadratureError, never a bare
    # OverflowError, even where the moment exceeds a double
    with pytest.raises(QuadratureError):
        moment_general(GRAY, 0, 400.0, 0.5)
    with pytest.raises(DomainError):
        moment_general(GRAY, 0, math.inf, 0.5)
    # refused before any work: a K = 10^6 derivative recursion, and the
    # ~1e11 nodes of a moment whose decay exponent is 1e-9
    with pytest.raises(DomainError, match="no trapezoidal moment"):
        moment_general(GRAY, 0, 1e6, 0.5)
    two = ObjectMask(width=3, height=1, units=np.array([1.0, 1.0, 0.0]))
    with pytest.raises(DomainError, match="no trapezoidal moment"):
        moment_general(two, 2, -2.0 + 1e-9, 0.5)


def test_runtime_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: importing the CLI, running every
    # command and the general moment and bucket-law CDF load no scipy module
    code = f"""
import sys
import numpy as np
from fracgi import cli, theory
from fracgi.objects import ObjectMask
out = {str(tmp_path)!r}
for argv in (["predict", "--m", "20", "--mu", "1", "--nu", "1"],
             ["sweep", "--m", "20", "--mu=-3:3:0.5", "--nu", "0.5:1:0.5", "--out", out + "/s.csv"],
             ["simulate", "--n-samples", "500", "--orders=1:0.5,-1:0.5", "--out", out + "/sim"],
             ["validate", "--n-samples", "500"]):
    assert cli.main(argv) == 0, argv
gray = ObjectMask(width=3, height=1, units=np.array([0.2, 0.5, 1.0]))
theory.moment_general(gray, 1, 0.618, 0.5)
theory.bucket_pdf_general(gray, 1.0).cdf(np.array([0.5, 5.0]))
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded"
"""
    src = str(Path(fracgi.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
