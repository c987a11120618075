"""Closed-form and semi-analytic statistics of ideal thermal-light ghost imaging.

Binary masks (t in {0,1}) with m effective units admit closed forms built
from Gamma-function ratios:

    bucket density     P_B(x) = x^(m-1) exp(-x/I0) / ((m-1)! I0^m)
    background moment  <I_B^mu I_i^nu>_0 = G(m+mu) G(1+nu) / G(m) * I0^(mu+nu)
    signal moment      <I_B^mu I_i^nu>_1 = G(m+mu+nu) G(1+nu) / G(m+nu) * I0^(mu+nu)
    visibility         V = |G(m+mu+nu)G(m) - G(m+mu)G(m+nu)|
                           / (G(m+mu+nu)G(m) + G(m+mu)G(m+nu))

with G the Gamma function; peak SNR combines the order-doubled moment with
the squared signal moment and the sampling count. General (grayscale)
masks get a hypoexponential bucket law via partial fractions of the
product of per-unit Laplace transforms 1/(1 + s*I0*t_i), and moments as
one integral over the joint bucket/reference Laplace transform.

Everything is evaluated in log space with one final exponentiation; the
Gamma ratios overflow doubles long before the results do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .objects import ObjectMask

__all__ = [
    "DomainError",
    "QuadratureError",
    "ValidityFlags",
    "AnalyticPrediction",
    "log_gamma",
    "moment_background",
    "moment_signal",
    "visibility",
    "peak_snr",
    "peak_snr_per_sqrt_n",
    "validity_domain",
    "predict",
    "ErlangModel",
    "HypoexponentialModel",
    "LaplaceInversionModel",
    "bucket_pdf_binary",
    "joint_pdf_binary",
    "bucket_pdf_general",
    "moment_general",
]

# distinct transmittance values closer than this (relatively) make the
# partial-fraction expansion ill-conditioned; fall back to contour inversion
POLE_CLUSTER_RTOL = 1e-6

# signed mixture weights sum to 1, so their magnitude measures how many
# digits cancel; beyond this the double-precision expansion is untrustworthy
# (large multiplicities do this even with well-separated poles)
PF_WEIGHT_LIMIT = 1e8

# fixed-Talbot node count for the numerical-inversion fallback
TALBOT_NODES = 64


class DomainError(ValueError):
    """A moment or SNR does not exist for the requested orders."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge or returned a non-finite value."""


def log_gamma(x):
    """Natural log of Gamma(x) for x > 0 (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise DomainError("log_gamma requires x > 0")
    out = gammaln(x)
    return float(out) if out.ndim == 0 else out


def _check(condition, reason: str) -> None:
    if not np.all(condition):
        raise DomainError(reason)


def moment_background(m: int, mu, nu, i0: float = 1.0):
    """Background fractional moment <I_B^mu I_i^nu> at a t=0 pixel."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 1, "m >= 1 required")
    _check(m + mu > 0, "m+mu <= 0")
    _check(1 + nu > 0, "1+nu <= 0")
    out = np.exp(
        gammaln(m + mu) + gammaln(1 + nu) - gammaln(m) + (mu + nu) * math.log(i0)
    )
    return float(out) if out.ndim == 0 else out


def moment_signal(m: int, mu, nu, i0: float = 1.0):
    """Signal fractional moment <I_B^mu I_i^nu> at a t=1 pixel."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 1, "m >= 1 required")
    _check(m + mu + nu > 0, "m+mu+nu <= 0")
    _check(m + nu > 0, "m+nu <= 0")
    _check(1 + nu > 0, "1+nu <= 0")
    out = np.exp(
        gammaln(m + mu + nu) + gammaln(1 + nu) - gammaln(m + nu)
        + (mu + nu) * math.log(i0)
    )
    return float(out) if out.ndim == 0 else out


def _log_moment_ratio(m: int, mu, nu):
    """log(signal/background moment); positive iff mu > 0."""
    return (
        gammaln(m + mu + nu) + gammaln(m) - gammaln(m + mu) - gammaln(m + nu)
    )


def visibility(m: int, mu, nu):
    """Image visibility |signal-background| / (signal+background).

    Stable form: with d = log of the signal/background moment ratio,
    V = |tanh(d/2)|, so the Gamma products never materialize.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 2, "m >= 2 required")
    _check(m + mu + nu > 0, "m+mu+nu <= 0")
    _check(m + mu > 0, "m+mu <= 0")
    _check(1 + nu > 0, "1+nu <= 0")
    out = np.abs(np.tanh(0.5 * _log_moment_ratio(m, mu, nu)))
    return float(out) if out.ndim == 0 else out


def peak_snr_per_sqrt_n(m: int, mu, nu):
    """Relative peak SNR R_p / sqrt(N) (dimensionless surface value)."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 2, "m >= 2 required")
    _check(m + mu + nu > 0, "m+mu+nu <= 0")
    _check(m + mu > 0, "m+mu <= 0")
    _check(1 + nu > 0, "1+nu <= 0")
    _check(m + 2 * mu + 2 * nu > 0, "m+2*mu+2*nu <= 0")
    _check(1 + 2 * nu > 0, "1+2*nu <= 0")
    ln_sig = gammaln(m + mu + nu) + gammaln(1 + nu) - gammaln(m + nu)
    ln_bg = gammaln(m + mu) + gammaln(1 + nu) - gammaln(m)
    hi = np.maximum(ln_sig, ln_bg)
    lo = np.minimum(ln_sig, ln_bg)
    ln_contrast = hi + np.log1p(-np.exp(lo - hi))
    # noise: order-doubled signal moment minus squared signal moment
    ln_second = gammaln(m + 2 * mu + 2 * nu) + gammaln(1 + 2 * nu) - gammaln(m + 2 * nu)
    ln_square = 2.0 * ln_sig
    _check(ln_second > ln_square, "degenerate variance (second moment <= square)")
    ln_var = ln_second + np.log1p(-np.exp(ln_square - ln_second))
    out = np.exp(ln_contrast - 0.5 * ln_var)
    return float(out) if out.ndim == 0 else out


def peak_snr(m: int, mu, nu, n_samples: int):
    """Peak SNR R_p of the reconstructed image after N samplings."""
    if n_samples < 1:
        raise DomainError("n_samples >= 1 required")
    out = math.sqrt(n_samples) * np.asarray(peak_snr_per_sqrt_n(m, mu, nu))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ValidityFlags:
    """Existence flags for the moment and for its estimator variance."""

    moment_finite: bool
    variance_finite: bool
    reasons: tuple[str, ...]


def _effective_m(mask_or_m) -> int:
    if isinstance(mask_or_m, ObjectMask):
        # small-x exponent of the bucket density: one factor per nonzero unit
        return int(np.count_nonzero(mask_or_m.units))
    return int(mask_or_m)


def validity_domain(mask_or_m, mu: float, nu: float) -> ValidityFlags:
    """Existence check; for grayscale masks the effective-unit role of m is
    played by the count of nonzero units (the small-argument exponent of
    the bucket density)."""
    m = _effective_m(mask_or_m)
    reasons = []
    if not m + mu + nu > 0:
        reasons.append(f"m+mu+nu = {m + mu + nu:g} <= 0")
    if not m + mu > 0:
        reasons.append(f"m+mu = {m + mu:g} <= 0")
    if not 1 + nu > 0:
        reasons.append(f"1+nu = {1 + nu:g} <= 0")
    moment_finite = not reasons
    var_reasons = []
    if not m + 2 * mu + 2 * nu > 0:
        var_reasons.append(f"m+2*mu+2*nu = {m + 2 * mu + 2 * nu:g} <= 0")
    if not 1 + 2 * nu > 0:
        var_reasons.append(f"1+2*nu = {1 + 2 * nu:g} <= 0")
    variance_finite = moment_finite and not var_reasons
    return ValidityFlags(
        moment_finite=moment_finite,
        variance_finite=variance_finite,
        reasons=tuple(reasons + var_reasons),
    )


@dataclass(frozen=True)
class AnalyticPrediction:
    """Closed-form predictions for a binary mask at one order pair."""

    m: int
    mu: float
    nu: float
    i0: float
    n_samples: int
    moment_background: float
    moment_signal: float
    visibility: float
    peak_snr: float | None
    rp_per_sqrt_n: float | None
    moment_finite: bool
    variance_finite: bool


def predict(
    m: int, mu: float, nu: float, n_samples: int, i0: float = 1.0
) -> AnalyticPrediction:
    """Evaluate all closed forms; raises DomainError when the moments do
    not exist, returns None SNR fields (flag false) when only the
    estimator variance diverges."""
    flags = validity_domain(m, mu, nu)
    if not flags.moment_finite:
        raise DomainError("; ".join(flags.reasons))
    rp = rp_rel = None
    if flags.variance_finite:
        rp_rel = peak_snr_per_sqrt_n(m, mu, nu)
        rp = math.sqrt(n_samples) * rp_rel
    return AnalyticPrediction(
        m=m,
        mu=mu,
        nu=nu,
        i0=i0,
        n_samples=n_samples,
        moment_background=moment_background(m, mu, nu, i0),
        moment_signal=moment_signal(m, mu, nu, i0),
        visibility=visibility(m, mu, nu),
        peak_snr=rp,
        rp_per_sqrt_n=rp_rel,
        moment_finite=flags.moment_finite,
        variance_finite=flags.variance_finite,
    )


# ---------------------------------------------------------------------------
# bucket-signal distributions


@dataclass(frozen=True)
class ErlangModel:
    """Bucket law for binary masks: sum of m unit-weight exponentials."""

    m: int
    scale: float  # I0

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("Erlang shape m >= 1 required")
        if self.scale <= 0:
            raise DomainError("scale must be positive")

    @property
    def mean(self) -> float:
        return self.m * self.scale

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(
            (self.m - 1) * np.log(xp)
            - xp / self.scale
            - gammaln(self.m)
            - self.m * math.log(self.scale)
        )
        if self.m == 1:
            out = np.where(x == 0, 1.0 / self.scale, out)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = gammainc(self.m, np.maximum(x, 0.0) / self.scale)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class HypoexponentialModel:
    """Bucket law for grayscale masks: signed mixture of Gamma terms from
    the partial-fraction expansion over (possibly repeated) poles."""

    rates: np.ndarray    # term decay rates lambda_j
    shapes: np.ndarray   # term shapes l (1..multiplicity)
    weights: np.ndarray  # signed mixture weights, sum to 1
    poles: tuple         # ((rate, multiplicity), ...) for reference

    @property
    def mean(self) -> float:
        return float(np.sum(self.weights * self.shapes / self.rates))

    def pdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        acc = np.zeros_like(xp)
        for lam, l, w in zip(self.rates, self.shapes, self.weights):
            acc += w * np.exp(
                l * math.log(lam) + (l - 1) * np.log(xp) - lam * xp - gammaln(l)
            )
        out[pos] = acc
        if np.any(x == 0):
            # only shape-1 terms contribute at the origin
            at0 = sum(w * lam for lam, l, w in zip(self.rates, self.shapes, self.weights) if l == 1)
            out[x == 0] = at0
        return out if np.asarray(x).ndim else float(out[0])

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        xp = np.maximum(x, 0.0)
        for lam, l, w in zip(self.rates, self.shapes, self.weights):
            out += w * gammainc(l, lam * xp)
        return out if np.asarray(x).ndim else float(out[0])


@dataclass(frozen=True)
class LaplaceInversionModel:
    """Numerical-inversion fallback for ill-conditioned pole clusters.

    Evaluates the bucket density by fixed-Talbot inversion of the product
    of per-unit transforms; the CDF inverts transform/s.
    """

    taus: np.ndarray    # distinct nonzero transmittances
    mults: np.ndarray   # multiplicities
    i0: float
    method: str = "fixed-talbot"
    nodes: int = TALBOT_NODES

    @property
    def mean(self) -> float:
        return float(self.i0 * np.sum(self.taus * self.mults))

    @property
    def std(self) -> float:
        return float(self.i0 * math.sqrt(np.sum(self.mults * self.taus**2)))

    def reliable_digits(self) -> float:
        """Estimated significant digits of the inversion near the bulk.

        Fixed-Talbot sums oscillating terms; the digits surviving the
        cancellation are 16 minus the gap between the largest term and the
        density scale (~1/std at the mean). Heavy transforms (many units)
        push the largest contour term astronomically high.
        """
        t = self.mean
        m = self.nodes
        theta = np.arange(1, m) * math.pi / m
        cot = 1.0 / np.tan(theta)
        r = 2.0 * m / (5.0 * t)
        s = r * theta * (cot + 1j)
        exponents = t * np.real(s) + np.real(self._log_transform(s))
        e_max = max(float(exponents.max()), t * r + float(np.real(self._log_transform(np.array(r + 0j)))))
        log_density_peak = -math.log(self.std * math.sqrt(2 * math.pi))
        return 16.0 - (e_max - log_density_peak) / math.log(10.0)

    def _log_transform(self, s: np.ndarray) -> np.ndarray:
        # product of pole factors in complex log space; exp(k*log z) == z**k
        # for integer k on any branch, and the sum never overflows
        out = np.zeros_like(s)
        for tau, k in zip(self.taus, self.mults):
            out = out - int(k) * np.log(1.0 + s * self.i0 * tau)
        return out

    def _invert(self, log_transform, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        m = self.nodes
        theta = np.arange(1, m) * math.pi / m
        cot = 1.0 / np.tan(theta)
        sigma = theta + (theta * cot - 1.0) * cot
        for idx, t in enumerate(x):
            if t <= 0:
                continue
            r = 2.0 * m / (5.0 * t)
            s = r * theta * (cot + 1j)
            terms = np.exp(t * s + log_transform(s)) * (1.0 + 1j * sigma)
            half = 0.5 * np.exp(t * r + log_transform(np.array(r + 0j))).real
            out[idx] = (r / m) * (half + np.sum(np.real(terms)))
        return out

    def pdf(self, x):
        # negatives in the far tail are pure inversion noise
        out = np.maximum(self._invert(self._log_transform, x), 0.0)
        return out if np.asarray(x).ndim else float(out[0])

    def cdf(self, x):
        out = self._invert(lambda s: self._log_transform(s) - np.log(s), x)
        out = np.clip(out, 0.0, 1.0)
        return out if np.asarray(x).ndim else float(out[0])


def bucket_pdf_binary(m: int, i0: float) -> ErlangModel:
    """Bucket density for a binary mask with m effective units."""
    return ErlangModel(m=m, scale=i0)


def joint_pdf_binary(m: int, i0: float, i_b, i_i, t_i: int):
    """Joint bucket/reference density for binary masks.

    The t=1 branch lives on i_i <= i_b (the reference pixel is one summand
    of the bucket); the t=0 branch factorizes into Erlang times
    exponential.
    """
    i_b = np.asarray(i_b, dtype=float)
    i_i = np.asarray(i_i, dtype=float)
    if np.any(i_b < 0) or np.any(i_i < 0):
        raise DomainError("intensities must be nonnegative")
    if t_i not in (0, 1):
        raise DomainError("t_i must be 0 or 1 for the binary joint density")
    if t_i == 1:
        if m < 2:
            raise DomainError("t=1 joint density requires m >= 2")
        diff = i_b - i_i
        inside = diff >= 0
        out = np.zeros(np.broadcast(i_b, i_i).shape)
        d = np.broadcast_to(diff, out.shape)[inside]
        b = np.broadcast_to(i_b, out.shape)[inside]
        with np.errstate(divide="ignore"):
            logd = np.where(d > 0, np.log(np.where(d > 0, d, 1.0)), 0.0)
        vals = (m - 2) * logd - b / i0 - gammaln(m - 1) - m * math.log(i0)
        term = np.exp(vals)
        if m == 2:
            term = np.where(d == 0, np.exp(-b / i0 - 2 * math.log(i0)), term)
        else:
            term = np.where(d == 0, 0.0, term)
        out[inside] = term
        return out if out.ndim else float(out)
    bucket = ErlangModel(m=m, scale=i0).pdf(i_b)
    ref = np.exp(-i_i / i0) / i0
    out = np.asarray(bucket * ref)
    return out if out.ndim else float(out)


def _cluster_rtol(taus: np.ndarray) -> float:
    if taus.size < 2:
        return np.inf
    t = np.sort(taus)
    gaps = np.diff(t) / t[1:]
    return float(gaps.min())


def _partial_fraction_terms(lam: np.ndarray, mult: np.ndarray):
    """Signed Gamma-mixture terms of the density with transform
    prod_j (lam_j/(s+lam_j))^(k_j), via truncated Taylor series of each
    cofactor around its pole (polynomial arithmetic, no numerical
    differentiation)."""
    log_scale = float(np.sum(mult * np.log(lam)))  # log prod lam_j^k_j
    rates, shapes, weights = [], [], []
    for j in range(lam.size):
        k_j = int(mult[j])
        # Taylor coefficients of prod_{i!=j} (u + d_ij)^(-k_i) up to u^(k_j-1)
        series = np.zeros(k_j)
        series[0] = 1.0
        for i in range(lam.size):
            if i == j:
                continue
            d = lam[i] - lam[j]
            k_i = int(mult[i])
            fac = np.array(
                [
                    (-1.0) ** r * math.comb(k_i + r - 1, r) * d ** (-(k_i + r))
                    for r in range(k_j)
                ]
            )
            series = np.convolve(series, fac)[:k_j]
        for l in range(1, k_j + 1):
            c = series[k_j - l]
            if c == 0.0:
                continue
            rates.append(lam[j])
            shapes.append(l)
            weights.append(c * math.exp(log_scale - l * math.log(lam[j])))
    return (
        np.array(rates),
        np.array(shapes, dtype=int),
        np.array(weights),
    )


def bucket_pdf_general(mask: ObjectMask, i0: float):
    """Bucket density of any mask: Erlang for binary, hypoexponential
    partial fractions for distinct values, contour-inversion fallback when
    the expansion is ill-conditioned (clustered values, or weight blowup
    from large multiplicities)."""
    if i0 <= 0:
        raise DomainError("i0 must be positive")
    nonzero = mask.units[mask.units > 0]
    if nonzero.size == 0:
        raise DomainError("all-zero mask has no bucket distribution")
    taus, counts = np.unique(nonzero, return_counts=True)
    if taus.size == 1:
        return ErlangModel(m=int(counts[0]), scale=i0 * float(taus[0]))

    def fallback() -> LaplaceInversionModel:
        model = LaplaceInversionModel(taus=taus, mults=counts, i0=i0)
        if model.reliable_digits() < 4.0:
            raise DomainError(
                "no numerically stable analytic bucket law for this mask: the "
                "partial-fraction expansion is ill-conditioned and the transform "
                "is too heavy for fixed-Talbot inversion (use the Monte-Carlo path)"
            )
        return model

    if _cluster_rtol(taus) < POLE_CLUSTER_RTOL:
        return fallback()
    lam = 1.0 / (i0 * taus)
    rates, shapes, weights = _partial_fraction_terms(lam, counts)
    if not np.all(np.isfinite(weights)) or np.abs(weights).max() > PF_WEIGHT_LIMIT:
        return fallback()
    return HypoexponentialModel(
        rates=rates,
        shapes=shapes,
        weights=weights,
        poles=tuple((float(r), int(k)) for r, k in zip(lam, counts)),
    )


# ---------------------------------------------------------------------------
# general fractional moments from the joint Laplace transform


def moment_general(mask: ObjectMask, pixel: int, mu: float, nu: float, i0: float = 1.0):
    """Fractional moment <I_B^mu I_i^nu> for any mask at one pixel.

    With a_j = t_j*I0 and the joint transform phi(s) = E[exp(-s I_B) I_i^nu]
    = Gamma(1+nu) I0^nu (1+s a_i)^-(1+nu) prod_{j!=i} (1+s a_j)^-1, the moment
    is int_0^inf s^(K-mu-1) (-d/ds)^K phi ds / Gamma(K-mu), K = 0 for mu < 0
    and floor(mu)+1 otherwise (Cressie & Borkent 1986). The derivative comes
    from the all-positive recursion g_{n+1} = sum_r C(n,r) c_{r+1} g_{n-r} for
    g_n = (-1)^n phi^(n)/phi, c_r = (r-1)! sum_j k_j (a_j/(1+s a_j))^r; the
    integral runs over u = log(s S), S the mean bucket, in log space.
    """
    # deferred: scipy.integrate adds ~0.3 s to the package import time
    from scipy.integrate import quad

    if not 0 <= pixel < mask.n:
        raise DomainError(f"pixel {pixel} out of range for n={mask.n}")
    if not nu > -1:
        raise DomainError("1+nu <= 0")
    if not i0 > 0:
        raise DomainError("i0 must be positive")
    t_i = float(mask.units[pixel])
    others = np.delete(mask.units, pixel)
    # phi's factors (1 + s a_j)^-k_j: distinct nonzero values, k_j their multiplicities
    taus, counts = np.unique(others[others > 0], return_counts=True)
    if t_i == 0 and taus.size == 0:
        raise DomainError("bucket signal is identically zero for this mask")
    # phi falls off like s^-(m' + (1+nu)[t_i>0]): the integral converges iff exponent > 0
    exponent = counts.sum() + mu + (1 + nu) * (t_i > 0)
    if not 0 < exponent < math.inf:
        raise DomainError(f"no finite moment: m' + mu + (1+nu)[t_i>0] = {exponent:g}")

    a, k = taus * i0, counts.astype(float)
    if t_i > 0:  # the pixel's own factor has k = 1+nu
        a, k = np.append(a, t_i * i0), np.append(k, 1.0 + nu)
    scale = float(k @ a)
    log_b = np.log(a / scale)
    order = 0 if mu < 0 else math.floor(mu) + 1

    def integrand(u: float) -> float:
        # s q_j = sigmoid(u + log b_j) = w r_j with w the largest, r_j in (0, 1],
        # so s^K g_K = w^K G_K with G_K the recursion run on the r_j
        softplus = np.logaddexp(0.0, u + log_b)  # log(1 + s a_j)
        log_sq = u + log_b - softplus
        log_w = float(log_sq.max())
        r = np.exp(log_sq - log_w)
        c = [math.factorial(n) * float(k @ r ** (n + 1)) for n in range(order)]
        g = [1.0]
        for n in range(order):
            g.append(sum(math.comb(n, j) * c[j] * g[n - j] for j in range(n + 1)))
        return math.exp(order * log_w - mu * u - float(k @ softplus)) * g[order]

    log_norm = gammaln(1 + nu) + nu * math.log(i0) + mu * math.log(scale) - gammaln(order - mu)
    try:
        value, _, _, *failure = quad(integrand, -np.inf, np.inf, epsrel=1e-12, full_output=1)
        out = value * math.exp(log_norm)
    except OverflowError as exc:
        raise QuadratureError(f"moment overflows a double (mu={mu}, nu={nu})") from exc
    if failure or not math.isfinite(out):
        reason = failure[0] if failure else "non-finite value"
        raise QuadratureError(f"moment integral failed (mu={mu}, nu={nu}, t_i={t_i}): {reason}")
    return out
