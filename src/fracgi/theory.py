"""Closed-form and semi-analytic statistics of ideal thermal-light ghost imaging.

Binary masks (t in {0,1}) with m effective units admit closed forms built
from Gamma-function ratios:

    bucket density     P_B(x) = x^(m-1) exp(-x/I0) / ((m-1)! I0^m)
    background moment  <I_B^mu I_i^nu>_0 = G(m+mu) G(1+nu) / G(m) * I0^(mu+nu)
    signal moment      <I_B^mu I_i^nu>_1 = G(m+mu+nu) G(1+nu) / G(m+nu) * I0^(mu+nu)
    visibility         V = |G(m+mu+nu)G(m) - G(m+mu)G(m+nu)|
                           / (G(m+mu+nu)G(m) + G(m+mu)G(m+nu))

with G the Gamma function; peak SNR combines the order-doubled moment with
the squared signal moment and the sampling count. Every bucket law is one
GammaMixtureModel: a mixture of Gamma laws with nonnegative weights (the
sum of one Gamma law per transmittance level), whose one-term case is the
binary Erlang density above; the binary joint density is the Erlang law
of the other units times the pixel's exponential. General moments are one
integral over the joint bucket/reference Laplace transform.

Everything is evaluated in log space with one final exponentiation; the
Gamma ratios overflow doubles long before the results do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .objects import DomainError, ObjectMask

__all__ = [
    "DomainError",
    "QuadratureError",
    "ValidityFlags",
    "AnalyticPrediction",
    "moment_background",
    "moment_signal",
    "visibility",
    "peak_snr_per_sqrt_n",
    "EXISTENCE",
    "exists",
    "violations",
    "validity_domain",
    "require_moment",
    "predict",
    "GammaMixtureModel",
    "joint_pdf_binary",
    "bucket_pdf_general",
    "moment_general",
]

# Gamma-mixture bucket law
_WEIGHT_TRIM = 1e-17  # weights kept down to this fraction of the largest
_TAIL_SDS = 40.0      # term-count allowance past mean(N), in sd(N)
_TERM_CAP = 1 << 16   # most terms before the Monte-Carlo path is named
_RESTART = 32         # Poisson-term recurrence steps between exact restarts
_BLOCK = 1 << 15      # points per cache-sized block of that recurrence


class QuadratureError(RuntimeError):
    """Numerical integration failed to converge or returned a non-finite value."""


# Existence rule: (rule, quantity, value) rows whose quantities must all be
# > 0. The binary moments need their Gamma arguments positive at both pixel
# classes; an estimator's variance needs the moment at the doubled orders
# (2mu, 2nu). A background (t=0) reference is independent of its bucket, so
# its variance needs m+2mu where a signal pixel's needs m+2mu+2nu.
EXISTENCE = (
    ("moment", "m+mu+nu", lambda m, mu, nu: m + mu + nu),
    ("moment", "m+mu", lambda m, mu, nu: m + mu),
    ("moment", "1+nu", lambda m, mu, nu: 1 + nu),
    ("signal variance", "m+2*mu+2*nu", lambda m, mu, nu: m + 2 * mu + 2 * nu),
    ("signal variance", "1+2*nu", lambda m, mu, nu: 1 + 2 * nu),
    ("background variance", "m+2*mu", lambda m, mu, nu: m + 2 * mu),
    ("background variance", "1+2*nu", lambda m, mu, nu: 1 + 2 * nu),
)


def exists(rule: str, m, mu, nu):
    """Whether every quantity of ``rule`` is > 0; elementwise over arrays."""
    return np.logical_and.reduce([f(m, mu, nu) > 0 for r, _, f in EXISTENCE if r == rule])


def violations(rule: str, m, mu, nu) -> list[str]:
    """The quantities of ``rule`` that are not > 0, as reasons
    "q = value <= 0"; over arrays, with the least value of q."""
    values = [(q, f(m, mu, nu)) for r, q, f in EXISTENCE if r == rule]
    return [f"{q} = {np.min(v):g} <= 0" for q, v in values if not np.all(v > 0)]


def _check(condition, reason: str) -> None:
    if not np.all(condition):
        raise DomainError(reason)


def _require(rule: str, m, mu, nu) -> None:
    reasons = violations(rule, m, mu, nu)
    _check(not reasons, "; ".join(reasons))


def moment_background(m: int, mu, nu, i0: float = 1.0):
    """Background fractional moment <I_B^mu I_i^nu> at a t=0 pixel."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 1, "m >= 1 required")
    _require("moment", m, mu, nu)
    _check(0 < i0 < math.inf, "i0 must be positive and finite")
    out = np.exp(
        gammaln(m + mu) + gammaln(1 + nu) - gammaln(m) + (mu + nu) * math.log(i0)
    )
    return float(out) if out.ndim == 0 else out


def moment_signal(m: int, mu, nu, i0: float = 1.0):
    """Signal fractional moment <I_B^mu I_i^nu> at a t=1 pixel."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 1, "m >= 1 required")
    _require("moment", m, mu, nu)
    _check(0 < i0 < math.inf, "i0 must be positive and finite")
    out = np.exp(
        gammaln(m + mu + nu) + gammaln(1 + nu) - gammaln(m + nu)
        + (mu + nu) * math.log(i0)
    )
    return float(out) if out.ndim == 0 else out


def visibility(m: int, mu, nu):
    """Image visibility |signal-background| / (signal+background).

    Stable form: with d = log of the signal/background moment ratio,
    V = |tanh(d/2)|, so the Gamma products never materialize. d is grouped
    as two differences that each cancel exactly at nu = 0, where V = 0.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 2, "m >= 2 required")
    _require("moment", m, mu, nu)
    d = (gammaln(m + mu + nu) - gammaln(m + mu)) - (gammaln(m + nu) - gammaln(m))
    out = np.abs(np.tanh(0.5 * d))
    return float(out) if out.ndim == 0 else out


def peak_snr_per_sqrt_n(m: int, mu, nu):
    """Relative peak SNR R_p / sqrt(N) (dimensionless surface value)."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _check(m >= 2, "m >= 2 required")
    _require("moment", m, mu, nu)
    _require("signal variance", m, mu, nu)
    ln_sig = gammaln(m + mu + nu) + gammaln(1 + nu) - gammaln(m + nu)
    ln_bg = gammaln(m + mu) + gammaln(1 + nu) - gammaln(m)
    hi = np.maximum(ln_sig, ln_bg)
    lo = np.minimum(ln_sig, ln_bg)
    with np.errstate(divide="ignore"):  # nu = 0: equal moments, contrast 0
        ln_contrast = hi + np.log1p(-np.exp(lo - hi))
    # noise: order-doubled signal moment minus squared signal moment
    ln_second = gammaln(m + 2 * mu + 2 * nu) + gammaln(1 + 2 * nu) - gammaln(m + 2 * nu)
    ln_square = 2.0 * ln_sig
    _check(ln_second > ln_square, "degenerate variance (second moment <= square)")
    ln_var = ln_second + np.log1p(-np.exp(ln_square - ln_second))
    out = np.exp(ln_contrast - 0.5 * ln_var)
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
    the bucket density). The variance flag is the signal class's."""
    m = _effective_m(mask_or_m)
    reasons = violations("moment", m, mu, nu)
    var_reasons = violations("signal variance", m, mu, nu)
    return ValidityFlags(
        moment_finite=not reasons,
        variance_finite=not reasons and not var_reasons,
        reasons=tuple(reasons + var_reasons),
    )


def require_moment(mask_or_m, mu: float, nu: float) -> ValidityFlags:
    """validity_domain, raising DomainError when the moment does not exist."""
    flags = validity_domain(mask_or_m, mu, nu)
    _check(flags.moment_finite, f"orders mu={mu:g}, nu={nu:g}: " + "; ".join(flags.reasons))
    return flags


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
    _check(n_samples >= 1, "n_samples >= 1 required")
    flags = require_moment(m, mu, nu)
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
class GammaMixtureModel:
    """Bucket law of any mask: a mixture of Gamma(shape+n, scale) laws
    with nonnegative weights (Moschopoulos 1985, Ann. Inst. Statist. Math. 37:541).

    With y = x/scale and the Poisson terms d_t(y) = y^t e^-y / t!, the density
    is sum_n w_n d_(shape+n-1)(y) / scale and, by P(s+1, y) = P(s, y) - d_s(y),
    the CDF is sum_(j<J-1) C_j d_(shape+j)(y) + P(shape+J-1, y), C the
    cumulative weights: sums of nonnegative terms, so nothing cancels.
    """

    scale: float         # theta = I0 * smallest nonzero t
    shape: int           # Gamma shape of the first kept term
    weights: np.ndarray  # nonnegative, sum to 1
    mean: float          # I0 * sum t

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = _poisson_sum(self._reduced(x), self.shape - 1, self.weights / self.scale)
        # x < 0 shares y = 0 with x = 0, where a shape-1 law has density 1/scale
        out = np.where(x < 0, 0.0, out)
        return out if out.ndim else float(out)

    def cdf(self, x):
        y = self._reduced(x)
        head = _poisson_sum(y, self.shape, np.cumsum(self.weights)[:-1])
        return np.minimum(head + gammainc(self.shape + self.weights.size - 1, y), 1.0)

    def _reduced(self, x):
        # y = x/scale; x <= 0 maps to y = 0 (zero CDF), x = inf to the
        # largest double, where every Poisson term underflows to zero
        return np.clip(np.asarray(x, dtype=float) / self.scale, 0.0, np.finfo(float).max)


def _erlang(shape: int, scale: float) -> GammaMixtureModel:
    """Gamma(shape, scale) law of a sum of shape i.i.d. exponentials: one term."""
    return GammaMixtureModel(scale=scale, shape=shape, weights=np.ones(1), mean=shape * scale)


def _poisson_sum(y, t0: int, coef: np.ndarray):
    """sum_j coef[j] d_(t0+j)(y) for y >= 0 and t0 >= 0, d_t the Poisson terms.

    Runs d_t = d_(t-1) y/t over cache-sized blocks of points. Every
    _RESTART terms it restarts from the exact log-space term, so a term
    that underflows far below the mode cannot zero the ones after it.
    """
    flat = np.ravel(y)
    out = np.empty_like(flat)
    for b in range(0, flat.size, _BLOCK):
        yb = flat[b:b + _BLOCK]
        with np.errstate(divide="ignore"):  # log 0 = -inf: every term is 0
            log_y = np.log(yb)
        acc = np.zeros_like(yb)
        for j, c in enumerate(coef):  # j = 0 starts exactly
            t = t0 + j
            if j % _RESTART == 0:
                # d_0 = e^-y, also at y = 0, where t*log(y) would be 0*(-inf)
                term = np.exp((t * log_y if t else 0.0) - yb - math.lgamma(t + 1))
            else:
                term *= yb
                term *= 1.0 / t
            acc += c * term
        out[b:b + _BLOCK] = acc
    return out.reshape(np.shape(y)) if np.ndim(y) else float(out[0])


def joint_pdf_binary(m: int, i0: float, i_b, i_i, t_i: int):
    """Joint bucket/reference density for binary masks.

    The units are independent, so the bucket is t_i*I_i plus an independent
    Erlang(m - t_i, I0) remainder: the density is the remainder's at
    i_b - t_i*i_i times the pixel's exponential density. For t_i = 1 it
    vanishes off i_i <= i_b (the pixel is one summand of the bucket).
    """
    i_b = np.asarray(i_b, dtype=float)
    i_i = np.asarray(i_i, dtype=float)
    _check(not (np.any(i_b < 0) or np.any(i_i < 0)), "intensities must be nonnegative")
    _check(t_i in (0, 1), "t_i must be 0 or 1 for the binary joint density")
    _check(m - t_i >= 1, f"t={t_i} joint density requires m >= {1 + t_i}")
    _check(0 < i0 < math.inf, "i0 must be positive and finite")
    # the pixel's own density is 0 at i_i = inf, whatever inf - inf gave
    with np.errstate(invalid="ignore"):
        remainder = i_b - i_i if t_i else i_b
    out = _erlang(m - t_i, i0).pdf(remainder) * np.exp(-i_i / i0) / i0
    out = np.where(np.isinf(i_i), 0.0, out)
    return out if out.ndim else float(out)


def bucket_pdf_general(mask: ObjectMask, i0: float):
    """Bucket density of any mask as a GammaMixtureModel: one Erlang term for
    one nonzero level, otherwise the Gamma mixture of the sum of independent
    Gamma(k_j, a_j), a_j = I0*t_j over the distinct nonzero levels and k_j
    their counts.

    With theta = min a_j, q_j = 1 - theta/a_j and rho = sum k_j, the bucket
    is Gamma(rho+N, theta), N = sum_j NegBin(k_j, theta/a_j). P(N = n) is
    delta_n / sum(delta) from the all-positive recursion delta_n =
    sum_(i=1..n) g_i delta_(n-i) / n, g_i = sum_j k_j q_j^i. N is log-concave:
    the recursion stops once, past the mode, delta falls below _WEIGHT_TRIM
    of its peak. Masks predicted to need more than _TERM_CAP terms are refused.
    """
    _check(0 < i0 < math.inf, "i0 must be positive and finite")
    nonzero = mask.units[mask.units > 0]
    _check(nonzero.size > 0, "all-zero mask has no bucket distribution")
    taus, counts = np.unique(nonzero, return_counts=True)
    if taus.size == 1:
        return _erlang(int(counts[0]), i0 * float(taus[0]))

    k = counts.astype(float)
    p = taus[0] / taus  # theta / a_j
    q = 1.0 - p
    with np.errstate(over="ignore", divide="ignore"):  # inf for vanishing levels
        # a log-concave tail falls at least like exp(-c/sd): 40 sd is past 1e-17
        terms = float(k @ (q / p)) + _TAIL_SDS * (math.sqrt(float(k @ (q / p**2))) + 1.0)
    _check(terms <= _TERM_CAP,
           f"the analytic bucket law of this mask needs about {terms:.0f} Gamma-mixture "
           f"terms (more than {_TERM_CAP}); use the Monte-Carlo path")
    size = math.ceil(terms)
    powers = np.arange(size, 0, -1)  # g_rev[size - i] = g_i
    g_rev = sum(k_j * q_j**powers for q_j, k_j in zip(q[1:], k[1:]))
    delta = np.zeros(size + 1)
    delta[0] = peak = 1.0
    for n in range(1, size + 1):
        d = delta[:n] @ g_rev[size - n:] / n
        if d > 1e280:  # the recursion is linear in delta: rescale them all
            delta[:n] *= 1e-280
            peak *= 1e-280
            d *= 1e-280
        delta[n] = d
        if d > peak:
            peak = d
        elif d < _WEIGHT_TRIM * peak:
            break
    kept = np.flatnonzero(delta >= _WEIGHT_TRIM * peak)
    weights = delta[kept[0]:kept[-1] + 1]
    return GammaMixtureModel(
        scale=i0 * float(taus[0]),
        shape=int(counts.sum() + kept[0]),
        weights=weights / weights.sum(),
        mean=i0 * float(taus @ k),
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

    _check(0 <= pixel < mask.n, f"pixel {pixel} out of range for n={mask.n}")
    _check(nu > -1, "1+nu <= 0")
    _check(0 < i0 < math.inf, "i0 must be positive and finite")
    t_i = float(mask.units[pixel])
    others = np.delete(mask.units, pixel)
    # phi's factors (1 + s a_j)^-k_j: distinct nonzero values, k_j their multiplicities
    taus, counts = np.unique(others[others > 0], return_counts=True)
    _check(t_i > 0 or taus.size > 0, "bucket signal is identically zero for this mask")
    # phi falls off like s^-(m' + (1+nu)[t_i>0]): the integral converges iff exponent > 0
    exponent = counts.sum() + mu + (1 + nu) * (t_i > 0)
    _check(0 < exponent < math.inf, f"no finite moment: m' + mu + (1+nu)[t_i>0] = {exponent:g}")

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
