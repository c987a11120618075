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
binary Erlang density above. General moments are one trapezoidal sum
over the joint bucket/reference Laplace transform.

Everything is evaluated in log space with one final exponentiation; the
Gamma ratios overflow doubles long before the results do. One private
evaluator gives all four binary closed forms from the eight distinct
log-Gammas of an order pair, or of the flat in-domain cells of a grid,
where it evaluates each distinct value once. It has two doors:
``predict`` for one order pair and ``fracgi sweep`` for a grid, whose
values agree bit for bit; ``fracgi validate`` takes its moment targets
from it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objects import DomainError, ObjectMask

__all__ = [
    "DomainError",
    "QuadratureError",
    "ValidityFlags",
    "AnalyticPrediction",
    "EXISTENCE",
    "exists",
    "violations",
    "validity_domain",
    "require_moment",
    "predict",
    "GammaMixtureModel",
    "bucket_pdf_general",
    "moment_general",
]

# Gamma-mixture bucket law
_WEIGHT_TRIM = 1e-17  # weights kept down to this fraction of the largest
_TAIL_SDS = 40.0      # term-count allowance past mean(N), in sd(N)
_TERM_CAP = 1 << 16   # most terms before the Monte-Carlo path is named
_RESTART = 32         # Poisson-term recurrence steps between exact restarts
_BLOCK = 1 << 15      # points per cache-sized block of that recurrence
_STIRLING = 32        # restarts from this t on use Stirling's series for log t!
_STEP = 0.25          # general moments: trapezoidal step in u = log(sS) at K - mu <= 2
_NODE_CAP = 1 << 20   # most nodes before a near-divergent moment is refused
_CELLS = 1 << 20      # doubles per node block of the derivative recursion
_ORDER_CAP = 1 << 10  # largest K of the O(K^2) derivative recursion (mu < 1023)

# log Gamma for scalars and arrays (of dtype object); inf from x = 2.5e305 on, near overflow
_lgamma = np.frompyfunc(lambda x: math.lgamma(x) if x < 2.5e305 else math.inf, 1, 1)


class QuadratureError(RuntimeError):
    """A general moment overflowed a double or its trapezoidal sum is not finite."""


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
    """Whether every quantity of ``rule`` is > 0; elementwise over
    broadcasting arrays."""
    ok = True
    for r, _, f in EXISTENCE:
        if r == rule:
            ok = ok & (f(m, mu, nu) > 0)
    return ok


def violations(rule: str, m, mu, nu) -> list[str]:
    """The quantities of ``rule`` that are not > 0 at scalar orders, as
    reasons "q = value <= 0"."""
    reasons = []
    for r, q, f in EXISTENCE:
        if r == rule and not (v := f(m, mu, nu)) > 0:
            reasons.append(f"{q} = {v:g} <= 0")
    return reasons


def _check(condition, reason: str) -> None:
    if not (condition.all() if isinstance(condition, np.ndarray) else condition):
        raise DomainError(reason)


def _log_gamma(x):
    """log Gamma of a scalar, or of an array with each distinct value
    evaluated once and gathered back."""
    if not isinstance(x, np.ndarray):
        return _lgamma(x)
    values, inverse = np.unique(x, return_inverse=True)
    return _lgamma(values).astype(float)[inverse.reshape(x.shape)]


def _closed_forms(m, mu, nu, i0=1.0, variance=False):
    """(moment_background, moment_signal, visibility, R_p/sqrt(N)) of a
    binary mask at orders whose moments exist; R_p/sqrt(N) is None when
    ``variance`` is False or a scalar moment overflows a double, and
    otherwise needs the signal variance to exist.

    Scalar orders (``variance`` a bool) give scalars. Orders given as two
    arrays of one shape, such as the in-domain cells of a grid, give arrays
    of that shape, and R_p/sqrt(N) only at the true cells of ``variance``,
    a mask of that shape, as one flat array.

    Each distinct log-Gamma value is evaluated once. With a = lgG(m+mu+nu),
    b = lgG(m+mu), c = lgG(m+nu), d = lgG(m) and e = lgG(1+nu), the moments
    are exp((a+e)-c) and exp((b+e)-d) times I0^(mu+nu), and V = |tanh(D/2)|,
    D = (a-b)-(c-d) the log of their ratio: two differences that each
    cancel exactly at nu = 0, where V = 0, so no Gamma product materializes.
    """
    a, b = _log_gamma(m + mu + nu), _log_gamma(m + mu)
    c, d, e = _log_gamma(m + nu), _log_gamma(m), _log_gamma(1 + nu)
    ln_sig, ln_bg = (a + e) - c, (b + e) - d
    ln_i0 = (mu + nu) * math.log(i0)
    v = np.abs(np.tanh(0.5 * ((a - b) - (c - d))))
    with np.errstate(over="ignore"):  # a moment past a double is inf; predict refuses it
        out = [np.exp(ln_bg + ln_i0), np.exp(ln_sig + ln_i0), v, None]
    if variance is False or (variance is True and not np.isfinite(out[0] + out[1])):
        return out
    if isinstance(variance, np.ndarray):
        mu, nu, ln_sig, ln_bg = mu[variance], nu[variance], ln_sig[variance], ln_bg[variance]
    hi = np.maximum(ln_sig, ln_bg)
    lo = np.minimum(ln_sig, ln_bg)
    with np.errstate(divide="ignore"):  # nu = 0: equal moments, contrast 0
        ln_contrast = hi + np.log1p(-np.exp(lo - hi))
    # noise: order-doubled signal moment minus squared signal moment
    ln_second = (_log_gamma(m + 2 * mu + 2 * nu) + _log_gamma(1 + 2 * nu)
                 - _log_gamma(m + 2 * nu))
    ln_square = 2.0 * ln_sig
    _check(ln_second > ln_square, "degenerate variance (second moment <= square)")
    ln_var = ln_second + np.log1p(-np.exp(ln_square - ln_second))
    out[3] = np.exp(ln_contrast - 0.5 * ln_var)
    return out


@dataclass(frozen=True)
class ValidityFlags:
    """Existence flags for the moment and for its estimator variance."""

    moment_finite: bool
    variance_finite: bool
    reasons: tuple[str, ...]


def validity_domain(mask_or_m, mu: float, nu: float) -> ValidityFlags:
    """Existence check; for grayscale masks the effective-unit role of m is
    played by the count of nonzero units (the small-argument exponent of
    the bucket density). The variance flag is the signal class's."""
    m = (int(np.count_nonzero(mask_or_m.units)) if isinstance(mask_or_m, ObjectMask)
         else int(mask_or_m))
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
    not exist or overflow a double, returns None SNR fields (flag false)
    when only the estimator variance diverges."""
    _check(n_samples >= 1, "n_samples >= 1 required")
    _check(math.isfinite(mu) and math.isfinite(nu), "orders must be finite")
    flags = require_moment(m, mu, nu)
    _check(m >= 2, "m >= 2 required")
    _check(0 < i0 < math.inf, "i0 must be positive and finite")
    out = _closed_forms(m, float(mu), float(nu), i0, flags.variance_finite)
    background, signal, v, rp_rel = (None if x is None else float(x) for x in out)
    _check(math.isfinite(background) and math.isfinite(signal),
           f"orders mu={mu:g}, nu={nu:g}: moment overflows a double at m={m}, i0={i0:g}")
    rp = None if rp_rel is None else math.sqrt(n_samples) * rp_rel
    return AnalyticPrediction(
        m=m,
        mu=mu,
        nu=nu,
        i0=i0,
        n_samples=n_samples,
        moment_background=background,
        moment_signal=signal,
        visibility=v,
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
    is sum_n w_n d_(shape+n-1)(y) / scale and, as P(s, y) = sum_(t>=s) d_t(y),
    the CDF is sum_t C_t d_t(y) = 1 - sum_t (1 - C_t) d_t(y), C_t the weights
    of the terms of shape <= t: 0 below shape, 1 from s = shape+J-1 on.
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
        # below y = s the first sum, cut 10 sqrt(s) + 40 terms past s (< 1e-20 of its
        # tail), from there on 1 minus the second, which ends at t = s and is <= ~1/2
        y = self._reduced(x)
        cum = np.cumsum(self.weights)[:-1]
        below = y < self.shape + cum.size
        tail = np.ones(math.ceil(10.0 * math.sqrt(self.shape + cum.size)) + 40)
        out = np.empty_like(y)
        out[below] = _poisson_sum(y[below], self.shape, np.append(cum, tail))
        out[~below] = 1.0 - _poisson_sum(y[~below], 0, np.append(np.ones(self.shape), 1.0 - cum))
        out = np.minimum(out, 1.0)
        return out if out.ndim else float(out)

    def _reduced(self, x):
        # y = x/scale; x <= 0 maps to y = 0 (zero CDF), x = inf to the
        # largest double, where every Poisson term underflows to zero
        return np.clip(np.asarray(x, dtype=float) / self.scale, 0.0, np.finfo(float).max)


def _log_poisson_term(t: int, y, log_y):
    """log d_t(y); from t = _STIRLING on as t (log1p(x) - x) - log(2 pi t)/2 -
    (Stirling tail of log t!), x = y/t - 1, free of t*log(y)'s round-off."""
    if t < _STIRLING:  # d_0 = e^-y, also at y = 0, where t*log(y) would be 0*(-inf)
        return (t * log_y if t else 0.0) - y - math.lgamma(t + 1)
    x = (y - t) / t
    tail = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * t * t)) / (t * t)) / (t * t)) / t
    return t * (np.log1p(x) - x) - 0.5 * math.log(2 * math.pi * t) - tail


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
        # log 0 = -inf and y = inf overflow: every such term is 0
        with np.errstate(divide="ignore", over="ignore"):
            log_y = np.log(yb)
            acc = np.zeros_like(yb)
            for j, c in enumerate(coef):  # j = 0 starts exactly
                t = t0 + j
                if j % _RESTART == 0:
                    term = np.exp(_log_poisson_term(t, yb, log_y))
                else:
                    term *= yb
                    term *= 1.0 / t
                acc += c * term
        out[b:b + _BLOCK] = acc
    return out.reshape(np.shape(y)) if np.ndim(y) else float(out[0])


def bucket_pdf_general(mask: ObjectMask, i0: float):
    """Bucket density of any mask as a GammaMixtureModel: the Gamma mixture
    of the sum of independent Gamma(k_j, a_j), a_j = I0*t_j over the
    distinct nonzero levels and k_j their counts. One level is the Erlang
    law Gamma(k, I0*t): g = 0 stops the recursion after one step, leaving
    the one weight 1.

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
    g_rev = sum((k_j * q_j**powers for q_j, k_j in zip(q[1:], k[1:])), np.zeros(size))
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
    is int_0^inf s^(K-mu-1) (-d/ds)^K phi ds / Gamma(K-mu), K = max(0, floor(mu)+2)
    (Cressie & Borkent 1986). h_n = (-1)^n phi^(n) / (n! phi) obeys the all-positive
    h_(n+1) = sum_(r<=n) p_(r+1) h_(n-r) / (n+1), p_r = sum_j k_j (a_j/(1+s a_j))^r.
    In u = log(s S), S the mean bucket, the integrand falls like exp(rate u), rate = K-mu,
    and exp(-exponent u) at the ends; (-d/ds)^K phi is a Laplace transform, so a step h
    errs by about 2 |Gamma(rate + 2 pi i/h)|/Gamma(rate) relative (Trefethen & Weideman
    2014, SIAM Rev. 56:385), <= 4.5e-15 at h = _STEP min(1, sqrt(2/rate)). Nodes run
    5 + 40/rate past the extreme levels log(a_j/S), log1p(rate/exponent) more on the right.
    """
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
    order = max(0, math.floor(mu) + 2)
    rate = order - mu
    step = _STEP * min(1.0, math.sqrt(2.0 / rate))
    lo = -log_b.max() - 5.0 - 40.0 / rate
    hi = -log_b.min() + 5.0 + 40.0 / exponent + math.log1p(rate / exponent)
    _check(order <= _ORDER_CAP and (hi - lo) / step <= _NODE_CAP,
           f"no trapezoidal moment: mu = {mu:g} too high or exponent {exponent:g} too near 0")
    log_norm = (math.lgamma(1 + nu) + nu * math.log(i0) + mu * math.log(scale)
                - math.lgamma(rate))
    nodes = np.arange(lo, hi, step)[:, None]
    out = 0.0
    # node blocks hold each nodes x (levels + 2K) working set to _CELLS doubles
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: QuadratureError below
        for u in np.array_split(nodes, 1 + nodes.size * (a.size + 2 * order) // _CELLS):
            softplus = np.logaddexp(0.0, u + log_b)  # log(1 + s a_j), nodes x levels
            # s a_j/(1 + s a_j) = w r_j, w the largest, r_j in (0, 1]: s^K h_K = w^K h_K(r)
            log_sq = u + log_b - softplus
            log_w = log_sq.max(axis=1)
            r = np.exp(log_sq - log_w[:, None])
            # h_n(r) <= C(lam+n-1, n), lam = sum_j k_j r_j (as r_j^n <= r_j), whose log is
            # concave in n: run on h_n/rho^n, rho^K = C(lam+K-1, K), all below ~e^(K/e)
            lam = np.maximum(1.0, r @ k)
            log_c = np.asarray(_lgamma(lam + order) - _lgamma(lam), float)  # log C K!
            rho = np.exp((log_c - math.lgamma(order + 1)) / max(order, 1))
            power = [(r / rho[:, None]) ** (n + 1) @ k for n in range(order)]
            h = [np.ones(u.shape[0])]
            for n in range(order):
                h.append(sum(power[j] * h[n - j] for j in range(n + 1)) / (n + 1))
            terms = np.exp(order * log_w + log_c - mu * u[:, 0] - softplus @ k + log_norm)
            out += step * float((terms * h[order]).sum())
    if not math.isfinite(out):
        raise QuadratureError(f"moment overflows a double (mu={mu}, nu={nu}, t_i={t_i})")
    return out
