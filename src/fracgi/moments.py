"""Streaming estimation of fractional-order moments and normalized ghost images.

The reconstruction statistic per pixel i is the normalized moment

    g[i] = <I_B^mu I_i^nu> / (<I_B^mu> <I_i^nu>)

estimated from N frames. Accumulators keep compensated running sums and can
be merged, so frames may be sharded across workers; merging shard results in
shard-index order reproduces the serial sums.

Given a unit-to-group matrix P, the pass reduces per-frame group values
y_f = I_B^mu * sum_i P[i, c] I_i^nu instead of pixels; with class-averaging
columns these are the class statistics ``fracgi validate`` checks.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .speckle import SampleSet, TINY_INTENSITY, _CompensatedSum

__all__ = [
    "OrderDomainError",
    "MomentOrder",
    "MomentAccumulator",
    "GhostImage",
    "multi_order_pass",
]

DEFAULT_SHARD_SIZE = 8192
_BATCH_SIZE = 2048  # fixed so shard internals never depend on worker count


class OrderDomainError(ValueError):
    """Invalid or non-finite fractional order combination."""


@dataclass(frozen=True)
class MomentOrder:
    """Fractional order pair (mu for the bucket, nu for the reference).

    mu = 0 is rejected: the image would be identically <I_i^nu> with no
    object dependence. nu must be positive by default; nu in (-1/2, 0] is
    admitted only via ``allow_small_negative_nu`` (estimates get heavy
    tails), and nu <= -1/2 is always refused because the estimator
    variance is infinite there.
    """

    mu: float
    nu: float
    allow_small_negative_nu: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.nu)):
            raise OrderDomainError("orders must be finite")
        if self.mu == 0:
            raise OrderDomainError(
                "mu = 0 is rejected: the image degenerates to a constant"
            )
        if self.nu <= -0.5:
            raise OrderDomainError(
                f"nu = {self.nu} <= -1/2: estimator variance is infinite"
            )
        if self.nu <= 0 and not self.allow_small_negative_nu:
            raise OrderDomainError(
                f"nu = {self.nu} <= 0 requires allow_small_negative_nu"
            )
        if self.nu <= 0:
            warnings.warn(
                f"nu = {self.nu} <= 0: heavy-tailed estimates, expect slow convergence",
                stacklevel=2,
            )


def _power(values: np.ndarray, exponent: float) -> np.ndarray:
    # log-domain powers on clamped-positive inputs: fractional exponents,
    # wide dynamic range; overflow to inf is detected by the caller
    with np.errstate(over="ignore"):
        return np.exp(exponent * np.log(np.maximum(values, TINY_INTENSITY)))


@dataclass(frozen=True)
class GhostImage:
    """Finalized reconstruction at one order pair, with the raw estimates
    and second-order sums needed for empirical metrics."""

    width: int
    height: int
    mu: float
    nu: float
    n_samples: int
    g: np.ndarray            # normalized moment per pixel
    joint_mean: np.ndarray   # <I_B^mu I_i^nu> estimate per pixel
    joint2_mean: np.ndarray  # <I_B^{2mu} I_i^{2nu}> estimate per pixel
    ref_mean: np.ndarray     # <I_i^nu> estimate per pixel
    bucket_mean: float       # <I_B^mu> estimate
    bucket2_mean: float      # <I_B^{2mu}> estimate

    def joint_se(self) -> np.ndarray:
        """Per-pixel standard error of the raw joint-moment estimate."""
        var = np.maximum(self.joint2_mean - self.joint_mean**2, 0.0)
        return np.sqrt(var / self.n_samples)

    def g_se(self) -> np.ndarray:
        """Per-pixel standard error of g, from the raw-moment error scaled
        by the normalization (conservative: denominator noise ignored)."""
        return self.joint_se() / (self.bucket_mean * self.ref_mean)


class MomentAccumulator:
    """Single-writer streaming sums for one order pair over n pixels.

    Tracks five compensated sums: per-pixel sum of I_B^mu*I_i^nu, its
    square (orders doubled), per-pixel sum of I_i^nu, and the scalar sums
    of I_B^mu and I_B^{2mu}.
    """

    def __init__(self, n_pixels: int, order: MomentOrder):
        if n_pixels < 1:
            raise ValueError("n_pixels must be positive")
        self.order = order
        self.n_pixels = n_pixels
        self.n_seen = 0
        self._joint = _CompensatedSum(n_pixels)
        self._joint2 = _CompensatedSum(n_pixels)
        self._ref = _CompensatedSum(n_pixels)
        self._bucket = _CompensatedSum(())
        self._bucket2 = _CompensatedSum(())

    # -- updates ------------------------------------------------------------

    def update_batch(self, references: np.ndarray, buckets: np.ndarray) -> None:
        """Accumulate a block of frames (rows of ``references``)."""
        if references.ndim != 2 or references.shape[1] != self.n_pixels:
            raise ValueError("frame size does not match accumulator")
        ref_pow = _power(references, self.order.nu)
        self._update_with_ref_powers(ref_pow, buckets)

    def _update_with_ref_powers(self, ref_pow: np.ndarray, buckets: np.ndarray) -> None:
        bucket_pow = _power(buckets, self.order.mu)
        # an overflow here is detected below and raised as OrderDomainError
        with np.errstate(over="ignore"):
            joint = np.einsum("f,fp->p", bucket_pow, ref_pow)
            joint2 = np.einsum("f,fp->p", np.square(bucket_pow), np.square(ref_pow))
        if not (np.all(np.isfinite(joint2)) and np.isfinite(bucket_pow.sum())):
            raise OrderDomainError(
                f"non-finite power at orders (mu={self.order.mu}, nu={self.order.nu}): "
                "order/scale mismatch (power overflow)"
            )
        self._joint.add(joint)
        self._joint2.add(joint2)
        self._ref.add(ref_pow.sum(axis=0))
        self._bucket.add(bucket_pow.sum())
        self._bucket2.add(np.square(bucket_pow).sum())
        self.n_seen += buckets.size

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Fold another accumulator's sums into this one (call in shard order)."""
        if other.order != self.order or other.n_pixels != self.n_pixels:
            raise ValueError("cannot merge accumulators with different shape or order")
        for mine, theirs in (
            (self._joint, other._joint),
            (self._joint2, other._joint2),
            (self._ref, other._ref),
            (self._bucket, other._bucket),
            (self._bucket2, other._bucket2),
        ):
            mine.add(theirs.value())
        self.n_seen += other.n_seen
        return self

    # -- reads --------------------------------------------------------------

    @property
    def joint_sum(self) -> np.ndarray:
        return self._joint.value()

    @property
    def joint2_sum(self) -> np.ndarray:
        return self._joint2.value()

    @property
    def ref_sum(self) -> np.ndarray:
        return self._ref.value()

    @property
    def bucket_sum(self) -> float:
        return float(self._bucket.value())

    @property
    def bucket2_sum(self) -> float:
        return float(self._bucket2.value())

    def finalize(self, width: int | None = None, height: int | None = None) -> GhostImage:
        """Normalized ghost image plus raw moment estimates."""
        if self.n_seen < 2:
            raise ValueError("need at least 2 frames to finalize")
        if width is None or height is None:
            width, height = self.n_pixels, 1
        if width * height != self.n_pixels:
            raise ValueError("width*height does not match pixel count")
        n = self.n_seen
        joint_mean = self.joint_sum / n
        ref_mean = self.ref_sum / n
        bucket_mean = self.bucket_sum / n
        if bucket_mean <= 0 or np.any(ref_mean <= 0):
            raise ValueError("degenerate normalization (zero mean power)")
        g = joint_mean / (bucket_mean * ref_mean)
        if not np.all(np.isfinite(g) & (g > 0)):
            raise ValueError("non-finite or non-positive ghost image pixel")
        return GhostImage(
            width=width,
            height=height,
            mu=self.order.mu,
            nu=self.order.nu,
            n_samples=n,
            g=g,
            joint_mean=joint_mean,
            joint2_mean=self.joint2_sum / n,
            ref_mean=ref_mean,
            bucket_mean=bucket_mean,
            bucket2_mean=self.bucket2_sum / n,
        )


def _shard_ranges(n_frames: int, shard_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + shard_size, n_frames)) for s in range(0, n_frames, shard_size)]


def multi_order_pass(
    samples: SampleSet,
    orders: list[MomentOrder],
    *,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    pair_shift: int = 0,
    groups: np.ndarray | None = None,
) -> list[GhostImage]:
    """One streaming pass over the sample set, one accumulator per order.

    Frames are processed in fixed-size shards merged in shard-index order,
    so results are identical for any worker count. ``pair_shift`` pairs the
    reference of frame j with the bucket of frame (j + shift) mod N, which
    destroys the bucket-reference correlation (decorrelation null runs).
    ``groups`` (n_units x k) maps each frame's reference powers to k group
    values before accumulation; the images are then k x 1, one pixel per
    group column.
    """
    if not orders:
        raise ValueError("at least one order pair is required")
    if samples.n_frames < 2:
        raise ValueError("need at least 2 frames")
    if workers < 1:
        raise ValueError("workers must be positive")
    width, height = samples.mask.width, samples.mask.height
    if groups is not None:
        if groups.ndim != 2 or groups.shape[0] != samples.config.n:
            raise ValueError(f"groups must be an ({samples.config.n}, k) matrix")
        width, height = groups.shape[1], 1

    shifted = None
    if pair_shift % samples.n_frames != 0:
        shifted = np.roll(samples.buckets(_BATCH_SIZE), -(pair_shift % samples.n_frames))

    distinct_nu = sorted({o.nu for o in orders})

    def process(shard: tuple[int, int]) -> list[MomentAccumulator]:
        start, stop = shard
        accs = [MomentAccumulator(width * height, o) for o in orders]
        for first, refs, buckets in samples.iter_batches(_BATCH_SIZE, start, stop):
            if shifted is not None:
                buckets = shifted[first : first + buckets.size]
            # share reference powers between orders with equal nu
            powers = {nu: _power(refs, nu) for nu in distinct_nu}
            if groups is not None:
                powers = {nu: p @ groups for nu, p in powers.items()}
            for acc in accs:
                acc._update_with_ref_powers(powers[acc.order.nu], buckets)
        return accs

    shards = _shard_ranges(samples.n_frames, shard_size)
    if workers == 1:
        partials = [process(s) for s in shards]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(process, shards))

    merged = partials[0]
    for shard_accs in partials[1:]:
        for acc, part in zip(merged, shard_accs):
            acc.merge(part)
    return [acc.finalize(width, height) for acc in merged]
