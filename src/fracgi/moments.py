"""Streaming estimation of fractional-order moments and normalized ghost images.

The reconstruction statistic per pixel i is the normalized moment

    g[i] = <I_B^mu I_i^nu> / (<I_B^mu> <I_i^nu>)

estimated from N frames. One pass keeps plain running sums for all order
pairs at once: per batch and per distinct nu, the reference powers R and
their column sums are computed once, and each order's joint sums are the
mat-vecs b @ R and b^2 @ R^2, b its bucket powers. One stacked product per nu
would be a GEMM, but then an order's bits would depend on how many orders
share its nu. Frames are sharded in fixed 8192-frame ranges and each shard's
sums are added to the total in shard-index order as they arrive, so results
do not depend on the worker count. A worker pool is handed the shards in
windows of 32 per worker, so memory does not grow with N at any worker
count, also under null pairing, where each batch draws one more frame for
its last bucket. Every product goes through np.dot, which releases the
GIL: @ keeps it on letter A's 2048 x 49 batches, two-row products like
[b; b^2] @ R included, so workers would take turns; new products need it too.

Given a unit-to-group matrix P, the pass reduces per-frame group values
y_f = I_B^mu * sum_i P[i, c] I_i^nu instead of pixels; with class-averaging
columns these are the class statistics ``fracgi validate`` checks.
"""

from __future__ import annotations

import functools
import itertools
import queue
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .objects import DomainError
from .speckle import SampleSet, TINY_INTENSITY
from .theory import violations

__all__ = [
    "MomentOrder",
    "GhostImage",
    "multi_order_pass",
]

# frames per shard: a multiple of every batch size (powers of two <= 2048),
# so a shard never starts mid-batch; fixed, since the sums' bits depend on it
_SHARD_SIZE = 8192

# shards a worker pool is handed at a time, per worker: many more than one,
# since the pool idles at each window's end (windows of one shard per
# worker cost a two-worker pass on letter A about a tenth of its speed)
_WINDOW = 32


@dataclass(frozen=True)
class MomentOrder:
    """Fractional order pair (mu for the bucket, nu for the reference).

    mu = 0 is rejected: the image would be identically <I_i^nu> with no
    object dependence. nu must be positive by default; nu in (-1/2, 0] is
    admitted only via ``allow_small_negative_nu`` (estimates get heavy
    tails), and nu <= -1/2 is always refused because the estimator
    variance is infinite there (the existence table's rows at m = inf).
    """

    mu: float
    nu: float
    allow_small_negative_nu: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.nu)):
            raise DomainError("orders must be finite")
        if self.mu == 0:
            raise DomainError("mu = 0 is rejected: the image degenerates to a constant")
        if reasons := violations("signal variance", np.inf, self.mu, self.nu):
            raise DomainError(f"estimator variance is infinite ({'; '.join(reasons)})")
        if self.nu <= 0 and not self.allow_small_negative_nu:
            raise DomainError(f"nu = {self.nu} <= 0 requires allow_small_negative_nu")
        if self.nu <= 0:
            warnings.warn(f"nu = {self.nu} <= 0: heavy-tailed estimates, expect slow convergence",
                          stacklevel=3)  # past the dataclass-made __init__, to the caller


def _power(values: np.ndarray, exponent: float,
           out: np.ndarray | None = None) -> np.ndarray:
    # powers of positive values (the sampler floors every intensity at
    # TINY_INTENSITY), written into ``out`` or else one new array: nu = 0.5
    # is a correctly rounded sqrt, other exponents go through log space
    # (fractional orders, wide dynamic range); overflow to inf is detected
    # by the caller
    if exponent == 0.5:
        return np.sqrt(values, out=out)
    out = np.log(values, out=out)
    with np.errstate(over="ignore"):
        out *= exponent
        return np.exp(out, out=out)


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
        by the normalization. It ignores the covariance of the numerator
        with the two denominators, so it overstates g's spread: on letter A
        it is 2.0-8.9x the across-seed sd of g per pixel and 4.3-12.9x on
        class averages. A delta-method SE that keeps those covariances would not."""
        return self.joint_se() / (self.bucket_mean * self.ref_mean)


class _Sums:
    """Running sums of one shard for all order pairs at once.

    ``joint``/``joint2`` (orders x pixels) sum I_B^mu I_i^nu and its square
    (orders doubled), ``ref`` (distinct nu x pixels) sums I_i^nu, and
    ``bucket``/``bucket2`` (orders) sum I_B^mu and I_B^{2mu}. Every summand
    is positive, and a frame's term goes through at most B - 1 additions in
    its batch of B frames, S/B in its shard of S frames and N/S across
    shards, so plain sums err by at most about (B + S/B + N/S) u relative
    (Higham 2002, Accuracy and Stability of Numerical Algorithms, sec. 4).
    """

    def __init__(self, orders: list[MomentOrder], n_pixels: int):
        self.orders = orders
        self.mus = np.array([o.mu for o in orders])[:, None]
        self.nus = sorted({o.nu for o in orders})
        self.nu_index = [self.nus.index(o.nu) for o in orders]
        self.rows = [[i for i, o in enumerate(orders) if o.nu == nu] for nu in self.nus]
        self.joint = np.zeros((len(orders), n_pixels))
        self.joint2 = np.zeros((len(orders), n_pixels))
        self.ref = np.zeros((len(self.nus), n_pixels))
        self.bucket = np.zeros(len(orders))
        self.bucket2 = np.zeros(len(orders))
        self.n = 0

    def add_batch(self, refs: np.ndarray, buckets: np.ndarray,
                  groups: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> None:
        """Accumulate a block of frames (rows of ``refs``), all orders at once;
        ``groups`` maps each frame's reference powers to group values. The
        reference powers go into ``scratch`` (at least as many rows as
        ``refs``) when given, else into a new array."""
        if scratch is not None:
            scratch = scratch[: refs.shape[0]]
        log_b = np.log(np.maximum(buckets, TINY_INTENSITY))  # one log for every mu
        # an overflow here is detected below and raised as DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            b = log_b * self.mus
            np.exp(b, out=b)
            b2 = b * b
            for j, nu in enumerate(self.nus):
                r = _power(refs, nu, scratch)
                if groups is not None:
                    r = np.dot(r, groups)
                self.ref[j] += r.sum(axis=0)
                for i in self.rows[j]:
                    self.joint[i] += np.dot(b[i], r)
                np.square(r, out=r)
                for i in self.rows[j]:
                    self.joint2[i] += np.dot(b2[i], r)
            self.bucket += b.sum(axis=1)
            self.bucket2 += b2.sum(axis=1)
        self.n += buckets.size
        self._require_finite()

    def merge(self, other: "_Sums") -> "_Sums":
        """Fold another shard's sums into these (call in shard order)."""
        with np.errstate(over="ignore"):  # detected below and raised as DomainError
            self.joint += other.joint
            self.joint2 += other.joint2
            self.ref += other.ref
            self.bucket += other.bucket
            self.bucket2 += other.bucket2
        self.n += other.n
        self._require_finite()
        return self

    def _require_finite(self) -> None:
        # a joint, reference or bucket sum overflows only if a squared one does
        finite = np.isfinite(self.joint2).all(axis=1) & np.isfinite(self.bucket2)
        if not finite.all():
            order = self.orders[int(np.argmin(finite))]
            raise DomainError(
                f"non-finite power at orders (mu={order.mu}, nu={order.nu}): "
                "order/scale mismatch (power overflow)"
            )

    def finalize(self, width: int, height: int) -> list[GhostImage]:
        """One normalized ghost image with raw moment estimates per order."""
        if self.n < 2:
            raise ValueError("need at least 2 frames to finalize")
        n = self.n
        images = []
        for i, order in enumerate(self.orders):
            joint_mean = self.joint[i] / n
            ref_mean = self.ref[self.nu_index[i]] / n
            bucket_mean = float(self.bucket[i]) / n
            if bucket_mean <= 0 or np.any(ref_mean <= 0):
                raise ValueError("degenerate normalization (zero mean power)")
            g = joint_mean / (bucket_mean * ref_mean)
            if not np.all(np.isfinite(g) & (g > 0)):
                raise ValueError("non-finite or non-positive ghost image pixel")
            images.append(GhostImage(
                width=width,
                height=height,
                mu=order.mu,
                nu=order.nu,
                n_samples=n,
                g=g,
                joint_mean=joint_mean,
                joint2_mean=self.joint2[i] / n,
                ref_mean=ref_mean,
                bucket_mean=bucket_mean,
                bucket2_mean=float(self.bucket2[i]) / n,
            ))
        return images


def multi_order_pass(
    samples: SampleSet,
    orders: list[MomentOrder],
    *,
    workers: int = 1,
    null_pairing: bool = False,
    groups: np.ndarray | None = None,
) -> list[GhostImage]:
    """One streaming pass over the sample set for all order pairs at once.

    Frames are processed in fixed-size shards, and each shard's sums are
    added to the total in shard-index order as they arrive, so results are
    identical for any worker count and memory does not grow with N.
    ``null_pairing`` pairs the reference of frame j with the bucket of
    frame (j + 1) mod N, which destroys the bucket-reference correlation
    (decorrelation null runs): a batch takes its own buckets shifted by
    one, and the last from a one-frame draw of the frame after it.
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

    # one reference block and one power scratch per worker, reused by every
    # batch of its shards: a batch-sized array freed per batch goes back to
    # the kernel and is faulted in again by the next batch
    starts = range(0, samples.n_frames, _SHARD_SIZE)
    shape = (min(samples.batch_size, samples.n_frames), samples.config.n)
    buffers = queue.SimpleQueue()
    for _ in range(min(workers, len(starts))):
        buffers.put((np.empty(shape), np.empty(shape)))

    def process(start: int) -> _Sums:
        sums = _Sums(orders, width * height)
        stop = min(start + _SHARD_SIZE, samples.n_frames)
        block, scratch = buffers.get()
        try:
            for first, refs, buckets in samples.iter_batches(start=start, stop=stop, out=block):
                if null_pairing:  # drawn into the scratch, which add_batch overwrites
                    after = (first + buckets.size) % samples.n_frames
                    ((_, _, last),) = samples.iter_batches(after, after + 1, out=scratch)
                    buckets = np.concatenate([buckets[1:], last])
                sums.add_batch(refs, buckets, groups, scratch)
        finally:
            buffers.put((block, scratch))
        return sums

    # the first shard's sums are the total; both maps yield lazily, in order,
    # and the pool holds at most one window's futures and sums
    if workers == 1:
        total = functools.reduce(_Sums.merge, map(process, starts))
    else:
        window = _WINDOW * workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = itertools.chain.from_iterable(
                pool.map(process, starts[i:i + window]) for i in range(0, len(starts), window))
            total = functools.reduce(_Sums.merge, shards)
    return total.finalize(width, height)
