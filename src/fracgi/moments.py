"""Streaming estimation of fractional-order moments and normalized ghost images.

The reconstruction statistic per pixel i is the normalized moment

    g[i] = <I_B^mu I_i^nu> / (<I_B^mu> <I_i^nu>)

estimated from N frames. One pass keeps plain running sums for all order
pairs at once: per batch and per distinct nu, the reference powers R are
computed once, and the orders sharing that nu are stacked, up to seven at
a time, under a row of ones into one 8-row matrix S of bucket powers b.
S @ R gives the reference column sums (row 0) and each order's joint sums
b @ R; S^2 @ R^2 gives the sums of their squares. A row's bits do not
depend on its position in S or on what the other rows hold, so an order's
image does not depend on which orders run beside it; they do depend on
the row count, which is therefore fixed. A batch short of the batch size
(the pass's last) is padded with zero frames, so every product has one
shape per unit count and the same bits at any BLAS thread count. Frames
are sharded in ranges of 32 batches, at most 8192 frames, and each shard's
sums are added to the total in shard-index order as they arrive, so
results do not depend on the worker count. A worker pool is handed the
shards in windows of 32 per worker, so memory does not grow with N at any
worker count, also under null pairing, where each batch draws one more
frame for its last bucket. Every product goes through np.dot, which
releases the GIL: @ keeps it on letter A's 2048 x 49 batches, so workers
would take turns; new products need it too.

Orders are the paper's: mu of either sign but not 0, and nu > 0 (see
MomentOrder); the closed forms in ``theory`` also cover nu in (-1, 0].

Given a unit-to-group matrix P, the pass reduces per-frame group values
y_f = I_B^mu * sum_i P[i, c] I_i^nu instead of pixels; with class-averaging
columns these are the class statistics ``fracgi validate`` checks.
"""

from __future__ import annotations

import functools
import itertools
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .objects import DomainError
from .speckle import SampleSet, _batch_size

__all__ = [
    "MomentOrder",
    "GhostImage",
    "multi_order_pass",
]

# frames per shard: 32 batches, at most 8192 frames, so a shard never
# starts mid-batch (batch sizes are powers of two <= 2048) and a wide mask's
# 64-frame batches still make shards enough for every worker; a function of
# the unit count alone, since the sums' bits depend on it
_SHARD_SIZE = 8192
_SHARD_BATCHES = 32

# rows of every stacked product: ones, then the bucket powers of up to
# seven orders sharing one nu; fixed, since a row's bits may change with
# the row count (they do between 8 and 16 rows at 2048 x 49)
_ROWS = 8

# floor for bucket values: the smallest positive normal double, so that
# negative-order powers never see log(0)
TINY_INTENSITY = float(np.finfo(np.float64).tiny)

# shards a worker pool is handed at a time, per worker: many more than one,
# since the pool idles at each window's end (windows of one shard per
# worker cost a two-worker pass on letter A about a tenth of its speed)
_WINDOW = 32


@dataclass(frozen=True)
class MomentOrder:
    """Fractional order pair (mu for the bucket, nu for the reference).

    mu may take either sign, but mu = 0 is rejected: the image would be
    identically <I_i^nu> with no object dependence. nu must be positive,
    as the paper requires of the reference order: nu = 0 degenerates the
    same way, and from nu <= -1/2 on the estimator variance is infinite.
    """

    mu: float
    nu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.nu)):
            raise DomainError("orders must be finite")
        if self.mu == 0:
            raise DomainError("mu = 0 is rejected: the image degenerates to a constant")
        if self.nu <= 0:
            raise DomainError(
                f"nu = {self.nu:g} is rejected: the reference order must be positive")


def _power(values: np.ndarray, exponent: float,
           out: np.ndarray | None = None) -> np.ndarray:
    # positive powers of intensities, 0 and -0.0 included, written into
    # ``out`` or else one new array: nu = 0.5 is a correctly rounded sqrt,
    # other exponents go through log space (fractional orders, wide dynamic
    # range), where log 0 = -inf gives exp(-inf) = 0; overflow to inf is
    # detected by the caller
    if exponent == 0.5:
        return np.sqrt(values, out=out)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(values, out=out)
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
    """Running sums of one shard for all order pairs at once, in the shape
    of the stacked products: ``first``/``second`` (stacks x rows x pixels)
    sum S @ R and S^2 @ R^2, ``power``/``power2`` (stacks x rows) the rows
    of S and S^2. An order's sums are at its flat (stack, row) ``slot``,
    its reference sums at row 0 of that stack. Every summand is
    nonnegative, and a frame's term goes through at most B - 1 additions
    in its batch of B frames, S/B in its shard of S = min(8192, 32 B)
    frames and N/S across shards, so plain sums err by at most about
    (B + S/B + N/S) u relative (Higham 2002, Accuracy and Stability of
    Numerical Algorithms, sec. 4).
    """

    def __init__(self, orders: list[MomentOrder], n_pixels: int):
        self.orders = orders
        # per nu, the range of its stacks, which hold its orders at most
        # _ROWS - 1 each below row 0; row 0 and unused rows have exponent 0 (ones)
        self.slot = np.zeros(len(orders), dtype=int)
        self.spans, count = [], 0
        for nu in sorted({o.nu for o in orders}):
            sharing = [i for i, o in enumerate(orders) if o.nu == nu]
            stack, row = divmod(np.arange(len(sharing)), _ROWS - 1)
            self.slot[sharing] = (count + stack) * _ROWS + 1 + row
            self.spans.append((nu, range(count, count + 1 + stack[-1])))
            count += 1 + stack[-1]
        self.exponents = np.zeros((count, _ROWS, 1))
        self.exponents.ravel()[self.slot] = [o.mu for o in orders]
        self.first = np.zeros((count, _ROWS, n_pixels))
        self.second = np.zeros((count, _ROWS, n_pixels))
        self.power = np.zeros((count, _ROWS))
        self.power2 = np.zeros((count, _ROWS))
        self.n = 0

    def add_batch(self, refs: np.ndarray, buckets: np.ndarray,
                  groups: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> None:
        """Accumulate a block of frames, one per bucket, all orders at once;
        ``groups`` maps each frame's reference powers to group values. A
        block short of the batch size of its unit count is padded with zero
        frames, so each product's shape, and so its bits, depend on the unit
        count alone: ``refs`` holds the frames' references and may go on
        with zero rows up to the batch size, and any rows still missing are
        added here. The reference powers go into ``scratch`` (a batch's
        rows) when given, else into a new array."""
        count, size = buckets.size, _batch_size(refs.shape[1])
        log_b = np.log(np.maximum(buckets, TINY_INTENSITY))  # one log for every mu
        # an overflow here is detected below and raised as DomainError
        with np.errstate(over="ignore", invalid="ignore"):
            stack = np.exp(self.exponents * log_b)
            stack2 = stack * stack
            self.power += stack.sum(axis=2)
            self.power2 += stack2.sum(axis=2)
            if count < size:
                if len(refs) < size:
                    refs = np.pad(refs, ((0, size - len(refs)), (0, 0)))
                stack, stack2 = (np.pad(s, ((0, 0), (0, 0), (0, size - count)))
                                 for s in (stack, stack2))
            for nu, span in self.spans:
                r = _power(refs, nu, scratch)
                if groups is not None:
                    r = np.dot(r, groups)
                for c in span:
                    self.first[c] += np.dot(stack[c], r)
                # sqrt(I)^2 is I: at nu = 0.5 the intensities are their own squares
                r = refs if nu == 0.5 and groups is None else np.square(r, out=r)
                for c in span:
                    self.second[c] += np.dot(stack2[c], r)
        self.n += count
        self._require_finite()

    def merge(self, other: "_Sums") -> "_Sums":
        """Fold another shard's sums into these (call in shard order)."""
        with np.errstate(over="ignore"):  # detected below and raised as DomainError
            self.first += other.first
            self.second += other.second
            self.power += other.power
            self.power2 += other.power2
        self.n += other.n
        self._require_finite()
        return self

    def _require_finite(self) -> None:
        # an order's joint, reference or bucket sum overflows only if a squared one does
        finite = np.isfinite(self.second).all(axis=2) & np.isfinite(self.power2)
        finite = finite.ravel()[self.slot]
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
        for order, slot in zip(self.orders, self.slot):
            c, row = divmod(slot, _ROWS)
            joint_mean = self.first[c, row] / n
            ref_mean = self.first[c, 0] / n
            bucket_mean = float(self.power[c, row]) / n
            if bucket_mean <= 0 or np.any(ref_mean <= 0):
                raise DomainError(
                    f"zero mean power at orders (mu={order.mu}, nu={order.nu}): "
                    "order/scale mismatch (power underflow)")
            with np.errstate(divide="ignore", invalid="ignore"):  # refused below
                g = joint_mean / (bucket_mean * ref_mean)
            if not np.all(np.isfinite(g) & (g > 0)):
                raise DomainError(
                    f"non-finite or zero ghost image pixel at orders (mu={order.mu}, "
                    f"nu={order.nu}): order/scale mismatch (power underflow)")
            images.append(GhostImage(
                width=width,
                height=height,
                mu=order.mu,
                nu=order.nu,
                n_samples=n,
                g=g,
                joint_mean=joint_mean,
                joint2_mean=self.second[c, row] / n,
                ref_mean=ref_mean,
                bucket_mean=bucket_mean,
                bucket2_mean=float(self.power2[c, row]) / n,
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

    Frames are processed in shards of min(8192, 32 * batch size) frames,
    and each shard's sums are added to the total in shard-index order as
    they arrive, so results are identical for any worker count and memory
    does not grow with N.
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
    shard_size = min(_SHARD_SIZE, _SHARD_BATCHES * samples.batch_size)
    starts = range(0, samples.n_frames, shard_size)
    shape = (samples.batch_size, samples.config.n)
    buffers = queue.SimpleQueue()
    for _ in range(min(workers, len(starts))):
        buffers.put((np.empty(shape), np.empty(shape)))

    def process(start: int) -> _Sums:
        sums = _Sums(orders, width * height)
        stop = min(start + shard_size, samples.n_frames)
        block, scratch = buffers.get()
        try:
            for first, refs, buckets in samples.iter_batches(start=start, stop=stop, out=block):
                if null_pairing:  # drawn into the scratch, which add_batch overwrites
                    after = (first + buckets.size) % samples.n_frames
                    ((_, _, last),) = samples.iter_batches(after, after + 1, out=scratch)
                    buckets = np.concatenate([buckets[1:], last])
                # a short batch: zero frames pad it in place, so add_batch
                # needs no padded copy (2 MB on a 64x64 mask)
                if buckets.size < len(block):
                    block[buckets.size:] = 0
                    refs = block
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
