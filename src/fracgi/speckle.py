"""Ideal pseudo-thermal speckle frames and bucket signals.

Per-unit intensities are i.i.d. negative-exponential with mean I_0; the
bucket signal is the transmittance-weighted sum over units. Frame j of an
n-unit source is the uniforms at positions [j*n, (j+1)*n) of the single
stream PCG64(seed), which jumps to any position in O(log) steps, so frame
j is a pure function of (seed, j), any batch of frames is one bulk draw,
and any parallel schedule reproduces the same sample set bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .objects import ObjectMask

__all__ = [
    "TINY_INTENSITY",
    "RNG_LAYOUT",
    "SpeckleConfig",
    "SampleSet",
    "run_simulation",
]

# clamp floor for intensities: smallest positive normal double, so that
# negative-order powers never see log(0)
TINY_INTENSITY = float(np.finfo(np.float64).tiny)

# name of the frame-to-stream layout, recorded in run reports
RNG_LAYOUT = "pcg64-stream"

# a batch holds at most 2^18 doubles (2 MB, one core's L2 cache), so each
# elementwise stage over it runs in cache rather than through main memory
_BATCH_VALUES = 2**18
_MAX_BATCH_FRAMES = 2048


@dataclass(frozen=True)
class SpeckleConfig:
    """Source parameters: mean intensity, RNG seed, unit count."""

    i0: float
    seed: int
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.i0) and self.i0 > 0):
            raise ValueError("mean intensity i0 must be positive")
        if self.n < 1:
            raise ValueError("unit count n must be at least 1")
        integral = isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
        if not (integral and 0 <= operator.index(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "seed", operator.index(self.seed))


def _intensity_block(config: SpeckleConfig, start: int, count: int) -> np.ndarray:
    """Reference intensities of frames [start, start + count), one row each.

    Frame j takes the doubles at stream positions [j*n, (j+1)*n), one
    64-bit output each, so the draw advances the generator by start*n
    (a 128-bit jump) and reads count*n doubles in one call. Exponential
    sampling by inverse CDF, -i0*log(1-u) with u in [0, 1) on the 2^-53
    grid, so 1-u is exact and stays in (0, 1]; exact zeros and underflows
    clamp to the smallest positive normal intensity. The transform runs
    in place: a batch holds one array of its size.
    """
    bitgen = np.random.PCG64(config.seed).advance(start * config.n)
    out = np.random.Generator(bitgen).random((count, config.n))
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    out *= -config.i0
    return np.maximum(out, TINY_INTENSITY, out=out)


@dataclass(frozen=True)
class SampleSet:
    """Deterministic stream of N speckle frames with buckets attached.

    Re-iterable in batches; every pass regenerates identical frames.
    """

    config: SpeckleConfig
    mask: ObjectMask
    n_frames: int

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("frame count must be at least 1")
        if self.config.n != self.mask.n:
            raise ValueError("config unit count does not match mask")

    @property
    def batch_size(self) -> int:
        """Frames per batch: the largest power of two no greater than
        2^18 / n, capped at 2048 and at least 1.

        It depends only on the unit count n, so how frames are grouped
        into batches, and every sum over a batch, is the same for any
        worker or BLAS thread count.
        """
        fit = max(_BATCH_VALUES // self.config.n, 1)
        return min(1 << (fit.bit_length() - 1), _MAX_BATCH_FRAMES)

    def iter_batches(
        self, batch_size: int | None = None, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (first_index, reference_block, bucket_vector) batches of
        ``batch_size`` frames, by default ``self.batch_size``.

        Each bucket is one row reduction of its frame, which does not
        depend on how many rows the batch holds (a BLAS mat-vec may).
        """
        batch_size = self.batch_size if batch_size is None else batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        stop = self.n_frames if stop is None else stop
        weights = self.mask.units
        for first in range(start, stop, batch_size):
            count = min(batch_size, stop - first)
            refs = _intensity_block(self.config, first, count)
            buckets = np.einsum("fp,p->f", refs, weights)
            yield first, refs, buckets

    def buckets(self, batch_size: int | None = None) -> np.ndarray:
        """All N bucket values in frame order."""
        out = np.empty(self.n_frames)
        for first, refs, buckets in self.iter_batches(batch_size):
            out[first : first + buckets.size] = buckets
        return out


def run_simulation(config: SpeckleConfig, mask: ObjectMask, n_frames: int) -> SampleSet:
    """Forward model: N frames of reference intensities with bucket values."""
    return SampleSet(config=config, mask=mask, n_frames=n_frames)

