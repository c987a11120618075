"""Ideal pseudo-thermal speckle frames and bucket signals.

Per-unit intensities are i.i.d. negative-exponential with mean I_0; the
bucket signal is the transmittance-weighted sum over units. Frame j of an
n-unit source is the uniforms at positions [j*n, (j+1)*n) of the single
stream PCG64(seed), which jumps to any position in O(log) steps, so frame
j is a pure function of (seed, j), any batch of frames is one bulk draw,
and any parallel schedule reproduces the same sample set bit for bit.
``SampleSet(config=, mask=, n_frames=)`` is the forward model: it holds
no frames and draws them batch by batch, in batches whose size depends
only on the unit count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator  # eager: numpy loads numpy.random lazily

from .objects import DomainError, ObjectMask

__all__ = [
    "TINY_INTENSITY",
    "RNG_LAYOUT",
    "SpeckleConfig",
    "SampleSet",
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
            raise DomainError("i0 must be positive and finite")
        if self.n < 1:
            raise ValueError("unit count n must be at least 1")
        integral = isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
        if not (integral and 0 <= operator.index(self.seed) < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "seed", operator.index(self.seed))


def _intensity_block(config: SpeckleConfig, start: int, count: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Reference intensities of frames [start, start + count), one row each.

    Frame j takes the doubles at stream positions [j*n, (j+1)*n), one
    64-bit output each, so the draw advances the generator by start*n
    (a 128-bit jump) and reads count*n doubles in one call. Exponential
    sampling by inverse CDF, -i0*log(1-u) with u in [0, 1) on the 2^-53
    grid, so 1-u is exact and stays in (0, 1]; exact zeros and underflows
    clamp to the smallest positive normal intensity. The draw and the
    transform run in place, in ``out[:count]`` when a buffer of at least
    count rows is given, else in a new array.
    """
    bitgen = PCG64(config.seed).advance(start * config.n)
    block = np.empty((count, config.n)) if out is None else out[:count]
    Generator(bitgen).random(out=block)
    np.subtract(1.0, block, out=block)
    np.log(block, out=block)
    block *= -config.i0
    return np.maximum(block, TINY_INTENSITY, out=block)


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
        self, start: int = 0, stop: int | None = None, out: np.ndarray | None = None
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (first_index, reference_block, bucket_vector) batches of
        ``self.batch_size`` frames over frames [start, stop).

        Each bucket is one row reduction of its frame, which does not
        depend on how many rows the batch holds (a BLAS mat-vec may).
        Every block is a new array unless ``out`` is given: then each one
        is a view of ``out`` (at least ``batch_size`` rows, or stop - start
        if fewer), overwritten by the next batch, which spares a
        batch-sized allocation per batch.
        """
        batch_size = self.batch_size
        stop = self.n_frames if stop is None else stop
        weights = self.mask.units
        for first in range(start, stop, batch_size):
            count = min(batch_size, stop - first)
            refs = _intensity_block(self.config, first, count, out)
            buckets = np.einsum("fp,p->f", refs, weights)
            yield first, refs, buckets
