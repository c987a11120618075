"""Ideal pseudo-thermal speckle frames and bucket signals.

Per-unit intensities are i.i.d. negative-exponential with mean I_0; the
bucket signal is the transmittance-weighted sum over units. Frame j of an
n-unit source is the uniforms at positions [j*n, (j+1)*n) of the single
counter-based stream Philox(key=seed), so frame j is a pure function of
(seed, j), any batch of frames is one bulk draw, and any parallel schedule
reproduces the same sample set bit for bit.
"""

from __future__ import annotations

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
RNG_LAYOUT = "philox-stream"

_PHILOX_BLOCK = 4  # 64-bit outputs per Philox counter value


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
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _intensity_block(config: SpeckleConfig, start: int, count: int) -> np.ndarray:
    """Reference intensities of frames [start, start + count), one row each.

    Frame j takes the doubles at stream positions [j*n, (j+1)*n); a
    Philox counter value c yields positions [4c, 4c + 4), so the draw
    starts at counter (start*n)//4 and skips the remainder. Exponential
    sampling by inverse CDF, -i0*log(1-u) with u in [0, 1), so the
    argument stays in (0, 1]; exact zeros and underflows clamp to the
    smallest positive normal intensity. The transform runs in place: a
    batch holds one array of its size.
    """
    block, skip = divmod(start * config.n, _PHILOX_BLOCK)
    bitgen = np.random.Philox(key=config.seed, counter=block)
    bitgen.random_raw(skip, output=False)
    out = np.random.Generator(bitgen).random((count, config.n))
    np.negative(out, out=out)
    np.log1p(out, out=out)
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

    def __len__(self) -> int:
        return self.n_frames

    def iter_batches(
        self, batch_size: int = 2048, start: int = 0, stop: int | None = None
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (first_index, reference_block, bucket_vector) batches.

        Each bucket is one row reduction of its frame, which does not
        depend on how many rows the batch holds (a BLAS mat-vec may).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        stop = self.n_frames if stop is None else stop
        weights = self.mask.units
        for first in range(start, stop, batch_size):
            count = min(batch_size, stop - first)
            refs = _intensity_block(self.config, first, count)
            buckets = np.einsum("fp,p->f", refs, weights)
            yield first, refs, buckets

    def buckets(self, batch_size: int = 2048) -> np.ndarray:
        """All N bucket values in frame order."""
        out = np.empty(self.n_frames)
        for first, refs, buckets in self.iter_batches(batch_size):
            out[first : first + buckets.size] = buckets
        return out


def run_simulation(config: SpeckleConfig, mask: ObjectMask, n_frames: int) -> SampleSet:
    """Forward model: N frames of reference intensities with bucket values."""
    return SampleSet(config=config, mask=mask, n_frames=n_frames)

