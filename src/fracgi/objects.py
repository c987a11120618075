"""Object transmittance masks: loading, saving, classification.

A mask is the imaging target: one transmittance value t in [0, 1] per
object/reference-plane unit, stored flat in raster (row-major) order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "MaskError",
    "ObjectMask",
    "UnitClasses",
    "load_object",
    "save_object_csv",
    "mask_csv_text",
    "classify_units",
    "letter_a_mask",
    "block_mask",
]


class MaskError(ValueError):
    """Unreadable mask source, empty image, or out-of-range values."""


class DomainError(ValueError):
    """Orders or inputs outside a moment's domain; every layer's refusal type."""


@dataclass(frozen=True)
class ObjectMask:
    """Per-unit transmittance map, immutable after construction."""

    width: int
    height: int
    units: np.ndarray  # flat float64, length width*height, raster order

    def __post_init__(self):
        units = np.ascontiguousarray(np.asarray(self.units, dtype=np.float64).ravel())
        if self.width < 1 or self.height < 1:
            raise MaskError("mask dimensions must be at least 1x1")
        if units.size != self.width * self.height:
            raise MaskError(
                f"unit count {units.size} does not match {self.width}x{self.height}"
            )
        if units.size == 0:
            raise MaskError("mask has no units")
        if np.any(~np.isfinite(units)) or units.min() < 0.0 or units.max() > 1.0:
            raise MaskError("transmittance values must lie in [0, 1]")
        units.flags.writeable = False
        object.__setattr__(self, "units", units)

    @property
    def n(self) -> int:
        return self.units.size

    def grid(self) -> np.ndarray:
        """Units reshaped to (height, width)."""
        return self.units.reshape(self.height, self.width)


@dataclass(frozen=True)
class UnitClasses:
    """Partition of unit indices by transmittance class.

    ``m`` is the effective-unit count |one_units|; it is None (undefined)
    when the mask has fractional units, since the concept only applies to
    binary masks.
    """

    zero_units: np.ndarray
    one_units: np.ndarray
    fractional_units: np.ndarray
    m: int | None


def classify_units(mask: ObjectMask) -> UnitClasses:
    """Split unit indices into zero (t = 0), one (t = 1) and fractional
    classes."""
    t = mask.units
    zero = np.flatnonzero(t <= 0.0)
    one = np.flatnonzero(t >= 1.0)
    frac = np.flatnonzero((t > 0.0) & (t < 1.0))
    m = int(one.size) if frac.size == 0 else None
    return UnitClasses(zero_units=zero, one_units=one, fractional_units=frac, m=m)


# ---------------------------------------------------------------------------
# loading / saving


def load_object(source, binarize_threshold: float | None = None) -> ObjectMask:
    """Load a mask from a binary PGM (P5, 8- or 16-bit) or CSV file.

    Pixel values are scaled by 1/maxval of the format (preserving absolute
    transmittance; no min-max normalization). CSV values are taken verbatim
    and must already lie in [0, 1]. With ``binarize_threshold``, scaled
    values map to 1.0 when >= threshold, else 0.0.
    """
    if binarize_threshold is not None and not 0.0 < binarize_threshold < 1.0:
        raise MaskError("binarize threshold must lie in (0, 1)")
    path = Path(source)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise MaskError(f"cannot read mask source {path}: {exc}") from exc
    if raw.startswith(b"P5"):
        width, height, units = _parse_pgm(raw, path)
    else:
        width, height, units = _parse_csv(raw, path)
    if units.size == 0:
        raise MaskError(f"{path}: empty image")
    if binarize_threshold is not None:
        units = np.where(units >= binarize_threshold, 1.0, 0.0)
    return ObjectMask(width=width, height=height, units=units)


def _parse_pgm(raw: bytes, path: Path) -> tuple[int, int, np.ndarray]:
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed; raster starts after the single byte following maxval
    tokens: list[int] = []
    pos = 2  # past "P5"
    while len(tokens) < 3:
        if pos >= len(raw):
            raise MaskError(f"{path}: truncated PGM header")
        c = raw[pos : pos + 1]
        if c == b"#":
            pos = raw.find(b"\n", pos)
            if pos < 0:
                raise MaskError(f"{path}: truncated PGM header")
            pos += 1
        elif c.isspace():
            pos += 1
        else:
            m = re.match(rb"\d+", raw[pos:])
            if m is None:
                raise MaskError(f"{path}: malformed PGM header")
            tokens.append(int(m.group()))
            pos += m.end()
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise MaskError(f"{path}: empty image")
    if not 0 < maxval < 65536:
        raise MaskError(f"{path}: unsupported PGM maxval {maxval}")
    pos += 1  # single whitespace byte before raster
    n = width * height
    # multi-byte PGM samples are big-endian
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    body = raw[pos : pos + n * dtype.itemsize]
    if len(body) != n * dtype.itemsize:
        raise MaskError(f"{path}: PGM raster shorter than {width}x{height}")
    pixels = np.frombuffer(body, dtype=dtype).astype(np.float64)
    if pixels.max(initial=0.0) > maxval:
        raise MaskError(f"{path}: pixel value exceeds declared maxval {maxval}")
    return width, height, pixels / float(maxval)


def _parse_csv(raw: bytes, path: Path) -> tuple[int, int, np.ndarray]:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MaskError(f"{path}: not a PGM and not decodable as CSV text") from exc
    # rows separated by newlines or semicolons, columns by commas
    rows = [r for r in re.split(r"[;\n\r]+", text.strip()) if r.strip()]
    if not rows:
        raise MaskError(f"{path}: empty CSV")
    parsed = []
    for r in rows:
        try:
            parsed.append([float(v) for v in r.split(",") if v.strip()])
        except ValueError as exc:
            raise MaskError(f"{path}: malformed CSV row {r!r}") from exc
    widths = {len(r) for r in parsed}
    if len(widths) != 1:
        raise MaskError(f"{path}: ragged CSV rows (widths {sorted(widths)})")
    arr = np.array(parsed, dtype=np.float64)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise MaskError(f"{path}: CSV values outside [0, 1]")
    return arr.shape[1], arr.shape[0], arr.ravel()


def mask_csv_text(mask: ObjectMask) -> str:
    """The mask as CSV text with full decimal precision (exact round-trip)."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in mask.grid())


def save_object_csv(mask: ObjectMask, path) -> None:
    """Write the mask as CSV with full decimal precision (exact round-trip)."""
    Path(path).write_text(mask_csv_text(mask), encoding="utf-8")


# ---------------------------------------------------------------------------
# built-in test masks

_LETTER_A_ROWS = (
    "0011100",
    "0100010",
    "1000001",
    "1111111",
    "1000001",
    "1000001",
    "1000001",
)


def letter_a_mask() -> ObjectMask:
    """Built-in 7x7 binary letter-A test mask with exactly 20 effective units."""
    units = np.array([int(c) for row in _LETTER_A_ROWS for c in row], dtype=np.float64)
    return ObjectMask(width=7, height=7, units=units)


def block_mask(m: int) -> ObjectMask:
    """Binary mask with exactly ``m`` effective units on a near-square grid.

    The grid holds 2*m units (m ones followed by m zeros in raster order),
    padded with zeros to fill the rectangle; geometry is irrelevant under
    the i.i.d. speckle model, only the counts matter.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    total = 2 * m
    width = int(np.ceil(np.sqrt(total)))
    height = int(np.ceil(total / width))
    units = np.zeros(width * height, dtype=np.float64)
    units[:m] = 1.0
    return ObjectMask(width=width, height=height, units=units)
