"""Serialization of ghost images, sweep tables, and run reports.

All writers are deterministic: identical inputs produce byte-identical
files. Images go out as 16-bit binary PGM (maxval 65535, big-endian
samples per the Netpbm convention) with the min-max scale recorded in a
JSON sidecar so absolute values stay recoverable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .moments import GhostImage
from .objects import ObjectMask, mask_csv_text
from .speckle import RNG_LAYOUT

__all__ = [
    "ReportError",
    "ReportSchemaError",
    "ReportVersionError",
    "RunReport",
    "OrderResult",
    "write_ghost_image",
    "read_ghost_image",
    "write_sweep_csv",
    "write_report",
    "read_report",
    "mask_digest",
]

REPORT_VERSION = "2"
SWEEP_HEADER = "m,mu,nu,V,Rp_over_sqrtN,moment_finite,variance_finite"

_PGM_MAXVAL = 65535
_MIDSCALE = 32768  # constant-image pixel level by convention


class ReportError(ValueError):
    pass


class ReportSchemaError(ReportError):
    pass


class ReportVersionError(ReportError):
    pass


def _canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# ghost images


def write_ghost_image(image: GhostImage, path) -> None:
    """Min-max scaled 16-bit PGM plus JSON sidecar with the scale."""
    g = image.g
    if not np.all(np.isfinite(g)):
        raise ReportError("ghost image contains non-finite pixels")
    g_min, g_max = float(g.min()), float(g.max())
    if g_max > g_min:
        pixels = np.rint((g - g_min) / (g_max - g_min) * _PGM_MAXVAL)
    else:
        pixels = np.full_like(g, _MIDSCALE)
    path = Path(path)
    header = f"P5\n{image.width} {image.height}\n{_PGM_MAXVAL}\n".encode("ascii")
    path.write_bytes(header + pixels.astype(">u2").tobytes())
    sidecar = {
        "g_min": g_min,
        "g_max": g_max,
        "width": image.width,
        "height": image.height,
        "mu": image.mu,
        "nu": image.nu,
        "n_samples": image.n_samples,
    }
    path.with_suffix(path.suffix + ".json").write_bytes(_canonical_json(sidecar))


def read_ghost_image(path) -> tuple[np.ndarray, dict]:
    """Recover approximate g values from a PGM plus its sidecar."""
    from .objects import load_object

    path = Path(path)
    mask = load_object(path)  # PGM parser scales to [0, 1] by maxval
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    g = sidecar["g_min"] + mask.units * (sidecar["g_max"] - sidecar["g_min"])
    return g.reshape(mask.height, mask.width), sidecar


# ---------------------------------------------------------------------------
# sweep tables


def _fmt(value: float | None) -> str:
    # invalid-domain cells are left empty
    return "" if value is None else f"{value:.17g}"


def write_sweep_csv(rows, path) -> None:
    """Rows of (m, mu, nu, V, Rp_over_sqrtN, moment_finite, variance_finite);
    V and Rp may be None when the flags are false."""
    lines = [SWEEP_HEADER]
    for m, mu, nu, v, rp, mom_ok, var_ok in rows:
        lines.append(
            f"{m},{_fmt(mu)},{_fmt(nu)},{_fmt(v)},{_fmt(rp)},"
            f"{'true' if mom_ok else 'false'},{'true' if var_ok else 'false'}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# run reports


@dataclass(frozen=True)
class OrderResult:
    """Per-order outcome of a simulation run; analytic fields are None for
    masks without a binary closed form."""

    mu: float
    nu: float
    v_empirical: float | None
    rp_empirical: float | None
    mean_signal: float | None
    mean_background: float | None
    v_analytic: float | None
    rp_analytic: float | None


@dataclass(frozen=True)
class RunReport:
    mask_digest: str
    i0: float
    seed: int
    n_samples: int
    orders: tuple
    results: tuple
    rng_layout: str = RNG_LAYOUT
    format_version: str = REPORT_VERSION


_REQUIRED_KEYS = (
    "format_version",
    "mask_digest",
    "i0",
    "seed",
    "n_samples",
    "orders",
    "results",
    "rng_layout",
)


def mask_digest(mask: ObjectMask) -> str:
    """Stable content digest of a mask: sha256 of its ``mask_csv_text``."""
    return hashlib.sha256(mask_csv_text(mask).encode("utf-8")).hexdigest()


def write_report(report: RunReport, path) -> None:
    payload = asdict(report)
    payload["orders"] = [list(o) for o in report.orders]
    payload["results"] = [asdict(r) for r in report.results]
    Path(path).write_bytes(_canonical_json(payload))


def read_report(path) -> RunReport:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ReportError(f"malformed report file: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReportSchemaError("report root must be an object")
    version = payload.get("format_version")
    if version != REPORT_VERSION:
        raise ReportVersionError(
            f"unsupported report version {version!r} (expected {REPORT_VERSION!r})"
        )
    for key in _REQUIRED_KEYS:
        if key not in payload:
            raise ReportSchemaError(f"report missing required key {key!r}")
    if payload["rng_layout"] != RNG_LAYOUT:
        raise ReportSchemaError(
            f"unknown rng_layout {payload['rng_layout']!r} (expected {RNG_LAYOUT!r})"
        )
    orders, entries = payload["orders"], payload["results"]
    if not (isinstance(orders, list) and isinstance(entries, list)):
        raise ReportSchemaError("report orders and results must be lists")
    if not all(isinstance(o, list) and len(o) == 2 for o in orders):
        raise ReportSchemaError("report orders must be [mu, nu] pairs")
    results = []
    for entry in entries:
        try:
            results.append(OrderResult(**entry))
        except TypeError as exc:
            raise ReportSchemaError(f"malformed result entry: {exc}") from exc
    return RunReport(
        mask_digest=payload["mask_digest"],
        i0=payload["i0"],
        seed=payload["seed"],
        n_samples=payload["n_samples"],
        orders=tuple(tuple(o) for o in orders),
        results=tuple(results),
        rng_layout=payload["rng_layout"],
        format_version=version,
    )
