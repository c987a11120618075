"""Empirical visibility and peak SNR of reconstructed ghost images.

``image_metrics`` computes both from one pair of class means, the
raw-moment levels of the t=1 (signal) and t=0 (background) pixel classes;
fractional pixels have no class and are excluded. Under the i.i.d.
speckle model all pixels of a class are exchangeable, so class pooling
uses every frame and pixel while the per-frame class mean captures the
cross-pixel correlation induced by the shared bucket value. ``class_average_matrix`` gives
``moments.multi_order_pass`` the two class-averaging columns, so the
class-pooled moments and their standard errors come from the same
streaming pass as the images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import GhostImage
from .objects import UnitClasses

__all__ = [
    "MetricsError",
    "ImageMetrics",
    "CLASS_COLUMNS",
    "image_metrics",
    "class_average_matrix",
]

# column labels of class_average_matrix
CLASS_COLUMNS = ("signal", "background")


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ImageMetrics:
    """Empirical image-quality summary for one order pair."""

    v_empirical: float
    rp_empirical: float
    mean_signal: float       # class-mean raw moment over t=1 pixels
    mean_background: float   # class-mean raw moment over t=0 pixels


def _require_both_classes(classes: UnitClasses) -> None:
    if classes.one_units.size == 0:
        raise MetricsError("empty signal class (no t=1 pixels)")
    if classes.zero_units.size == 0:
        raise MetricsError("empty background class (no t=0 pixels)")


def image_metrics(image: GhostImage, classes: UnitClasses) -> ImageMetrics:
    """Class means of the raw moment, visibility |s-b|/(s+b), and peak SNR:
    sqrt(N) times class contrast over the signal-class standard deviation of
    the raw moment (order-doubled moment minus squared mean, both pooled
    over t=1 pixels)."""
    _require_both_classes(classes)
    mean_signal = float(image.joint_mean[classes.one_units].mean())
    mean_background = float(image.joint_mean[classes.zero_units].mean())
    denom = mean_signal + mean_background
    if denom <= 0:
        raise MetricsError("nonpositive class means")
    if image.n_samples < 2:
        raise MetricsError("need at least 2 samples")
    second_signal = float(image.joint2_mean[classes.one_units].mean())
    var = second_signal - mean_signal**2
    if var <= 0:
        raise MetricsError("nonpositive pooled variance estimate (undersampled)")
    contrast = abs(mean_signal - mean_background)
    return ImageMetrics(
        v_empirical=contrast / denom,
        rp_empirical=math.sqrt(image.n_samples) * contrast / math.sqrt(var),
        mean_signal=mean_signal,
        mean_background=mean_background,
    )


def class_average_matrix(classes: UnitClasses) -> np.ndarray:
    """Unit-to-class matrix (n_units x 2) whose columns average the signal
    (t=1) and the background (t=0) units; fractional units get no weight."""
    _require_both_classes(classes)
    signal, background = classes.one_units, classes.zero_units
    out = np.zeros((signal.size + background.size + classes.fractional_units.size, 2))
    out[signal, 0] = 1.0 / signal.size
    out[background, 1] = 1.0 / background.size
    return out
