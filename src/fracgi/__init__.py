"""Thermal-light ghost imaging with fractional-order moments.

Simulates ideal pseudo-thermal speckle, reconstructs objects from the
normalized moments <I_B^mu I_i^nu> of bucket and reference signals, and
cross-validates the estimates against closed-form Gamma-ratio theory for
moments, visibility, and peak SNR.
"""

from .metrics import (
    ImageMetrics,
    class_average_matrix,
    empirical_peak_snr,
    empirical_visibility,
    image_metrics,
)
from .moments import GhostImage, MomentOrder, multi_order_pass
from .objects import (
    MaskError,
    ObjectMask,
    UnitClasses,
    block_mask,
    classify_units,
    histogram,
    letter_a_mask,
    load_object,
    save_object_csv,
)
from .speckle import SampleSet, SpeckleConfig, run_simulation
from .theory import (
    AnalyticPrediction,
    DomainError,
    ErlangModel,
    GammaMixtureModel,
    bucket_pdf_general,
    joint_pdf_binary,
    moment_background,
    moment_general,
    moment_signal,
    peak_snr,
    peak_snr_per_sqrt_n,
    predict,
    validity_domain,
    visibility,
)

__version__ = "0.1.0"
