"""Thermal-light ghost imaging with fractional-order moments.

Simulates ideal pseudo-thermal speckle, reconstructs objects from the
normalized moments <I_B^mu I_i^nu> of bucket and reference signals, and
cross-validates the estimates against closed-form Gamma-ratio theory for
moments, visibility, and peak SNR.
"""

from .metrics import (
    ImageMetrics,
    class_average_matrix,
    image_metrics,
)
from .moments import GhostImage, MomentOrder, multi_order_pass
from .objects import (
    MaskError,
    ObjectMask,
    UnitClasses,
    block_mask,
    classify_units,
    letter_a_mask,
    load_object,
)
from .speckle import SampleSet, SpeckleConfig
from .theory import (
    AnalyticPrediction,
    DomainError,
    GammaMixtureModel,
    bucket_pdf_general,
    joint_pdf_binary,
    moment_general,
    predict,
    validity_domain,
)

__version__ = "0.1.0"
