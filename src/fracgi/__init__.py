"""Thermal-light ghost imaging with fractional-order moments.

Simulates ideal pseudo-thermal speckle, reconstructs objects from the
normalized moments <I_B^mu I_i^nu> of bucket and reference signals, and
cross-validates the estimates against closed-form Gamma-ratio theory for
moments, visibility, and peak SNR.
"""

from .metrics import image_metrics
from .moments import MomentOrder, multi_order_pass
from .objects import MaskError, ObjectMask, classify_units, letter_a_mask, load_object
from .speckle import SampleSet, SpeckleConfig
from .theory import DomainError, predict, validity_domain

__version__ = "0.1.0"
