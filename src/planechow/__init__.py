"""Exact Chow-ring calculator for moduli of smooth and nodal plane curves."""

from .scalars import D, ModeMismatchError, UniPoly, interpolate
from .mpoly import C1, C2, C3, H, MPoly
from .chow import (
    canonical_class,
    euler_twist,
    integrate,
    nodal_divisor_class,
    pushforward,
    reduce_class,
)
from .groebner import (
    RingPresentation,
    buchberger,
    graded_dimensions,
    normal_form,
    verify_presentation,
)
from .symmetric import chern_roots_product, decompose_weight3
from .moduli import (
    delta_pullback,
    hodge_product,
    hodge_table,
    lambda_classes,
    nodal_presentation,
    smooth_presentation,
    syzygy_holds,
)

__version__ = "0.1.0"
