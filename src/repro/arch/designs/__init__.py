"""Accelerator design points (paper Table 2)."""

from .base import (
    BREAKDOWN_CATEGORIES,
    COLLECTIVE_KINDS,
    NONLINEAR_OPS,
    AcceleratorDesign,
    AreaBreakdown,
    CollectiveOp,
    GemmOp,
    NonlinearOp,
    OpCost,
)
from .carat import CaratDesign
from .mugi import MugiDesign
from .mugi_lut import MugiLDesign
from .systolic import SystolicDesign
from .tensor_core import TensorCoreDesign
from .vector_array import (
    PRECISE_NONLINEAR_CYCLES,
    VectorArrayConfig,
    VectorArrayUnit,
)

__all__ = [
    "AcceleratorDesign",
    "AreaBreakdown",
    "BREAKDOWN_CATEGORIES",
    "COLLECTIVE_KINDS",
    "CaratDesign",
    "CollectiveOp",
    "GemmOp",
    "MugiDesign",
    "MugiLDesign",
    "NONLINEAR_OPS",
    "NonlinearOp",
    "OpCost",
    "PRECISE_NONLINEAR_CYCLES",
    "SystolicDesign",
    "TensorCoreDesign",
    "VectorArrayConfig",
    "VectorArrayUnit",
]
