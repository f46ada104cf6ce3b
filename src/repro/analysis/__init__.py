"""Analysis: statistics, rendering, trained-model zoo, experiment drivers.

``experiments`` and ``model_zoo`` are imported on first attribute
access, so ``import repro.analysis`` stays as light as its statistics
and rendering helpers.
"""

import importlib

from .stats import geomean, normalize_to, speedup
from .tables import render_heatmap, render_series, render_table

__all__ = [
    "experiments",
    "geomean",
    "model_zoo",
    "normalize_to",
    "render_heatmap",
    "render_series",
    "render_table",
    "speedup",
]

_SUBMODULES = frozenset({"experiments", "model_zoo"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
