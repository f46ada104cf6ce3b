"""Per-figure experiment drivers (shared by benchmarks and examples).

One module per paper table/figure:

========  ==============================  ================================
Exp.      Module                          Output
========  ==============================  ================================
Fig. 4    ``distributions``               value/exponent profiles
Fig. 6    ``accuracy_sweep``              perplexity heatmaps
Fig. 7    ``per_layer_tuning``            greedy per-layer windows
Fig. 8    ``relative_error``              error-vs-input curves
Fig. 11   ``nonlinear_iso_area``          nonlinear throughput/efficiency
Fig. 12   ``gemm_iso_area``               per-layer-kind GEMM metrics
Table 3   ``end_to_end``                  tokens/s, area, efficiencies
Fig. 13   ``breakdown``                   area/power breakdowns
Fig. 14   ``batch_sweep``                 batch-size sweeps
Fig. 15   ``carbon_footprint``            operational/embodied carbon
Fig. 16   ``latency_breakdown``           per-kind latency stacks
Fig. 17   ``noc_scaling``                 NoC-level comparisons
(serving) ``serving_load_sweep``          latency–throughput curves
(serving) ``parallel_scaling``            TP×PP sharded-pod scaling
(serving) ``paged_serving``               paged-KV goodput sweeps
(serving) ``cluster_serving``             multi-replica router sweeps
(serving) ``autoscaling_serving``         elastic-fleet SLO/cost sweeps
(search)  ``auto_config``                 Pareto auto-configuration search
========  ==============================  ================================

The serving experiments (and ``auto_config``) also register uniform
``run(config) -> Report`` entry points — see :mod:`.registry`::

    from repro.analysis import experiments
    report = experiments.run("cluster_serving", {"jobs": 2})

and the CLI dispatcher ``python -m repro.analysis.experiments <name>``.

Importing the package loads only the registry.  A driver module is
imported when it is named (``experiments.end_to_end`` or ``from
repro.analysis.experiments import end_to_end``), and the registry's
first lookup imports every module in :data:`DRIVERS`, so a lookup
always sees every registered experiment.
"""

import importlib

from .registry import (  # noqa: F401
    Experiment,
    Report,
    get,
    names,
    register,
    run,
)

#: Every driver module of the package.
DRIVERS = (
    "accuracy_sweep",
    "auto_config",
    "autoscaling_serving",
    "batch_sweep",
    "breakdown",
    "carbon_footprint",
    "cluster_serving",
    "distributions",
    "end_to_end",
    "gemm_iso_area",
    "latency_breakdown",
    "noc_scaling",
    "nonlinear_iso_area",
    "paged_serving",
    "parallel_scaling",
    "per_layer_tuning",
    "relative_error",
    "serving_load_sweep",
)

__all__ = ["Experiment", "Report", *DRIVERS, "get", "names", "register",
           "run"]


def __getattr__(name: str):
    if name in DRIVERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
