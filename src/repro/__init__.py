"""repro — a from-scratch reproduction of *Mugi: Value Level Parallelism
For Efficient LLMs* (ASPLOS 2026).

Subpackages
-----------
``repro.numerics``
    BF16 / FP8 / INT4 formats, mantissa rounding, WOQ/KVQ quantization.
``repro.core``
    The paper's contribution: VLP temporal coding, LUT-based nonlinear
    approximation with value-centric sliding windows, and VLP GEMM.
``repro.baselines``
    Precise, piecewise-linear, Taylor-series, and partial approximations.
``repro.arch``
    Cycle-level performance model and event-based cost model for Mugi and
    all baseline accelerators (Carat, systolic, SIMD, FIGNA, tensor core).
``repro.llm``
    LLM workload substrate: model configs, operator graphs, and a numpy
    transformer stack for end-to-end accuracy experiments.
``repro.parallel``
    Tensor/pipeline-parallel sharding across chips: partitioner,
    collective-communication cost model, and sharded deployments.
``repro.serve``
    Discrete-event continuous-batching serving simulator (traces,
    schedulers, step engine, TTFT/TPOT/goodput metrics).
``repro.carbon``
    Operational / embodied carbon modeling.
``repro.search``
    Auto-configuration search: Pareto frontiers over the serving
    design × parallelism × routing space.
``repro.analysis``
    Statistics, rendering, and the per-figure experiment drivers
    (registry: ``repro.analysis.experiments.get(name)``).

``import repro`` loads no subpackage.  Each one is imported on first
attribute access (``repro.serve.ServingEngine``) or by an explicit
``import repro.serve``, so an entry point pays only for the layers it
uses.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["analysis", "arch", "baselines", "carbon", "core", "llm",
           "numerics", "parallel", "search", "serve", "__version__"]

_SUBPACKAGES = frozenset(__all__) - {"__version__"}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
