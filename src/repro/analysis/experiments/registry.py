"""Experiment registry — one door for benches, demos, CLI, and search.

Every registered experiment exposes the same contract::

    from repro.analysis import experiments
    report = experiments.get("cluster_serving").run({"jobs": 2})
    print(report.summary())

A config is a plain dict merged over the experiment's declared
defaults; unknown keys are rejected with a :class:`ConfigError` (no
silently ignored typos).  Runners return a :class:`Report` — the
experiment's native payload under ``data`` plus a flat ``metrics``
dict of headline numbers — so benches, demos, and the
``python -m repro.analysis.experiments`` dispatcher all consume one
shape.

Experiments register themselves at import time via :func:`register`.
The package imports a driver module only when it is named, so
:func:`get`, :func:`names` and :func:`run` first import every module
the package lists in ``DRIVERS``: a lookup always sees every
registered experiment.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field

from ...errors import ConfigError

__all__ = [
    "Experiment",
    "Report",
    "call_with_config",
    "get",
    "names",
    "register",
    "run",
]

_REGISTRY: dict = {}


@dataclass(frozen=True)
class Report:
    """Uniform experiment result.

    ``data`` is the experiment's native payload (a list of sweep
    points, a dict of reports, a SearchResult, ...) for callers that
    want the details; ``metrics`` is the flat headline-number dict
    every consumer can print without knowing the payload's shape.
    """

    experiment: str
    config: dict
    data: object
    metrics: dict
    notes: str = ""

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise KeyError(
                f"{self.experiment} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}") from None

    def summary(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        if self.config:
            pairs = ", ".join(f"{k}={v!r}"
                              for k, v in sorted(self.config.items()))
            lines.append(f"config: {pairs}")
        for name in sorted(self.metrics):
            value = self.metrics[name]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            lines.append(f"  {name}: {shown}")
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: a runner plus its config contract.

    ``defaults`` documents (and bounds) the accepted config keys;
    ``smoke`` is the CI-sized override set ``run(smoke=True)`` and the
    registry round-trip test use.
    """

    name: str
    runner: object = field(repr=False)
    description: str = ""
    defaults: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)

    def config_for(self, config: dict | None = None,
                   smoke: bool = False) -> dict:
        merged = dict(self.defaults)
        if smoke:
            merged.update(self.smoke)
        for key, value in (config or {}).items():
            if key not in self.defaults:
                raise ConfigError(
                    f"experiment {self.name!r} does not accept config "
                    f"key {key!r}; accepted: {sorted(self.defaults)}")
            merged[key] = value
        return merged

    def run(self, config: dict | None = None,
            smoke: bool = False) -> Report:
        """Execute with ``config`` merged over the defaults (and the
        smoke overrides first, when ``smoke`` is set)."""
        merged = self.config_for(config, smoke=smoke)
        report = self.runner(merged)
        if not isinstance(report, Report):
            raise ConfigError(
                f"experiment {self.name!r} runner returned "
                f"{type(report).__name__}, not a Report")
        return report


def register(name: str, description: str = "", defaults=None,
             smoke=None):
    """Decorator: register ``fn(config: dict) -> Report`` under
    ``name``.  ``defaults`` declares every accepted config key;
    ``smoke`` the CI-sized overrides."""
    def decorator(fn):
        if name in _REGISTRY:
            raise ConfigError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = Experiment(
            name=name, runner=fn, description=description,
            defaults=dict(defaults or {}), smoke=dict(smoke or {}))
        return fn
    return decorator


def _import_drivers() -> None:
    """Import every driver module the package lists, so that a lookup
    sees every registered experiment (a no-op once they are loaded)."""
    from . import DRIVERS

    for module in DRIVERS:
        importlib.import_module(f"{__package__}.{module}")


def get(name: str) -> Experiment:
    """Look up a registered experiment by name."""
    _import_drivers()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown experiment {name!r}; registered: "
                          f"{names()}") from None


def names() -> list:
    """Registered experiment names, sorted."""
    _import_drivers()
    return sorted(_REGISTRY)


def run(name: str, config: dict | None = None,
        smoke: bool = False) -> Report:
    """``get(name).run(config)`` in one call."""
    return get(name).run(config, smoke=smoke)


def call_with_config(fn, config: dict, drop=()) -> object:
    """Call ``fn`` with the config keys its signature accepts.

    The uniform runners wrap per-variant ``run_*`` functions whose
    keyword sets differ; this passes each function exactly the keys it
    declares (``drop`` names registry-level keys like ``variant`` that
    no underlying function takes) and leaves the rest to the runner's
    own bookkeeping.
    """
    accepted = set(inspect.signature(fn).parameters)
    return fn(**{k: v for k, v in config.items()
                 if k in accepted and k not in drop})
