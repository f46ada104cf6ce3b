"""Shared, bounded step-cost caches for serving engines.

The serving engine prices each step by its active-set *signature*
(:meth:`repro.serve.ServingEngine._signature`) and caches signature →
:class:`StepCost`: the step's wall time, dynamic energy and
communication time, the three floats the engine reads of the
:class:`repro.arch.SimulationResult` a miss prices (145 B traced,
where the result with its two breakdown dicts takes about 950 B).
Before this module that cache lived on each engine instance, which had
two costs at scale:

* a :class:`repro.serve.ServingCluster` of N identical replicas held N
  private caches, so every signature was re-priced (and re-stored) up
  to N times;
* over a long bucketed trace the cache grew without bound — a 100k
  request run can touch hundreds of thousands of distinct signatures.

Here the cache is hoisted out of the engine into a per-design registry:
engines serving the same ``(design instance, model config, woq/kvq
bits, lm-head)`` combination share one :class:`StepCostCache` (a
size-capped LRU) and one :class:`repro.llm.workload.StepCostSurface`
(the component tables that price cache misses).  The registry holds
designs weakly, so retiring a design frees its caches.

Sharing is safe because a design is immutable once it has priced
anything (the same contract as :func:`repro.arch.designs.base.
memoize_op_cost`) and cached :class:`StepCost` values are immutable
tuples.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple
from weakref import WeakKeyDictionary

from ..arch.technology import TECH_45NM
from ..errors import ConfigError
from ..llm.workload import StepCostSurface

__all__ = ["StepCost", "StepCostCache", "StepCostStore",
           "aggregate_cache_stats", "export_store_tables",
           "install_store_tables", "step_cost_store"]

#: Default LRU capacity.  An entry is a tuple key and a StepCost value:
#: about 700 B traced on the ``serve-bulk`` and ``fleet-prefix``
#: benchmark traces (the value 145 B of it), so the default bounds the
#: cache near 46 MB while keeping hit rates high on saturated traces,
#: whose working set of *live* signatures is far smaller than the
#: trace-long union.
DEFAULT_MAX_ENTRIES = 65536


class StepCost(NamedTuple):
    """What one serving step adds to a report: its wall time, its
    dynamic energy and its collective-communication time (0 on a
    single chip), copied from the
    :class:`~repro.arch.SimulationResult` that
    :meth:`repro.llm.StepCostSurface.price_step` returns for its
    signature.  The serving engine caches one per signature."""

    step_seconds: float
    dynamic_energy_j: float
    comm_seconds: float


class StepCostCache:
    """Size-capped LRU mapping step signatures to step costs.

    One instance may be shared by many engines (cluster replicas); the
    engines keep their own hit/miss counters so each
    :class:`repro.serve.ServingReport` shows its session's locality,
    while the cache's own ``hits`` / ``misses`` count every probe it
    has ever served — the store-level view a sweep worker snapshots
    (:func:`aggregate_cache_stats`) so fan-out runs can merge each
    process's cache traffic back into the parent's report.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ConfigError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value for ``key`` (refreshed as most recent), or
        None."""
        hit = self._data.get(key)
        if hit is not None:
            self._data.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def put(self, key, value) -> None:
        """Insert ``key`` as the most recent entry, evicting the LRU
        entry once over capacity."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        if len(data) > self.max_entries:
            data.popitem(last=False)


@dataclass
class StepCostStore:
    """One design+config combination's shared pricing state."""

    cache: StepCostCache
    surface: StepCostSurface


#: design instance -> {(config, woq, kvq, lm_head): StepCostStore}.
#: Keyed on design *identity*: two distinct design objects with equal
#: parameters keep separate op-cost memos anyway, so sharing across
#: them would buy nothing and risk aliasing a mutated twin.
_STORES: "WeakKeyDictionary" = WeakKeyDictionary()


def step_cost_store(design, config, woq_bits: int, kvq_bits: int,
                    include_lm_head: bool, tech=None) -> StepCostStore:
    """The shared :class:`StepCostStore` for one engine configuration.

    Engines constructed with the same design instance and the same
    ``(config, woq_bits, kvq_bits, include_lm_head)`` — e.g. every
    replica of a :func:`repro.serve.make_cluster` cluster — receive the
    same store, so one replica's priced signatures serve them all.
    """
    try:
        per_design = _STORES.get(design)
    except TypeError:  # Unhashable/unweakrefable exotic design.
        per_design = None
    if per_design is None:
        per_design = {}
        try:
            _STORES[design] = per_design
        except TypeError:
            pass  # Fall through with a private store.
    key = (config, woq_bits, kvq_bits, include_lm_head)
    # TechnologyModel holds a dict (not hashable), so tech cannot join
    # the key; instead a divergent override fails loudly rather than
    # silently sharing results priced under someone else's timing
    # constants.  Value equality is the right test: equal constants
    # price identically.
    resolved_tech = tech if tech is not None \
        else getattr(design, "tech", TECH_45NM)
    store = per_design.get(key)
    if store is None:
        store = per_design[key] = StepCostStore(
            cache=StepCostCache(),
            surface=StepCostSurface(design, config, woq_bits=woq_bits,
                                    kvq_bits=kvq_bits,
                                    include_lm_head=include_lm_head,
                                    tech=resolved_tech))
    elif store.surface.tech != resolved_tech:
        raise ConfigError(
            "step-cost store for this design/config already exists "
            "under a different TechnologyModel; build a fresh design "
            "for a different tech instead of overriding it")
    return store


def export_store_tables(design) -> list:
    """Every priced surface of ``design`` as picklable warm-start state.

    Returns ``[(config, woq_bits, kvq_bits, include_lm_head, tables),
    ...]`` — one entry per store whose surface has priced anything —
    for :func:`install_store_tables` to replay in another process.
    The sweep executor uses this to ship a warm parent's component
    tables to cold ``spawn`` workers, which then price their first
    trace without rebuilding the op-cost components.
    """
    try:
        per_design = _STORES.get(design)
    except TypeError:
        per_design = None
    entries = []
    for (config, woq, kvq, lm_head), store in (per_design or {}).items():
        tables = store.surface.export_tables()
        if tables:
            entries.append((config, woq, kvq, lm_head, tables))
    return entries


def install_store_tables(design, entries) -> int:
    """Replay :func:`export_store_tables` output against ``design``'s
    stores in this process; returns how many components were adopted."""
    installed = 0
    for config, woq, kvq, lm_head, tables in entries:
        store = step_cost_store(design, config, woq, kvq, lm_head)
        installed += store.surface.install_tables(tables)
    return installed


def aggregate_cache_stats() -> dict:
    """Totals over every live step-cost cache **in this process**.

    The store registry is per-process state: under the multiprocess
    sweep executor (:mod:`repro.serve.sweep`) each worker accumulates
    its own counters, and the parent cannot see them through its own
    registry.  Workers therefore snapshot this before and after each
    grid point and ship the deltas home with the result, where
    :class:`repro.serve.SweepReport` merges them.
    """
    hits = misses = entries = 0
    for per_design in _STORES.values():
        for store in per_design.values():
            hits += store.cache.hits
            misses += store.cache.misses
            entries += len(store.cache)
    return {"hits": hits, "misses": misses, "entries": entries}
