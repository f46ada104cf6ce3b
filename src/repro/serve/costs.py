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
           "step_cost_store"]

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

    One instance may be shared by many engines (cluster replicas); each
    engine counts its own hits and misses, so each
    :class:`repro.serve.ServingReport` shows its session's locality.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ConfigError("max_entries must be positive")
        self.max_entries = max_entries
        self._data: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value for ``key`` (refreshed as most recent), or
        None."""
        hit = self._data.get(key)
        if hit is not None:
            self._data.move_to_end(key)
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
