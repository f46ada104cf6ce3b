"""Elastic replica fleets: autoscaling serving on one global clock.

:class:`AutoscalingCluster` generalizes the fixed replica set of
:class:`repro.serve.ServingCluster` into a fleet that grows and shrinks
while it serves.  A pluggable :class:`Autoscaler` is consulted on a
fixed decision cadence (``tick_s`` of simulated time) with a
:class:`FleetSnapshot` of the fleet's state; its desired size is acted
on immediately:

* **scale-up** provisions fresh replicas, each paying a *cold start*
  priced over interconnect-style parameters
  (:class:`ColdStartConfig`: control-plane provisioning time plus
  streaming the quantized weights over a link) before it can take
  traffic;
* **scale-down** first cancels still-booting replicas, then marks the
  least-loaded active replicas **draining**: the router stops
  selecting them, their in-flight requests run to completion, and the
  replica retires the moment its engine goes idle.

Three shipped scalers cover the comparison the autoscaling experiment
runs: ``static`` (provision for peak and hold — the baseline),
``reactive`` (outstanding-work thresholds with scale-down hysteresis),
and ``predictive`` (Holt-style EWMA level+trend forecast of the
arrival rate, sized in replica-capacity units and led by the cold-start
horizon so capacity lands *before* the diurnal ramp needs it).

Cost accounting is the point of scaling: the fleet tracks
replica-seconds (provisioning included — silicon is paid for while it
boots), and :class:`repro.serve.metrics.FleetReport` prices dynamic
energy + leakage over that on-time plus lifetime-amortized embodied
carbon through :mod:`repro.carbon`, yielding the cost-per-goodput
headline metric.

The fleet is a :class:`repro.serve.ServingCluster` whose drive loop
also boots replicas and ticks the scaler; a fixed cluster is the fleet
that never does either.

Everything stays deterministic: decisions happen at fixed simulated
ticks, tie-breaks are by replica index, and replicas are spun up with
fresh engines on the shared step-cost store — a fleet run is a pure
function of ``(trace, autoscaler, construction parameters)`` and is
bit-identical under ``run_sweep`` with any ``jobs`` value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

from ..errors import ConfigError
from ..llm.config import ModelConfig
from .cluster import Replica, ServingCluster, build_engine
from .metrics import FleetReport
from .policy import PagedScheduler
from .router import Router, make_router
from .scheduler import scheduler_class

__all__ = [
    "AUTOSCALERS",
    "Autoscaler",
    "AutoscalingCluster",
    "ColdStartConfig",
    "DEFAULT_COLD_START",
    "FleetSnapshot",
    "PredictiveAutoscaler",
    "ReactiveAutoscaler",
    "StaticAutoscaler",
    "make_autoscaler",
]


@dataclass(frozen=True)
class ColdStartConfig:
    """Cost of bringing one replica online mid-run.

    A cold start is control-plane provisioning (allocate, boot, attach)
    plus streaming the model's quantized weights to the accelerator
    over a link — the same bandwidth/latency parameterization as
    :class:`repro.parallel.InterconnectConfig`, pointed at the
    weight-distribution path instead of collectives.
    """

    #: Allocate/boot/attach time before weights start flowing.
    provision_s: float = 30.0
    #: Weight-streaming link (defaults match DEFAULT_INTERCONNECT).
    link_bandwidth_bytes: float = 16e9
    link_latency_s: float = 1e-6
    #: Weight-only quantization width of the streamed checkpoint.
    woq_bits: int = 4

    def __post_init__(self):
        # Written so NaN fails too: a NaN delay would hang the fleet.
        if not 0 <= self.provision_s < math.inf:
            raise ConfigError("provision_s must be finite and non-negative")
        if not 0 < self.link_bandwidth_bytes < math.inf:
            raise ConfigError("link_bandwidth_bytes must be finite and "
                              "positive")
        if not 0 <= self.link_latency_s < math.inf:
            raise ConfigError("link_latency_s must be finite and "
                              "non-negative")
        if not 1 <= self.woq_bits < math.inf:
            raise ConfigError("woq_bits must be finite and positive")

    def delay_s(self, config: ModelConfig) -> float:
        """Provisioning-to-ready delay for one replica of ``config``."""
        weight_bytes = config.param_count() * self.woq_bits / 8
        return self.provision_s + self.link_latency_s \
            + weight_bytes / self.link_bandwidth_bytes


#: Default cold start: ~30 s provisioning + 70B weights over a 16 GB/s
#: link.
DEFAULT_COLD_START = ColdStartConfig()


@dataclass(frozen=True)
class FleetSnapshot:
    """What an autoscaler sees at one decision tick."""

    now_s: float
    #: Decision cadence (forecast horizons are expressed in ticks).
    tick_s: float
    #: Routable replicas (draining ones are already excluded).
    active: int
    #: Replicas mid cold start.
    provisioning: int
    #: KV-footprint-weighted backlog across routable replicas.
    outstanding_tokens: int
    #: Routed-but-unfinished requests fleet-wide.
    inflight_requests: int
    #: Arrivals over the last tick window, as a rate.
    arrival_rate_rps: float


class Autoscaler:
    """Desired-fleet-size policy, consulted once per decision tick.

    ``desired`` returns the wanted number of routable-or-booting
    replicas given a :class:`FleetSnapshot`; implementations clamp to
    ``[min_replicas, max_replicas]`` via :meth:`_clamp` (the cluster
    clamps again defensively).  Scalers may keep mutable forecast
    state — one instance drives one run; ``reset`` is called at run
    start.
    """

    name = "autoscaler"

    def __init__(self, min_replicas: int = 1, max_replicas: int = 4):
        if min_replicas < 1:
            raise ConfigError("min_replicas must be positive")
        if max_replicas < min_replicas:
            raise ConfigError("max_replicas must be >= min_replicas")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas

    def reset(self) -> None:
        """Forget per-run forecast state (called once per run)."""

    def _clamp(self, n: float) -> int:
        return max(self.min_replicas, min(self.max_replicas, int(n)))

    def desired(self, snapshot: FleetSnapshot) -> int:
        raise NotImplementedError


class StaticAutoscaler(Autoscaler):
    """Provision for peak and hold — the fixed-fleet baseline.

    ``StaticAutoscaler(max_replicas=N)`` is exactly the PR 4 cluster
    with N replicas, expressed as a (non-)scaling policy so the cost
    comparison runs through one code path.
    """

    name = "static"

    def desired(self, snapshot: FleetSnapshot) -> int:
        return self.max_replicas


class ReactiveAutoscaler(Autoscaler):
    """Outstanding-work thresholds with scale-down hysteresis.

    Sizes the fleet at ``ceil(outstanding_tokens /
    target_tokens_per_replica)``.  Scale-up is immediate; scale-down
    happens one replica per tick and only once the load would fit the
    smaller fleet with ``scale_down_fraction`` headroom to spare, so a
    noisy queue doesn't flap the fleet around the threshold.
    """

    name = "reactive"

    def __init__(self, target_tokens_per_replica: float = 100_000.0,
                 scale_down_fraction: float = 0.5,
                 min_replicas: int = 1, max_replicas: int = 4):
        super().__init__(min_replicas, max_replicas)
        # Written so NaN fails too: a NaN target never resizes the fleet,
        # and an infinite one can only shrink it.
        if not 0 < target_tokens_per_replica < math.inf:
            raise ConfigError(
                "target_tokens_per_replica must be finite and positive")
        if not 0.0 < scale_down_fraction <= 1.0:
            raise ConfigError("scale_down_fraction must be in (0, 1]")
        self.target_tokens_per_replica = target_tokens_per_replica
        self.scale_down_fraction = scale_down_fraction

    def desired(self, snapshot: FleetSnapshot) -> int:
        current = max(snapshot.active + snapshot.provisioning, 1)
        load = snapshot.outstanding_tokens \
            / self.target_tokens_per_replica
        if load > current:
            return self._clamp(math.ceil(load))
        if load < (current - 1) * self.scale_down_fraction:
            return self._clamp(current - 1)
        return self._clamp(current)


class PredictiveAutoscaler(Autoscaler):
    """Holt-style EWMA (level + trend) forecast of the arrival rate.

    Each tick folds the observed arrival rate into an exponentially
    weighted level and trend, projects the rate ``horizon_s`` ahead —
    set the horizon to the cold-start delay so capacity ordered now is
    ready when the forecast load arrives — and sizes the fleet at
    ``ceil(headroom · forecast / replica_rps)``.  A backlog floor
    (``ceil(outstanding / backlog_tokens_per_replica)``) keeps a bad
    forecast from stranding queued work.
    """

    name = "predictive"

    def __init__(self, replica_rps: float = 1.0, alpha: float = 0.35,
                 beta: float = 0.15, horizon_s: float = 0.0,
                 headroom: float = 1.2,
                 backlog_tokens_per_replica: float = 200_000.0,
                 min_replicas: int = 1, max_replicas: int = 4):
        super().__init__(min_replicas, max_replicas)
        # Written so NaN fails too: a NaN or infinite knob reaches the
        # first tick's ceil() as NaN or infinity and raises there.
        if not 0 < replica_rps < math.inf:
            raise ConfigError("replica_rps must be finite and positive")
        if not 0.0 < alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ConfigError("alpha must be in (0, 1], beta in [0, 1]")
        if not 0 <= horizon_s < math.inf:
            raise ConfigError("horizon_s must be finite and non-negative")
        if not 0 < headroom < math.inf:
            raise ConfigError("headroom must be finite and positive")
        if not 0 < backlog_tokens_per_replica < math.inf:
            raise ConfigError(
                "backlog_tokens_per_replica must be finite and positive")
        self.replica_rps = replica_rps
        self.alpha = alpha
        self.beta = beta
        self.horizon_s = horizon_s
        self.headroom = headroom
        self.backlog_tokens_per_replica = backlog_tokens_per_replica
        self._level: float | None = None
        self._trend = 0.0

    def reset(self) -> None:
        self._level = None
        self._trend = 0.0

    def desired(self, snapshot: FleetSnapshot) -> int:
        rate = snapshot.arrival_rate_rps
        if self._level is None:
            self._level, self._trend = rate, 0.0
        else:
            previous = self._level
            self._level = self.alpha * rate \
                + (1.0 - self.alpha) * (self._level + self._trend)
            self._trend = self.beta * (self._level - previous) \
                + (1.0 - self.beta) * self._trend
        ticks_ahead = self.horizon_s / max(snapshot.tick_s, 1e-9)
        forecast = max(self._level + self._trend * ticks_ahead, 0.0)
        want = math.ceil(self.headroom * forecast / self.replica_rps)
        backlog = math.ceil(snapshot.outstanding_tokens
                            / self.backlog_tokens_per_replica)
        return self._clamp(max(want, backlog))


#: Autoscaler registry for string-based construction.
AUTOSCALERS = {cls.name: cls for cls in (
    StaticAutoscaler, ReactiveAutoscaler, PredictiveAutoscaler)}


def make_autoscaler(autoscaler, **kwargs) -> Autoscaler:
    """Build an autoscaler from a registry name (or pass one through).

    ``make_autoscaler("reactive", max_replicas=6)``
    """
    if isinstance(autoscaler, Autoscaler):
        if kwargs:
            raise ConfigError(
                "pass construction kwargs to the Autoscaler instance, "
                "not alongside it")
        return autoscaler
    try:
        return AUTOSCALERS[autoscaler](**kwargs)
    except KeyError:
        raise ConfigError(
            f"unknown autoscaler {autoscaler!r}; choose from "
            f"{sorted(AUTOSCALERS)}") from None


class AutoscalingCluster(ServingCluster):
    """An elastic unified cluster: replicas spin up/down while serving.

    Construction mirrors :func:`repro.serve.make_cluster` (identical
    replicas of one design), with the replica *count* replaced by an
    :class:`Autoscaler` and its ``[min_replicas, max_replicas]`` band.
    The initial fleet is the scaler's decision on an empty snapshot and
    starts **warm** at t=0 — the fleet predates the trace, so a static
    baseline pays no artificial cold starts; every later scale-up pays
    :class:`ColdStartConfig` provisioning before taking traffic.  The
    fleet runs on :class:`ServingCluster`'s drive loop, adding replica
    boots and scaler ticks to its events; ``run`` returns a
    :class:`repro.serve.FleetReport`.

    Parameters beyond ``make_cluster``'s:

    autoscaler / autoscaler_kwargs:
        Registry name (or instance) and its construction kwargs;
        ``max_replicas`` defaults to ``n_replicas``.
    n_replicas:
        Fleet ceiling handed to the autoscaler factory (the band's
        upper edge, not a fixed size).
    tick_s:
        Decision cadence in simulated seconds (finite, positive).
    cold_start:
        :class:`ColdStartConfig` pricing scale-up delay.
    slos:
        :class:`repro.serve.TenantSLO` specs forwarded to the
        scheduler policy (fair-share / tenant-priority; needs a paged
        ``policy``).
    """

    def __init__(self, design, config: ModelConfig, n_replicas: int = 4,
                 autoscaler="static", router: Router | str =
                 "least-outstanding", policy: str = "continuous",
                 max_batch: int = 16,
                 kv_capacity_bytes: float | None = None,
                 kvq_bits: int = 4, scheduler_kwargs: dict | None = None,
                 seq_len_bucket: int = 1, slos: tuple = (),
                 tick_s: float = 60.0,
                 cold_start: ColdStartConfig = DEFAULT_COLD_START,
                 autoscaler_kwargs: dict | None = None,
                 name: str | None = None, **engine_kwargs):
        if n_replicas < 1:
            raise ConfigError("n_replicas must be positive")
        if not 0 < tick_s < math.inf:
            raise ConfigError(
                f"tick_s must be positive and finite, got {tick_s!r}")
        scheduler_kwargs = dict(scheduler_kwargs or {})
        if slos and not issubclass(scheduler_class(policy),
                                   PagedScheduler):
            raise ConfigError(
                "tenant SLO scheduling needs a paged policy; the "
                "peak-reservation schedulers take no slos")
        if slos:
            scheduler_kwargs.setdefault("slos", tuple(slos))
        self.design = design
        self.config = config
        self.mode = "elastic"
        self.router = make_router(router)
        kwargs = dict(autoscaler_kwargs or {})
        if not isinstance(autoscaler, Autoscaler):
            kwargs.setdefault("max_replicas", n_replicas)
        self.autoscaler = make_autoscaler(autoscaler, **kwargs)
        self.tick_s = tick_s
        self.cold_start = cold_start
        self._cold_delay = cold_start.delay_s(config)
        self._new_engine = partial(
            build_engine, design, config, policy, max_batch,
            kv_capacity_bytes, kvq_bits, scheduler_kwargs, seq_len_bucket,
            **engine_kwargs)
        design_name = getattr(design, "name", type(design).__name__)
        self.name = name if name is not None else \
            f"elastic {design_name} x<= {self.autoscaler.max_replicas}"
        # Per-replica silicon parameters for the cost model: one probe
        # step on the shared surface (any signature carries the
        # design's area and leakage).
        probe = self._new_engine()._surface.price_step((), (1,), ())
        self.leakage_w = probe.leakage_w
        self.area_mm2 = probe.area_mm2
        self.replicas: list[Replica] = []

    def _start(self) -> None:
        """Spin up the initial fleet: the scaler's decision on the empty
        fleet at t=0."""
        self.replicas = []
        self.autoscaler.reset()
        self._routed_at_tick = 0
        self._decide(0.0)

    def _spin_up(self, t: float) -> None:
        """Order one replica at ``t``.  Replicas ordered at t=0 start
        warm — the fleet predates the trace, so a static baseline pays
        no artificial cold starts; later ones boot first."""
        warm = t == 0.0
        rep = Replica(index=len(self.replicas), engine=self._new_engine(),
                      spun_up_s=t,
                      ready_s=t if warm else t + self._cold_delay)
        self.replicas.append(rep)
        if warm:
            self._activate(rep, t)
        else:
            self._cold_starts += 1
            self._booting.append(rep)

    def _decide(self, t: float) -> None:
        """One autoscaler consultation at tick ``t`` (ticks run at
        multiples of ``tick_s``; t=0 sizes the initial fleet)."""
        live = [rep for rep in self.replicas
                if rep.state in ("active", "draining")]
        active = [rep for rep in live if rep.state == "active"]
        # Retired replicas finished everything routed to them.
        routed = sum(rep.routed for rep in self.replicas)
        snapshot = FleetSnapshot(
            now_s=t, tick_s=self.tick_s, active=len(active),
            provisioning=len(self._booting),
            outstanding_tokens=sum(rep.outstanding_tokens
                                   for rep in active),
            inflight_requests=sum(
                rep.routed - len(rep.engine.report.records)
                for rep in live),
            arrival_rate_rps=(routed - self._routed_at_tick) / self.tick_s)
        self._routed_at_tick = routed
        want = self.autoscaler._clamp(self.autoscaler.desired(snapshot))
        current = len(active) + len(self._booting)
        for _ in range(want - current):
            self._spin_up(t)
        excess = current - want
        # Cancel the newest boots first — least sunk cost, and it can
        # never strand routed work (booting replicas hold none).
        while excess > 0 and self._booting:
            self._retire(self._booting[-1], t)
            excess -= 1
        # Then drain the least-loaded active replicas; ``want >=
        # min_replicas >= 1`` keeps at least one routable replica.
        if excess > 0:
            victims = sorted(active, key=lambda r: (r.outstanding_tokens,
                                                    r.index))[:excess]
            for rep in victims:
                rep.state = "draining"
                self._roster_changed(t)
                if not rep.engine.has_work():
                    self._retire(rep, t)

    def _report(self, **fields) -> FleetReport:
        # Replica on-time: a left fold in retirement order, bit-equal
        # to the retired-order += chain (every fleet retires at least
        # its initial replica, so the series is never empty).
        return FleetReport(
            **fields, autoscaler=self.autoscaler.name,
            scale_events=self._scale_events,
            cold_starts=self._cold_starts,
            cold_start_seconds=self._cold_start_seconds,
            replica_seconds=reduce(add, self._replica_deltas),
            leakage_w=self.leakage_w, area_mm2=self.area_mm2)

