"""Request traces for the serving simulator.

A *trace* is a list of :class:`Request` objects — arrival time, prompt
length, output length — sorted by arrival.  Generators cover the three
canonical serving scenarios:

* :func:`poisson_trace` — memoryless arrivals at a target rate (the
  standard open-loop load model);
* :func:`steady_trace` — equally spaced arrivals (closed-loop-like,
  isolates queueing from arrival variance);
* :func:`bursty_trace` — clustered arrivals (the small-batch regime
  where Mugi's §2.3.1 utilization claim matters most: between bursts the
  active set decays to a handful of sequences).

Prompt/output lengths come from :class:`LengthSpec` distributions;
:class:`PrefixSpec` adds shared prompt prefixes (system prompts) that
the paged KV cache dedupes.  Every generator accepts either a ``seed``
or an explicit ``numpy.random.Generator``; none touches numpy's global
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from ..errors import ConfigError


@dataclass(frozen=True)
class Request:
    """One inference request of a serving trace.

    Attributes
    ----------
    req_id:
        Stable identifier (also the FCFS tiebreak at equal arrivals).
    arrival_s:
        Arrival time in seconds from trace start.
    prompt_len:
        Prompt tokens to prefill.
    output_len:
        Tokens to decode (the first is produced by the prefill step).
    priority:
        Scheduling priority (higher is served first by the priority
        policies; FCFS ignores it).
    prefix_group:
        Identity of the shared prompt prefix this request starts with
        (e.g. one system prompt); requests in the same group share their
        first ``prefix_len`` tokens, which the paged KV cache serves
        from hashed blocks.  ``None`` means a fully private prompt.
    prefix_len:
        Length of that shared prefix in tokens (0 without a group).
    kv_ready:
        The prompt's KV is already materialized off-engine and arrives
        with the request (a cluster KV migration after disaggregated
        prefill): admission still reserves the full footprint but the
        sequence skips prefill compute and decodes immediately.  Trace
        generators never set this; :class:`repro.serve.ServingCluster`
        does when a request migrates from a prefill to a decode replica.
    tenant:
        Which tenant (customer / workload class) issued the request.
        Single-tenant generators leave it at 0;
        :func:`multi_tenant_trace` tags each request with its
        :class:`TenantSpec`'s id so per-tenant SLO accounting
        (:meth:`repro.serve.metrics.RecordStats.goodput_rps` with
        ``slos=``) and fair-share admission
        (:class:`repro.serve.PagedFairShareScheduler`) tell tenants apart.
    """

    req_id: int
    arrival_s: float
    prompt_len: int
    output_len: int
    priority: int = 0
    prefix_group: int | None = None
    prefix_len: int = 0
    kv_ready: bool = False
    tenant: int = 0

    def __post_init__(self):
        # NaN compares false against every clock: loops would wait on it.
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ConfigError("arrival_s must be finite and non-negative")
        if self.tenant < 0:
            raise ConfigError("tenant id must be non-negative")
        if self.prompt_len < 1 or self.output_len < 1:
            raise ConfigError("prompt_len and output_len must be positive")
        if self.prefix_group is None:
            if self.prefix_len != 0:
                raise ConfigError("prefix_len needs a prefix_group")
        elif not 1 <= self.prefix_len <= self.prompt_len:
            raise ConfigError("need 1 <= prefix_len <= prompt_len")

    @property
    def total_tokens(self) -> int:
        """Peak KV footprint in tokens (prompt + all generated tokens)."""
        return self.prompt_len + self.output_len


@dataclass(frozen=True)
class LengthSpec:
    """Distribution of prompt or output lengths (tokens).

    ``kind`` selects the sampler:

    * ``"fixed"`` — every request gets ``value`` tokens;
    * ``"uniform"`` — integers in ``[low, high]``;
    * ``"lognormal"`` — ``value`` is the median, ``sigma`` the log-std,
      clipped into ``[low, high]`` (the heavy-tailed shape of production
      prompt-length logs).
    """

    kind: str = "fixed"
    value: int = 128
    low: int = 1
    high: int = 4096
    sigma: float = 0.6

    def __post_init__(self):
        if self.kind not in ("fixed", "uniform", "lognormal"):
            raise ConfigError(f"unknown length distribution {self.kind!r}")
        # Written so NaN fails too: ``sample`` casts a NaN length to
        # int64's minimum, and numpy rejects a NaN or infinite bound.
        if not 1 <= self.low <= self.high < math.inf:
            raise ConfigError("need 1 <= low <= high < inf")
        if self.kind == "fixed" and not 1 <= self.value < math.inf:
            raise ConfigError("fixed length must be finite and >= 1")
        if self.kind == "lognormal":
            if not 0 < self.value < math.inf:
                raise ConfigError(
                    "lognormal median must be finite and positive")
            if not 0 <= self.sigma < math.inf:
                raise ConfigError(
                    "lognormal sigma must be finite and non-negative")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` lengths."""
        if self.kind == "fixed":
            return np.full(size, self.value, dtype=np.int64)
        if self.kind == "uniform":
            return rng.integers(self.low, self.high + 1, size=size)
        lengths = np.round(self.value * np.exp(
            rng.normal(0.0, self.sigma, size=size)))
        return np.clip(lengths, self.low, self.high).astype(np.int64)


@dataclass(frozen=True)
class PrefixSpec:
    """Shared-prompt-prefix structure of a trace.

    A ``share`` fraction of requests starts with one of ``n_groups``
    shared prefixes (system prompts / few-shot headers) whose lengths
    are drawn once per group from ``length``; their private prompt part
    follows.  Among those, a ``dup_share`` fraction are exact re-asks —
    ``prompt_len == prefix_len`` — the workload where paged prefix
    caching (and its copy-on-write tail blocks) pays off most.
    """

    share: float = 0.3
    n_groups: int = 8
    length: LengthSpec = LengthSpec("fixed", value=64)
    dup_share: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.share <= 1.0:
            raise ConfigError("share must be in [0, 1]")
        if not 0.0 <= self.dup_share <= 1.0:
            raise ConfigError("dup_share must be in [0, 1]")
        if self.n_groups < 1:
            raise ConfigError("n_groups must be positive")


def _resolve_rng(seed: int, rng: np.random.Generator | None
                 ) -> np.random.Generator:
    """The caller's explicit generator, else a fresh one from ``seed``.

    Generators never touch module-level numpy state: determinism is a
    pure function of ``seed`` (or of the passed generator's state).
    """
    if rng is None:
        return np.random.default_rng(seed)
    if not isinstance(rng, np.random.Generator):
        raise ConfigError("rng must be a numpy.random.Generator")
    return rng


def spawn_rng(seed: int, spawn_key: tuple = ()) -> np.random.Generator:
    """A generator for grid point ``spawn_key`` of a sweep seeded with
    ``seed``.

    Built on :class:`numpy.random.SeedSequence` spawning, so every grid
    point's stream is statistically independent of its siblings and a
    pure function of ``(seed, spawn_key)`` — a sweep worker regenerating
    its point's trace gets the same requests no matter which process it
    is, how many workers exist, or in what order points run.  The empty
    key reproduces ``numpy.random.default_rng(seed)`` exactly, so specs
    wrapping existing single-trace workloads stay bit-identical to them.
    """
    if not all(isinstance(k, int) and k >= 0 for k in spawn_key):
        raise ConfigError("spawn_key must be a tuple of non-negative ints")
    sequence = np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
    return np.random.default_rng(sequence)


def _make_requests(arrivals: np.ndarray, prompt: LengthSpec,
                   output: LengthSpec, rng: np.random.Generator,
                   prefix: PrefixSpec | None = None,
                   priorities=None) -> list[Request]:
    arrivals = np.sort(np.asarray(arrivals, dtype=np.float64))
    n = arrivals.size
    prompts = prompt.sample(rng, n)
    outputs = output.sample(rng, n)
    if priorities is None:
        levels = np.zeros(n, dtype=np.int64)
    else:
        priorities = [int(p) for p in priorities]
        if not priorities:
            raise ConfigError("priorities must be a non-empty sequence")
        levels = rng.choice(np.asarray(priorities, dtype=np.int64),
                            size=n)
    groups, prefix_lens, _ = _sample_prefixes(prefix, prompts, rng)
    return _build_requests(arrivals, prompts, outputs, levels, groups,
                           prefix_lens)


def _sample_prefixes(prefix: PrefixSpec | None, prompts: np.ndarray,
                     rng: np.random.Generator, group_base: int = 0
                     ) -> tuple:
    """Draw shared prefixes, growing ``prompts`` in place: returns the
    group column (ids from ``group_base``, -1 for none), the prefix
    lengths, and the next free group id."""
    n = prompts.size
    groups = np.full(n, -1)
    prefix_lens = np.zeros(n, dtype=np.int64)
    if prefix is None or prefix.share <= 0:
        return groups, prefix_lens, group_base
    group_lens = prefix.length.sample(rng, prefix.n_groups)
    shared = rng.random(n) < prefix.share
    groups = np.where(
        shared, rng.integers(0, prefix.n_groups, size=n) + group_base, -1)
    dup = shared & (rng.random(n) < prefix.dup_share)
    idx = np.flatnonzero(shared)
    plens = group_lens[groups[idx] - group_base]
    prefix_lens[idx] = plens
    prompts[idx] = np.where(dup[idx], plens, plens + prompts[idx])
    return groups, prefix_lens, group_base + prefix.n_groups


def _build_requests(arrivals, prompts, outputs, levels, groups,
                    prefix_lens, tenants=None) -> list[Request]:
    """Bulk-construct validated Requests from parallel arrays.

    The per-request dataclass constructor (keyword dispatch +
    ``__post_init__``) dominated trace generation at the 1M-request
    scale, so the field checks run vectorized here and the objects are
    assembled through ``object.__new__`` with a literal ``__dict__`` —
    same instances a field-by-field construction would yield (dataclass
    ``__eq__``/``replace`` read the instance dict), ~6× faster.
    """
    if not ((0 <= arrivals) & (arrivals < np.inf)).all():
        raise ConfigError("arrival_s must be finite and non-negative")
    if (np.minimum(prompts, outputs) < 1).any():
        raise ConfigError("prompt_len and output_len must be positive")
    grouped = groups >= 0
    bad_len = np.where(grouped,
                       (prefix_lens < 1) | (prefix_lens > prompts),
                       prefix_lens != 0)
    if bad_len.any():
        raise ConfigError("need 1 <= prefix_len <= prompt_len")
    if tenants is None:
        tenants = np.zeros(arrivals.size, dtype=np.int64)
    elif (np.asarray(tenants) < 0).any():
        raise ConfigError("tenant id must be non-negative")
    new = object.__new__
    set_dict = object.__setattr__  # Frozen blocks plain __dict__ assigns.
    requests = []
    append = requests.append
    for req_id, (arrival, plen, olen, level, group, pfx, ten) in enumerate(
            zip(arrivals.tolist(), prompts.tolist(), outputs.tolist(),
                levels.tolist(), groups.tolist(), prefix_lens.tolist(),
                np.asarray(tenants).tolist())):
        r = new(Request)
        set_dict(r, "__dict__",
                 {"req_id": req_id, "arrival_s": arrival,
                  "prompt_len": plen, "output_len": olen,
                  "priority": level,
                  "prefix_group": group if group >= 0 else None,
                  "prefix_len": pfx, "kv_ready": False,
                  "tenant": ten})
        append(r)
    return requests


def poisson_trace(n_requests: int, rate_rps: float,
                  prompt: LengthSpec = LengthSpec("lognormal", value=256,
                                                  low=16, high=2048),
                  output: LengthSpec = LengthSpec("lognormal", value=64,
                                                  low=4, high=512),
                  seed: int = 0, rng: np.random.Generator | None = None,
                  prefix: PrefixSpec | None = None,
                  priorities=None) -> list[Request]:
    """Poisson arrivals at ``rate_rps`` requests per second.

    ``priorities`` (optional): levels each request's priority is drawn
    from uniformly, e.g. ``(0, 0, 0, 1)`` for 25 % premium traffic.
    """
    # Written so NaN fails too; an infinite rate puts every arrival at 0.
    if n_requests < 1 or not 0 < rate_rps < math.inf:
        raise ConfigError("need n_requests >= 1 and a finite rate_rps > 0")
    rng = _resolve_rng(seed, rng)
    gaps = rng.exponential(1.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps) - gaps[0]  # First request at t = 0.
    return _make_requests(arrivals, prompt, output, rng, prefix,
                          priorities)


def steady_trace(n_requests: int, rate_rps: float,
                 prompt: LengthSpec = LengthSpec("fixed", value=256),
                 output: LengthSpec = LengthSpec("fixed", value=64),
                 seed: int = 0, rng: np.random.Generator | None = None,
                 prefix: PrefixSpec | None = None,
                 priorities=None) -> list[Request]:
    """Equally spaced arrivals at ``rate_rps`` requests per second."""
    # Written so NaN fails too; an infinite rate puts every arrival at 0.
    if n_requests < 1 or not 0 < rate_rps < math.inf:
        raise ConfigError("need n_requests >= 1 and a finite rate_rps > 0")
    rng = _resolve_rng(seed, rng)
    arrivals = np.arange(n_requests, dtype=np.float64) / rate_rps
    return _make_requests(arrivals, prompt, output, rng, prefix,
                          priorities)


def bursty_trace(n_requests: int, burst_size: int, burst_period_s: float,
                 prompt: LengthSpec = LengthSpec("lognormal", value=256,
                                                 low=16, high=2048),
                 output: LengthSpec = LengthSpec("lognormal", value=64,
                                                 low=4, high=512),
                 jitter_s: float = 0.0, seed: int = 0,
                 rng: np.random.Generator | None = None,
                 prefix: PrefixSpec | None = None,
                 priorities=None) -> list[Request]:
    """Bursts of ``burst_size`` near-simultaneous requests every period.

    ``jitter_s`` spreads each burst's arrivals uniformly over that many
    seconds (0 = truly simultaneous).
    """
    # Written so NaN fails too: a NaN jitter would be silently skipped.
    if n_requests < 1 or burst_size < 1 \
            or not 0 < burst_period_s < math.inf:
        raise ConfigError("need positive n_requests/burst_size and a "
                          "finite, positive period")
    if not 0 <= jitter_s < math.inf:
        raise ConfigError("jitter_s must be finite and non-negative")
    rng = _resolve_rng(seed, rng)
    bursts = -(-n_requests // burst_size)
    arrivals = np.repeat(np.arange(bursts) * burst_period_s,
                         burst_size)[:n_requests]
    if jitter_s > 0:
        arrivals = arrivals + rng.uniform(0.0, jitter_s, size=n_requests)
    return _make_requests(arrivals, prompt, output, rng, prefix,
                          priorities)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload share of a multi-tenant trace.

    Attributes
    ----------
    tenant:
        Tenant id stamped on every generated :class:`Request`.
    rate_rps:
        Mean *request* rate over a full diurnal period (burst members
        count individually, so burst tenants fire arrival events at
        ``rate_rps / burst_size``).
    prompt / output:
        Length distributions of this tenant's traffic.
    diurnal_amplitude:
        Peak-to-mean swing of the arrival rate in ``[0, 1)``: the
        instantaneous rate is ``rate · (1 + a·cos(2π(t − peak_s)/day))``
        — 0 is a flat (time-homogeneous) tenant, 0.85 a strongly
        day-night workload whose trough runs at 15 % of the mean.
    peak_s:
        Time of day (seconds into the diurnal period) of peak load.
    burst_size / burst_jitter_s:
        ``burst_size > 1`` clusters arrivals: each arrival event spawns
        that many requests spread uniformly over ``burst_jitter_s``
        seconds (agentic fan-out / retry storms).
    priority:
        :attr:`Request.priority` stamped on this tenant's requests.
    prefix:
        Optional shared-prefix structure; group ids are offset per
        tenant so tenants never alias each other's system prompts.
    """

    tenant: int
    rate_rps: float
    prompt: LengthSpec = LengthSpec("lognormal", value=256,
                                    low=16, high=2048)
    output: LengthSpec = LengthSpec("lognormal", value=64,
                                    low=4, high=512)
    diurnal_amplitude: float = 0.0
    peak_s: float = 0.0
    burst_size: int = 1
    burst_jitter_s: float = 1.0
    priority: int = 0
    prefix: PrefixSpec | None = None

    def __post_init__(self):
        if self.tenant < 0:
            raise ConfigError("tenant id must be non-negative")
        # Written so NaN fails too: a NaN peak thins away every arrival
        # and a NaN jitter is silently skipped.
        if not 0 < self.rate_rps < math.inf:
            raise ConfigError("rate_rps must be finite and positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigError("diurnal_amplitude must be in [0, 1)")
        if not 0 <= self.peak_s < math.inf:
            raise ConfigError("peak_s must be finite and non-negative")
        if self.burst_size < 1:
            raise ConfigError("burst_size must be positive")
        if not 0 <= self.burst_jitter_s < math.inf:
            raise ConfigError("burst_jitter_s must be finite and non-negative")


def _thinned_arrivals(event_rate: float, amplitude: float, peak_s: float,
                      duration_s: float, day_s: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Non-homogeneous Poisson arrivals over ``[0, duration_s)``.

    Standard thinning: draw a homogeneous stream at the peak rate
    ``λmax = rate · (1 + a)``, then keep each candidate at time ``t``
    with probability ``λ(t) / λmax`` where ``λ(t)`` follows the diurnal
    cosine profile.  The profile repeats every ``day_s``, so a
    ``duration_s`` of several days yields a multi-day trace.
    """
    lam_max = event_rate * (1.0 + amplitude)
    chunks = []
    last = 0.0
    while last < duration_s:
        expected = int(lam_max * (duration_s - last)) + 16
        gaps = rng.exponential(1.0 / lam_max, size=expected)
        chunk = last + np.cumsum(gaps)
        chunks.append(chunk)
        last = float(chunk[-1])
    times = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    times = times[times < duration_s]
    if amplitude == 0.0 or times.size == 0:
        return times
    lam = event_rate * (1.0 + amplitude * np.cos(
        2.0 * np.pi * (times - peak_s) / day_s))
    return times[rng.random(times.size) * lam_max < lam]


def multi_tenant_trace(tenants, duration_s: float, day_s: float = 86400.0,
                       seed: int = 0,
                       rng: np.random.Generator | None = None
                       ) -> list[Request]:
    """Multi-day diurnal/bursty arrivals across SLO-differentiated
    tenants.

    Each :class:`TenantSpec` contributes an independent arrival stream
    — a non-homogeneous Poisson process following its diurnal profile,
    optionally clustered into bursts — with its own length
    distributions, priority, and (group-id-offset) prefix structure.
    Streams are merged by arrival time and requests are numbered in
    arrival order, so the result is a normal trace every engine,
    cluster, and autoscaling fleet accepts; :attr:`Request.tenant`
    carries the attribution for per-tenant metrics and fair-share
    admission.

    Tenants are sampled in input order from one generator stream, so
    the trace is a pure function of ``(tenants, duration_s, day_s,
    seed)`` — sweep workers regenerate it bit-identically.
    """
    tenants = tuple(tenants)
    if not tenants:
        raise ConfigError("need at least one TenantSpec")
    ids = [spec.tenant for spec in tenants]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate tenant ids in multi-tenant trace")
    if not (0 < duration_s < math.inf and 0 < day_s < math.inf):
        raise ConfigError("duration_s and day_s must be finite and "
                          "positive")
    rng = _resolve_rng(seed, rng)
    columns = []
    group_base = 0
    for spec in tenants:
        events = _thinned_arrivals(spec.rate_rps / spec.burst_size,
                                   spec.diurnal_amplitude, spec.peak_s,
                                   duration_s, day_s, rng)
        if spec.burst_size > 1 and events.size:
            events = np.repeat(events, spec.burst_size)
            if spec.burst_jitter_s > 0:
                events = events + rng.uniform(0.0, spec.burst_jitter_s,
                                              size=events.size)
        n = events.size
        if n == 0:
            continue
        prompts = spec.prompt.sample(rng, n)
        outputs = spec.output.sample(rng, n)
        levels = np.full(n, spec.priority, dtype=np.int64)
        groups, prefix_lens, group_base = _sample_prefixes(
            spec.prefix, prompts, rng, group_base)
        columns.append((events, prompts, outputs, levels, groups,
                        prefix_lens, np.full(n, spec.tenant,
                                             dtype=np.int64)))
    if not columns:
        raise ConfigError("no arrivals generated; rates are too low for "
                          "the requested duration")
    merged = [np.concatenate(parts) for parts in zip(*columns)]
    # Stable sort: equal-instant arrivals keep tenant input order, so
    # req_id assignment is deterministic.
    order = np.argsort(merged[0], kind="stable")
    arrivals, prompts, outputs, levels, groups, prefix_lens, owners = \
        (column[order] for column in merged)
    return _build_requests(arrivals, prompts, outputs, levels, groups,
                           prefix_lens, tenants=owners)


def trace_columns(requests: list[Request]) -> tuple:
    """Snapshot a generated trace as read-only parallel numpy columns.

    The inverse of :func:`requests_from_columns`: seven arrays
    (arrivals, prompts, outputs, priorities, prefix groups, prefix
    lens, tenants) capturing everything a generator-produced trace
    carries — ``req_id`` is arrival order and ``kv_ready`` is always
    False on generator output, so neither needs a column.  The arrays
    are marked non-writeable so a cached snapshot cannot be corrupted
    by a consumer.

    The sweep executor's worker-side trace cache stores these instead
    of the ``Request`` objects themselves: columns are ~56 bytes per
    request, where the objects are several hundred.
    """
    n = len(requests)
    columns = (
        np.fromiter((r.arrival_s for r in requests),
                    dtype=np.float64, count=n),
        np.fromiter((r.prompt_len for r in requests),
                    dtype=np.int64, count=n),
        np.fromiter((r.output_len for r in requests),
                    dtype=np.int64, count=n),
        np.fromiter((r.priority for r in requests),
                    dtype=np.int64, count=n),
        np.fromiter((-1 if r.prefix_group is None else r.prefix_group
                     for r in requests), dtype=np.int64, count=n),
        np.fromiter((r.prefix_len for r in requests),
                    dtype=np.int64, count=n),
        np.fromiter((r.tenant for r in requests),
                    dtype=np.int64, count=n),
    )
    for column in columns:
        column.flags.writeable = False
    return columns


def requests_from_columns(columns: tuple) -> list[Request]:
    """Fresh ``Request`` objects from a :func:`trace_columns` snapshot.

    Goes through the same bulk constructor every trace generator ends
    in, so the rebuilt list is field-for-field identical to the one the
    columns were snapshotted from — but each call returns brand-new
    instances, never aliases of a previous realization.
    """
    arrivals, prompts, outputs, levels, groups, prefix_lens, tenants = \
        columns
    return _build_requests(arrivals, prompts, outputs, levels, groups,
                           prefix_lens, tenants=tenants)


def arrival_times(requests: list[Request]) -> list[float]:
    """Arrival times as Python floats, converted once: the event loops
    bisect them and set engine clocks from them on every event.  A
    non-finite one that got past ``Request``'s own check would stall
    those loops, so it raises."""
    times = [float(r.arrival_s) for r in requests]
    if not all(map(math.isfinite, times)):
        raise ConfigError("arrival_s must be finite")
    return times


def offered_load_rps(trace: list[Request]) -> float:
    """Offered request rate of a trace.

    The span between first and last arrival contains ``n - 1`` gaps, so
    the unbiased estimate is ``(n - 1) / span`` (0 for a single-request
    trace, whose rate is undefined; inf when every request arrives at
    the same instant).
    """
    if not trace:
        raise ConfigError("empty trace")
    if len(trace) == 1:
        return 0.0
    arrivals = np.fromiter((r.arrival_s for r in trace),
                           dtype=np.float64, count=len(trace))
    span = float(arrivals.max()) - float(arrivals.min())
    if span == 0:
        return float("inf")
    return (len(trace) - 1) / span
