"""Request routers for the multi-replica serving cluster.

A :class:`Router` picks which replica serves each arriving request.
Four policies cover the production spectrum:

* :class:`RoundRobinRouter` — rotate through replicas regardless of
  state (the stateless load-balancer baseline);
* :class:`LeastOutstandingRouter` — send to the replica with the fewest
  outstanding tokens (queued + remaining decode work), the
  shortest-queue heuristic;
* :class:`PowerOfTwoRouter` — sample two replicas with a seeded
  generator and take the less loaded (the classic
  power-of-two-choices result: near-best balance at O(1) state reads);
* :class:`PrefixAffinityRouter` — hash :attr:`Request.prefix_group` to
  a replica so every request of one shared system prompt lands on the
  same engine.  Per-replica paged prefix caches then see *every* reuse
  of their groups instead of ``1/N`` of them, which raises the
  cluster-wide prefix-hit rate (ungrouped requests fall through to a
  load-aware fallback router).

Routers are deliberately snapshot-based and deterministic: ``select``
reads replica state through the cluster's
:attr:`~repro.serve.cluster.Replica.outstanding_tokens` view, breaks
ties by replica index, and any randomness comes from an explicit seed —
the same trace, seed, and policy always produce the same assignment.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 defers it to first use)

from ..errors import ConfigError
from .trace import Request


def _mix32(x: int) -> int:
    """Deterministic 32-bit integer hash (xorshift-multiply avalanche).

    Python's ``hash`` is identity on small ints, which would turn
    ``group % n_replicas`` into a striding pattern correlated with how
    the trace generator numbers groups; a real avalanche decorrelates
    group id from replica index.
    """
    x &= 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    x = ((x ^ (x >> 16)) * 0x45D9F3B) & 0xFFFFFFFF
    return x ^ (x >> 16)


class Router:
    """Pick a replica for each request (``select`` over live replicas).

    ``replicas`` is the candidate list the cluster passes in — all
    replicas in unified mode, the prefill (or decode) subset in
    disaggregated mode.  Implementations must be deterministic given
    their constructor arguments and the call sequence.
    """

    name = "router"

    def reset(self) -> None:
        """Forget per-run state (called once per cluster run)."""

    def select(self, request: Request, replicas: list):
        raise NotImplementedError

    def select_batch(self, requests, replicas: list, commit) -> int:
        """Route an arrival cohort in one call; return how many routed.

        ``commit(request, replica)`` applies one decision (the cluster
        submits the request there) and returns False when the cohort
        must stop — routing can wake an idle replica whose clock now
        precedes the remaining arrivals, which must wait for its steps.

        Decisions are identical to calling :meth:`select` once per
        request in order, with each commit applied before the next
        select — load-aware policies see every earlier cohort member
        exactly as the one-at-a-time path does.
        """
        routed = 0
        for request in requests:
            go_on = commit(request, self.select(request, replicas))
            routed += 1
            if not go_on:
                break
        return routed


class RoundRobinRouter(Router):
    """Rotate through replicas in index order."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def select(self, request: Request, replicas: list):
        choice = replicas[self._next % len(replicas)]
        self._next += 1
        return choice


class LeastOutstandingRouter(Router):
    """Send to the replica with the fewest outstanding tokens."""

    name = "least-outstanding"

    def select(self, request: Request, replicas: list):
        return min(replicas, key=lambda r: (r.outstanding_tokens, r.index))


class PowerOfTwoRouter(Router):
    """Sample two distinct replicas, keep the less loaded one.

    Mitzenmacher's power-of-two-choices: most of
    :class:`LeastOutstandingRouter`'s balance while probing only two
    replicas per decision.  The sampler is a seeded
    ``numpy.random.Generator``, so assignments are reproducible.
    """

    name = "power-of-two"

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)

    def select(self, request: Request, replicas: list):
        if len(replicas) == 1:
            return replicas[0]
        i, j = self._rng.choice(len(replicas), size=2, replace=False)
        pair = (replicas[int(i)], replicas[int(j)])
        return min(pair, key=lambda r: (r.outstanding_tokens, r.index))


class PrefixAffinityRouter(Router):
    """Hash ``prefix_group`` to a replica; fall back when ungrouped.

    Each shared system prompt consistently lands on one replica, so
    that replica's paged prefix cache holds the group's blocks hot
    instead of every replica cold-missing (and LRU-thrashing) on all
    groups.  Requests without a prefix group carry no cache locality
    and go to the ``fallback`` router (least-outstanding by default).

    Pure hashing piles up when groups are few or skewed, and a straggler
    replica sets the cluster makespan; ``overload_factor`` bounds that
    (consistent hashing with bounded loads): when the hashed replica
    already owes more than ``factor ×`` the mean outstanding tokens, the
    request spills to the fallback — trading one group's cache locality
    for not stalling the whole cluster.  ``None`` disables the bound.
    """

    name = "prefix-affinity"

    def __init__(self, fallback: Router | None = None,
                 overload_factor: float | None = 1.25):
        # Written so NaN fails too: a NaN factor never spills, silently
        # switching the bound off.
        if overload_factor is not None and not overload_factor >= 1.0:
            raise ConfigError("overload_factor must be >= 1 (or None)")
        self.fallback = fallback if fallback is not None \
            else LeastOutstandingRouter()
        self.overload_factor = overload_factor

    def reset(self) -> None:
        self.fallback.reset()

    def select(self, request: Request, replicas: list):
        if request.prefix_group is None:
            return self.fallback.select(request, replicas)
        choice = replicas[_mix32(request.prefix_group) % len(replicas)]
        if self.overload_factor is not None and len(replicas) > 1:
            loads = [r.outstanding_tokens for r in replicas]
            mean = sum(loads) / len(loads)
            if choice.outstanding_tokens > self.overload_factor \
                    * max(mean, 1.0):
                return self.fallback.select(request, replicas)
        return choice


#: Router registry for string-based construction.
ROUTERS = {cls.name: cls for cls in (
    RoundRobinRouter, LeastOutstandingRouter, PowerOfTwoRouter,
    PrefixAffinityRouter)}


def make_router(router, **kwargs) -> Router:
    """``make_router("prefix-affinity")`` or pass through an instance."""
    if isinstance(router, Router):
        if kwargs:
            raise ConfigError("router instance given; keyword arguments "
                              "would be silently ignored")
        return router
    try:
        cls = ROUTERS[router]
    except KeyError:
        raise ConfigError(f"unknown router {router!r}; choose from "
                          f"{sorted(ROUTERS)}") from None
    return cls(**kwargs)
