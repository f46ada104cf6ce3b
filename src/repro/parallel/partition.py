"""Tensor/pipeline-parallel partitioning of LLM operator graphs.

The partitioner maps one serving step's operator graph onto a
``tp × pp`` grid of chips the way production engines do (Megatron-style
tensor parallelism inside each pipeline stage):

* **column-parallel** GEMMs (QKV, FFN up/gate, LM head) split the output
  dimension — each rank owns a slice of the heads / FFN neurons, and the
  activation stays sharded for the consumer;
* **row-parallel** GEMMs (attention output projection, FFN down) split
  the reduction dimension and emit a ring **all-reduce** of the partial
  sums — the two collectives per layer of the Megatron forward pass;
* **attention** GEMMs split their independent instances (KV-head
  parallelism): each rank serves the KV heads whose Q/K/V slices it
  already produced, so no collective is needed.  Parallelism here is
  capped by ``n_kv_heads`` — the real GQA sharding constraint;
* **pipeline** stages take contiguous layer ranges; activations cross
  each boundary once per step (``send_recv``), and micro-batched
  execution leaves the classic ``(p + m − 1)/(p·m)`` bubble.

Every split is *exactly* conserving: per-rank output slices, reduction
slices, instance counts, and nonlinear elements sum to the unsharded
op's, which is what the property tests pin down.  Rank 0 always receives
the ceiling share, so rank 0 of any stage is the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..arch.designs.base import CollectiveOp, GemmOp, NonlinearOp
from ..errors import ConfigError

__all__ = [
    "ParallelConfig",
    "ShardedStep",
    "StageShard",
    "classify_gemm",
    "partition_step_layers",
    "shard_gemm",
    "shard_nonlinear",
]

#: Bytes per activation element crossing chips (BF16).
ACT_BYTES = 2


@dataclass(frozen=True)
class ParallelConfig:
    """Degrees of the sharded deployment.

    Attributes
    ----------
    tp:
        Tensor-parallel width inside each pipeline stage.
    pp:
        Pipeline-parallel depth (contiguous layer ranges).
    microbatches:
        Micro-batches per step when ``pp > 1``; ``None`` picks the
        common ``4·pp`` schedule.  Ignored for ``pp == 1``.
    """

    tp: int = 1
    pp: int = 1
    microbatches: int | None = None

    def __post_init__(self):
        if self.tp < 1 or self.pp < 1:
            raise ConfigError("tp and pp must be >= 1")
        if self.microbatches is not None and self.microbatches < 1:
            raise ConfigError("microbatches must be >= 1")

    @property
    def chips(self) -> int:
        return self.tp * self.pp

    @property
    def is_trivial(self) -> bool:
        """One chip — the unsharded deployment."""
        return self.chips == 1

    @property
    def effective_microbatches(self) -> int:
        if self.pp == 1:
            return 1
        return self.microbatches if self.microbatches else 4 * self.pp

    @property
    def pipeline_latency_factor(self) -> float:
        """Step-latency multiplier of a balanced ``pp``-stage pipeline.

        With ``m`` micro-batches over ``p`` stages the step takes
        ``(p + m − 1)`` stage-slots of ``W/(p·m)`` work each, i.e.
        ``W · (p + m − 1)/(p·m)`` — the ``1/p`` ideal plus the fill/drain
        bubble.  1.0 for ``pp == 1``.
        """
        return self.pipeline_latency_factor_at(self.effective_microbatches)

    def pipeline_latency_factor_at(self, available: int) -> float:
        """Bubble factor when at most ``available`` micro-batches exist.

        Micro-batches split the step's token batch, so a batch-1 decode
        step cannot pipeline at all (``m = 1`` → factor 1.0: the token
        traverses every stage serially) no matter the configured
        schedule.
        """
        p = self.pp
        m = max(1, min(self.effective_microbatches, available))
        return (p + m - 1) / (p * m)

    def label(self) -> str:
        return f"TP{self.tp}xPP{self.pp}"


def _balanced_split(total: int, parts: int) -> list[int]:
    """``parts`` non-negative integers summing to ``total``, ceil first."""
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def classify_gemm(op: GemmOp, config) -> str:
    """TP mode of one GEMM: "column" | "row" | "count" | "lm_head".

    Classification follows the builder shapes of
    :mod:`repro.llm.workload` against the served model's geometry, keyed
    on ``kind`` plus *both* matrix dimensions: attention GEMMs carry
    per-KV-head instances (``count``); the FFN down projection
    (``ffn_dim → hidden_dim``) and the attention output projection
    (``hidden_dim → hidden_dim``) are row-parallel; the vocabulary
    projection is column-parallel plus a logits all-gather; everything
    else (QKV, FFN up/gate) is column-parallel.

    Degenerate geometries that make these shapes coincide resolve
    conservatively: ``ffn_dim == hidden_dim`` (square FFN) and
    ``vocab_size == hidden_dim`` (square LM head) fall to row-parallel —
    a *valid* split for any GEMM (partial sums merge in the
    all-reduce), just with more communication than the Megatron
    pairing — while ``vocab_size == hidden_dim + 2·kv_dim`` (LM head
    shaped like the QKV projection) falls to plain column-parallel,
    skipping the logits gather rather than charging a spurious one per
    layer.
    """
    if op.kind in ("attention_qk", "attention_pv", "attention"):
        return "count"
    h = config.hidden_dim
    if op.kind == "ffn":
        return "row" if op.k == config.ffn_dim and op.n == h else "column"
    if op.k == h and op.n == h:
        return "row"
    if op.k == h and op.n == config.vocab_size and \
            op.n != h + 2 * config.kv_dim:
        return "lm_head"
    return "column"


def shard_gemm(op: GemmOp, tp: int, mode: str, config
               ) -> tuple[list[GemmOp], list[CollectiveOp]]:
    """Split one GEMM across ``tp`` ranks.

    Returns (per-rank ops, collectives).  Ranks past the number of
    returned ops are idle for this op (e.g. KV-head parallelism with
    fewer KV heads than ranks).  Rank 0 always holds the largest shard.

    "count"-mode (attention) parallelism is capped at the model's
    ``n_kv_heads``: sequences are batch-replicated under TP, so only
    head parallelism distributes the per-(sequence, KV-head) instances
    — ranks beyond the cap sit idle for attention rather than granting
    unrealizable speedup.
    """
    if tp < 1:
        raise ConfigError("tp must be >= 1")
    if tp == 1:
        return [op], []
    if mode == "count":
        parts = min(tp, config.n_kv_heads, op.count)
        counts = [c for c in _balanced_split(op.count, parts) if c > 0]
        return [replace(op, count=c) for c in counts], []
    if mode == "row":
        ks = [k for k in _balanced_split(op.k, tp) if k > 0]
        shards = [replace(op, k=k) for k in ks]
        collectives = []
        if len(shards) > 1:
            collectives.append(CollectiveOp(
                kind="all_reduce", bytes=op.m * op.n * ACT_BYTES,
                participants=len(shards), count=op.count))
        return shards, collectives
    if mode in ("column", "lm_head"):
        ns = [n for n in _balanced_split(op.n, tp) if n > 0]
        shards = [replace(op, n=n) for n in ns]
        collectives = []
        if mode == "lm_head" and len(shards) > 1:
            # Sampling needs the full vocabulary row on one chip.
            collectives.append(CollectiveOp(
                kind="all_gather", bytes=op.m * op.n * ACT_BYTES,
                participants=len(shards), count=op.count))
        return shards, collectives
    raise ConfigError(f"unknown TP mode {mode!r}")


def shard_nonlinear(op: NonlinearOp, tp: int) -> list[NonlinearOp]:
    """Split a nonlinear pass across ``tp`` ranks, conserving elements.

    Softmax splits whole reduction rows (rows live inside one attention
    head, which TP keeps on one rank); elementwise ops split elements.
    Ranks beyond the available rows/elements are idle.
    """
    if tp < 1:
        raise ConfigError("tp must be >= 1")
    if tp == 1:
        return [op]
    if op.op == "softmax":
        parts = min(tp, op.rows)
        rows = _balanced_split(op.rows, parts)
        # Elements follow their rows (a rank owning 2 of 3 rows owns
        # ~2/3 of the elements); prefix sums keep the total exact.
        bounds = [0]
        for r in rows:
            bounds.append(bounds[-1] + r)
        elements = [op.elements * hi // op.rows - op.elements * lo // op.rows
                    for lo, hi in zip(bounds, bounds[1:])]
        return [replace(op, elements=e, rows=r)
                for e, r in zip(elements, rows) if e > 0 and r > 0]
    parts = min(tp, op.elements)
    return [replace(op, elements=e)
            for e in _balanced_split(op.elements, parts) if e > 0]


@dataclass
class StageShard:
    """The compute ops one chip (stage, rank) runs for one step."""

    stage: int
    rank: int
    ops: list = field(default_factory=list)


@dataclass
class ShardedStep:
    """One serving step partitioned onto a ``tp × pp`` chip grid.

    ``shards`` holds one :class:`StageShard` per chip (stage-major);
    ``collectives`` holds the step's communication ops (per-layer
    all-reduces, the logits all-gather, and the ``pp − 1`` stage-boundary
    transfers).
    """

    parallel: ParallelConfig
    shards: list = field(default_factory=list)
    collectives: list = field(default_factory=list)

    def rank_ops(self, stage: int, rank: int) -> list:
        for shard in self.shards:
            if shard.stage == stage and shard.rank == rank:
                return shard.ops
        raise ConfigError(f"no shard at stage {stage}, rank {rank}")

    def all_compute_ops(self) -> list:
        """Every compute op across all chips (conservation checks)."""
        return [op for shard in self.shards for op in shard.ops]


def partition_step_layers(config, layers: list, head_ops: list,
                          tokens: int, parallel: ParallelConfig
                          ) -> ShardedStep:
    """Partition per-layer op lists onto the ``tp × pp`` grid.

    Parameters
    ----------
    config:
        The served :class:`repro.llm.ModelConfig` (shapes classify TP
        modes).
    layers:
        One op list per transformer layer, in depth order.
    head_ops:
        Trailing ops outside the layer stack (the LM head); they land on
        the last pipeline stage.
    tokens:
        Tokens flowing through the step (sets the stage-boundary
        activation payload ``tokens × hidden_dim`` BF16 values).
    parallel:
        Grid degrees.
    """
    if parallel.pp > len(layers):
        raise ConfigError(f"pp={parallel.pp} exceeds the model's "
                          f"{len(layers)} layers; one stage needs at "
                          f"least one layer")
    step = ShardedStep(parallel=parallel)
    step.shards = [StageShard(stage=s, rank=r)
                   for s in range(parallel.pp) for r in range(parallel.tp)]

    def stage_shard(stage: int, rank: int) -> StageShard:
        return step.shards[stage * parallel.tp + rank]

    stage_sizes = _balanced_split(len(layers), parallel.pp)
    start = 0
    for stage, size in enumerate(stage_sizes):
        stage_ops = [op for layer in layers[start:start + size]
                     for op in layer]
        if stage == parallel.pp - 1:
            stage_ops += list(head_ops)
        for op in stage_ops:
            if isinstance(op, GemmOp):
                shards, collectives = shard_gemm(
                    op, parallel.tp, classify_gemm(op, config), config)
                step.collectives.extend(collectives)
            else:
                shards = shard_nonlinear(op, parallel.tp)
            for rank, shard in enumerate(shards):
                stage_shard(stage, rank).ops.append(shard)
        start += size

    for _ in range(parallel.pp - 1):
        step.collectives.append(CollectiveOp(
            kind="send_recv", bytes=tokens * config.hidden_dim * ACT_BYTES,
            participants=2))
    return step
