"""LLM operator graphs for the architecture simulator (paper §2.3, §5).

A decode step of a batched transformer LM lowers to:

* **projection** GEMMs — QKV and output projections (WOQ INT4 weights,
  BF16 activations);
* **attention** GEMMs — Q·Kᵀ and P·V against the (KVQ INT4) KV cache; with
  GQA, the ``gqa_group`` Q heads sharing one KV head form a small-batch
  GEMM (the m=8 that fills Mugi's columns);
* **softmax** over each attention row;
* **ffn** GEMMs — gate/up/down projections with SiLU/GELU in between.

The builder emits :class:`repro.arch.GemmOp` / ``NonlinearOp`` lists that
any Table 2 design (or NoC system) can consume;
:func:`build_sharded_step_ops` emits the same step as per-shard op lists
plus collectives for a tensor/pipeline-parallel chip grid
(:mod:`repro.parallel`).
"""

from __future__ import annotations

from collections import Counter

from typing import TYPE_CHECKING

from ..arch.designs.base import GemmOp, NonlinearOp
from ..arch.simulator import SimulationResult, op_terms
from ..errors import ConfigError
from .config import ModelConfig

if TYPE_CHECKING:  # Layering: repro.llm never loads repro.parallel.
    from ..parallel.partition import ParallelConfig, ShardedStep


def build_decode_ops(config: ModelConfig, batch: int, seq_len: int,
                     woq_bits: int = 4, kvq_bits: int = 4,
                     include_lm_head: bool = True,
                     include_aux_ops: bool = False) -> list:
    """Operator list for one decode step (one new token per sequence).

    Parameters
    ----------
    config:
        A Table 1 model configuration.
    batch:
        Sequences decoded together (the paper sweeps 1–32; default 8).
    seq_len:
        Current context length (KV cache depth).
    woq_bits / kvq_bits:
        Weight-only and KV-cache quantization widths (both 4 by default).
    include_lm_head:
        Append the vocabulary projection.
    include_aux_ops:
        Also emit the §7.1 auxiliary ops — per-layer RoPE on Q/K and the
        two layer normalizations — which Mugi serves via VLP sin/cos and
        the vector unit respectively.
    """
    if batch < 1 or seq_len < 1:
        raise ConfigError("batch and seq_len must be positive")
    return build_ragged_decode_ops(config, [seq_len] * batch,
                                   woq_bits=woq_bits, kvq_bits=kvq_bits,
                                   include_lm_head=include_lm_head,
                                   include_aux_ops=include_aux_ops)


def build_ragged_decode_ops(config: ModelConfig, seq_lens,
                            woq_bits: int = 4, kvq_bits: int = 4,
                            include_lm_head: bool = True,
                            include_aux_ops: bool = False) -> list:
    """Operator list for one decode step over a *ragged* active set.

    Continuous-batching serving (:mod:`repro.serve`) decodes sequences
    whose context lengths differ; projections and FFN GEMMs still batch
    all sequences (``m = len(seq_lens)``), while the per-(sequence, KV
    head) attention GEMMs and softmax rows are emitted per distinct
    context length.  With a uniform ``seq_lens`` this reproduces
    :func:`build_decode_ops` exactly.

    Parameters
    ----------
    config:
        A Table 1 model configuration.
    seq_lens:
        Per-sequence context lengths (KV cache depths) of the active set.
    woq_bits / kvq_bits / include_lm_head / include_aux_ops:
        As in :func:`build_decode_ops`.
    """
    seq_lens = [int(s) for s in seq_lens]  # Accept any array-like.
    if not seq_lens:
        raise ConfigError("seq_lens must be non-empty")
    return build_serving_step_ops(config, decode_lens=seq_lens,
                                  prefill_lens=(), woq_bits=woq_bits,
                                  kvq_bits=kvq_bits,
                                  include_lm_head=include_lm_head,
                                  include_aux_ops=include_aux_ops)


def build_serving_step_ops(config: ModelConfig, decode_lens, prefill_lens,
                           woq_bits: int = 4, kvq_bits: int = 4,
                           include_lm_head: bool = True,
                           include_aux_ops: bool = False) -> list:
    """Operator list for one *fused* serving step.

    Continuous batching runs prefills and decodes in the same iteration;
    like the real iteration-level engines, all their tokens share each
    layer's projection/FFN GEMMs (``m`` = decode sequences + prompt
    tokens), so model weights stream from HBM once per step no matter
    how many sequences are active.  Attention stays per-sequence:
    decode sequences get the ragged per-context-length KV GEMMs, while
    prefilling sequences get the quadratic self-attention GEMMs over KV
    tiles just produced on chip (``weights_resident``).

    With ``prefill_lens`` empty this is exactly the ragged decode graph;
    one prefill and no decodes reproduces :func:`build_prefill_ops` plus
    the first-token LM head.

    Parameters
    ----------
    config:
        A Table 1 model configuration.
    decode_lens:
        Context lengths (KV depths) of the decoding sequences.
    prefill_lens:
        Prompt lengths of the sequences prefilling this step.
    woq_bits / kvq_bits / include_lm_head / include_aux_ops:
        As in :func:`build_decode_ops`.
    """
    decode_lens, prefill_lens, tokens, out_tokens = \
        _validate_step(decode_lens, prefill_lens)
    layer = _step_layer_ops(config, tokens, decode_lens,
                            [(0, s) for s in prefill_lens],
                            woq_bits=woq_bits, kvq_bits=kvq_bits,
                            include_aux_ops=include_aux_ops)
    ops = [op for _ in range(config.n_layers) for op in layer]
    if include_lm_head:
        ops.append(_lm_head_op(config, out_tokens, woq_bits))
    return ops


def build_paged_step_ops(config: ModelConfig, decode_lens, chunks,
                         n_finishing: int | None = None,
                         woq_bits: int = 4, kvq_bits: int = 4,
                         include_lm_head: bool = True,
                         include_aux_ops: bool = False) -> list:
    """Operator list for one fused serving step with *chunked* prefill.

    ``chunks`` is a list of ``(past, new)`` pairs: a prefilling sequence
    processes ``new`` prompt tokens this step on top of ``past`` KV
    tokens already cached (earlier chunks, or blocks shared through the
    prefix cache — both are priced identically: streamed KV reads).
    Each chunk's attention splits into a streamed GEMM against the
    ``past`` KV plus the on-chip quadratic GEMM over the chunk itself,
    so a single ``(0, S)`` chunk reproduces
    :func:`build_serving_step_ops`'s prefill graph *exactly*, and a
    multi-chunk prefill conserves projection/FFN MACs, KV bytes written,
    and the block-causal attention work ``Σ new·(past + new)`` per head.

    ``n_finishing`` counts the chunks that complete their prompt this
    step — only those sequences (plus every decoder) sample a token, so
    only they cross the LM head.  ``None`` means all chunks finish.
    """
    decode_lens = [int(s) for s in decode_lens]
    chunks = [(int(p), int(n)) for p, n in chunks]
    if not decode_lens and not chunks:
        raise ConfigError("step needs at least one active sequence")
    if decode_lens and min(decode_lens) < 1:
        raise ConfigError("sequence lengths must be positive")
    if any(p < 0 or n < 1 for p, n in chunks):
        raise ConfigError("chunks need past >= 0 and new >= 1")
    if n_finishing is None:
        n_finishing = len(chunks)
    if not 0 <= n_finishing <= len(chunks):
        raise ConfigError(f"n_finishing must be in [0, {len(chunks)}]")
    tokens = len(decode_lens) + sum(n for _, n in chunks)
    out_tokens = len(decode_lens) + n_finishing
    layer = _step_layer_ops(config, tokens, decode_lens, chunks,
                            woq_bits=woq_bits, kvq_bits=kvq_bits,
                            include_aux_ops=include_aux_ops)
    ops = [op for _ in range(config.n_layers) for op in layer]
    if include_lm_head and out_tokens > 0:
        ops.append(_lm_head_op(config, out_tokens, woq_bits))
    return ops


def build_chunked_prefill_ops(config: ModelConfig, prompt_len: int,
                              chunk_tokens: int, cached_len: int = 0,
                              woq_bits: int = 4, kvq_bits: int = 4,
                              include_lm_head: bool = True,
                              include_aux_ops: bool = False) -> list[list]:
    """Per-chunk operator lists for one prompt prefilled in chunks.

    The prompt's last ``prompt_len - cached_len`` tokens are split into
    chunks of at most ``chunk_tokens``; chunk ``i`` attends to the
    ``cached_len`` prefix-cache tokens plus every earlier chunk.  Only
    the final chunk emits a token (and the LM head).  One chunk with no
    cache is exactly the one-shot prefill step
    (:func:`build_serving_step_ops` with one prefill sequence).
    """
    if prompt_len < 1 or chunk_tokens < 1:
        raise ConfigError("prompt_len and chunk_tokens must be positive")
    if not 0 <= cached_len < prompt_len:
        # A full-prompt cache hit would leave nothing to prefill; the
        # last token is always recomputed so its logits exist to sample.
        raise ConfigError("need 0 <= cached_len < prompt_len")
    steps = []
    past = cached_len
    while past < prompt_len:
        new = min(chunk_tokens, prompt_len - past)
        finishes = past + new == prompt_len
        steps.append(build_paged_step_ops(
            config, [], [(past, new)], n_finishing=1 if finishes else 0,
            woq_bits=woq_bits, kvq_bits=kvq_bits,
            include_lm_head=include_lm_head,
            include_aux_ops=include_aux_ops))
        past += new
    return steps


def _validate_step(decode_lens, prefill_lens) -> tuple:
    """Normalize/validate active-set lengths; return token counts too."""
    decode_lens = [int(s) for s in decode_lens]
    prefill_lens = [int(s) for s in prefill_lens]
    if not decode_lens and not prefill_lens:
        raise ConfigError("step needs at least one active sequence")
    if (decode_lens and min(decode_lens) < 1) or \
            (prefill_lens and min(prefill_lens) < 1):
        raise ConfigError("sequence lengths must be positive")
    # Tokens through the projections/FFN: one per decoder plus every
    # prompt token; output tokens: one per active sequence.
    tokens = len(decode_lens) + sum(prefill_lens)
    out_tokens = len(decode_lens) + len(prefill_lens)
    return decode_lens, prefill_lens, tokens, out_tokens


def _qkv_op(config: ModelConfig, tokens: int, woq_bits: int) -> GemmOp:
    """QKV projection: fused [h -> h + 2*kv_dim] over the step's tokens."""
    h = config.hidden_dim
    return GemmOp(m=tokens, k=h, n=h + 2 * config.kv_dim,
                  kind="projection", weight_bits=woq_bits)


def _out_proj_op(config: ModelConfig, tokens: int, woq_bits: int) -> GemmOp:
    """Attention output projection over the step's tokens."""
    h = config.hidden_dim
    return GemmOp(m=tokens, k=h, n=h, kind="projection",
                  weight_bits=woq_bits)


def _ffn_ops(config: ModelConfig, tokens: int, woq_bits: int) -> list:
    """FFN GEMMs — gated (SwiGLU) or plain — plus the activation pass."""
    h = config.hidden_dim
    ops: list = []
    if config.gated_ffn:
        ops.append(GemmOp(m=tokens, k=h, n=config.ffn_dim, kind="ffn",
                          weight_bits=woq_bits, count=2))
    else:
        ops.append(GemmOp(m=tokens, k=h, n=config.ffn_dim, kind="ffn",
                          weight_bits=woq_bits))
    ops.append(NonlinearOp(op=config.activation,
                           elements=tokens * config.ffn_dim))
    ops.append(GemmOp(m=tokens, k=config.ffn_dim, n=h, kind="ffn",
                      weight_bits=woq_bits))
    return ops


def _decode_attention_ops(config: ModelConfig, seq_len: int, seqs: int,
                          kvq_bits: int) -> tuple:
    """(qk, softmax, pv) of ``seqs`` decode sequences at one context.

    Each (sequence, KV head) pair has its own KV cache, so one GEMM
    instance per pair; the GQA group of Q heads sharing that cache forms
    the GEMM batch (m = group — a GEMV when group == 1, the §2.3.1
    utilization problem).  The KV cache is the quantized "weight"
    operand streamed from off-chip.
    """
    d = config.head_dim
    group = config.gqa_group
    qk = GemmOp(m=group, k=d, n=seq_len, kind="attention_qk",
                weight_bits=kvq_bits, count=seqs * config.n_kv_heads)
    softmax = NonlinearOp(op="softmax",
                          elements=seqs * config.n_heads * seq_len,
                          rows=seqs * config.n_heads)
    pv = GemmOp(m=group, k=seq_len, n=d, kind="attention_pv",
                weight_bits=kvq_bits, count=seqs * config.n_kv_heads)
    return qk, softmax, pv


def _chunk_attention_ops(config: ModelConfig, past: int, new: int,
                         seqs: int, kvq_bits: int) -> tuple:
    """(qk ops, softmax, pv ops) of ``seqs`` prefill chunks (past, new).

    The past KV streams from the cache like decode; the chunk's own
    self-attention is quadratic over KV tiles just produced on chip
    (``weights_resident``).
    """
    d = config.head_dim
    group = config.gqa_group
    count = seqs * config.n_kv_heads
    qk_ops = []
    if past:
        qk_ops.append(GemmOp(m=new * group, k=d, n=past,
                             kind="attention_qk", weight_bits=kvq_bits,
                             count=count))
    qk_ops.append(GemmOp(m=new * group, k=d, n=new,
                         kind="attention_qk", weight_bits=kvq_bits,
                         count=count, weights_resident=True))
    softmax = NonlinearOp(op="softmax",
                          elements=seqs * config.n_heads * new
                          * (past + new),
                          rows=seqs * config.n_heads * new)
    pv_ops = []
    if past:
        pv_ops.append(GemmOp(m=new * group, k=past, n=d,
                             kind="attention_pv", weight_bits=kvq_bits,
                             count=count))
    pv_ops.append(GemmOp(m=new * group, k=new, n=d,
                         kind="attention_pv", weight_bits=kvq_bits,
                         count=count, weights_resident=True))
    return qk_ops, softmax, pv_ops


def _step_layer_ops(config: ModelConfig, tokens: int, decode_lens,
                    chunks, woq_bits: int, kvq_bits: int,
                    include_aux_ops: bool) -> list:
    """Ops of *one* transformer layer of a fused serving step.

    ``chunks`` holds the step's prefill work as ``(past, new)`` pairs —
    a whole-prompt prefill is the ``(0, prompt_len)`` chunk.  A chunk
    with ``past > 0`` reads that much already-cached KV (earlier chunks
    or prefix-cache hits) as a *streamed* attention operand, exactly
    like decode, while the chunk's own quadratic self-attention stays
    on-chip (``weights_resident``); with ``past == 0`` the emitted ops
    are identical to the pre-chunking prefill lowering.

    Every layer of the step is identical, so the step builders repeat
    this list ``n_layers`` times, and the tensor/pipeline partitioner
    (:mod:`repro.parallel`) shards it per layer.  :class:`StepCostSurface`
    builds the same components with the same op constructors and prices
    them with the same per-op terms, out of emission order.
    """
    ops: list = []
    h = config.hidden_dim
    d = config.head_dim
    #: Sequences sharing a context length share one (counted) GEMM.
    decode_groups = sorted(Counter(decode_lens).items())
    chunk_groups = sorted(Counter(chunks).items())
    attn = [_decode_attention_ops(config, seq_len, seqs, kvq_bits)
            for seq_len, seqs in decode_groups]
    chunk_attn = [_chunk_attention_ops(config, past, new, seqs, kvq_bits)
                  for (past, new), seqs in chunk_groups]

    if include_aux_ops:
        ops.append(NonlinearOp(op="layernorm", elements=tokens * h))
    ops.append(_qkv_op(config, tokens, woq_bits))
    if include_aux_ops:
        # RoPE rotates the new Q and K vectors (sin + cos lookups
        # per pair lane; see repro.core.rope).
        rope_elements = tokens * (config.n_heads + config.n_kv_heads) * d
        ops.append(NonlinearOp(op="rope", elements=rope_elements))
    ops.extend(qk for qk, _, _ in attn)
    for qk_ops, _, _ in chunk_attn:
        ops.extend(qk_ops)
    ops.extend(softmax for _, softmax, _ in attn)
    ops.extend(softmax for _, softmax, _ in chunk_attn)
    ops.extend(pv for _, _, pv in attn)
    for _, _, pv_ops in chunk_attn:
        ops.extend(pv_ops)
    ops.append(_out_proj_op(config, tokens, woq_bits))
    if include_aux_ops:
        ops.append(NonlinearOp(op="layernorm", elements=tokens * h))
    ops.extend(_ffn_ops(config, tokens, woq_bits))
    return ops


def _lm_head_op(config: ModelConfig, out_tokens: int,
                woq_bits: int) -> GemmOp:
    """The vocabulary projection over the step's output tokens."""
    return GemmOp(m=out_tokens, k=config.hidden_dim, n=config.vocab_size,
                  kind="projection", weight_bits=woq_bits)


def build_sharded_step_ops(config: ModelConfig, decode_lens, prefill_lens,
                           parallel: "ParallelConfig", woq_bits: int = 4,
                           kvq_bits: int = 4, include_lm_head: bool = True,
                           include_aux_ops: bool = False) -> "ShardedStep":
    """One fused serving step partitioned onto a ``tp × pp`` chip grid.

    The same step :func:`build_serving_step_ops` lowers, but emitted as
    per-shard op lists plus collective ops (:class:`ShardedStep`):
    column/row-split GEMM slices per tensor-parallel rank, per-layer
    all-reduces, contiguous layer ranges per pipeline stage, and the
    stage-boundary activation transfers.  Across all shards the graph
    conserves the unsharded step's GEMM MACs, nonlinear elements, and
    KV/weight bytes exactly; a ``tp=1, pp=1`` grid holds the unsharded
    graph on its single chip.

    For *pricing* a sharded deployment end to end, wrap the chip in a
    :class:`repro.parallel.ShardedSystem` instead — it applies these
    split rules per op so the serving engine runs unchanged.
    """
    from ..parallel.partition import partition_step_layers

    decode_lens, prefill_lens, tokens, out_tokens = \
        _validate_step(decode_lens, prefill_lens)
    layer = _step_layer_ops(config, tokens, decode_lens,
                            [(0, s) for s in prefill_lens],
                            woq_bits=woq_bits, kvq_bits=kvq_bits,
                            include_aux_ops=include_aux_ops)
    layers = [layer] * config.n_layers
    head_ops = [_lm_head_op(config, out_tokens, woq_bits)] \
        if include_lm_head else []
    return partition_step_layers(config, layers, head_ops, tokens, parallel)


def build_prefill_ops(config: ModelConfig, batch: int, seq_len: int,
                      woq_bits: int = 4, kvq_bits: int = 4) -> list:
    """Operator list for a prefill pass over ``seq_len`` prompt tokens.

    Projections/FFN become large-m GEMMs (m = batch × seq_len); attention
    is quadratic in ``seq_len``.  It is the serving step's layer lowering
    with ``batch`` whole-prompt ``(0, seq_len)`` chunks, no decoders and
    no LM head.
    """
    if batch < 1 or seq_len < 1:
        raise ConfigError("batch and seq_len must be positive")
    layer = _step_layer_ops(config, batch * seq_len, [],
                            [(0, seq_len)] * batch, woq_bits=woq_bits,
                            kvq_bits=kvq_bits, include_aux_ops=False)
    return [op for _ in range(config.n_layers) for op in layer]


class StepCostSurface:
    """Precomputed per-design cost tables for fused serving steps.

    Pricing a serving step through :func:`repro.arch.simulate_workload`
    means building its op list — one layer's ops, with an attention
    group per distinct context length, repeated ``n_layers`` times —
    and replaying it.  A step's aggregate cost, though, is *additive*
    over its ops, and a serving step only ever mixes four component
    families:

    * the token-batched projection/FFN block (keyed by the step's token
      count),
    * decode attention groups (keyed by context length × sequences),
    * chunked-prefill attention groups (keyed by past × new ×
      sequences),
    * the LM head (keyed by output tokens).

    This surface prices each distinct component once and assembles any
    bucketed step signature as a table sum.  A component is built by
    the step builders' own op constructors and folded from
    :func:`repro.arch.simulator.op_terms`, the per-op dispatch
    ``simulate_workload`` uses, so every per-op term is bit-identical to
    the op-list path.  Versus ``simulate_workload`` over the equivalent
    op list, results differ only in float-summation *associativity*
    (components are summed per layer and scaled by ``n_layers`` instead
    of one long sequential reduction, and from Python 3.12 the column
    sums are compensated): relative drift is ~1e-14, and MAC counts
    stay exact integers.

    One surface serves one ``(design, config, woq/kvq bits, lm_head)``
    combination; :mod:`repro.serve.costs` shares surfaces (and the
    signature-level result cache built on top) across engines serving
    identical replicas.  Like the design-level cost memo, a surface
    assumes the design is immutable once it has priced anything.

    Auxiliary ops (``include_aux_ops``) are not supported — the serving
    engine never emits them; use the op builders directly for those
    graphs.
    """

    #: Accumulator layout: indices 0–3 are per-kind cycles and 4–7
    #: per-kind dynamic energy (projection, attention, ffn, nonlinear),
    #: followed by the communication terms a sharded design attaches to
    #: its ops.
    _E_COMM, _HBM, _COMM_S = 8, 9, 10
    _WIDTH = 11
    #: Component tables are cleared when they outgrow this bound (a
    #: trace with pathologically varied prefill token counts would
    #: otherwise grow the dense table without limit); rebuilding a
    #: component costs a handful of memoized cost-model calls.
    MAX_COMPONENTS = 32768

    def __init__(self, design, config: ModelConfig, woq_bits: int = 4,
                 kvq_bits: int = 4, include_lm_head: bool = True,
                 tech=None):
        self._result_cls = SimulationResult
        self.design = design
        self.config = config
        self.woq_bits = woq_bits
        self.kvq_bits = kvq_bits
        self.include_lm_head = include_lm_head
        self.tech = tech if tech is not None \
            else getattr(design, "tech", None)
        if self.tech is None:
            from ..arch.technology import TECH_45NM
            self.tech = TECH_45NM
        # Per-design constants the op-list path recomputed every call.
        self._design_name = getattr(design, "name", type(design).__name__)
        self._area_mm2 = design.area_mm2
        self._leakage_w = design.leakage_w()
        self._comm_overlap = getattr(design, "comm_overlap", 0.0)
        self._tables: dict[str, dict] = {
            "dense": {}, "decode": {}, "chunk": {}, "head": {}}

    # -- component pricing ----------------------------------------------
    # Each builder prices one component and stores it: price_step reads
    # the tables directly and calls a builder only on a miss.
    def _decode_component(self, seq_len: int, seqs: int) -> tuple:
        """Decode-attention component of ``seqs`` sequences at one
        context length."""
        return self._component(
            "decode", (seq_len, seqs),
            _decode_attention_ops(self.config, seq_len, seqs,
                                  self.kvq_bits))

    def _accumulate(self, ops) -> tuple:
        """(vector, macs) of an op sublist — the simulate_workload sums.

        Each op's addends come from :func:`repro.arch.simulator.op_terms`,
        the per-op dispatch ``simulate_workload`` uses, so a component
        holds the same per-op terms as the op-list path.  Components
        hold only GEMM and nonlinear ops.  Vectors are plain float
        lists: they are 11 wide and summed a few dozen at a time per
        step, where Python-level adds beat numpy's per-array overhead.
        """
        vec = [0.0] * self._WIDTH
        macs = 0
        design = self.design
        frequency_hz = self.tech.frequency_hz
        for op in ops:
            (kind, cycles, _, energy, comm_energy, hbm, comm_seconds, _,
             op_macs) = op_terms(design, op, frequency_hz)
            vec[kind] += cycles
            vec[4 + kind] += energy
            vec[self._E_COMM] += comm_energy
            vec[self._HBM] += hbm
            vec[self._COMM_S] += comm_seconds
            macs += op_macs
        return vec, macs

    def _component(self, table: str, key, ops) -> tuple:
        """Price ``ops`` into ``table[key]`` and return the component."""
        cache = self._tables[table]
        if len(cache) >= self.MAX_COMPONENTS:
            cache.clear()
        part = cache[key] = self._accumulate(ops)
        return part

    def _dense(self, tokens: int) -> tuple:
        config, bits = self.config, self.woq_bits
        return self._component(
            "dense", tokens,
            [_qkv_op(config, tokens, bits), _out_proj_op(config, tokens, bits),
             *_ffn_ops(config, tokens, bits)])

    def _chunk(self, past: int, new: int, seqs: int) -> tuple:
        qk_ops, softmax, pv_ops = _chunk_attention_ops(
            self.config, past, new, seqs, self.kvq_bits)
        return self._component("chunk", (past, new, seqs),
                               [*qk_ops, softmax, *pv_ops])

    def _head(self, out_tokens: int) -> tuple:
        return self._component(
            "head", out_tokens,
            [_lm_head_op(self.config, out_tokens, self.woq_bits)])

    # -- signature pricing ----------------------------------------------
    def price_step(self, prefill_lens, decode_lens, chunk_hist):
        """Price one engine step signature into a ``SimulationResult``.

        The inputs are the three parts of
        :meth:`repro.serve.ServingEngine._signature`: bucketed prompt
        lengths, the sorted multiset of bucketed decode context
        lengths, and a ``(((past, new, finishes), count), ...)`` chunk
        histogram.  Whole-prompt prefills fold into ``(0, prompt)``
        chunks that finish immediately — exactly the mapping the
        engine's op-list lowering applies — so both scheduler families
        price through one surface.

        The fold is fixed, so equal signatures price bit for bit alike
        on one interpreter.  Components sum in one list: the dense
        block, then one decode group per distinct length in order of
        first occurrence (``decode_lens`` may come unsorted; equal
        lengths group by value, not by run), then one chunk pair per
        distinct ``(past, new)`` in order of first occurrence, chunks
        before whole prompts.  Each column is one builtin ``sum`` over
        that list, scaled by ``n_layers``, plus the LM head; the totals
        add the columns left to right.
        """
        tables = self._tables
        n_decode = len(decode_lens)
        batch = tokens = out_tokens = n_decode
        pairs = None
        if chunk_hist or prefill_lens:
            pairs = {}
            for (past, new, finishes), count in chunk_hist:
                key = (past, new)
                pairs[key] = pairs.get(key, 0) + count
                batch += count
                tokens += new * count
                if finishes:
                    out_tokens += count
            for prompt in prefill_lens:
                key = (0, prompt)
                pairs[key] = pairs.get(key, 0) + 1
                tokens += prompt
            batch += len(prefill_lens)
            out_tokens += len(prefill_lens)
        if batch == 0:
            raise ConfigError("step needs at least one active sequence")

        vec, macs = tables["dense"].get(tokens) or self._dense(tokens)
        parts = [vec]
        if n_decode:
            groups: dict = {}
            for seq_len in decode_lens:
                groups[seq_len] = groups.get(seq_len, 0) + 1
            table = tables["decode"]
            for group in groups.items():
                vec, part_macs = table.get(group) \
                    or self._decode_component(*group)
                parts.append(vec)
                macs += part_macs
        if pairs:
            table = tables["chunk"]
            for (past, new), seqs in pairs.items():
                vec, part_macs = table.get((past, new, seqs)) \
                    or self._chunk(past, new, seqs)
                parts.append(vec)
                macs += part_macs
        n_layers = self.config.n_layers
        macs *= n_layers
        # C-level column sums.  Up to Python 3.11, sum() folds left to
        # right from 0.0 exactly like an accumulate-in-order loop; from
        # 3.12 a float sum() is compensated, so a column can differ from
        # that loop in the last bits.
        if self.include_lm_head and out_tokens > 0:
            head, head_macs = tables["head"].get(out_tokens) \
                or self._head(out_tokens)
            vec = [column * n_layers + h
                   for column, h in zip(map(sum, zip(*parts)), head)]
            macs += head_macs
        else:
            vec = [column * n_layers for column in map(sum, zip(*parts))]

        tech = self.tech
        total_cycles = vec[0] + vec[1] + vec[2] + vec[3]
        energy_pj = vec[4] + vec[5] + vec[6] + vec[7] + vec[self._E_COMM]
        comm_seconds = vec[self._COMM_S]
        cycles_by_kind = {
            "projection": vec[0], "attention": vec[1],
            "ffn": vec[2], "nonlinear": vec[3],
            "collective": comm_seconds * tech.frequency_hz}
        energy_by_kind = {
            "projection": vec[4], "attention": vec[5],
            "ffn": vec[6], "nonlinear": vec[7],
            "collective": vec[self._E_COMM]}
        return self._result_cls(
            design_name=self._design_name,
            tokens_per_step=batch,
            compute_seconds=total_cycles * tech.cycle_seconds,
            memory_seconds=vec[self._HBM] / tech.hbm_bandwidth_bytes,
            dynamic_energy_j=energy_pj * 1e-12,
            area_mm2=self._area_mm2,
            leakage_w=self._leakage_w,
            cycles_by_kind=cycles_by_kind,
            energy_by_kind=energy_by_kind,
            hbm_bytes=vec[self._HBM],
            total_macs=macs,
            comm_seconds=comm_seconds,
            comm_overlap=self._comm_overlap)


def gemm_macs(ops: list) -> int:
    """Total MAC count of the GEMMs in an op list (sanity checks)."""
    return sum(op.macs * op.count for op in ops if isinstance(op, GemmOp))


def nonlinear_elements(ops: list) -> int:
    """Total nonlinear elements in an op list."""
    return sum(op.elements * op.count for op in ops
               if isinstance(op, NonlinearOp))
