"""The simulator's per-op terms and replay against the loops they replaced.

``simulate_workload`` prices each distinct op object once, through
``op_terms``, and replays its sums element by element from those terms;
``StepCostSurface._accumulate`` folds the same terms.  These tests keep
the earlier per-element loop and the earlier component fold as
references and require every result field to be equal, bit for bit,
across the Table 2 designs, a NoC, sharded deployments, aliased and
freshly built op lists.
"""

import hashlib
import random
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    TABLE3_SCALED_UP,
    TABLE3_SINGLE_NODE,
    TECH_45NM,
    CollectiveOp,
    GemmOp,
    NonlinearOp,
    SimulationResult,
    make_design,
    make_noc,
    simulate_workload,
)
from repro.arch.simulator import BREAKDOWN_KINDS
from repro.errors import SimulationError
from repro.llm import (
    LLAMA2_7B,
    LLAMA2_70B_GQA,
    ModelConfig,
    StepCostSurface,
    build_chunked_prefill_ops,
    build_decode_ops,
    build_paged_step_ops,
    build_prefill_ops,
    build_serving_step_ops,
    build_sharded_step_ops,
)
from repro.parallel import ParallelConfig, ShardedSystem

TINY_GQA = ModelConfig(name="Tiny-GQA", family="llama2", n_layers=4,
                       n_heads=16, n_kv_heads=2, hidden_dim=512,
                       ffn_dim=1024, max_seq_len=2048, vocab_size=1000)
TABLE2 = TABLE3_SINGLE_NODE + TABLE3_SCALED_UP


# -- references: the replaced per-element loops ---------------------------

def reference_bucket(op) -> str:
    if isinstance(op, CollectiveOp):
        return "collective"
    if isinstance(op, NonlinearOp):
        return "nonlinear"
    if op.kind in ("attention_qk", "attention_pv", "attention"):
        return "attention"
    if op.kind == "ffn":
        return "ffn"
    return "projection"


def reference_simulate_workload(design, ops, tokens_per_step, tech=None):
    """The per-element pricing loop, as it was."""
    if tokens_per_step < 1:
        raise SimulationError("tokens_per_step must be >= 1")
    if tech is None:
        tech = getattr(design, "tech", TECH_45NM)
    total_cycles = 0.0
    total_energy_pj = 0.0
    total_hbm = 0.0
    total_macs = 0
    total_comm_s = 0.0
    cycles_by_kind = {k: 0.0 for k in BREAKDOWN_KINDS}
    energy_by_kind = {k: 0.0 for k in BREAKDOWN_KINDS}

    for op in ops:
        if isinstance(op, GemmOp):
            cost = design.gemm_cost(op)
            total_macs += op.macs * op.count
        elif isinstance(op, NonlinearOp):
            cost = design.nonlinear_cost(op)
        elif isinstance(op, CollectiveOp):
            collective_cost = getattr(design, "collective_cost", None)
            if collective_cost is None:
                raise SimulationError("cannot price collective ops")
            cost = collective_cost(op)
        else:
            raise SimulationError(f"unknown op type {type(op).__name__}")
        bucket = reference_bucket(op)
        count = op.count
        total_cycles += cost.cycles * count
        total_energy_pj += (cost.energy_pj + cost.comm_energy_pj) * count
        total_hbm += cost.hbm_bytes * count
        total_comm_s += cost.comm_seconds * count
        cycles_by_kind[bucket] += cost.cycles * count
        energy_by_kind[bucket] += cost.energy_pj * count
        energy_by_kind["collective"] += cost.comm_energy_pj * count
        cycles_by_kind["collective"] += \
            cost.comm_seconds * count * tech.frequency_hz

    return SimulationResult(
        design_name=getattr(design, "name", type(design).__name__),
        tokens_per_step=tokens_per_step,
        compute_seconds=total_cycles * tech.cycle_seconds,
        memory_seconds=total_hbm / tech.hbm_bandwidth_bytes,
        dynamic_energy_j=total_energy_pj * 1e-12,
        area_mm2=design.area_mm2,
        leakage_w=design.leakage_w(),
        cycles_by_kind=cycles_by_kind,
        energy_by_kind=energy_by_kind,
        hbm_bytes=total_hbm,
        total_macs=total_macs,
        comm_seconds=total_comm_s,
        comm_overlap=getattr(design, "comm_overlap", 0.0),
    )


class ReferenceSurface(StepCostSurface):
    """A surface whose components use the component fold as it was."""

    def _accumulate(self, ops) -> tuple:
        vec = [0.0] * self._WIDTH
        macs = 0
        design = self.design
        for op in ops:
            if isinstance(op, GemmOp):
                cost = design.gemm_cost(op)
                macs += op.macs * op.count
                if op.kind in ("attention_qk", "attention_pv",
                               "attention"):
                    kind = 1
                elif op.kind == "ffn":
                    kind = 2
                else:
                    kind = 0
            else:
                cost = design.nonlinear_cost(op)
                kind = 3
            count = op.count
            vec[kind] += cost.cycles * count
            vec[4 + kind] += cost.energy_pj * count
            vec[self._E_COMM] += cost.comm_energy_pj * count
            vec[self._HBM] += cost.hbm_bytes * count
            vec[self._COMM_S] += cost.comm_seconds * count
        return vec, macs


def assert_identical(got: SimulationResult, want: SimulationResult):
    """Every field equal, and of the same type (int MACs stay int)."""
    for f in fields(SimulationResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert a == b, f.name
        if isinstance(a, dict):
            assert list(a) == list(b), f.name


def check(design, ops, tokens, tech=None):
    got = simulate_workload(design, ops, tokens, tech=tech)
    assert_identical(got, reference_simulate_workload(design, ops, tokens,
                                                      tech=tech))
    return got


# -- graphs ---------------------------------------------------------------

def chunked_prefill_steps():
    return build_chunked_prefill_ops(LLAMA2_70B_GQA, prompt_len=2000,
                                     chunk_tokens=768, cached_len=100)


GRAPHS = {
    "decode": (lambda: build_decode_ops(LLAMA2_70B_GQA, batch=8,
                                        seq_len=4096), 8),
    "prefill": (lambda: build_prefill_ops(LLAMA2_7B, batch=2,
                                          seq_len=512), 2),
    "serving-step": (lambda: build_serving_step_ops(
        LLAMA2_70B_GQA, decode_lens=[37, 512, 512, 4000],
        prefill_lens=[300, 64]), 6),
    "serving-step-aux": (lambda: build_serving_step_ops(
        LLAMA2_70B_GQA, decode_lens=[37, 512, 512, 4000],
        prefill_lens=[300, 64], include_aux_ops=True), 6),
    "paged-step": (lambda: build_paged_step_ops(
        LLAMA2_70B_GQA, decode_lens=[64, 64, 900],
        chunks=[(0, 256), (512, 768)], n_finishing=1), 4),
    **{f"chunked-prefill-{i}": ((lambda i=i: chunked_prefill_steps()[i]), 1)
       for i in range(len(chunked_prefill_steps()))},
}


@pytest.fixture(scope="module")
def table2_designs():
    return {(kind, size): make_design(kind, size) for kind, size in TABLE2}


@pytest.fixture(scope="module")
def noc():
    return make_noc("mugi", 256, 4, 4)


class TestReplayMatchesReference:
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_every_table2_design(self, graph, table2_designs):
        build, tokens = GRAPHS[graph]
        ops = build()
        for design in table2_designs.values():
            check(design, ops, tokens)

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_noc(self, graph, noc):
        build, tokens = GRAPHS[graph]
        check(noc, build(), tokens)

    def test_table3_graph_shares_op_objects(self):
        ops = GRAPHS["decode"][0]()
        assert (len(ops), len({id(op) for op in ops})) == (641, 9)

    @pytest.mark.parametrize("tp,pp", [(2, 1), (4, 2), (1, 4)])
    def test_sharded_system(self, tp, pp):
        parallel = ParallelConfig(tp=tp, pp=pp)
        system = ShardedSystem(make_design("mugi", 256), TINY_GQA, parallel)
        decode, prefill = [40, 40, 300], [96]
        unsharded = build_serving_step_ops(TINY_GQA, decode, prefill)
        check(system, unsharded, 4)
        collectives = build_sharded_step_ops(TINY_GQA, decode, prefill,
                                             parallel).collectives
        assert collectives
        comm = check(system, collectives, 4)
        assert comm.cycles_by_kind["collective"] > 0
        # An explicit clock rescales the clock-equivalent comm cycles.
        slow = replace(TECH_45NM, frequency_hz=1e8)
        check(system, unsharded + collectives, 4, tech=slow)

    def test_equal_but_distinct_lists_interleaved(self, table2_designs):
        a = build_decode_ops(LLAMA2_70B_GQA, batch=8, seq_len=4096)
        b = build_decode_ops(LLAMA2_70B_GQA, batch=8, seq_len=4096)
        assert a == b and a[0] is not b[0]
        mixed = [op for pair in zip(a, b) for op in pair]
        for design in table2_designs.values():
            check(design, mixed, 16)

    def test_generator_of_fresh_ops(self):
        """Freed ops hand their ids on; the cache must not see them.

        The generator builds every op afresh, and most are equal to an
        earlier one, so the design's cost memo (keyed by op value) keeps
        only the first of each: the others are freed after use, and
        CPython gives their ids to later ops.
        """
        def fresh():
            for i in range(300):
                yield GemmOp(m=1 + i % 7, k=64 * (1 + i % 5), n=96,
                             kind=("projection", "attention_qk", "ffn",
                                   "attention_pv")[i % 4],
                             count=1 + i % 3)
                yield NonlinearOp(op=("silu", "softmax")[i % 2],
                                  elements=64 + i % 11, rows=1 + i % 2)

        design = make_design("mugi", 128)
        got = simulate_workload(design, fresh(), 1)
        want = reference_simulate_workload(design, list(fresh()), 1)
        assert_identical(got, want)
        assert got.total_macs == sum(
            op.macs * op.count for op in fresh() if isinstance(op, GemmOp))


# -- price_step against the component fold it replaced -------------------

SURFACE_DESIGNS = {
    "mugi": lambda: make_design("mugi", 256),
    "sa": lambda: make_design("sa", 16),
    "carat": lambda: make_design("carat", 256),
    "sharded": lambda: ShardedSystem(make_design("mugi", 128),
                                     LLAMA2_70B_GQA,
                                     ParallelConfig(tp=2, pp=2)),
}
SURFACES = {name: (StepCostSurface(build(), LLAMA2_70B_GQA),
                   ReferenceSurface(build(), LLAMA2_70B_GQA))
            for name, build in SURFACE_DESIGNS.items()}

lengths = st.integers(1, 128).map(lambda n: 32 * n)
signatures = st.tuples(
    st.lists(lengths, max_size=3).map(tuple),
    st.lists(lengths, max_size=24).map(lambda v: tuple(sorted(v))),
    st.lists(st.tuples(st.tuples(st.integers(0, 16).map(lambda n: 32 * n),
                                 st.sampled_from((256, 768)),
                                 st.booleans()),
                       st.integers(1, 3)),
             max_size=2, unique_by=lambda c: c[0]).map(tuple),
).filter(lambda sig: any(sig))


class TestSurfaceMatchesReference:
    @pytest.mark.parametrize("name", sorted(SURFACES))
    @settings(max_examples=60, deadline=None)
    @given(signature=signatures)
    def test_price_step(self, name, signature):
        surface, reference = SURFACES[name]
        assert_identical(surface.price_step(*signature),
                         reference.price_step(*signature))


# -- price_step pinned bit for bit ----------------------------------------

def pinned_signatures() -> list:
    """A seeded signature set over every shape ``price_step`` takes.

    Pure decode; whole-prompt prefills beside decode; chunk mixes with
    finishing and non-finishing chunks, some beside whole prompts that
    fold into the same ``(0, prompt)`` pair; and unsorted decode lengths
    whose equal values are not adjacent (``price_step`` is public, and
    groups them by value, not by run).
    """
    rng = random.Random(23)

    def lengths(low, high):
        return [32 * rng.randint(1, 128)
                for _ in range(rng.randint(low, high))]

    def chunks():
        keys = {(32 * rng.randint(0, 16), rng.choice((96, 256, 768)),
                 rng.random() < 0.5) for _ in range(rng.randint(1, 4))}
        return tuple((key, rng.randint(1, 3)) for key in sorted(keys))

    signatures = []
    for _ in range(12):
        signatures.append(((), tuple(sorted(lengths(1, 24))), ()))
    for _ in range(12):
        signatures.append((tuple(sorted(lengths(1, 3))),
                           tuple(sorted(lengths(0, 16))), ()))
    for _ in range(16):
        prefill = tuple(sorted(lengths(1, 2))) if rng.random() < 0.3 \
            else ()
        signatures.append((prefill, tuple(sorted(lengths(0, 16))),
                           chunks()))
    for _ in range(8):
        distinct = sorted(set(lengths(2, 6)))
        decode = distinct + rng.sample(distinct, len(distinct))
        signatures.append(((), tuple(decode),
                           chunks() if rng.random() < 0.5 else ()))
    # A whole prompt and a first chunk of the same length share a pair.
    signatures.append(((256,), (64, 32, 64), (((0, 256, True), 1),
                                              ((64, 96, False), 2))))
    return signatures


def reference_price_step(surface, prefill_lens, decode_lens, chunk_hist):
    """``price_step``'s fold as it was built on two ``Counter``s: parts
    in dense, decode-group, chunk-pair order, one ``sum`` per column,
    the ``n_layers`` scale, then the head, then the totals."""
    pairs = Counter()
    out_tokens = len(decode_lens) + len(prefill_lens)
    for (past, new, finishes), count in chunk_hist:
        pairs[(past, new)] += count
        out_tokens += count if finishes else 0
    for prompt in prefill_lens:
        pairs[(0, prompt)] += 1
    parts = [surface._dense(len(decode_lens) + sum(
        new * count for (_, new), count in pairs.items()))]
    parts += [surface._decode_component(seq_len, seqs)
              for seq_len, seqs in Counter(decode_lens).items()]
    parts += [surface._chunk(past, new, seqs)
              for (past, new), seqs in pairs.items()]
    n_layers = surface.config.n_layers
    vec = [column * n_layers
           for column in map(sum, zip(*[v for v, _ in parts]))]
    macs = sum(m for _, m in parts) * n_layers
    head, head_macs = surface._head(out_tokens)
    vec = [v + h for v, h in zip(vec, head)]
    tech = surface.tech
    return {
        "tokens_per_step": len(decode_lens) + len(prefill_lens)
        + sum(count for _, count in chunk_hist),
        "compute_seconds": (vec[0] + vec[1] + vec[2] + vec[3])
        * tech.cycle_seconds,
        "memory_seconds": vec[9] / tech.hbm_bandwidth_bytes,
        "dynamic_energy_j": (vec[4] + vec[5] + vec[6] + vec[7] + vec[8])
        * 1e-12,
        "cycles_by_kind": dict(zip(BREAKDOWN_KINDS,
                                   vec[:4] + [vec[10] * tech.frequency_hz])),
        "energy_by_kind": dict(zip(BREAKDOWN_KINDS, vec[4:9])),
        "hbm_bytes": vec[9],
        "total_macs": macs + head_macs,
        "comm_seconds": vec[10],
    }


PINNED_DESIGNS = {
    "mugi": lambda: make_design("mugi", 256),
    "tp2": lambda: ShardedSystem(make_design("mugi", 128), LLAMA2_70B_GQA,
                                 ParallelConfig(tp=2)),
}

#: sha256 over the ``repr`` of every field of every pinned signature's
#: result, in field order, recorded with the Counter-based fold on
#: Python 3.11.  3.12's compensated ``sum`` moves last bits, so the
#: digests hold on the left-fold interpreters only;
#: ``test_matches_reference_fold`` covers every interpreter.
PINNED_DIGESTS = {
    "mugi": "e78d3e2a7c47733c16adbda1d741f2aa"
            "7eb43b166ed680426bb238be9027be5c",
    "tp2": "5a0503901d9034b935d56a0fde414736"
           "95753e1c589c12daf8cda456561d26ba",
}


def result_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        for f in fields(SimulationResult):
            digest.update(repr(getattr(result, f.name)).encode() + b"\0")
    return digest.hexdigest()


class TestPriceStepPinned:
    """``price_step`` bit for bit.  ``test_serving_fastpath.py``
    compares it with ``simulate_workload`` at 1e-12 relative, and
    ``ReferenceSurface`` above inherits it, so neither would catch a
    change in fold order."""

    @pytest.mark.skipif(sys.version_info >= (3, 12),
                        reason="recorded with a left-fold float sum()")
    @pytest.mark.parametrize("name", sorted(PINNED_DESIGNS))
    def test_digest(self, name):
        surface = StepCostSurface(PINNED_DESIGNS[name](), LLAMA2_70B_GQA)
        results = [surface.price_step(*signature)
                   for signature in pinned_signatures()]
        assert result_digest(results) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_DESIGNS))
    def test_matches_reference_fold(self, name):
        surface = StepCostSurface(PINNED_DESIGNS[name](), LLAMA2_70B_GQA)
        for signature in pinned_signatures():
            got = surface.price_step(*signature)
            for field_name, want in reference_price_step(
                    surface, *signature).items():
                value = getattr(got, field_name)
                assert type(value) is type(want), field_name
                assert repr(value) == repr(want), (field_name, signature)

    def test_signatures_cover_every_shape(self):
        signatures = pinned_signatures()
        assert any(not p and not c for p, _, c in signatures)
        assert any(p and not c for p, _, c in signatures)
        assert any(c and any(f for (_, _, f), _ in c)
                   and not all(f for (_, _, f), _ in c)
                   for _, _, c in signatures)
        assert any(list(d) != sorted(d) for _, d, _ in signatures)
        sharded = StepCostSurface(PINNED_DESIGNS["tp2"](), LLAMA2_70B_GQA)
        assert sharded.price_step(*signatures[0]).comm_seconds > 0
