"""Paged KV-cache block manager with copy-on-write prefix caching.

vLLM-style block-granular KV accounting for the serving simulator: the
device KV budget is carved into fixed-size blocks of ``block_size``
tokens, and each admitted sequence holds a *block table* covering
exactly the KV tokens it has materialized so far — not its peak
footprint, which is what lets the paged schedulers (:mod:`.policy`)
admit far deeper batches than the PR 1 peak-reservation policies at the
same capacity.

Prefix caching: requests that declare a shared prompt prefix
(:attr:`repro.serve.trace.Request.prefix_group` /
:attr:`~repro.serve.trace.Request.prefix_len`) hash their full prefix
blocks by ``(group, block_index)``.  A later request whose prefix
blocks are already resident *shares* them (refcount++) and skips their
prefill compute; blocks whose refcount drops to zero are retained in an
LRU-evictable cached pool so hits survive across non-overlapping
request lifetimes.  Writing into a block shared by several sequences
(an exact re-asked prompt whose recomputed last token lands mid-block)
triggers **copy-on-write**: the writer gets a private copy, the shared
block keeps serving everyone else.

The conservation invariant — every block is in exactly one of
{free, live (refcount >= 1), cached} and the three sets partition the
pool — is checked by :meth:`BlockManager.check_invariants` and
property-tested under randomized admit/extend/free/swap sequences.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ConfigError
from .trace import Request


@dataclass
class BlockPoolStats:
    """Counters the block manager accumulates over a run."""

    prefix_hit_tokens: int = 0
    prefix_query_tokens: int = 0
    cow_copies: int = 0
    evictions: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Prompt tokens served from the prefix cache, over all prompt
        tokens that went through admission."""
        if self.prefix_query_tokens == 0:
            return 0.0
        return self.prefix_hit_tokens / self.prefix_query_tokens


class BlockManager:
    """Allocate fixed-size KV blocks with refcounts and prefix caching.

    Parameters
    ----------
    config:
        The served model; its GQA geometry sets bytes per KV token.
    capacity_bytes:
        Device KV budget; the pool holds ``capacity // block_bytes``
        blocks (at least one).
    block_size:
        Tokens per block (vLLM's default is 16).
    kvq_bits:
        KV-cache quantization width.
    """

    def __init__(self, config, capacity_bytes: float, block_size: int = 16,
                 kvq_bits: int = 4):
        if block_size < 1:
            raise ConfigError("block_size must be positive")
        # Written so NaN fails too: a NaN or infinite budget has no
        # whole number of blocks.
        if not 0 < capacity_bytes < math.inf:
            raise ConfigError("capacity_bytes must be finite and positive")
        self.config = config
        self.block_size = block_size
        self.kvq_bits = kvq_bits
        self.bytes_per_token = config.kv_cache_bytes(seq_len=1, batch=1,
                                                     bits=kvq_bits)
        self.block_bytes = self.bytes_per_token * block_size
        self.num_blocks = int(capacity_bytes // self.block_bytes)
        if self.num_blocks < 1:
            raise ConfigError(
                f"capacity {capacity_bytes:.3g} B holds no "
                f"{self.block_bytes:.3g}-B block; shrink block_size")
        #: LIFO free list (block 0 pops first).
        self._free = list(range(self.num_blocks - 1, -1, -1))
        self._ref: dict[int, int] = {}          # live block -> refcount
        self._table: dict[int, list[int]] = {}  # seq -> block table
        self._tokens: dict[int, int] = {}       # seq -> KV tokens held
        self._prefix: dict[int, tuple] = {}     # seq -> (group, prefix_len)
        self._hash_of: dict[int, tuple] = {}    # prefix block -> key
        self._block_of: dict[tuple, int] = {}   # key -> prefix block
        #: Refcount-0 prefix blocks retained for future hits (LRU order).
        self._cached: OrderedDict[int, tuple] = OrderedDict()
        self.stats = BlockPoolStats()
        #: Pool mutation epoch: bumped by every change to the cached
        #: pool (insert, attach, eviction, MRU move) or to the prefix
        #: map.  Besides those two, a probe reads only the free-list
        #: length, so :meth:`probe_admission` keeps its last walk in
        #: :attr:`_probe_memo` and reuses it for the same request at an
        #: unchanged epoch.
        self._epoch = 0
        #: ``(request, epoch, blocks, cached, slack, cow, held)`` of the
        #: last probe, ``held`` counting its blocks in the cached pool.
        self._probe_memo: tuple | None = None

    @classmethod
    def for_design(cls, design, config, capacity_bytes: float,
                   **kwargs) -> "BlockManager":
        """Pool for a (possibly sharded) deployment.

        ``capacity_bytes`` is the *per-chip* KV budget; a
        :class:`repro.parallel.ShardedSystem` splits every sequence's KV
        across its KV-head and pipeline shards, so the aggregate pool is
        ``kv_shard_factor`` times one chip's (plain designs scale by 1).
        """
        scale = getattr(design, "kv_shard_factor", 1)
        return cls(config, capacity_bytes * scale, **kwargs)

    # -- capacity views --------------------------------------------------
    @property
    def capacity_bytes(self) -> float:
        """Pool capacity actually usable (whole blocks)."""
        return self.num_blocks * self.block_bytes

    @property
    def live_blocks(self) -> int:
        return len(self._ref)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def cached_blocks(self) -> int:
        return len(self._cached)

    @property
    def available_blocks(self) -> int:
        """Blocks an allocation could obtain (free + evictable cached)."""
        return len(self._free) + len(self._cached)

    @property
    def used_bytes(self) -> float:
        """Bytes held by live sequences (cached-only blocks excluded)."""
        return self.live_blocks * self.block_bytes

    @property
    def utilization(self) -> float:
        """Live-block share of the pool."""
        return self.live_blocks / self.num_blocks

    def blocks_needed(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens[seq_id]

    def blocks_of(self, seq_id: int) -> int:
        """Blocks currently held by ``seq_id``'s table."""
        return len(self._table[seq_id])

    # -- allocation core -------------------------------------------------
    def _take_free(self) -> int:
        """Pop a free block, evicting the LRU cached block if needed."""
        if self._free:
            return self._free.pop()
        block, key = self._cached.popitem(last=False)
        del self._hash_of[block]
        del self._block_of[key]
        self.stats.evictions += 1
        self._epoch += 1
        return block

    def _register(self, block: int, key: tuple) -> None:
        """Hash a freshly allocated full prefix block (first writer wins)."""
        if key not in self._block_of:
            self._block_of[key] = block
            self._hash_of[block] = key
            self._epoch += 1

    # -- sequence lifecycle ----------------------------------------------
    def begin_sequence(self, seq_id: int, request: Request) -> int:
        """Open a block table for ``request``; return prefix-cached tokens.

        Walks the request's shared-prefix blocks through the hash map:
        resident blocks (live or cached) are attached with a refcount
        instead of allocated, and their tokens — capped at
        ``prompt_len - 1``, since the last prompt token is always
        recomputed to produce logits — skip prefill compute.  Opening
        the queue head the last :meth:`probe_admission` walked, at an
        unchanged epoch, takes that walk instead of repeating it.
        """
        if seq_id in self._table:
            raise ConfigError(f"sequence {seq_id} already has a table")
        memo = self._probe_memo
        if memo is not None and memo[0] is request \
                and memo[1] == self._epoch:
            table = memo[2]
            self._probe_memo = None  # The walk is this sequence's table.
        else:
            table = self._resident_prefix(request)
        cached_pool = self._cached
        for block in table:
            if block in cached_pool:
                del cached_pool[block]
                self._ref[block] = 1
                self._epoch += 1
            else:
                self._ref[block] += 1
        self._table[seq_id] = table
        self._prefix[seq_id] = (request.prefix_group, request.prefix_len)
        cached = min(len(table) * self.block_size, request.prompt_len - 1)
        self.stats.prefix_query_tokens += request.prompt_len
        self.stats.prefix_hit_tokens += cached
        self._tokens[seq_id] = cached
        return cached

    def _resident_prefix(self, request: Request) -> list[int]:
        """The request's resident shared-prefix blocks, in table order.

        Whole prefix blocks that start below the capped prompt
        (``prompt_len - 1``), hashed under the request's group, up to
        the first one that is not resident (live or cached).
        """
        group = request.prefix_group
        if group is None:
            return []
        block_of = self._block_of
        blocks = []
        for idx in range(min(request.prefix_len,
                             request.prompt_len + self.block_size - 2)
                         // self.block_size):
            block = block_of.get((group, idx))
            if block is None:
                break
            blocks.append(block)
        return blocks

    def probe_admission(self, request: Request) -> tuple[int, int, int]:
        """What opening ``request`` would give, without opening it.

        Returns ``(cached, available, room)``: the prefix-cached tokens
        :meth:`begin_sequence` would return, :attr:`available_blocks`
        after its attach, and the :meth:`max_extend` that would follow.
        Touches no table, refcount or statistic.  It does move the
        request's cached-resident prefix blocks to the MRU end, in
        table order: an attach followed by :meth:`free_sequence` leaves
        them there, and the paged scheduler probes a blocked queue head
        every step, so eviction order depends on that refresh.

        A probe of the request the last probe walked, at an unchanged
        :attr:`_epoch`, reuses that walk: the prefix map and the cached
        pool are as it left them, so the walk, the cached tokens, the
        copy-on-write flag and the head's share of the cached pool are
        too, and the refresh would move nothing (the head's blocks
        already end the pool, in table order).  Only ``available`` is
        recomputed, since free-list allocations bump no epoch.
        """
        memo = self._probe_memo
        if memo is not None and memo[0] is request \
                and memo[1] == self._epoch:
            _, _, _, cached, slack, cow, held = memo
            available = len(self._free) + len(self._cached) - held
            return cached, available, self._room(slack, available, cow)
        size = self.block_size
        blocks = self._resident_prefix(request)
        cached_pool = self._cached
        held = 0
        for block in blocks:
            if block in cached_pool:
                cached_pool.move_to_end(block)
                held += 1
        if held:
            self._epoch += 1
        cached = min(len(blocks) * size, request.prompt_len - 1)
        slack = len(blocks) * size - cached
        # The capped prompt's last token may land in a block other
        # sequences hold (live before the attach): the first write
        # copies it.
        cow = slack > 0 and blocks[-1] not in cached_pool
        self._probe_memo = (request, self._epoch, blocks, cached, slack,
                            cow, held)
        available = len(self._free) + len(cached_pool) - held
        return cached, available, self._room(slack, available, cow)

    def max_extend(self, seq_id: int) -> int:
        """Most tokens :meth:`extend` could currently grant ``seq_id``."""
        tokens = self._tokens[seq_id]
        return self._room(len(self._table[seq_id]) * self.block_size
                          - tokens, self.available_blocks,
                          self._needs_cow(seq_id, tokens))

    def _room(self, slack: int, available: int, cow: bool) -> int:
        """Tokens a table can grow by: the ``slack`` slots left in its
        tail block, then ``available`` blocks — one fewer when the tail
        is shared (``cow``), since the first write burns one on the
        copy, and none at all when no block is left for that copy."""
        if cow:
            if available == 0:
                return 0
            available -= 1
        return slack + available * self.block_size

    def _needs_cow(self, seq_id: int, position: int) -> bool:
        """Would writing ``position`` hit a block shared with others?"""
        table = self._table[seq_id]
        idx = position // self.block_size
        if idx >= len(table):
            return False
        return self._ref[table[idx]] > 1

    def extend(self, seq_id: int, n_tokens: int) -> bool:
        """Materialize ``n_tokens`` more KV tokens for ``seq_id``.

        Allocates new blocks as the sequence crosses block boundaries
        and copy-on-writes a shared tail block before the first write
        lands in it.  All-or-nothing: returns False (and changes
        nothing) when the pool cannot supply every needed block.

        Prefill chunks call this directly.  Decode steps and leap
        commits go through :meth:`extend_bulk`, which calls it only for
        a write that opens a block, copies a shared one or may publish
        a prefix block.
        """
        if n_tokens < 1:
            raise ConfigError("n_tokens must be positive")
        table = self._table[seq_id]
        cur = self._tokens[seq_id]
        target = cur + n_tokens
        size = self.block_size
        need = (target + size - 1) // size - len(table)
        write_idx = cur // size
        # Copy-on-write check: would the first write land in a block
        # shared with other sequences?
        cow = write_idx < len(table) and self._ref[table[write_idx]] > 1
        if need > 0 or cow:
            want = (need if need > 0 else 0) + (1 if cow else 0)
            if want > len(self._free) + len(self._cached):
                return False
            if cow:
                # A private copy for the writer; the shared original
                # keeps serving its other holders (and the hash map).
                # Writes into a *sole-held* hashed block need no copy:
                # hashed blocks lie wholly inside the shared prefix, so
                # any write there recomputes prefix content, never
                # diverges from it.
                old = table[write_idx]
                copy = self._take_free()
                self._ref[old] -= 1
                self._ref[copy] = 1
                table[write_idx] = copy
                self.stats.cow_copies += 1
            for _ in range(need):
                block = self._take_free()
                self._ref[block] = 1
                table.append(block)
        self._tokens[seq_id] = target
        group, prefix_len = self._prefix[seq_id]
        if group is not None:
            # Hash prefix blocks only once their KV is fully written —
            # a chunk boundary mid-block must not publish a half-built
            # block for cache hits.
            for idx in range(write_idx,
                             min(target, prefix_len) // size):
                self._register(table[idx], (group, idx))
        return True

    def extend_bulk(self, grants: list) -> bool:
        """Extend several sequences at once, all-or-nothing.

        ``grants`` is a list of ``(seq_id, n_tokens)`` pairs, at most
        one per sequence.  The paged scheduler extends every decoder
        through this once per step, one token each, and the decode-leap
        fast path applies K steps of KV growth for a whole active set
        in one call.  The pre-check sums every sequence's block need
        (including a copy-on-write block where the first write would
        land in a shared block), and only if the pool can supply them
        all does any sequence grow.  Returns False with nothing changed
        otherwise.  The sum can overstate the demand (one holder's copy
        may leave another the sole holder), so a caller that must grow
        whatever fits falls back to per-sequence extends on False.

        A grant past the sequence's prefix that stays inside its block
        table only bumps the token count.  It opens no block and
        publishes no prefix block, and it copies nothing: a block that
        other sequences also hold is a hashed prefix block, which lies
        below every holder's ``prefix_len`` (:meth:`check_invariants`).
        Every other grant goes through :meth:`extend`, in order; the
        bumps touch no block, so applying them first changes nothing.

        Block allocations happen sequence by sequence rather than
        interleaved step by step, but the observable state — tables,
        token counts, refcounts, eviction order and counts — is
        identical to the stepwise schedule: ``_take_free`` drains the
        free list and then the LRU cached blocks in the same global
        order no matter which sequence consumes each block, and nothing
        inside a leap window inserts into or touches either pool.
        """
        tokens, tables, prefix = self._tokens, self._table, self._prefix
        ref = self._ref
        size = self.block_size
        bumps, writes, need = [], [], 0
        for grant in grants:
            seq_id, n_tokens = grant
            if n_tokens < 1:
                raise ConfigError("n_tokens must be positive")
            cur = tokens[seq_id]
            target = cur + n_tokens
            table = tables[seq_id]
            if target <= len(table) * size and cur >= prefix[seq_id][1]:
                bumps.append((seq_id, target))
                continue
            writes.append(grant)
            grow = (target + size - 1) // size - len(table)
            if grow > 0:
                need += grow
            idx = cur // size
            if idx < len(table) and ref[table[idx]] > 1:
                need += 1
        if need > len(self._free) + len(self._cached):
            return False
        tokens.update(bumps)
        for seq_id, n_tokens in writes:
            if not self.extend(seq_id, n_tokens):
                # The pre-check bounded total demand, so per-sequence
                # extends cannot fail part-way through.
                raise ConfigError(
                    "extend_bulk pre-check missed a block shortfall")
        return True

    def _drop_blocks(self, seq_id: int) -> None:
        for block in self._table[seq_id]:
            self._ref[block] -= 1
            if self._ref[block] == 0:
                del self._ref[block]
                key = self._hash_of.get(block)
                if key is not None:
                    self._cached[block] = key
                    self._cached.move_to_end(block)
                    self._epoch += 1
                else:
                    self._free.append(block)

    def free_sequence(self, seq_id: int) -> None:
        """Release a sequence's blocks (prefix blocks stay cached)."""
        self._drop_blocks(seq_id)
        del self._table[seq_id]
        del self._tokens[seq_id]
        del self._prefix[seq_id]

    # -- swap-style preemption -------------------------------------------
    def swap_out(self, seq_id: int) -> float:
        """Move a sequence's KV to the host; return bytes transferred."""
        tokens = self._tokens[seq_id]
        self.free_sequence(seq_id)
        bytes_moved = tokens * self.bytes_per_token
        self.stats.swap_out_bytes += bytes_moved
        return bytes_moved

    def swap_in(self, seq_id: int, tokens: int) -> float | None:
        """Restore ``tokens`` KV tokens from the host.

        Returns the bytes transferred, or None when the pool cannot hold
        the sequence right now.  Restored blocks are private (host pages
        are not re-hashed into the prefix cache).
        """
        need = self.blocks_needed(max(tokens, 1))
        if need > self.available_blocks:
            return None
        if seq_id in self._table:
            raise ConfigError(f"sequence {seq_id} is already resident")
        table = [self._take_free() for _ in range(need)]
        for block in table:
            self._ref[block] = 1
        self._table[seq_id] = table
        self._tokens[seq_id] = tokens
        self._prefix[seq_id] = (None, 0)
        bytes_moved = tokens * self.bytes_per_token
        self.stats.swap_in_bytes += bytes_moved
        return bytes_moved

    # -- invariants ------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ConfigError if the pool's conservation laws are broken."""
        free, live, cached = set(self._free), set(self._ref), \
            set(self._cached)
        if free & live or free & cached or live & cached:
            raise ConfigError("a block is in two pools at once")
        if len(free) + len(live) + len(cached) != self.num_blocks:
            raise ConfigError(
                f"allocated + cached + free = "
                f"{len(live)} + {len(cached)} + {len(free)} "
                f"!= {self.num_blocks} total")
        if any(count < 1 for count in self._ref.values()):
            raise ConfigError("live block with refcount < 1")
        held: dict[int, int] = {}
        for table in self._table.values():
            for block in table:
                held[block] = held.get(block, 0) + 1
        if held != self._ref:
            raise ConfigError("refcounts disagree with block tables")
        for seq_id, table in self._table.items():
            tokens = self._tokens[seq_id]
            if not tokens <= len(table) * self.block_size:
                raise ConfigError(f"sequence {seq_id} holds fewer blocks "
                                  f"than its {tokens} tokens need")
            # Only hashed prefix blocks are ever shared, so a write past
            # the prefix never needs a copy (the extend fast paths).
            past_prefix = table[self._prefix[seq_id][1] // self.block_size:]
            if any(self._ref[block] > 1 for block in past_prefix):
                raise ConfigError(f"sequence {seq_id} shares a block past "
                                  f"its prefix")
        for key, block in self._block_of.items():
            if self._hash_of.get(block) != key:
                raise ConfigError("prefix hash maps disagree")
