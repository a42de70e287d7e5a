"""Set-associative write-back cache simulator.

Functional (hit/miss/eviction) simulation with LRU replacement, write-back +
write-allocate policy — the configuration of every level in the paper's
gem5-avx setup (Table II).  The simulator reports, per access, whether a
dirty line was evicted; chained through :class:`~repro.memsim.hierarchy.
CacheHierarchy` this produces the main-memory write-back stream that feeds
the CXL emulator.

The implementation keeps per-set NumPy arrays of tags, validity, dirtiness
and LRU counters; single accesses are O(ways) with vectorized tag compare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "AccessResult", "BlockAccessResult", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Counters accumulated by a cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits as a fraction of accesses (0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Line address of a dirty line evicted by this access, if any.
    writeback_address: int | None = None
    #: Line address that had to be fetched from the next level, if any.
    fill_address: int | None = None


@dataclass(frozen=True)
class BlockAccessResult:
    """Outcome of one :meth:`SetAssociativeCache.access_block` call.

    Arrays are indexed by position in the input stream; ``writeback_address``
    is ``-1`` where the access evicted nothing dirty.  The compact, ordered
    write-back stream is :attr:`writebacks`.
    """

    #: Per-access hit flag.
    hits: np.ndarray
    #: Per-access dirty-victim line address (-1 = none).
    writeback_address: np.ndarray

    @property
    def writebacks(self) -> np.ndarray:
        """Dirty-victim line addresses in eviction (stream) order."""
        return self.writeback_address[self.writeback_address >= 0]


class SetAssociativeCache:
    """An LRU set-associative cache with write-back/write-allocate.

    Parameters
    ----------
    size_bytes
        Total capacity.
    line_bytes
        Cache-line size (64 in Table II).
    ways
        Associativity.
    name
        Label for diagnostics.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        ways: int = 8,
        name: str = "cache",
    ):
        if size_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("size, line size and ways must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")
        n_lines = size_bytes // line_bytes
        if n_lines == 0 or size_bytes % line_bytes:
            raise ValueError("size_bytes must be a multiple of line_bytes")
        if n_lines % ways:
            raise ValueError(
                f"{n_lines} lines not divisible by {ways} ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = n_lines // ways
        self._line_shift = line_bytes.bit_length() - 1
        self.stats = CacheStats()
        # Per-(set, way) state.
        self._tags = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._valid = np.zeros((self.n_sets, ways), dtype=bool)
        self._dirty = np.zeros((self.n_sets, ways), dtype=bool)
        self._lru = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._tick = 0

    # -- address helpers ----------------------------------------------------
    def line_address(self, address: int) -> int:
        """The line-aligned base address containing ``address``."""
        return (address >> self._line_shift) << self._line_shift

    def _index_tag(self, address: int) -> tuple[int, int]:
        line = address >> self._line_shift
        return line % self.n_sets, line // self.n_sets

    def _address_of(self, set_idx: int, tag: int) -> int:
        return ((tag * self.n_sets) + set_idx) << self._line_shift

    # -- core ---------------------------------------------------------------
    def access(self, address: int, is_write: bool) -> AccessResult:
        """Access one byte address; returns hit/eviction outcome."""
        if address < 0:
            raise ValueError("address must be non-negative")
        set_idx, tag = self._index_tag(address)
        self._tick += 1
        tags = self._tags[set_idx]
        valid = self._valid[set_idx]
        match = np.flatnonzero(valid & (tags == tag))
        if match.size:
            way = int(match[0])
            self.stats.hits += 1
            self._lru[set_idx, way] = self._tick
            if is_write:
                self._dirty[set_idx, way] = True
            return AccessResult(hit=True)

        # Miss: choose victim (invalid way first, else LRU).
        self.stats.misses += 1
        invalid = np.flatnonzero(~valid)
        if invalid.size:
            way = int(invalid[0])
            writeback = None
        else:
            way = int(np.argmin(self._lru[set_idx]))
            writeback = None
            self.stats.evictions += 1
            if self._dirty[set_idx, way]:
                writeback = self._address_of(set_idx, int(tags[way]))
                self.stats.writebacks += 1
        fill = self.line_address(address)
        self._tags[set_idx, way] = tag
        self._valid[set_idx, way] = True
        self._dirty[set_idx, way] = is_write
        self._lru[set_idx, way] = self._tick
        return AccessResult(hit=False, writeback_address=writeback, fill_address=fill)

    def access_block(
        self, addresses: np.ndarray, is_write: bool | np.ndarray
    ) -> BlockAccessResult:
        """Vectorized batch access: the whole stream in NumPy array ops.

        Semantically identical to calling :meth:`access` once per element
        of ``addresses`` in order (same :class:`CacheStats` counters, same
        ordered dirty write-back stream, same final tag/valid/dirty/LRU
        state) — the equivalence is differentially fuzz-tested.

        Accesses to different sets are independent, so the stream is
        grouped by set and processed in *rounds*: round ``k`` performs the
        ``k``-th access of every set at once (vectorized tag compare,
        victim selection and LRU update across sets).  Python-level work is
        O(max accesses per set), not O(len(addresses)); throughput scales
        with the set parallelism of the stream (worst case — every access
        aliasing one set — degenerates to scalar speed).

        Parameters
        ----------
        addresses
            Byte addresses (any integer dtype).
        is_write
            Single flag for the whole stream, or one flag per access.

        Returns
        -------
        BlockAccessResult
            Per-access hits and dirty-victim addresses (stream order).
        """
        addrs = np.atleast_1d(np.asarray(addresses)).astype(np.int64)
        if addrs.ndim != 1:
            raise ValueError("addresses must be one-dimensional")
        if addrs.size and addrs.min() < 0:
            raise ValueError("address must be non-negative")
        n = addrs.size
        writes = np.broadcast_to(
            np.asarray(is_write, dtype=bool), addrs.shape
        )
        hits_out = np.zeros(n, dtype=bool)
        wb_out = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return BlockAccessResult(hits_out, wb_out)

        lines = addrs >> self._line_shift
        sets = lines % self.n_sets
        tags = lines // self.n_sets

        # Group the stream by set: round k visits the k-th access of
        # every set, i.e. sorted-order positions start[g] + k.
        order = np.argsort(sets, kind="stable")
        uniq_sets, start, counts = np.unique(
            sets[order], return_index=True, return_counts=True
        )
        tick0 = self._tick

        # Block-local state with invalid ways folded into sentinels:
        # tag/LRU -1.  Any valid LRU stamp is >= 1, so argmin over the LRU
        # row picks the first invalid way when one exists (ties break to
        # the lowest way index) and the true LRU way otherwise — exactly
        # the scalar victim choice, without gathering a validity plane.
        # The round loop is memory-bound on the tag-compare and LRU-argmin
        # planes; when every tag and LRU stamp fits in 32 bits (any stream
        # below 2^31 accesses over a < 8-TiB address span) halve the
        # traffic by running the rounds on int32 copies.
        compact = (
            int(tags.max()) < 2**31 - 1
            and tick0 + n < 2**31 - 1
            and (
                not np.any(self._valid)
                or int(self._tags[self._valid].max()) < 2**31 - 1
            )
        )
        dt = np.int32 if compact else np.int64
        tags = tags.astype(dt, copy=False)
        tags_l = np.where(self._valid, self._tags, -1).astype(dt, copy=False)
        lru_l = np.where(self._valid, self._lru, -1).astype(dt, copy=False)
        dirty = self._dirty
        hits = misses = evictions = writebacks = 0
        for k in range(int(counts.max())):
            live = counts > k
            idx = order[start[live] + k]  # stream position, one per set
            s = uniq_sets[live]
            tg = tags[idx]
            wr = writes[idx]
            stamp = tick0 + idx + 1  # == scalar per-access tick
            match = tags_l[s] == tg[:, None]
            hit = match.any(axis=1)

            hi = np.flatnonzero(hit)
            if hi.size:
                way = match[hi].argmax(axis=1)
                lru_l[s[hi], way] = stamp[hi]
                dirty[s[hi], way] |= wr[hi]
                hits_out[idx[hi]] = True
                hits += hi.size

            mi = np.flatnonzero(~hit)
            if mi.size:
                ms = s[mi]
                lru_rows = lru_l[ms]
                victim = lru_rows.argmin(axis=1)
                evicted = lru_rows[np.arange(ms.size), victim] != -1
                dirty_victim = dirty[ms, victim] & evicted
                dv = np.flatnonzero(dirty_victim)
                if dv.size:
                    old_tags = tags_l[ms[dv], victim[dv]].astype(np.int64)
                    wb_out[idx[mi[dv]]] = (
                        (old_tags * self.n_sets) + ms[dv]
                    ) << self._line_shift
                misses += mi.size
                evictions += int(np.count_nonzero(evicted))
                writebacks += dv.size
                tags_l[ms, victim] = tg[mi]
                dirty[ms, victim] = wr[mi]
                lru_l[ms, victim] = stamp[mi]

        # Fold the local state back: ways still holding the sentinel were
        # invalid on entry and untouched — they keep their stale tag/LRU
        # exactly as the scalar path would.
        touched = lru_l != np.int64(-1)
        np.copyto(self._tags, tags_l, where=touched)
        np.copyto(self._lru, lru_l, where=touched)
        self._valid |= touched
        self._tick += n
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        self.stats.writebacks += writebacks
        return BlockAccessResult(hits_out, wb_out)

    def access_stream(
        self, start_address: int, n_lines: int, is_write: bool
    ) -> np.ndarray:
        """Vectorized fast path for a linear line-stride sweep — the access
        pattern of the blocked ADAM update and the gradient buffer.

        Semantically identical to ``n_lines`` successive :meth:`access`
        calls at line stride (the equivalence is property-tested), but
        O(n_sets) NumPy work instead of O(n_lines) Python-level work when
        the cache starts empty.  Falls back to the scalar path otherwise.

        Returns the dirty-line write-back addresses in eviction order.
        """
        if n_lines < 0:
            raise ValueError("n_lines must be non-negative")
        if start_address < 0 or start_address % self.line_bytes:
            raise ValueError("start_address must be line aligned")
        if n_lines == 0:
            return np.empty(0, dtype=np.int64)
        if self.resident_lines != 0:
            out = []
            for i in range(n_lines):
                r = self.access(start_address + i * self.line_bytes, is_write)
                if r.writeback_address is not None:
                    out.append(r.writeback_address)
            return np.asarray(out, dtype=np.int64)

        # Cold linear sweep: every access misses; within each set, lines
        # arrive in tag order and LRU victimization is round-robin, so
        # line g is evicted exactly when line g + n_sets*ways arrives.
        start_line = start_address >> self._line_shift
        g = np.arange(start_line, start_line + n_lines, dtype=np.int64)
        sets = (g % self.n_sets).astype(np.int64)
        tags = g // self.n_sets
        capacity = self.n_sets * self.ways

        self.stats.misses += n_lines
        n_evicted = max(0, n_lines - capacity)
        self.stats.evictions += n_evicted
        if is_write and n_evicted:
            writebacks = g[:n_evicted] << self._line_shift
            self.stats.writebacks += n_evicted
        else:
            writebacks = np.empty(0, dtype=np.int64)

        # Final state: the last min(capacity, n_lines) lines are resident,
        # each in way (tag % ways) of its set, LRU-stamped by arrival.
        resident = g[n_evicted:]
        r_sets = sets[n_evicted:]
        r_tags = tags[n_evicted:]
        r_ways = (r_tags % self.ways).astype(np.int64)
        arrival = np.arange(resident.size, dtype=np.int64) + self._tick + 1
        self._tick += n_lines
        self._tags[r_sets, r_ways] = r_tags
        self._valid[r_sets, r_ways] = True
        self._dirty[r_sets, r_ways] = is_write
        self._lru[r_sets, r_ways] = arrival
        return writebacks

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident."""
        set_idx, tag = self._index_tag(address)
        return bool(
            np.any(self._valid[set_idx] & (self._tags[set_idx] == tag))
        )

    def is_dirty(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident and dirty."""
        set_idx, tag = self._index_tag(address)
        match = self._valid[set_idx] & (self._tags[set_idx] == tag)
        return bool(np.any(match & self._dirty[set_idx]))

    def invalidate(self, address: int) -> int | None:
        """Drop a line; returns its address if it was dirty (needs WB)."""
        set_idx, tag = self._index_tag(address)
        match = np.flatnonzero(
            self._valid[set_idx] & (self._tags[set_idx] == tag)
        )
        if not match.size:
            return None
        way = int(match[0])
        dirty = bool(self._dirty[set_idx, way])
        self._valid[set_idx, way] = False
        self._dirty[set_idx, way] = False
        if dirty:
            self.stats.writebacks += 1
            return self._address_of(set_idx, tag)
        return None

    def flush(self) -> list[int]:
        """Write back and drop every dirty line; returns their addresses.

        This is the per-training-iteration flush of Section IV-A2 ("The
        flush happens only once at each training iteration to guarantee all
        the updated parameters are sent out").
        """
        out: list[int] = []
        dirty_sets, dirty_ways = np.nonzero(self._valid & self._dirty)
        for s, w in zip(dirty_sets.tolist(), dirty_ways.tolist()):
            out.append(self._address_of(s, int(self._tags[s, w])))
        self.stats.writebacks += len(out)
        self._valid[:] = False
        self._dirty[:] = False
        return out

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently cached."""
        return int(np.count_nonzero(self._valid))
