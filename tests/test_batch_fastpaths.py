"""Differential fuzz tests locking the batch fast paths to their scalar
references.

Every vectorized path added for throughput — ``access_block`` on the cache
and the hierarchy, the byte-gather DBA packer/merger, the block sweep
generator, chunked replay — must be *observationally identical* to the
scalar reference it replaces: same counters, same ordered write-back
streams, same payload bytes, same final cache state.  These tests drive
both implementations with random streams (aliasing sets, mixed
reads/writes, warm restarts, partial cache lines) and require exact
agreement, so a future "optimization" that drifts semantically fails
loudly instead of silently skewing every experiment downstream.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dba import Aggregator, DBARegister, Disaggregator
from repro.interconnect.cxl import CXLLinkModel
from repro.memsim import CacheHierarchy, SetAssociativeCache, WritebackTrace
from repro.trace import (
    replay_trace,
    replay_trace_chunked,
    replay_trace_scalar,
    simulate_sweep_writebacks,
)

#: (size_bytes, line_bytes, ways) cache shapes mixing tiny (heavy
#: aliasing), wide, and direct-mapped with short lines.
CACHE_SHAPES = [
    (64 * 8, 64, 2),
    (64 * 16, 64, 4),
    (64 * 64, 64, 8),
    (64 * 32, 64, 32),
    (512, 32, 1),
]


def run_scalar(cache, addrs, writes):
    """Drive ``cache.access`` one access at a time; mirror block outputs."""
    hits, wbs = [], []
    for a, w in zip(addrs, writes):
        r = cache.access(int(a), bool(w))
        hits.append(r.hit)
        if r.writeback_address is not None:
            wbs.append(r.writeback_address)
    return np.asarray(hits, dtype=bool), np.asarray(wbs, dtype=np.int64)


def assert_same_cache_state(a, b):
    """Full observable-state equality (valid planes, dirty, LRU order)."""
    assert a.stats == b.stats
    assert np.array_equal(a._valid, b._valid)
    assert np.array_equal(a._dirty, b._dirty)
    assert np.array_equal(a._tags[a._valid], b._tags[b._valid])
    assert np.array_equal(a._lru[a._valid], b._lru[b._valid])


@st.composite
def access_streams(draw):
    """Random mixed streams biased toward set aliasing."""
    n = draw(st.integers(1, 300))
    span_bits = draw(st.sampled_from([9, 12, 16, 40]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << span_bits, n)
    writes = rng.random(n) < draw(st.floats(0.0, 1.0))
    return addrs, writes


class TestCacheBlockDifferential:
    @given(st.sampled_from(CACHE_SHAPES), access_streams())
    @settings(max_examples=40, deadline=None)
    def test_block_equals_sequential(self, shape, stream):
        addrs, writes = stream
        scalar = SetAssociativeCache(*shape)
        block = SetAssociativeCache(*shape)
        hits, wbs = run_scalar(scalar, addrs, writes)
        result = block.access_block(addrs, writes)
        assert np.array_equal(result.hits, hits)
        assert np.array_equal(result.writebacks, wbs)
        assert_same_cache_state(scalar, block)
        # The per-iteration flush must then also agree event-for-event.
        assert scalar.flush() == block.flush()

    @given(st.sampled_from(CACHE_SHAPES), access_streams(), access_streams())
    @settings(max_examples=25, deadline=None)
    def test_block_on_warm_cache(self, shape, first, second):
        """A block after a scalar prefix sees identical warm state."""
        scalar = SetAssociativeCache(*shape)
        block = SetAssociativeCache(*shape)
        run_scalar(scalar, *first)
        run_scalar(block, *first)
        hits, wbs = run_scalar(scalar, *second)
        result = block.access_block(*second)
        assert np.array_equal(result.hits, hits)
        assert np.array_equal(result.writebacks, wbs)
        assert_same_cache_state(scalar, block)

    def test_lru_tie_break_prefers_lowest_way(self):
        """Invalid ways fill lowest index first, then the LRU-min way
        with the lowest index is the victim, in both paths."""
        # 2 sets x 2 ways of 64 B lines; tags 0..4 all map to set 0.
        addrs = np.array([0, 128, 256, 384, 512], dtype=np.int64)
        scalar = SetAssociativeCache(256, 64, 2)
        block = SetAssociativeCache(256, 64, 2)
        _, wbs = run_scalar(scalar, addrs, np.ones(5, dtype=bool))
        result = block.access_block(addrs, True)
        # tags 0, 1 fill ways 0, 1; tag 2 evicts tag 0 (way 0), tag 3
        # evicts tag 1 (way 1), tag 4 evicts tag 2 (way 0 again).
        assert result.writeback_address.tolist() == [-1, -1, 0, 128, 256]
        assert wbs.tolist() == [0, 128, 256]
        assert_same_cache_state(scalar, block)

    def test_uniform_write_flag_broadcast(self):
        a = SetAssociativeCache(1024, 64, 2)
        b = SetAssociativeCache(1024, 64, 2)
        addrs = np.arange(40) * 64
        hits, wbs = run_scalar(a, addrs, np.ones(40, dtype=bool))
        result = b.access_block(addrs, True)
        assert np.array_equal(result.writebacks, wbs)
        assert a.stats == b.stats

    def test_empty_stream(self):
        c = SetAssociativeCache(1024, 64, 2)
        result = c.access_block(np.empty(0, dtype=np.int64), True)
        assert result.hits.size == 0 and result.writebacks.size == 0
        assert c.stats.accesses == 0

    def test_negative_address_rejected(self):
        c = SetAssociativeCache(1024, 64, 2)
        with pytest.raises(ValueError):
            c.access_block(np.array([0, -64]), True)


class TestHierarchyBlockDifferential:
    @staticmethod
    def make():
        return CacheHierarchy(
            [
                SetAssociativeCache(64 * 8, 64, 2, name="L1"),
                SetAssociativeCache(64 * 32, 64, 4, name="L2"),
                SetAssociativeCache(64 * 128, 64, 8, name="L3"),
            ]
        )

    @staticmethod
    def make_two_level():
        return CacheHierarchy(
            [
                SetAssociativeCache(256, 64, 2, name="l1"),
                SetAssociativeCache(1024, 64, 4, name="l2"),
            ]
        )

    @given(access_streams())
    @settings(max_examples=30, deadline=None)
    def test_block_equals_sequential(self, stream):
        self.check_block_equals_sequential(self.make(), self.make(), *stream)

    def test_two_level_per_level_stats_equal_sequential(self):
        """Per-level hit/miss/eviction/write-back counters of the batch
        path equal a per-access loop on a two-level hierarchy."""
        rng = np.random.default_rng(29)
        addrs = rng.integers(0, 4096, 500, dtype=np.int64)
        writes = rng.random(500) < 0.4
        self.check_block_equals_sequential(
            self.make_two_level(), self.make_two_level(), addrs, writes
        )

    @staticmethod
    def check_block_equals_sequential(scalar, block, addrs, writes):
        hit_levels, wbs, origins = [], [], []
        for j, (a, w) in enumerate(zip(addrs, writes)):
            r = scalar.access(int(a), bool(w))
            hit_levels.append(r.hit_level)
            for wb in r.memory_writebacks:
                wbs.append(wb)
                origins.append(j)
        result = block.access_block(addrs, writes)
        assert np.array_equal(result.hit_levels, np.asarray(hit_levels))
        assert np.array_equal(
            result.memory_writebacks, np.asarray(wbs, dtype=np.int64)
        )
        assert np.array_equal(
            result.writeback_origins, np.asarray(origins, dtype=np.int64)
        )
        assert scalar.memory_reads == block.memory_reads
        assert scalar.memory_writes == block.memory_writes
        for lv_s, lv_b in zip(scalar.levels, block.levels):
            assert_same_cache_state(lv_s, lv_b)
        assert scalar.flush() == block.flush()

    def test_single_level_hierarchy(self):
        a = CacheHierarchy([SetAssociativeCache(64 * 16, 64, 4)])
        b = CacheHierarchy([SetAssociativeCache(64 * 16, 64, 4)])
        addrs = np.arange(128) * 64
        wbs = []
        for x in addrs:
            wbs.extend(a.access(int(x), True).memory_writebacks)
        result = b.access_block(addrs, True)
        assert np.array_equal(
            result.memory_writebacks, np.asarray(wbs, dtype=np.int64)
        )
        assert a.memory_reads == b.memory_reads
        assert a.memory_writes == b.memory_writes


class TestSweepGeneratorDifferential:
    @staticmethod
    def make():
        return CacheHierarchy(
            [
                SetAssociativeCache(64 * 8, 64, 2, name="L1"),
                SetAssociativeCache(64 * 32, 64, 4, name="L2"),
            ]
        )

    @pytest.mark.parametrize(
        "param_bytes", [64 * 512, 64 * 513, 64 * 100 + 12, 4097]
    )
    def test_block_engine_byte_identical(self, param_bytes):
        """Both engines emit the very bytes the CXL emulator consumes."""
        scalar = simulate_sweep_writebacks(
            param_bytes, 0.125, self.make(), engine="scalar"
        )
        block = simulate_sweep_writebacks(
            param_bytes, 0.125, self.make(), engine="block"
        )
        assert scalar.times.tobytes() == block.times.tobytes()
        assert scalar.addresses.tobytes() == block.addresses.tobytes()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            simulate_sweep_writebacks(4096, 1.0, self.make(), engine="numba")


class TestDBADifferential:
    @given(
        st.integers(1, 4),
        st.integers(1, 130),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(4, 48, 5)  # full-width words, whole lines: lossless
    def test_pack_unpack_roundtrip_matches_scalar(self, db, n_words, seed):
        """Vectorized pack/unpack ≡ per-word reference at every
        ``dirty_bytes``, including partial last cache lines."""
        rng = np.random.default_rng(seed)
        reg = DBARegister(enabled=True, dirty_bytes=db)
        tensor = rng.standard_normal(n_words).astype(np.float32)
        stale = rng.standard_normal(n_words).astype(np.float32)

        fast_agg, ref_agg = Aggregator(reg), Aggregator(reg)
        fast_payload = fast_agg.pack_tensor(tensor)
        ref_payload = ref_agg.pack_tensor_scalar(tensor)
        assert np.array_equal(fast_payload, ref_payload)
        assert fast_agg.payload_bytes_produced == ref_agg.payload_bytes_produced
        assert fast_agg.lines_processed == ref_agg.lines_processed

        fast_dis, ref_dis = Disaggregator(reg), Disaggregator(reg)
        fast_merged = fast_dis.unpack(stale, fast_payload)
        pad = (-n_words) % 16
        padded_stale = np.concatenate(
            [stale, np.zeros(pad, dtype=np.float32)]
        ).reshape(-1, 16)
        ref_merged = ref_dis.merge_lines_scalar(padded_stale, ref_payload)
        assert np.array_equal(
            fast_merged.view(np.uint32),
            ref_merged.reshape(-1)[:n_words].view(np.uint32),
        )
        assert fast_dis.lines_merged == ref_dis.lines_merged
        assert fast_dis.extra_reads == ref_dis.extra_reads
        if db == 4:  # full words on the wire -> lossless round trip
            assert np.array_equal(fast_merged, tensor)

    def test_bypass_register_identical(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(35).astype(np.float32)
        stale = rng.standard_normal(35).astype(np.float32)
        fast = Aggregator(DBARegister()).pack_tensor(t)
        ref = Aggregator(DBARegister()).pack_tensor_scalar(t)
        assert np.array_equal(fast, ref)
        assert fast.shape[1] == 64  # full lines when DBA is off
        # All 4 bytes of every word cross the wire: the merge is lossless.
        merged = Disaggregator(DBARegister()).unpack(stale, fast)
        assert np.array_equal(merged.view(np.uint32), t.view(np.uint32))


class TestReplayDifferential:
    @given(
        st.integers(1, 2000),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 7, 100, 1 << 18]),
        st.floats(0.0, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_chunked_is_bit_identical(self, n, seed, chunk, start):
        rng = np.random.default_rng(seed)
        trace = WritebackTrace(
            np.sort(rng.random(n)),
            rng.integers(0, 1 << 30, n).astype(np.uint64) * 64,
        )
        link = CXLLinkModel.paper_default()
        whole = replay_trace(trace, link, 2, start)
        chunked = replay_trace_chunked(trace, link, 2, start, chunk_events=chunk)
        assert whole == chunked  # dataclass equality: every field bit-equal

    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_vectorized_matches_scalar_recursion(self, n, seed):
        rng = np.random.default_rng(seed)
        trace = WritebackTrace(
            np.sort(rng.random(n)),
            rng.integers(0, 1 << 20, n).astype(np.uint64) * 64,
        )
        link = CXLLinkModel.paper_default()
        vec = replay_trace(trace, link, 2)
        ref = replay_trace_scalar(trace, link, 2)
        assert vec.n_lines == ref.n_lines
        assert vec.wire_bytes == ref.wire_bytes
        assert vec.finish_time == pytest.approx(ref.finish_time, rel=1e-12)
        assert vec.exposed_time == pytest.approx(
            ref.exposed_time, rel=1e-9, abs=1e-15
        )

    def test_chunked_rejects_bad_chunk(self):
        trace = WritebackTrace(np.empty(0), np.empty(0, dtype=np.uint64))
        with pytest.raises(ValueError):
            replay_trace_chunked(trace, chunk_events=0)
