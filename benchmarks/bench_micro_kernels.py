"""Micro-benchmarks of the hot kernels (true pytest-benchmark timings).

These complement the experiment-regeneration benches: they measure the
throughput of the library's own building blocks — DBA packing/merging,
trace replay, the cache simulator, the DES engine, the LZ4 codec and the
LJ force kernel — so performance regressions in the substrates are caught.

The ``*_speedup`` benches additionally *assert* the batch fast paths stay
at least 10x ahead of their scalar references at 1M-element streams: the
scalar side is timed on a subsample and extrapolated linearly (it is a
per-element Python loop, so extrapolation is conservative — warm-cache
hits only make the scalar loop's later elements cheaper, not dearer).
"""

import time

import numpy as np
import pytest

from repro.dba import Aggregator, DBARegister, Disaggregator
from repro.compression import lz4_compress, lz4_decompress
from repro.interconnect.cxl import CXLLinkModel
from repro.memsim import SetAssociativeCache, WritebackTrace
from repro.mdsim.lj import compute_forces, cubic_lattice
from repro.sim import SerialLink, Simulator
from repro.trace import replay_trace
from repro.utils.units import Bandwidth

N_LINES = 1 << 14  # 16k cache lines = 1 MiB of parameters
N_STREAM = 1 << 20  # 1M-element streams for the batch-vs-scalar gates
SCALAR_SAMPLE = 20_000  # elements actually run through the Python loop


@pytest.fixture(scope="module")
def lines():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N_LINES, 16)).astype(np.float32)


def test_aggregator_pack_throughput(benchmark, lines):
    agg = Aggregator(DBARegister.paper_default())
    payload = benchmark(agg.pack_lines, lines)
    assert payload.shape == (N_LINES, 32)


def test_disaggregator_merge_throughput(benchmark, lines):
    reg = DBARegister.paper_default()
    payload = Aggregator(reg).pack_lines(lines)
    dis = Disaggregator(reg)
    stale = np.zeros_like(lines)
    merged = benchmark(dis.merge_lines, stale, payload)
    assert merged.shape == lines.shape


def test_trace_replay_throughput(benchmark):
    n = 1 << 20  # 1M write-back events
    times = np.sort(np.random.default_rng(1).random(n))
    trace = WritebackTrace(times, np.arange(n, dtype=np.uint64) * 64)
    link = CXLLinkModel.paper_default()
    result = benchmark(replay_trace, trace, link)
    assert result.n_lines == n


def test_cache_sim_throughput(benchmark):
    cache = SetAssociativeCache(64 * 1024, 64, 16)
    addrs = np.random.default_rng(2).integers(0, 1 << 20, 5000)

    def sweep():
        for a in addrs:
            cache.access(int(a), is_write=True)
        return cache.stats.accesses

    total = benchmark(sweep)
    assert total >= 5000


def _best_of(fn, repeats=3):
    """Best-of-N wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _l3_cache():
    # Table II LLC shape: 16 MiB, 64-way — the hardest shape for the
    # round-vectorized kernel (most sets = most parallelism, but also
    # the widest tag planes).
    return SetAssociativeCache(16 * 2**20, 64, 64)


def test_cache_access_block_speedup(benchmark):
    """Gate: ``access_block`` >= 10x the scalar loop at 1M accesses."""
    rng = np.random.default_rng(3)
    addrs = rng.integers(0, 1 << 26, N_STREAM)

    result_holder = {}

    def run(cache):
        result_holder["r"] = cache.access_block(addrs, True)

    benchmark.pedantic(
        run, setup=lambda: ((_l3_cache(),), {}), rounds=3, iterations=1
    )
    batch_time = benchmark.stats.stats.min
    assert result_holder["r"].hits.size == N_STREAM

    scalar_cache = _l3_cache()
    sub = addrs[:SCALAR_SAMPLE]

    def scalar():
        for a in sub:
            scalar_cache.access(int(a), is_write=True)

    scalar_time = _best_of(scalar, repeats=1) / sub.size * N_STREAM
    speedup = scalar_time / batch_time
    assert speedup >= 10, f"cache batch speedup {speedup:.1f}x < 10x"


def test_dba_pack_batch_speedup(benchmark):
    """Gate: vectorized ``pack_tensor`` >= 10x the per-word reference."""
    rng = np.random.default_rng(4)
    tensor = rng.standard_normal(N_STREAM).astype(np.float32)
    reg = DBARegister.paper_default()

    payload = benchmark(Aggregator(reg).pack_tensor, tensor)
    batch_time = benchmark.stats.stats.min
    assert payload.shape == (N_STREAM // 16, 32)

    sub = tensor[:SCALAR_SAMPLE]
    scalar_time = (
        _best_of(lambda: Aggregator(reg).pack_tensor_scalar(sub), repeats=1)
        / sub.size
        * N_STREAM
    )
    speedup = scalar_time / batch_time
    assert speedup >= 10, f"DBA pack speedup {speedup:.1f}x < 10x"


def test_dba_unpack_batch_speedup(benchmark):
    """Gate: vectorized ``unpack`` >= 10x the per-word merge loop."""
    rng = np.random.default_rng(5)
    reg = DBARegister.paper_default()
    tensor = rng.standard_normal(N_STREAM).astype(np.float32)
    stale = rng.standard_normal(N_STREAM).astype(np.float32)
    payload = Aggregator(reg).pack_tensor(tensor)

    merged = benchmark(Disaggregator(reg).unpack, stale, payload)
    batch_time = benchmark.stats.stats.min
    assert merged.shape == tensor.shape

    rows = SCALAR_SAMPLE // 16
    sub_stale = stale[: rows * 16].reshape(rows, 16)
    sub_payload = payload[:rows]
    scalar_time = (
        _best_of(
            lambda: Disaggregator(reg).merge_lines_scalar(
                sub_stale, sub_payload
            ),
            repeats=1,
        )
        / (rows * 16)
        * N_STREAM
    )
    speedup = scalar_time / batch_time
    assert speedup >= 10, f"DBA unpack speedup {speedup:.1f}x < 10x"


def test_des_engine_event_rate(benchmark):
    def run():
        sim = Simulator()
        link = SerialLink(sim, Bandwidth(1e9))

        def producer(sim):
            for _ in range(2000):
                yield link.transmit(64)

        sim.process(producer(sim))
        sim.run()
        return link.transfers

    assert benchmark(run) == 2000


def test_lz4_compress_throughput(benchmark):
    data = (b"the quick brown fox jumps over the lazy dog " * 400)[:16384]
    compressed = benchmark(lz4_compress, data)
    assert lz4_decompress(compressed) == data


def test_lj_force_kernel(benchmark):
    pos, box = cubic_lattice(6)  # 216 atoms
    forces, energy = benchmark(compute_forces, pos, box)
    assert np.isfinite(energy)
