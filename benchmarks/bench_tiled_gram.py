"""Tiled-Gram benchmarks — out-of-core assembly, flat peak memory, and
kill → tile-granular resume.

Three demonstrations of the execution-plan layer (run under
``--benchmark-disable`` in CI they double as correctness smokes):

* **flat peak memory** — assembling the Gram through a
  :class:`~repro.engine.tiles.MemmapSink` keeps Python-side peak
  allocations at one tile while the dense path's peak grows with ``N²``
  (measured with ``tracemalloc``, which tracks NumPy's allocator but not
  file-backed maps — exactly the distinction that matters);
* **rlimit proof** — a subprocess whose address-space/data rlimit is too
  small to hold the dense ``(N, N)`` float64 Gram *fails* to allocate it
  and *succeeds* in assembling the identical matrix through the memmap
  sink, verified against a dense Gram over a stratified subsample to
  1e-12 (collection independence makes the submatrix comparison exact);
* **kill → resume** — a run killed after K committed tiles resumes by
  computing exactly ``total − K`` tiles (pinned with a counting kernel)
  and produces a byte-identical Gram.

The synthetic :class:`_DotKernel` keeps pair values trivially cheap so
the benches exercise *scheduling and storage* at thousands of graphs
without paying QJSD eigendecompositions; the resume demonstration uses
the real QJSK on a :meth:`~repro.datasets.base.GraphDataset.subsample`
of MUTAG.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.api import ExecutionContext
from repro.datasets import load_dataset
from repro.engine import BatchedEngine, DenseSink, MemmapSink, TilePlan
from repro.graphs import generators as gen
from repro.kernels import PairwiseKernel, QJSKUnaligned
from repro.store import ArtifactStore, CheckpointSink, tile_keyer_for

ATOL = 1e-12

#: Collection size for the rlimit subprocess: the dense float64 Gram is
#: ``N² × 8`` bytes — far above ``_RLIMIT_BYTES`` — while the per-tile
#: working set stays in the low megabytes.
_RLIMIT_N = 6500

#: Data-segment cap for the subprocess (bytes). Roomy enough for the
#: Python + NumPy runtime, far too small for the ~340 MB dense Gram.
_RLIMIT_BYTES = 256 * 1024 * 1024


class _DotKernel(PairwiseKernel):
    """Cheapest possible pairwise kernel: scalar states, vectorized tiles.

    ``K(a, b) = exp(-|s_a - s_b| / 8)`` over a per-graph size statistic —
    collection-independent by construction, so subsampled dense Grams are
    exact submatrices of the full one (what the rlimit proof compares).
    """

    name = "bench-dot"
    collection_independent = True

    def prepare(self, graphs) -> list:
        return [float(g.n_vertices + g.n_edges) for g in graphs]

    def pair_value(self, state_a, state_b) -> float:
        return float(np.exp(-abs(state_a - state_b) / 8.0))

    def block_values(self, states_a, states_b) -> np.ndarray:
        a = np.asarray(states_a, dtype=float)
        b = np.asarray(states_b, dtype=float)
        return np.exp(-np.abs(a[:, None] - b[None, :]) / 8.0)


def _probe_graphs(n: int) -> list:
    """``n`` small deterministic graphs with varied size statistics."""
    return [gen.cycle_graph(4 + (i * 7919) % 9) for i in range(n)]


def on(engine, sink=None) -> ExecutionContext:
    """A context computing on ``engine``, into the single-use ``sink``."""
    factory = None if sink is None else (lambda: sink)
    return ExecutionContext(engine=engine, sink_factory=factory)


# --------------------------------------------------------------------- #
# Dense vs memmap equivalence
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
def test_memmap_is_byte_identical_to_dense(tmp_path, normalize):
    """Both Grams run the same tile scheduler and post-pass; only the sink
    differs, so the bytes must agree."""
    kernel = _DotKernel()
    graphs = _probe_graphs(500)
    engine = BatchedEngine(tile_size=64)
    dense = kernel.gram(graphs, ctx=on(engine), normalize=normalize)
    mapped = kernel.gram(
        graphs,
        ctx=on(engine, MemmapSink(str(tmp_path / "gram.npy"))),
        normalize=normalize,
    )
    assert isinstance(mapped, np.memmap)
    assert np.array_equal(np.asarray(mapped), dense)


def test_float32_storage_halves_footprint(tmp_path):
    kernel = _DotKernel()
    graphs = _probe_graphs(400)
    engine = BatchedEngine(tile_size=64)
    dense = kernel.gram(graphs, ctx=on(engine))
    path64 = str(tmp_path / "g64.npy")
    path32 = str(tmp_path / "g32.npy")
    kernel.gram(graphs, ctx=on(engine, MemmapSink(path64)))
    g32 = kernel.gram(
        graphs, ctx=on(engine, MemmapSink(path32, dtype="float32"))
    )
    assert os.path.getsize(path32) < os.path.getsize(path64) * 0.55
    assert np.allclose(np.asarray(g32), dense, atol=1e-6, rtol=1e-6)


# --------------------------------------------------------------------- #
# Flat peak memory
# --------------------------------------------------------------------- #


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_peak_allocations_stay_flat_as_n_grows(tmp_path):
    """The out-of-core claim, measured: doubling N quadruples the dense
    path's peak Python allocations but leaves the memmap path's peak at
    the tile scale (tracemalloc sees NumPy buffers, not file maps)."""
    kernel = _DotKernel()
    engine = BatchedEngine(tile_size=64)
    peaks = {}
    for label, n in (("small", 600), ("large", 1200)):
        graphs = _probe_graphs(n)
        states = kernel.prepare(graphs)  # outside the trace: linear, cheap
        sink = MemmapSink(str(tmp_path / f"{label}.npy"))
        peaks[("memmap", label)] = _traced_peak(
            lambda: engine.gram(kernel, states, sink=sink)
        )
        peaks[("dense", label)] = _traced_peak(
            lambda: engine.gram(kernel, states, sink=DenseSink())
        )
    dense_bytes = 1200 * 1200 * 8
    assert peaks[("dense", "large")] >= dense_bytes
    # Flatness: the memmap peak neither approaches the dense matrix size
    # nor scales with it (4x matrix growth, < 2x peak growth).
    assert peaks[("memmap", "large")] < dense_bytes / 8
    assert peaks[("memmap", "large")] < 2 * max(peaks[("memmap", "small")], 1)


# --------------------------------------------------------------------- #
# rlimit proof (runs as a subprocess; see __main__ block)
# --------------------------------------------------------------------- #


def test_rlimit_capped_memmap_gram(tmp_path):
    """Under a data-segment rlimit the dense Gram cannot even be
    allocated; the memmap plan completes and matches a dense Gram over a
    stratified subsample to 1e-12."""
    if not sys.platform.startswith("linux"):  # pragma: no cover
        pytest.skip("RLIMIT_DATA semantics are only pinned down on Linux")
    out_path = str(tmp_path / "capped-gram.npy")
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--rlimit-child", out_path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        timeout=600,
    )
    assert result.returncode == 0, result.stderr + result.stdout
    assert "dense allocation refused under rlimit" in result.stdout

    # Parent process (no rlimit): subsampled dense comparison. The kernel
    # is collection-independent, so the dense Gram over the subsample is
    # exactly the corresponding submatrix of the big memmapped one.
    mapped = np.load(out_path, mmap_mode="r")
    assert mapped.shape == (_RLIMIT_N, _RLIMIT_N)
    rng = np.random.default_rng(0)
    idx = np.sort(rng.choice(_RLIMIT_N, size=200, replace=False))
    graphs = _probe_graphs(_RLIMIT_N)
    sub_dense = _DotKernel().gram([graphs[i] for i in idx])
    assert np.allclose(
        np.asarray(mapped[np.ix_(idx, idx)]), sub_dense, atol=ATOL, rtol=0.0
    )


def _rlimit_child(out_path: str) -> int:  # pragma: no cover - subprocess
    """Child body: cap the data segment, prove the cap binds, assemble."""
    import resource

    resource.setrlimit(resource.RLIMIT_DATA, (_RLIMIT_BYTES, _RLIMIT_BYTES))
    try:
        dense = np.zeros((_RLIMIT_N, _RLIMIT_N))
        dense[0, 0] = 1.0  # force the pages if the allocation was lazy
        print("dense allocation unexpectedly succeeded")
        return 1
    except MemoryError:
        print("dense allocation refused under rlimit")
    kernel = _DotKernel()
    graphs = _probe_graphs(_RLIMIT_N)
    gram = kernel.gram(
        graphs, ctx=on(BatchedEngine(tile_size=512), MemmapSink(out_path))
    )
    print(f"memmap gram assembled: shape={gram.shape}")
    return 0


# --------------------------------------------------------------------- #
# Kill -> tile-granular resume
# --------------------------------------------------------------------- #


class _CountingQJSK(QJSKUnaligned):
    """Counts tile-block evaluations; the counter is underscore-prefixed
    so it never perturbs the kernel fingerprint (and hence tile keys)."""

    def __init__(self):
        super().__init__()
        self._block_calls = 0

    @property
    def block_calls(self):
        return self._block_calls

    def block_values(self, states_a, states_b):
        self._block_calls += 1
        return super().block_values(states_a, states_b)

    def symmetric_block_values(self, states):
        self._block_calls += 1
        return super().symmetric_block_values(states)


class _DyingSink(CheckpointSink):
    def __init__(self, *args, survive, **kwargs):
        super().__init__(*args, **kwargs)
        self.survive = survive

    def write(self, rows, cols, block):
        if self.tiles_computed >= self.survive:
            raise KeyboardInterrupt("simulated kill")
        super().write(rows, cols, block)


def test_kill_then_resume_recomputes_only_unfinished_tiles(tmp_path):
    """The acceptance pin, at bench scale on real MUTAG graphs through
    QJSK: kill after K tiles, resume computes exactly total-K, and the
    resumed Gram is byte-identical to an uninterrupted one."""
    dataset = load_dataset("MUTAG", scale=0.5, seed=0).subsample(40, seed=0)
    graphs = dataset.graphs
    tile = 8
    engine = BatchedEngine(tile_size=tile)
    total_tiles = TilePlan.gram(len(graphs), tile).n_tiles()
    survive = total_tiles // 3
    store = ArtifactStore(str(tmp_path / "store"))

    kernel = _CountingQJSK()
    dying = _DyingSink(
        store, tile_keyer_for(kernel, graphs), survive=survive
    )
    with pytest.raises(KeyboardInterrupt):
        kernel.gram(graphs, ctx=on(engine, dying))
    assert dying.tiles_computed == survive

    kernel = _CountingQJSK()
    sink = CheckpointSink(store, tile_keyer_for(kernel, graphs))
    resumed = kernel.gram(graphs, ctx=on(engine, sink))
    assert sink.tiles_restored == survive
    assert sink.tiles_computed == total_tiles - survive
    assert kernel.block_calls == total_tiles - survive

    clean = QJSKUnaligned().gram(graphs, ctx=on(engine))
    assert np.array_equal(np.asarray(resumed), clean)


# --------------------------------------------------------------------- #
# Timed benches
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("sink_name", ["dense", "memmap"])
def test_bench_tiled_gram_assembly(sink_name, tmp_path, benchmark):
    """Wall-clock cost of the sink abstraction itself: memmap assembly
    should track the dense path (I/O-buffered sequential tile writes)."""
    kernel = _DotKernel()
    graphs = _probe_graphs(1500)
    states = kernel.prepare(graphs)
    engine = BatchedEngine(tile_size=64)

    def run():
        sink = (
            DenseSink()
            if sink_name == "dense"
            else MemmapSink(str(tmp_path / "bench.npy"))
        )
        return engine.gram(kernel, states, sink=sink)

    gram = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert gram.shape == (1500, 1500)
    benchmark.extra_info["n_graphs"] = 1500


def test_bench_checkpoint_overhead(tmp_path, benchmark):
    """Tile-commit overhead on a warm store: every tile restored, zero
    kernel work — the warm-restart floor of the checkpoint layer."""
    kernel = _DotKernel()
    graphs = _probe_graphs(800)
    store = ArtifactStore(str(tmp_path / "store"))
    engine = BatchedEngine(tile_size=64)
    first = CheckpointSink(store, tile_keyer_for(kernel, graphs))
    kernel.gram(graphs, ctx=on(engine, first))

    def warm():
        sink = CheckpointSink(store, tile_keyer_for(kernel, graphs))
        gram = kernel.gram(graphs, ctx=on(engine, sink))
        assert sink.tiles_computed == 0
        return gram

    gram = benchmark.pedantic(warm, rounds=3, iterations=1)
    assert np.asarray(gram).shape == (800, 800)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    if len(sys.argv) >= 3 and sys.argv[1] == "--rlimit-child":
        sys.exit(_rlimit_child(sys.argv[2]))
    sys.exit(
        "usage: bench_tiled_gram.py --rlimit-child <out.npy> "
        "(or run under pytest)"
    )
