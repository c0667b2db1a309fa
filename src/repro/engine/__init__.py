"""Pluggable Gram-computation engines for the pairwise kernel family.

The paper's Section III-D complexity bound ``O(N^2 n^3)`` is dominated by
the pair-evaluation stage: every QJSD-family kernel value needs a
mixed-state eigendecomposition, and a naive Gram evaluates ``N(N+1)/2``
of them one Python call at a time. Because transitive alignment makes
every prepared state a *fixed-size* matrix, the whole stage is batchable
— and independently of batching, the symmetric Gram tiles cleanly across
worker processes. This subsystem factors that scheduling decision out of
the kernels into three interchangeable backends:

``serial``
    The historical reference path — an upper-triangular double loop over
    ``kernel.pair_value``. Slowest, simplest, the equivalence baseline.
``batched``  *(default)*
    Symmetric block tiling through ``kernel.block_values``. Kernels that
    implement a vectorized block (HAQJSK(A)/(D) and the attributed
    variants, QJSK unaligned/aligned, JTQK) evaluate whole ``(B, m, m)``
    stacks with one batched ``eigvalsh``; everything else transparently
    falls back to the pairwise loop per tile.
``process``
    The same tiling fanned out over a
    :class:`concurrent.futures.ProcessPoolExecutor`; each tile runs
    ``block_values`` on another core. Degrades gracefully to in-process
    execution where process pools are unavailable.

Selecting a backend
-------------------
The selector is an :class:`~repro.api.ExecutionContext` — one frozen
object carrying the backend (a name, a configured :class:`GramEngine`
instance, or ``None`` for ``"batched"``), the tile size, and the rest of
the execution policy, threaded as ``ctx=``::

    from repro.api import ExecutionContext

    kernel.gram(graphs, ctx=ExecutionContext(engine="process"))
    kernel.cross_gram(graphs_a, graphs_b,
                      ctx=ExecutionContext(engine="batched", tile_size=128))
    nystrom_gram(kernel, graphs, n_landmarks=32,
                 ctx=ExecutionContext(engine="batched"))

:meth:`ExecutionContext.resolved_engine
<repro.api.ExecutionContext.resolved_engine>` turns a context into the
engine every Gram under it runs on; the ``REPRO_GRAM_ENGINE`` and
``REPRO_GRAM_TILE`` environment variables enter only through
:meth:`ExecutionContext.from_env <repro.api.ExecutionContext.from_env>`
(what ``Session()``, the CLIs and the server build their context with).
The experiment harness records the engine that ran in every saved
report. All three backends agree to ``1e-10`` on every pairwise kernel
in the zoo — enforced by ``tests/engine/test_backends.py``.

Tile streams and sinks
----------------------
Every backend runs the *same* tile schedule (the base-class scheduler);
what differs is only how one tile is computed. Finished tiles stream into
a pluggable :class:`GramSink` — :class:`DenseSink` (in-memory, the
default), :class:`MemmapSink` (out-of-core ``np.memmap``, Grams larger
than RAM), or the store layer's
:class:`~repro.store.tiles.CheckpointSink` (persists tiles through an
artifact store so killed runs resume at tile granularity)::

    ctx = ExecutionContext(sink_factory=lambda: MemmapSink("big_gram.npy"))
    kernel.gram(graphs, ctx=ctx)

An engine's tile size is the context's ``tile_size`` when set, else the
engine's own (its constructor argument, else the per-backend default:
batched 64, process 32, serial 128).
"""

from repro.engine.base import (
    ENGINES,
    GramEngine,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.engine.batched import BatchedEngine
from repro.engine.process import ProcessEngine
from repro.engine.serial import SerialEngine
from repro.engine.tiles import DenseSink, GramSink, MemmapSink, TilePlan

__all__ = [
    "ENGINES",
    "BatchedEngine",
    "DenseSink",
    "GramEngine",
    "GramSink",
    "MemmapSink",
    "ProcessEngine",
    "SerialEngine",
    "TilePlan",
    "available_engines",
    "register_engine",
    "resolve_engine",
]
