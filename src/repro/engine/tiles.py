"""Tile plans and Gram sinks — the streaming half of the engine layer.

A Gram computation is described by a :class:`TilePlan` (what shape, cut
into which contiguous ``(row_range, col_range)`` tiles) and consumed by a
:class:`GramSink` (where finished tiles go). The engines schedule the
plan's tiles — serially, batched, or across worker processes — and stream
each finished ``(rows, cols, block)`` into the sink, so the *unit of
scheduling and storage is the tile*, never the full matrix. This is the
only way a Gram is built: every sink receives the same tiles, so a Gram's
bytes do not depend on where it is assembled:

``DenseSink``
    An in-memory float64 ndarray — the sink of every Gram whose
    execution context names no sink factory.
``MemmapSink``
    A ``np.memmap`` over an ``.npy`` file (NumPy-format header, so the
    artifact store and plain ``np.load`` read it back), for Gram matrices
    larger than RAM: peak memory is one tile plus the map, regardless of
    ``N``.
``repro.store.tiles.CheckpointSink``
    Wraps another sink and persists every finished tile through an
    :class:`~repro.store.ArtifactStore` under content-addressed tile
    keys, so a killed run resumes at tile granularity. It lives in the
    store layer — this module stays free of store dependencies.

A plan's tile size is its engine's ``tile_size`` (see
:meth:`repro.api.ExecutionContext.resolved_engine`).
"""

from __future__ import annotations

import abc
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError


@dataclass(frozen=True)
class TilePlan:
    """A Gram computation cut into contiguous index tiles.

    ``symmetric`` plans enumerate only upper-triangle tile pairs
    (``row_range <= col_range``); the sink mirrors off-diagonal tiles, so
    the assembled matrix is symmetric *by construction* — no global
    ``(K + Kᵀ)/2`` pass is needed afterwards.
    """

    n_rows: int
    n_cols: int
    symmetric: bool
    tile_size: int

    @classmethod
    def gram(cls, n: int, tile_size: int) -> "TilePlan":
        """Symmetric ``(n, n)`` plan over one collection."""
        return cls(n_rows=n, n_cols=n, symmetric=True, tile_size=int(tile_size))

    @classmethod
    def cross(cls, n_rows: int, n_cols: int, tile_size: int) -> "TilePlan":
        """Rectangular plan between two collections."""
        return cls(
            n_rows=n_rows, n_cols=n_cols, symmetric=False,
            tile_size=int(tile_size),
        )

    @property
    def shape(self) -> "tuple[int, int]":
        return (self.n_rows, self.n_cols)

    def tiles(self):
        """Yield every ``(rows, cols)`` range pair of this plan, in the
        deterministic schedule order all backends share."""
        from repro.engine.base import symmetric_tile_pairs, tile_ranges

        if self.symmetric:
            yield from symmetric_tile_pairs(self.n_rows, self.tile_size)
            return
        for rows in tile_ranges(self.n_rows, self.tile_size):
            for cols in tile_ranges(self.n_cols, self.tile_size):
                yield rows, cols

    def n_tiles(self) -> int:
        """Total tile count (what a resume run is measured against)."""
        return sum(1 for _ in self.tiles())

    def is_diagonal(self, rows, cols) -> bool:
        """True for a symmetric plan's diagonal tiles (computed from the
        upper triangle of one state slice, mirrored exactly)."""
        return self.symmetric and rows == cols


class GramSink(abc.ABC):
    """Destination for a tile stream.

    Lifecycle: the engine calls :meth:`open` with the plan, asks
    :meth:`has_tile` per tile (the resume hook — a True answer means the
    sink already holds that tile and the engine skips computing it),
    streams the remaining tiles through :meth:`write`, and returns
    :meth:`finalize`'s matrix-like result. Sinks carry one stream at a
    time; ``open`` resets any previous one.
    """

    #: True when :meth:`finalize` returns an ordinary in-memory ndarray —
    #: the gate for post-processing that must densify (PSD projection).
    in_memory: bool = True

    def __init__(self) -> None:
        self.plan: "TilePlan | None" = None

    def open(self, plan: TilePlan) -> None:
        """Bind the sink to one plan and allocate its backing storage."""
        self.plan = plan
        self._allocate(plan)

    def has_tile(self, rows, cols) -> bool:
        """Resume hook: True when this tile is already present (and has
        been placed), so the engine must not recompute it."""
        return False

    def write(self, rows, cols, block: np.ndarray) -> None:
        """Place one finished tile (mirrored for symmetric off-diagonals)."""
        if self.plan is None:
            raise KernelError(f"{type(self).__name__}: write() before open()")
        self._place(rows, cols, np.asarray(block))

    @abc.abstractmethod
    def finalize(self):
        """The assembled matrix-like result (ndarray or memmap)."""

    def commit(self) -> None:
        """Publish the result — called by the top-level computation once
        the matrix is *final*, i.e. after any in-place post-processing
        (tile-wise normalisation) that follows :meth:`finalize`. A no-op
        for most sinks; a staged :class:`MemmapSink` atomically renames
        its backing file into place here, so readers of a canonical path
        can never observe a half-assembled artifact."""

    @abc.abstractmethod
    def _allocate(self, plan: TilePlan) -> None:
        """Subclass hook: create the backing storage for ``plan``."""

    def _place(self, rows, cols, block: np.ndarray) -> None:
        """Default placement into :attr:`matrix`, mirroring symmetric
        off-diagonal tiles across the main diagonal."""
        r0, r1 = rows
        c0, c1 = cols
        if block.shape != (r1 - r0, c1 - c0):
            raise KernelError(
                f"tile ({rows}, {cols}) arrived with shape {block.shape}, "
                f"expected ({r1 - r0}, {c1 - c0})"
            )
        self.matrix[r0:r1, c0:c1] = block
        if self.plan.symmetric and (r0, r1) != (c0, c1):
            self.matrix[c0:c1, r0:r1] = block.T


def stream_tiles(plan: TilePlan, sink: GramSink, block_fn) -> "np.ndarray":
    """Drive one full sink lifecycle from a block producer.

    ``block_fn(rows, cols, diagonal)`` returns the tile's values; the
    helper owns open → has_tile skip → write → finalize, so code paths
    that produce tiles without an engine (feature-map matmuls, dense
    replays) share one implementation of the sink protocol with the
    engine scheduler.
    """
    sink.open(plan)
    for rows, cols in plan.tiles():
        if sink.has_tile(rows, cols):
            continue
        sink.write(rows, cols, block_fn(rows, cols, plan.is_diagonal(rows, cols)))
    return sink.finalize()


class DenseSink(GramSink):
    """In-memory accumulation — the default sink of ``kernel.gram`` /
    ``cross_gram`` and of an engine call given no sink."""

    def _allocate(self, plan: TilePlan) -> None:
        self.matrix = np.zeros(plan.shape)

    def finalize(self) -> np.ndarray:
        if self.plan is None:
            raise KernelError("DenseSink: finalize() before open()")
        return self.matrix


class MemmapSink(GramSink):
    """Out-of-core accumulation into an ``.npy``-format memory map.

    The backing file carries a regular NumPy header
    (:func:`numpy.lib.format.open_memmap`), so the finished Gram is
    readable by ``np.load(..., mmap_mode="r")`` and by
    :meth:`repro.store.ArtifactStore.get_memmap` without conversion.
    Peak resident memory is one tile (plus OS page cache, which the
    kernel reclaims under pressure) — the property the out-of-core bench
    pins with ``tracemalloc``.

    Parameters
    ----------
    path:
        Backing file location; ``None`` creates a temporary file (kept on
        disk — the returned memmap stays valid; callers own cleanup).
    dtype:
        On-disk storage dtype. The default ``float64`` loses nothing;
        ``float32`` (the opt-in storage mode) halves the footprint while
        tile *computation* stays float64 — only the final store is cast.
    stage:
        When True, tiles assemble at ``<path>.partial`` and
        :meth:`commit` atomically renames the finished file into place —
        ``path`` then either holds a complete artifact or nothing, never
        a half-assembled one. Used by
        :meth:`repro.store.ArtifactStore.memmap_sink`, where ``path`` is
        a canonical content-addressed location other readers trust; the
        default in-place mode is for caller-owned scratch paths.
    """

    #: The result is a memmap: global densifying post-processing (PSD
    #: projection) must be refused, that is the point of this sink.
    in_memory = False

    def __init__(
        self, path: "str | None" = None, *, dtype="float64", stage: bool = False
    ) -> None:
        super().__init__()
        self.path = path
        self.dtype = np.dtype(dtype)
        self.stage = bool(stage)

    def _backing_path(self) -> str:
        return self.path + ".partial" if self.stage else self.path

    def _allocate(self, plan: TilePlan) -> None:
        if self.path is None:
            fd, self.path = tempfile.mkstemp(suffix=".npy", prefix="gram-")
            os.close(fd)
        else:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
        if plan.n_rows == 0 or plan.n_cols == 0:
            # mmap cannot map zero bytes; an empty plan degrades to a tiny
            # in-memory array with the same dtype and shape semantics.
            self.matrix = np.zeros(plan.shape, dtype=self.dtype)
            return
        self.matrix = np.lib.format.open_memmap(
            self._backing_path(), mode="w+", dtype=self.dtype, shape=plan.shape
        )

    def finalize(self) -> np.ndarray:
        if self.plan is None:
            raise KernelError("MemmapSink: finalize() before open()")
        if isinstance(self.matrix, np.memmap):
            self.matrix.flush()
        return self.matrix

    def commit(self) -> None:
        """Publish a staged assembly (no-op for in-place mode).

        The rename keeps the already-returned memmap valid — it maps the
        inode, not the name."""
        if self.plan is None or not self.stage:
            return
        if isinstance(self.matrix, np.memmap):
            self.matrix.flush()
            os.replace(self._backing_path(), self.path)
        else:  # empty-plan in-memory fallback: write the tiny array out
            with open(self.path, "wb") as f:
                np.save(f, self.matrix, allow_pickle=False)
