"""Tile-granular persistence: content-addressed tile keys + CheckpointSink.

PR 2's store checkpoints whole Gram matrices — a killed run resumes from
its last *completed* Gram, losing every pair value of the one in flight.
This module moves the checkpoint unit down to the engine layer's tiles:

* :class:`TileKeyer` derives a content key per tile from the kernel's
  configuration fingerprint plus the **graph digests of exactly the row
  and column slices the tile covers** (never the whole collection, for
  collection-independent kernels). Because keys depend only on slice
  content, the tiles computed for ``gram(old_graphs)`` remain valid when
  the collection grows: ``gram(old + new)`` against the same store
  recomputes only the tiles that touch new graphs (plus the old
  collection's final partial tile, whose boundary moved) — ``gram_extend``
  at tile granularity, without ever shipping a prior matrix around.
* :class:`CheckpointSink` wraps any inner :class:`~repro.engine.tiles.GramSink`
  (dense or memmap): every finished tile is committed to the
  :class:`~repro.store.ArtifactStore` (atomic temp-file + rename, so a
  kill mid-tile never leaves a torn artifact) before it is placed, and on
  the next run the engine's ``has_tile`` probe restores finished tiles
  from the store instead of recomputing them.

For kernels whose pair values depend on the whole collection
(``collection_independent`` is False — unfrozen HAQJSK, shared-decay
random walks), slice keys would be wrong: the same two graphs yield
different values in different collections. :func:`tile_keyer_for`
therefore mixes the full collection digest into every key for such
kernels — resume still works (same collection, same keys), only
cross-collection tile reuse is disabled, exactly matching the
``gram_extend`` eligibility gate.
"""

from __future__ import annotations

import numpy as np

from repro.engine.tiles import DenseSink, GramSink, TilePlan
from repro.errors import ValidationError
from repro.graphs.hashing import graph_digest
from repro.store.artifacts import ArtifactStore, artifact_key

#: Store ``kind`` under which Gram tiles are persisted.
TILE_KIND = "gram-tile"

#: Key-schema version: bump when the tile byte layout, schedule
#: semantics or pair arithmetic change, invalidating previously persisted
#: tiles. v2: support-compressed mixed-state solves move entries by
#: ~1e-14, so a v1 tile resumed into a v2 Gram would break byte identity.
_TILE_KEY_VERSION = "tile-v2"


class TileKeyer:
    """Derives the store key of one ``(rows, cols)`` tile.

    Parameters
    ----------
    kernel_fingerprint:
        :meth:`repro.kernels.base.GraphKernel.fingerprint` of the kernel
        that computes the tiles (configuration, not scheduling).
    row_digests / col_digests:
        Per-graph content digests of the row and column collections;
        ``col_digests=None`` means a symmetric plan over the rows.
    context:
        Extra content mixed into every key. Empty for
        collection-independent kernels (slice keys are globally valid);
        the full collection digest for collection-dependent ones.
    """

    def __init__(
        self,
        kernel_fingerprint: str,
        row_digests: "list[str]",
        col_digests: "list[str] | None" = None,
        *,
        context: str = "",
    ) -> None:
        self.kernel_fingerprint = str(kernel_fingerprint)
        self.row_digests = list(row_digests)
        self.col_digests = (
            self.row_digests if col_digests is None else list(col_digests)
        )
        self.context = str(context)

    def key(self, rows, cols, *, diagonal: bool = False) -> str:
        """The content key of the tile covering ``rows × cols``.

        ``diagonal`` marks a symmetric plan's diagonal tiles, which are
        computed from the upper triangle and mirrored — numerically they
        agree with a full-rectangle evaluation of the same slices only to
        backend round-off, so they get distinct keys.
        """
        r0, r1 = rows
        c0, c1 = cols
        if not (0 <= r0 <= r1 <= len(self.row_digests)):
            raise ValidationError(
                f"tile rows {rows} outside collection of "
                f"{len(self.row_digests)} graphs"
            )
        if not (0 <= c0 <= c1 <= len(self.col_digests)):
            raise ValidationError(
                f"tile cols {cols} outside collection of "
                f"{len(self.col_digests)} graphs"
            )
        return artifact_key(
            _TILE_KEY_VERSION,
            self.kernel_fingerprint,
            self.context,
            "diag" if diagonal else "rect",
            "|".join(self.row_digests[r0:r1]),
            "|".join(self.col_digests[c0:c1]),
        )


def tile_keyer_for(
    kernel,
    row_graphs,
    col_graphs=None,
    *,
    collection=None,
) -> TileKeyer:
    """Build the :class:`TileKeyer` for a Gram (or cross-Gram) plan.

    ``collection`` is the graph list the kernel's ``prepare`` actually ran
    over, when that differs from the rows (a Nyström ``K(X, L)`` rectangle
    prepares ``X`` once and slices landmarks out of it). It only matters
    for collection-*dependent* kernels, where it is mixed into every key;
    collection-independent kernels get pure slice keys — the property that
    makes grown-collection tile reuse sound.
    """
    row_digests = [graph_digest(g) for g in row_graphs]
    col_digests = (
        None if col_graphs is None else [graph_digest(g) for g in col_graphs]
    )
    context = ""
    if not getattr(kernel, "collection_independent", False):
        from repro.graphs.hashing import collection_digest

        if collection is None:
            collection = list(row_graphs) + list(col_graphs or [])
        context = f"collection={collection_digest(collection)}"
    return TileKeyer(kernel.fingerprint(), row_digests, col_digests, context=context)


class CheckpointSink(GramSink):
    """Persist every finished tile through an artifact store; restore
    already-finished tiles on the next run.

    Wraps an inner sink (default :class:`~repro.engine.tiles.DenseSink`;
    pass a :class:`~repro.engine.tiles.MemmapSink` for out-of-core *and*
    resumable). The engine's ``has_tile`` probe checks the store: on a
    hit the stored tile is placed into the inner sink and the engine
    skips the computation entirely, so a killed run's next attempt pays
    only for the tiles that never committed. Tile commits ride the
    store's atomic write path — a kill mid-commit loses at most the tile
    in flight, never corrupts one.

    Attributes
    ----------
    tiles_restored / tiles_computed:
        Per-stream counters (reset by ``open``) — how many tiles came
        from the store vs were computed this run. The experiment footer
        and the resume tests read these.
    """

    def __init__(
        self,
        store: ArtifactStore,
        keyer: TileKeyer,
        *,
        inner: "GramSink | None" = None,
        kind: str = TILE_KIND,
    ) -> None:
        super().__init__()
        if not isinstance(store, ArtifactStore):
            raise ValidationError(
                f"store must be an ArtifactStore, got {type(store).__name__}"
            )
        self.store = store
        self.inner = DenseSink() if inner is None else inner
        self.keyer = keyer
        self.kind = str(kind)
        self.tiles_restored = 0
        self.tiles_computed = 0

    @property
    def in_memory(self) -> bool:  # type: ignore[override]
        return self.inner.in_memory

    def _allocate(self, plan: TilePlan) -> None:
        self.inner.open(plan)
        self.tiles_restored = 0
        self.tiles_computed = 0

    def has_tile(self, rows, cols) -> bool:
        key = self.keyer.key(
            rows, cols, diagonal=self.plan.is_diagonal(rows, cols)
        )
        tile = self.store.get_array(self.kind, key)
        if tile is None:
            return False
        expected = (rows[1] - rows[0], cols[1] - cols[0])
        if tile.shape != expected:  # torn schema change: recompute, don't trust
            return False
        self.inner.write(rows, cols, np.asarray(tile, dtype=float))
        self.tiles_restored += 1
        return True

    def write(self, rows, cols, block: np.ndarray) -> None:
        stored = np.asarray(block)
        key = self.keyer.key(
            rows, cols, diagonal=self.plan.is_diagonal(rows, cols)
        )
        self.store.put_array(self.kind, key, stored)
        # The inner sink sees the stored values, so a resume that reads
        # them from disk assembles the identical matrix.
        self.inner.write(rows, cols, np.asarray(stored, dtype=float))
        self.tiles_computed += 1

    def finalize(self):
        return self.inner.finalize()

    def commit(self) -> None:
        self.inner.commit()

    def discard_tiles(self) -> None:
        """Drop this plan's tiles from the store (after the finished Gram
        has been persisted under its own whole-matrix key)."""
        if self.plan is not None:
            discard_plan_tiles(self.store, self.keyer, self.plan, kind=self.kind)


def discard_plan_tiles(
    store: ArtifactStore, keyer: TileKeyer, plan: TilePlan, *, kind: str = TILE_KIND
) -> None:
    """Drop every tile of ``plan`` from the store (no-op for absent keys).

    Shared by :meth:`CheckpointSink.discard_tiles` and the cache-hit
    sweeps that reclaim tiles orphaned by a kill between the whole-Gram
    commit and the post-commit discard.
    """
    for rows, cols in plan.tiles():
        store.discard(
            kind, keyer.key(rows, cols, diagonal=plan.is_diagonal(rows, cols))
        )


class TileLedger:
    """One plan's committed tiles in one store — the shared view every
    cooperating engine reads instead of assuming it owns the plan.

    Before distribution, exactly one process walked ``plan.tiles()`` and
    computed whatever its own sink lacked. A ledger decouples "the
    plan's tiles" from "my tiles": any number of workers enumerate
    :meth:`pending` (uncomputed) tiles against the *store's* state,
    claim them through :class:`~repro.store.claims.TileClaims`, and
    commit results under the same content keys a single-process
    :class:`CheckpointSink` run would use — so a distributed job, a
    resumed kill, and a plain checkpointed run all converge on
    interchangeable artifacts.
    """

    def __init__(
        self,
        store: ArtifactStore,
        keyer: TileKeyer,
        plan: TilePlan,
        *,
        kind: str = TILE_KIND,
    ) -> None:
        if not isinstance(store, ArtifactStore):
            raise ValidationError(
                f"TileLedger needs an ArtifactStore, got {type(store).__name__}"
            )
        self.store = store
        self.keyer = keyer
        self.plan = plan
        self.kind = str(kind)

    def key(self, rows, cols) -> str:
        """The content key of one plan tile."""
        return self.keyer.key(
            rows, cols, diagonal=self.plan.is_diagonal(rows, cols)
        )

    def entries(self):
        """Yield ``(rows, cols, key)`` for every tile, in schedule order."""
        for rows, cols in self.plan.tiles():
            yield rows, cols, self.key(rows, cols)

    def is_done(self, key: str) -> bool:
        """True when the tile is committed (immutable once true)."""
        return self.store.has(self.kind, key)

    def pending(self) -> "list[tuple[tuple, tuple, str]]":
        """The uncomputed tiles, re-probed against the store each call."""
        return [entry for entry in self.entries() if not self.is_done(entry[2])]

    def total(self) -> int:
        return self.plan.n_tiles()

    def done_count(self) -> int:
        return self.total() - len(self.pending())

    def complete(self) -> bool:
        return not self.pending()

    def commit(self, rows, cols, block: np.ndarray) -> None:
        """Commit one finished tile under its content key.

        Stored in float64 — the same cast the engine scheduler applies
        before any sink write — so a restored tile is byte-identical to
        a locally computed one. Compare-and-swap on purpose: when two
        workers race (an expired lease recomputed by a stealer while the
        original worker limps home), the first commit wins and the
        duplicate is dropped, so a tile's bytes are written exactly once.
        """
        self.store.put_array_if_absent(
            self.kind, self.key(rows, cols), np.asarray(block, dtype=float)
        )

    def restore_into(self, sink: "GramSink | None" = None):
        """Assemble the plan's matrix from committed tiles.

        Every tile must be present (``complete()``); missing tiles raise
        a named error listing the count, because silently zero-filled
        rows would poison any downstream SVM fit. The default sink is a
        fresh :class:`~repro.engine.tiles.DenseSink`; symmetric
        off-diagonal mirroring happens in the sink exactly as in a live
        computation, so the assembled matrix is byte-identical to the
        single-process result. The sink is not committed: the caller
        commits it once any post-processing is done.
        """
        sink = DenseSink() if sink is None else sink
        sink.open(self.plan)
        missing = 0
        for rows, cols, key in self.entries():
            tile = self.store.get_array(self.kind, key)
            if tile is None:
                missing += 1
                continue
            sink.write(rows, cols, np.asarray(tile, dtype=float))
        if missing:
            raise ValidationError(
                f"cannot assemble: {missing} of {self.total()} tiles are "
                f"not committed yet (store {self.store.address!r})"
            )
        return sink.finalize()
