"""Graph-kernel framework: base classes, traits, and Gram-matrix machinery.

Every kernel in Table III/IV is a :class:`GraphKernel`. Kernels either
expose an explicit feature map (:class:`FeatureMapKernel` — WLSK, SPGK,
GCGK, ...) or a pairwise similarity over per-graph prepared states
(:class:`PairwiseKernel` — the QJSD family). Each class carries
:class:`KernelTraits`, the machine-readable version of the paper's Table
I/III property matrix, which the properties experiment verifies empirically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.api.context import as_context
from repro.engine.base import GramEngine, tile_ranges
from repro.engine.tiles import GramSink, TilePlan, stream_tiles
from repro.errors import KernelError, ValidationError
from repro.graphs.graph import Graph
from repro.store.fingerprints import config_fingerprint
from repro.utils.linalg import clip_to_psd


@dataclass(frozen=True)
class KernelTraits:
    """Static kernel properties as tabulated in paper Tables I and III."""

    framework: str = "R-convolution"  # or "Information Theory"
    positive_definite: bool = True
    aligned: bool = False
    transitive: bool = False
    structure_patterns: tuple = ()
    computing_model: str = "Classical"  # or "Quantum Walks"
    hierarchical: bool = False
    captures_local: bool = True
    captures_global: bool = False
    notes: str = ""


class GraphKernel(abc.ABC):
    """Base class: a positive (semi-)definite similarity between graphs.

    Subclasses stream the raw Gram's tiles into a sink through
    :meth:`_compute_gram_into` (the feature-map and pairwise families), or
    implement :meth:`_compute_gram` for the dense-replay fallback. The
    public :meth:`gram` adds input validation and one post-pass over the
    sink's matrix: optional cosine normalisation and optional PSD
    projection (used for the indefinite baselines before the SVM).
    """

    #: Human-readable kernel name (Table IV row label).
    name: str = "kernel"
    #: Static properties; see :class:`KernelTraits`.
    traits: KernelTraits = KernelTraits()
    #: True when a pair's kernel value depends only on the two graphs, not
    #: on which other graphs share the collection. This is the eligibility
    #: condition for :meth:`gram_extend`: extending a Gram must not
    #: silently change the old entries. Feature-map kernels qualify by
    #: construction; pairwise kernels opt in per class; the HAQJSK family
    #: qualifies only in frozen-prototype mode (see
    #: :meth:`repro.kernels.haqjsk._HAQJSKBase.freeze`).
    collection_independent: bool = False
    #: Appended to the :meth:`gram_extend` refusal message; subclasses with
    #: an eligible mode (frozen HAQJSK) point users at it here.
    _extension_hint: str = ""

    def gram(
        self,
        graphs: "list[Graph]",
        *,
        normalize: "bool | None" = None,
        ensure_psd: "bool | None" = None,
        ctx=None,
    ) -> np.ndarray:
        """The full ``N x N`` Gram matrix over ``graphs``.

        Parameters
        ----------
        normalize:
            Apply cosine normalisation ``K_ij / sqrt(K_ii K_jj)``, the
            standard protocol before C-SVM training (default off; a
            context's ``normalize`` policy fills the default in).
        ensure_psd:
            Clip negative Gram eigenvalues to zero. Only needed for the
            indefinite baselines (unaligned/aligned QJSK); the HAQJSK
            kernels are PD by construction.
        ctx:
            An :class:`~repro.api.context.ExecutionContext` carrying the
            execution knobs as one value (``None`` means the defaults):
            the Gram backend and tile size (see :mod:`repro.engine`), a
            store, and a ``sink_factory`` — the destination of the tile
            stream (see :mod:`repro.engine.tiles`). Without a factory the
            tiles land in a fresh in-memory
            :class:`~repro.engine.tiles.DenseSink`; a
            :class:`~repro.engine.tiles.MemmapSink` assembles the Gram out
            of core (bounded peak memory at any ``N``); a
            :class:`~repro.store.tiles.CheckpointSink` additionally
            persists finished tiles so a killed run resumes at tile
            granularity. Every sink receives the same tiles, so the bytes
            do not depend on the sink. Raw *kernel values* stream into the
            sink; ``normalize`` is then applied tile-wise in place (works
            on memmaps without densifying), while ``ensure_psd`` — a
            global eigendecomposition — is refused for out-of-core sinks.
        """
        ctx = as_context(ctx, owner=f"{self.name}.gram")
        if ctx.store is not None:
            # The documented store contract: a context carrying a store
            # makes every Gram content-addressed. store_backed_gram owns
            # that protocol (hit / tile-checkpointed miss / reclamation)
            # and calls back here with the store stripped.
            from repro.store import store_backed_gram

            self._check_graphs(graphs)
            ctx.validate()
            return store_backed_gram(
                self,
                list(graphs),
                ctx.store,
                normalize=ctx.policy(normalize, "normalize", False),
                ensure_psd=ctx.policy(ensure_psd, "ensure_psd", False),
                tile_checkpoint=ctx.tile_checkpoint,
                ctx=ctx.replace(store=None),
            )
        engine = ctx.resolved_engine()
        sink = ctx.make_sink()
        normalize = ctx.policy(normalize, "normalize", False)
        ensure_psd = ctx.policy(ensure_psd, "ensure_psd", False)
        # The ensure_psd × out-of-core-sink refusal happens here.
        ctx.validate(ensure_psd=ensure_psd, sink=sink)
        self._check_graphs(graphs)
        matrix = self._compute_gram_into(list(graphs), sink, engine)
        return _finish_gram(
            matrix,
            sink,
            len(graphs),
            owner=self.name,
            normalize=normalize,
            ensure_psd=ensure_psd,
            tile_size=engine.tile_size,
        )

    @property
    def streams_tiles(self) -> bool:
        """True when this kernel computes genuinely tile-at-a-time.

        Kernels on the generic dense-replay fallback (the core-variant
        wrappers, DGK) accept sinks for API uniformity but recompute the full
        matrix before any tile streams — wrapping them in a
        :class:`~repro.store.tiles.CheckpointSink` would commit tiles
        that can never save recomputation. Checkpointing callers consult
        this to skip the pointless tile I/O.
        """
        return (
            type(self)._compute_gram_into is not GraphKernel._compute_gram_into
        )

    def _compute_gram_into(
        self, graphs: "list[Graph]", sink: GramSink, engine: GramEngine
    ):
        """Subclass hook: stream the raw Gram's tiles into ``sink``, on
        the context's resolved ``engine``.

        The generic fallback is the dense replay: it computes the matrix
        with :meth:`_compute_gram`, symmetrises it and replays it as tiles
        — correct for any kernel, though without the bounded-memory
        benefit. Only the kernels that really build a dense matrix (the
        core-variant wrappers, DGK) use it; the pairwise and feature-map
        families override this with genuinely tile-at-a-time computation.
        """
        matrix = np.asarray(self._compute_gram(graphs, engine=engine), dtype=float)
        n = len(graphs)
        if matrix.shape != (n, n):
            raise KernelError(
                f"{self.name}: _compute_gram returned shape {matrix.shape}, "
                f"expected ({n}, {n})"
            )
        matrix = (matrix + matrix.T) / 2.0
        plan = TilePlan.gram(n, engine.tile_size)
        return replay_tiles(matrix, plan, sink)

    def _compute_gram(
        self, graphs: "list[Graph]", *, engine: GramEngine
    ) -> np.ndarray:
        """Subclass hook of the dense replay: the raw Gram as one matrix."""
        raise KernelError(
            f"{self.name}: {type(self).__name__} implements neither "
            f"_compute_gram_into nor _compute_gram"
        )

    def gram_extend(
        self,
        cached_gram: np.ndarray,
        old_graphs: "list[Graph]",
        new_graphs: "list[Graph]",
        *,
        ctx=None,
    ) -> np.ndarray:
        """Grow a cached raw Gram by ``ΔN`` new graphs, computing only the
        new ``(N, ΔN)`` cross block and ``(ΔN, ΔN)`` diagonal block.

        ``ctx`` (an :class:`~repro.api.context.ExecutionContext`) selects
        the backend. Both new blocks are computed in memory; a context
        carrying a store is refused with a
        :class:`~repro.errors.ValidationError`. To grow a persisted Gram,
        call ``gram(old_graphs + new_graphs, ctx=ctx)``, which reuses the
        stored tiles of ``gram(old_graphs, ctx=ctx)`` (see
        :mod:`repro.store.tiles`); to keep a growing raw Gram in a store,
        use :class:`repro.store.IncrementalGram`.

        ``cached_gram`` must be the *raw* output of
        ``gram(old_graphs, normalize=False, ensure_psd=False)`` (cosine
        normalisation and PSD projection are global operations — apply
        them to the returned matrix, and keep the raw one for further
        extension). The result matches a from-scratch
        ``gram(old_graphs + new_graphs)`` to the backends' 1e-10
        agreement, at ``O(N·ΔN)`` pair evaluations instead of
        ``O((N+ΔN)²)`` — the serving workload of a growing collection
        against a fixed reference set.

        Raises a :class:`~repro.errors.KernelError` when this kernel's
        values depend on the whole collection (HAQJSK's prototype system,
        shared-decay random walks, ...): extending such a Gram would
        silently invalidate the cached ``N × N`` block.
        """
        ctx = as_context(ctx, owner=f"{self.name}.gram_extend")
        if ctx.store is not None:
            raise ValidationError(
                f"{self.name}.gram_extend computes in memory and takes no "
                f"store: grow a persisted Gram with gram(old + new, ctx=ctx), "
                f"which reuses the stored tiles, or keep a growing raw Gram "
                f"with repro.store.IncrementalGram (offending field: store)"
            )
        self._check_graphs(old_graphs)
        self._check_graphs(new_graphs)
        if not self.collection_independent:
            hint = f" {self._extension_hint}" if self._extension_hint else ""
            raise KernelError(
                f"{self.name}: gram_extend refused — this kernel's values "
                f"depend on the whole collection, so extending would "
                f"silently change the cached entries.{hint}"
            )
        n_old, n_new = len(old_graphs), len(new_graphs)
        cached = np.asarray(cached_gram, dtype=float)
        if cached.shape != (n_old, n_old):
            raise KernelError(
                f"{self.name}: cached_gram has shape {cached.shape}, "
                f"expected ({n_old}, {n_old}) for {n_old} old graphs"
            )
        cross, diagonal = self._extension_blocks(
            list(old_graphs), list(new_graphs), ctx.resolved_engine()
        )
        cross = np.asarray(cross, dtype=float)
        diagonal = np.asarray(diagonal, dtype=float)
        if cross.shape != (n_old, n_new) or diagonal.shape != (n_new, n_new):
            raise KernelError(
                f"{self.name}: extension blocks have shapes {cross.shape}/"
                f"{diagonal.shape}, expected ({n_old}, {n_new})/"
                f"({n_new}, {n_new})"
            )
        full = np.empty((n_old + n_new, n_old + n_new))
        full[:n_old, :n_old] = (cached + cached.T) / 2.0
        full[:n_old, n_old:] = cross
        full[n_old:, :n_old] = cross.T
        full[n_old:, n_old:] = (diagonal + diagonal.T) / 2.0
        return full

    def _extension_blocks(
        self,
        old_graphs: "list[Graph]",
        new_graphs: "list[Graph]",
        engine: GramEngine,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Subclass hook: the ``(N, ΔN)`` cross and ``(ΔN, ΔN)`` diagonal
        blocks of the extended Gram. Only called after the
        collection-independence gate in :meth:`gram_extend` passed."""
        raise KernelError(
            f"{self.name}: no incremental Gram path is implemented for "
            f"{type(self).__name__}"
        )

    def fingerprint(self) -> str:
        """Stable hex digest of this kernel's class and configuration.

        Two kernels with equal fingerprints produce equal Gram matrices
        (up to backend round-off) on equal graph collections — the
        property the artifact store's content addressing relies on. The
        Gram *engine* is excluded (scheduling never changes values);
        fitted state that does change values is mixed in via
        :meth:`_fingerprint_extra`.
        """
        return config_fingerprint(self, extra=self._fingerprint_extra())

    def _fingerprint_extra(self) -> dict:
        """Fitted state that changes kernel values (default: none)."""
        return {}

    def __call__(self, graph_a: Graph, graph_b: Graph) -> float:
        """Kernel value between two graphs (via a 2x2 Gram)."""
        matrix = self.gram([graph_a, graph_b])
        return float(matrix[0, 1])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    @staticmethod
    def _check_graphs(graphs) -> None:
        if not isinstance(graphs, (list, tuple)) or len(graphs) == 0:
            raise KernelError("gram() needs a non-empty list of graphs")
        for i, g in enumerate(graphs):
            if not isinstance(g, Graph):
                raise KernelError(f"graphs[{i}] is {type(g).__name__}, expected Graph")
            if g.n_vertices == 0:
                raise KernelError(f"graphs[{i}] has no vertices")


class FeatureMapKernel(GraphKernel):
    """Kernels with an explicit feature map: ``K = X Xᵀ``.

    Subclasses implement :meth:`feature_matrix`; positive semidefiniteness
    is then automatic.
    """

    #: ``K_pq = <φ(G_p), φ(G_q)>`` with per-graph substructure counts:
    #: enlarging the collection only pads shared vocabularies with zero
    #: columns, which never changes an inner product. (Kernels whose
    #: features *sample* from collection-shared randomness must override
    #: this back to False — see GraphletKernel.)
    collection_independent = True

    def _compute_gram_into(
        self, graphs: "list[Graph]", sink: GramSink, engine: GramEngine
    ):
        # Feature extraction is linear in N; only the (N, N) *product*
        # is quadratic, so it is the product that streams: one
        # ``F[rows] @ F[cols].T`` matmul per tile, diagonal tiles
        # symmetrised exactly. The engine contributes only its tile size.
        features = np.asarray(self.feature_matrix(graphs), dtype=float)
        plan = TilePlan.gram(len(graphs), engine.tile_size)

        def block(rows, cols, diagonal):
            tile = features[rows[0] : rows[1]] @ features[cols[0] : cols[1]].T
            return (tile + tile.T) / 2.0 if diagonal else tile

        return stream_tiles(plan, sink, block)

    @abc.abstractmethod
    def feature_matrix(self, graphs: "list[Graph]") -> np.ndarray:
        """``(N, D)`` feature matrix; columns are substructure counts."""

    def cross_gram(
        self,
        graphs_a: "list[Graph]",
        graphs_b: "list[Graph]",
        *,
        ctx=None,
    ) -> np.ndarray:
        """Rectangular Gram between two graph lists (shared feature space).

        The backend (accepted for signature parity with the pairwise
        family; only its tile size matters — each tile is one matmul)
        and sink come from ``ctx``; the rectangle streams tile-by-tile
        into the sink, a fresh :class:`~repro.engine.tiles.DenseSink`
        when the context has no factory.
        """
        ctx = as_context(ctx, owner=f"{self.name}.cross_gram")
        sink = ctx.make_sink()
        ctx.validate(ensure_psd=False, sink=sink)
        self._check_graphs(graphs_a)
        self._check_graphs(graphs_b)
        features = self.feature_matrix(list(graphs_a) + list(graphs_b))
        fa = features[: len(graphs_a)]
        fb = features[len(graphs_a) :]
        plan = TilePlan.cross(
            len(graphs_a), len(graphs_b), ctx.resolved_engine().tile_size
        )
        result = stream_tiles(
            plan,
            sink,
            lambda rows, cols, _: fa[rows[0] : rows[1]] @ fb[cols[0] : cols[1]].T,
        )
        sink.commit()
        return result

    def _extension_blocks(
        self,
        old_graphs: "list[Graph]",
        new_graphs: "list[Graph]",
        engine: GramEngine,
    ) -> "tuple[np.ndarray, np.ndarray]":
        # One shared feature space over old + new (vocabulary union); the
        # old block's inner products are untouched by the extra columns.
        features = self.feature_matrix(old_graphs + new_graphs)
        old_features = features[: len(old_graphs)]
        new_features = features[len(old_graphs) :]
        return old_features @ new_features.T, new_features @ new_features.T


class PairwiseKernel(GraphKernel):
    """Kernels defined by a pairwise similarity over prepared states.

    Subclasses implement :meth:`prepare` (per-collection preprocessing; for
    HAQJSK this is where the shared prototype hierarchy is fitted) and
    :meth:`pair_value`. The Gram loop itself is delegated to a pluggable
    :class:`~repro.engine.base.GramEngine`; kernels whose pair value is
    batchable additionally override :meth:`block_values` so the batched and
    process backends can evaluate whole tiles with array operations.
    """

    def _compute_gram_into(
        self, graphs: "list[Graph]", sink: GramSink, engine: GramEngine
    ):
        # The genuinely streaming path: preparation is linear, and the
        # engine's shared scheduler feeds each finished tile straight to
        # the sink, so an out-of-core Gram never exists in memory.
        states = self._prepared_states(graphs)
        return engine.gram(self, states, sink=sink)

    def _prepared_states(self, graphs: "list[Graph]") -> list:
        states = self.prepare(list(graphs))
        if len(states) != len(graphs):
            raise KernelError(
                f"{self.name}: prepare() returned {len(states)} states for "
                f"{len(graphs)} graphs"
            )
        return states

    @abc.abstractmethod
    def prepare(self, graphs: "list[Graph]") -> list:
        """Collection-level preprocessing; returns one state per graph."""

    @abc.abstractmethod
    def pair_value(self, state_a, state_b) -> float:
        """Kernel value from two prepared states."""

    def block_values(self, states_a: list, states_b: list) -> np.ndarray:
        """Rectangular ``(len_a, len_b)`` block of kernel values.

        The default evaluates :meth:`pair_value` per cell; vectorized
        kernels override it with batched array math. Overrides must agree
        with the loop to ``1e-10`` — the engine backends rely on it.
        """
        matrix = np.empty((len(states_a), len(states_b)))
        for i, state_a in enumerate(states_a):
            for j, state_b in enumerate(states_b):
                matrix[i, j] = float(self.pair_value(state_a, state_b))
        return matrix

    @property
    def has_vectorized_blocks(self) -> bool:
        """True when this kernel overrides :meth:`block_values`."""
        return type(self).block_values is not PairwiseKernel.block_values

    def symmetric_block_values(self, states: list) -> np.ndarray:
        """Symmetric ``(n, n)`` diagonal block over one state list.

        Only the upper triangle is evaluated (and mirrored), so diagonal
        tiles cost the same ``n(n+1)/2`` pair values as the serial loop
        and every backend agrees on symmetry exactly. For vectorized
        kernels this default computes the full rectangle and keeps the
        upper triangle — acceptable only when the tile reduces to cheap
        array arithmetic (e.g. JTQK's ``q = 2`` matmuls); kernels whose
        per-pair cost dominates override this via
        :meth:`_symmetric_from_pairs` to batch just the triangle.
        """
        n = len(states)
        if self.has_vectorized_blocks:
            block = np.asarray(self.block_values(states, states), dtype=float)
            upper = np.triu(block)
            return upper + np.triu(block, 1).T
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                value = float(self.pair_value(states[i], states[j]))
                matrix[i, j] = value
                matrix[j, i] = value
        return matrix

    def _rectangular_from_pairs(
        self, states_a: list, states_b: list, pair_values_fn
    ) -> np.ndarray:
        """Rectangular block from a pair-list evaluator.

        ``pair_values_fn(states_a, states_b, idx_a, idx_b)`` returns the
        flat values for pairs ``(idx_a[p], idx_b[p])``; vectorized kernels
        plug their batched evaluator in here for :meth:`block_values`.
        """
        n_a, n_b = len(states_a), len(states_b)
        if not n_a or not n_b:
            return np.zeros((n_a, n_b))
        idx_a = np.repeat(np.arange(n_a), n_b)
        idx_b = np.tile(np.arange(n_b), n_a)
        return pair_values_fn(states_a, states_b, idx_a, idx_b).reshape(n_a, n_b)

    def _symmetric_from_pairs(self, states: list, pair_values_fn) -> np.ndarray:
        """Symmetric diagonal block evaluating only the upper triangle.

        For kernels whose per-pair cost dominates (an eigendecomposition
        per mixed state), the redundant lower triangle is *not* free —
        this restricts the batch to the serial loop's ``n(n+1)/2`` pairs
        and mirrors the result.
        """
        n = len(states)
        if not n:
            return np.zeros((0, 0))
        upper_i, upper_j = np.triu_indices(n)
        values = pair_values_fn(states, states, upper_i, upper_j)
        matrix = np.zeros((n, n))
        matrix[upper_i, upper_j] = values
        matrix[upper_j, upper_i] = values
        return matrix

    def cross_gram(
        self,
        graphs_a: "list[Graph]",
        graphs_b: "list[Graph]",
        *,
        ctx=None,
    ) -> np.ndarray:
        """Rectangular Gram between two graph lists.

        Both lists are prepared as *one* collection — for collection-level
        kernels (HAQJSK fits its prototype system on the graphs it sees)
        this is the only consistent reading, and it means a pair's value
        here can differ from its value under a different collection,
        exactly as in the paper's protocol. The evaluation itself goes
        through the same engine backends as :meth:`gram`, so Nyström
        landmark columns get the batched path too; the rectangle streams
        tile-by-tile into the sink from ``ctx.sink_factory`` (out-of-core
        / checkpointed), else into a fresh
        :class:`~repro.engine.tiles.DenseSink`.
        """
        ctx = as_context(ctx, owner=f"{self.name}.cross_gram")
        sink = ctx.make_sink()
        ctx.validate(ensure_psd=False, sink=sink)
        self._check_graphs(graphs_a)
        self._check_graphs(graphs_b)
        states = self.prepare(list(graphs_a) + list(graphs_b))
        states_a = states[: len(graphs_a)]
        states_b = states[len(graphs_a) :]
        result = ctx.resolved_engine().cross_gram(
            self, states_a, states_b, sink=sink
        )
        sink.commit()
        return result

    def _extension_blocks(
        self,
        old_graphs: "list[Graph]",
        new_graphs: "list[Graph]",
        engine: GramEngine,
    ) -> "tuple[np.ndarray, np.ndarray]":
        # Preparation is (re)run over old + new as one collection — it is
        # linear and cheap relative to the pair stage, and for
        # collection-independent kernels (the gram_extend gate) it yields
        # the same pair values as any other collection. Only the N·ΔN
        # cross pairs and the ΔN(ΔN+1)/2 new diagonal pairs are evaluated,
        # through the same engine backends as a full Gram.
        states = self._prepared_states(old_graphs + new_graphs)
        old_states = states[: len(old_graphs)]
        new_states = states[len(old_graphs) :]
        return (
            engine.cross_gram(self, old_states, new_states),
            engine.gram(self, new_states),
        )


def cosine_scale(diagonal: np.ndarray) -> np.ndarray:
    """Per-graph cosine scale ``1 / sqrt(K_ii)`` from a Gram diagonal.

    Non-positive self-similarities (possible for indefinite baselines)
    are treated as 1 to avoid dividing by zero; the properties bench
    reports them. This is *the* diagonal-scale policy: whole-matrix
    normalisation (:func:`normalize_gram`), the tile-wise normalisation
    every ``gram`` runs, and the serving path's ``K(new, train)`` rows all
    scale through it, so train- and serving-time cosine geometry agree by
    construction.
    """
    diag = np.array(diagonal, dtype=float).reshape(-1)
    diag[diag <= 0] = 1.0
    return 1.0 / np.sqrt(diag)


def normalize_gram_block(
    block: np.ndarray, row_scale: np.ndarray, col_scale: np.ndarray
) -> np.ndarray:
    """One tile (or cross-row block) of cosine normalisation.

    ``row_scale`` / ``col_scale`` are :func:`cosine_scale` outputs for the
    block's row and column graphs. On a full square Gram with its own
    diagonal scales this reproduces :func:`normalize_gram` bit-for-bit
    (same association order); at serving time the *column* scales come
    from the **training** diagonal stored in the model bundle, never from
    statistics of the block itself.
    """
    return (
        np.asarray(block, dtype=float)
        * np.asarray(row_scale, dtype=float)[:, None]
        * np.asarray(col_scale, dtype=float)[None, :]
    )


def normalize_gram(matrix: np.ndarray) -> np.ndarray:
    """Cosine-normalise a Gram matrix: ``K_ij / sqrt(K_ii K_jj)``."""
    arr = np.asarray(matrix, dtype=float)
    scale = cosine_scale(np.diag(arr))
    return arr * scale[:, None] * scale[None, :]


def normalize_gram_inplace_tiled(matrix, *, tile_size: int):
    """Cosine-normalise a (possibly memmapped) Gram **in place**, one tile
    at a time.

    Peak extra memory is ``O(N)`` for the diagonal scales plus one tile —
    never the matrix — so this is the ``normalize=True`` path of every
    Gram, in memory or out of core. Entry-for-entry the arithmetic matches
    :func:`normalize_gram` (each cell computes ``(K_ij * s_i) * s_j``).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise KernelError(
            f"tile-wise normalisation needs a square Gram, got {matrix.shape}"
        )
    scale = cosine_scale(np.asarray(matrix.diagonal(), dtype=float))
    for r0, r1 in tile_ranges(n, tile_size):
        for c0, c1 in tile_ranges(n, tile_size):
            matrix[r0:r1, c0:c1] = normalize_gram_block(
                matrix[r0:r1, c0:c1], scale[r0:r1], scale[c0:c1]
            )
    if isinstance(matrix, np.memmap):
        matrix.flush()
    return matrix


def _finish_gram(
    matrix,
    sink: GramSink,
    n: int,
    *,
    owner: str,
    normalize: bool,
    ensure_psd: bool,
    tile_size: int,
):
    """The one post-pass of every ``(n, n)`` Gram, once ``sink`` holds
    all its tiles.

    :meth:`GraphKernel.gram` and the distributed assembly both end here,
    so a Gram's bytes never depend on which of them built it. Tiles
    arrive symmetric by construction (diagonal tiles mirror their upper
    triangle, the sink mirrors off-diagonals), so no ``(K + Kᵀ)/2`` pass
    is needed.
    """
    if getattr(matrix, "shape", None) != (n, n):
        raise KernelError(
            f"{owner}: tiled Gram has shape "
            f"{getattr(matrix, 'shape', None)}, expected ({n}, {n})"
        )
    if normalize:
        matrix = normalize_gram_inplace_tiled(matrix, tile_size=tile_size)
    if ensure_psd:
        # One eigendecomposition serves both the PSD check and (when
        # needed) the projection — see clip_to_psd.
        matrix = clip_to_psd(np.asarray(matrix, dtype=float))
    # Post-processing is done: a staged sink may now publish its backing
    # file atomically.
    sink.commit()
    return matrix


def replay_tiles(matrix: np.ndarray, plan: TilePlan, sink: GramSink):
    """Feed an already-computed matrix through a sink tile-by-tile.

    The adapter for the kernels that build dense matrices (the
    core-variant wrappers' level-summed Grams, DGK): downstream sinks see the
    same tile stream a streaming computation would emit, so memmap
    assembly works uniformly — only the bounded-memory property is
    (necessarily) absent (and checkpointing callers skip such kernels,
    see :attr:`GraphKernel.streams_tiles`).
    """
    return stream_tiles(
        plan,
        sink,
        lambda rows, cols, _: matrix[rows[0] : rows[1], cols[0] : cols[1]],
    )


def rbf_from_squared_distances(sq_dists: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """``exp(-gamma * d^2)`` elementwise — helper for distance-based kernels."""
    if gamma <= 0:
        raise KernelError(f"gamma must be > 0, got {gamma}")
    return np.exp(-gamma * np.clip(np.asarray(sq_dists, dtype=float), 0.0, None))
