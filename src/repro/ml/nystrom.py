"""Nyström low-rank approximation of graph-kernel Gram matrices.

Section III-D puts the HAQJSK kernels at O(N²n³): the quadratic factor is
the pairwise QJSD evaluation, one mixed-state eigendecomposition per graph
pair. The classical Nyström method (Williams & Seeger, 2001) replaces the
N² pair evaluations with N·m against ``m << N`` landmark graphs:

    K  ≈  C W⁺ Cᵀ,     C = K(X, L) ∈ R^{N×m},  W = K(L, L) ∈ R^{m×m},

with the pseudo-inverse taken on W's positive spectrum. Equivalently, each
graph gets an explicit m-dimensional feature vector ``Φ = C W^{-1/2}`` with
``Φ Φᵀ = K̂`` — directly usable by the linear stages downstream (SVM on a
precomputed approximate Gram, kernel PCA, k-NN).

For :class:`~repro.kernels.base.PairwiseKernel` instances (the QJSD
family) the collection is prepared once and only the required N·m pair
values are evaluated, so the saving is real, not cosmetic. Collection-level
kernels keep their semantics: landmarks are *part of the collection* the
prototype system is fitted on.
"""

from __future__ import annotations

import numpy as np

from repro.api.context import as_context
from repro.errors import KernelError, NotFittedError, ValidationError
from repro.kernels.base import GraphKernel, PairwiseKernel
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int

#: Relative eigenvalue cutoff for W's pseudo-inverse square root.
_SPECTRUM_TOL = 1e-10


class NystromApproximation:
    """Low-rank Gram approximation from ``n_landmarks`` landmark graphs.

    Parameters
    ----------
    kernel:
        Any :class:`GraphKernel`. Pairwise kernels take the efficient
        path (one ``prepare``, N·m pair values evaluated through the
        Gram engine); other kernels fall back to ``gram`` calls.
    n_landmarks:
        Number of landmark graphs ``m``. ``m = N`` reproduces the exact
        Gram matrix (up to the PSD projection inherent in W⁺).
    seed:
        Seeds the uniform landmark sampling.
    ctx:
        :class:`~repro.api.ExecutionContext` carrying the backend for
        the ``K(X, L)`` evaluation (ignored for feature-map kernels) and
        an optional store: with one, the rectangle — the expensive N·m
        pair stage — is fetched by content key (kernel fingerprint +
        collection digest + landmark indices) and persisted on miss, so
        refitting over the same collection and seed is free.

    Attributes (after :meth:`fit`)
    ------------------------------
    landmark_indices_:  indices of the selected landmark graphs.
    landmark_graphs_:   the landmark graphs themselves (the fitted
                        landmark system :meth:`transform` embeds against).
    embedding_:         ``(N, r)`` feature matrix with ``Φ Φᵀ = K̂``
                        (``r`` = numerical rank of W).
    """

    def __init__(
        self,
        kernel: GraphKernel,
        *,
        n_landmarks: int,
        seed: "int | None" = 0,
        ctx=None,
    ) -> None:
        if not isinstance(kernel, GraphKernel):
            raise ValidationError(
                f"kernel must be a GraphKernel, got {type(kernel).__name__}"
            )
        self.ctx = as_context(ctx, owner="NystromApproximation")
        self.kernel = kernel
        self.n_landmarks = check_positive_int(
            n_landmarks, "n_landmarks", minimum=1
        )
        self.seed = seed
        self.landmark_indices_: "np.ndarray | None" = None
        self.landmark_graphs_: "list | None" = None
        self.embedding_: "np.ndarray | None" = None
        self._inv_sqrt: "np.ndarray | None" = None

    def fit(self, graphs: list) -> "NystromApproximation":
        """Select landmarks, evaluate C and W, and build the embedding."""
        if not graphs:
            raise ValidationError("need a non-empty graph list")
        n = len(graphs)
        m = min(self.n_landmarks, n)
        rng = as_rng(self.seed)
        self.landmark_indices_ = np.sort(rng.choice(n, size=m, replace=False))
        cross = self._cross_matrix(graphs, self.landmark_indices_)
        w_matrix = cross[self.landmark_indices_]
        # Symmetric pseudo-inverse square root of W on its positive spectrum.
        values, vectors = np.linalg.eigh((w_matrix + w_matrix.T) / 2.0)
        cutoff = max(values.max(), 0.0) * _SPECTRUM_TOL
        keep = values > cutoff
        inv_sqrt = vectors[:, keep] / np.sqrt(values[keep])[None, :]
        self.landmark_graphs_ = [graphs[i] for i in self.landmark_indices_]
        self._inv_sqrt = inv_sqrt
        self.embedding_ = cross @ inv_sqrt
        return self

    def transform(self, graphs: list) -> np.ndarray:
        """Out-of-sample ``(n_new, r)`` embeddings against the fitted
        landmark system — the Nyström serving path.

        Each newcomer ``g`` gets ``φ(g) = K(g, L) W^{-1/2}`` from the
        *fitted* landmarks and spectrum, so new embeddings live in the
        same ``r``-dimensional space as :attr:`embedding_` and inner
        products approximate kernel values against the fitted collection.
        Only ``n_new · m`` pair values are evaluated.

        Requires a collection-independent kernel (feature maps, the QJSD
        family, frozen-prototype HAQJSK): for a kernel that refits
        collection state per call, newcomer columns would be computed
        against different landmarks than ``W`` was, so the method refuses
        with the same named error as ``gram_extend``. Downstream
        conditioning of serving-time approximate Gram rows must use a
        :class:`~repro.ml.kernel_utils.GramConditioner` fitted on the
        training approximation, never fresh statistics.
        """
        if self.embedding_ is None or self._inv_sqrt is None:
            raise NotFittedError("NystromApproximation must be fitted first")
        # Eligibility before the empty-batch shortcut: an ineligible
        # pipeline must fail on its smoke input, not only in production.
        if not self.kernel.collection_independent:
            hint = getattr(self.kernel, "_extension_hint", "")
            raise KernelError(
                f"{self.kernel.name}: out-of-sample Nyström embeddings "
                f"need collection-independent kernel values; this kernel "
                f"refits collection state per call."
                + (f" {hint}" if hint else "")
            )
        graphs = list(graphs)
        if not graphs:
            return np.zeros((0, self._inv_sqrt.shape[1]))
        if hasattr(self.kernel, "cross_gram"):
            cross = self.kernel.cross_gram(
                graphs, self.landmark_graphs_, ctx=self._evaluation_ctx()
            )
        else:  # pragma: no cover - every shipped kernel has cross_gram
            full = self._raw_gram(graphs + self.landmark_graphs_)
            cross = full[: len(graphs), len(graphs) :]
        return np.asarray(cross, dtype=float) @ self._inv_sqrt

    def approximate_gram(self) -> np.ndarray:
        """The ``N x N`` approximation ``K̂ = Φ Φᵀ`` (PSD by construction)."""
        if self.embedding_ is None:
            raise NotFittedError("NystromApproximation must be fitted first")
        return self.embedding_ @ self.embedding_.T

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _cross_matrix(self, graphs: list, landmarks: np.ndarray) -> np.ndarray:
        """``K(X, L)`` with one collection-level preparation if possible."""
        store = self.ctx.store
        key = None
        if store is not None:
            from repro.graphs.hashing import collection_digest
            from repro.store import artifact_key

            key = artifact_key(
                "nystrom-cross",
                self.kernel.fingerprint(),
                collection_digest(graphs),
                ",".join(str(int(i)) for i in landmarks),
            )
            cached = store.get_array("nystrom", key)
            if cached is not None:
                return cached
        cross = self._compute_cross_matrix(graphs, landmarks)
        if key is not None:
            store.put_array("nystrom", key, cross)
        return cross

    def _compute_cross_matrix(
        self, graphs: list, landmarks: np.ndarray
    ) -> np.ndarray:
        if isinstance(self.kernel, PairwiseKernel):
            states = self.kernel.prepare(list(graphs))
            landmark_states = [states[i] for i in landmarks]
            # The N x m rectangle goes through the same engine backends
            # (and tile plans) as a full Gram, so landmark columns get
            # the batched path. With a store, every finished tile commits
            # through a CheckpointSink: a killed fit resumes the N·m pair
            # stage at tile granularity instead of restarting it.
            engine = self.ctx.resolved_engine()
            sink = None
            if self.ctx.store is not None:
                from repro.store.tiles import CheckpointSink, tile_keyer_for

                sink = CheckpointSink(
                    self.ctx.store,
                    tile_keyer_for(
                        self.kernel,
                        graphs,
                        [graphs[i] for i in landmarks],
                        collection=graphs,
                    ),
                )
            cross = np.asarray(
                engine.cross_gram(
                    self.kernel, states, landmark_states, sink=sink
                ),
                dtype=float,
            )
            if sink is not None and not self.kernel.collection_independent:
                # Collection-dependent tile keys embed the collection
                # digest: once the rectangle is assembled (and about to be
                # cached whole under its own key) no other computation can
                # read them — reclaim instead of leaking per sweep.
                sink.discard_tiles()
            return cross
        # Generic fallback: one full-collection Gram, sliced. Exact but not
        # cheaper — feature-map kernels are already linear in N.
        return self._raw_gram(list(graphs))[:, landmarks]

    def _evaluation_ctx(self):
        """This approximation's context for its own kernel evaluations:
        engine, tile size and compute policy, but no store (rectangles
        are cached whole under their own key) and no sink factory."""
        return self.ctx.replace(store=None, sink_factory=None)

    def _raw_gram(self, graphs: list) -> np.ndarray:
        return self.kernel.gram(
            graphs, normalize=False, ensure_psd=False, ctx=self._evaluation_ctx()
        )


def nystrom_gram(
    kernel: GraphKernel,
    graphs: list,
    *,
    n_landmarks: int,
    seed: "int | None" = 0,
    ctx=None,
) -> np.ndarray:
    """One-shot Nyström approximation of ``kernel.gram(graphs)``."""
    approximation = NystromApproximation(
        kernel, n_landmarks=n_landmarks, seed=seed, ctx=ctx
    ).fit(graphs)
    return approximation.approximate_gram()
