"""The prediction service — batch classification of newcomer graphs.

Serving cost model: against a bundle of ``N`` training graphs, a batch of
``ΔN`` newcomers costs exactly the ``(ΔN, N)`` cross-block pair
evaluations (the same engine-backed rectangle
:meth:`~repro.kernels.base.GraphKernel.gram_extend` computes for its
cross block — but *without* the ``(ΔN, ΔN)`` diagonal block, which an SVM
decision function never reads). ``tests/serve`` pins the exact pair
budget with a counting kernel, the way
``benchmarks/bench_incremental_gram.py`` does for ``gram_extend``.

The cross rows are then conditioned **inductively** — the bundle's
:class:`~repro.ml.kernel_utils.GramConditioner` applies the training-fold
centering and scale statistics, never fresh ones — and handed to the
one-vs-one SVM, which returns labels plus per-class accumulated OvO
margins as the confidence signal.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.api.context import as_context
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kernels.base import (
    FeatureMapKernel,
    PairwiseKernel,
    cosine_scale,
    normalize_gram_block,
)
from repro.serve.bundle import ModelBundle


@dataclass(frozen=True)
class PredictionResult:
    """One batch's predictions.

    ``margins[t, k]`` is the accumulated signed OvO decision value for
    class ``classes[k]`` on newcomer ``t`` — larger means more confident;
    ``votes`` are the raw OvO win counts the label argmax runs on.
    """

    labels: np.ndarray
    votes: np.ndarray
    margins: np.ndarray
    classes: np.ndarray

    def __len__(self) -> int:
        return int(self.labels.shape[0])


class PredictionService:
    """Serves label predictions for newcomer graphs from a model bundle.

    Parameters
    ----------
    bundle:
        A (verified) :class:`ModelBundle`; :meth:`from_store` loads and
        verifies one by name.
    ctx:
        :class:`~repro.api.ExecutionContext` selecting the Gram backend
        (and tile size) for the cross-block evaluation — the serving
        knob for throughput.
    max_block_graphs:
        When set, :meth:`predict` streams the whole pipeline — cross
        block, conditioning, voting — in row chunks of at most this many
        newcomer graphs, so even a single huge arrival batch materialises
        at most ``max_block_graphs × N`` kernel values at any moment
        (only the O(ΔN × classes) votes/margins accumulate). Labels,
        votes and margins are the one-shot rectangle's bytes, row for row.
    """

    def __init__(
        self,
        bundle: ModelBundle,
        *,
        max_block_graphs: "int | None" = None,
        ctx=None,
    ) -> None:
        if not isinstance(bundle, ModelBundle):
            raise ValidationError(
                f"bundle must be a ModelBundle, got {type(bundle).__name__}"
            )
        self.ctx = as_context(ctx, owner="PredictionService")
        if max_block_graphs is not None and max_block_graphs < 1:
            raise ValidationError(
                f"max_block_graphs must be >= 1, got {max_block_graphs}"
            )
        self.bundle = bundle.verify()
        self.max_block_graphs = max_block_graphs
        # Prepared states of the training collection, computed once per
        # service (legal: the bundle kernel is collection-independent, so
        # states do not depend on which newcomers they are paired with).
        # The lock makes concurrent first predicts prepare exactly once:
        # one service is shared across the HTTP server's request threads,
        # and after preparation the states are only ever read.
        self._train_states: "list | None" = None
        self._prepare_lock = threading.Lock()

    @classmethod
    def from_store(
        cls,
        store,
        name: str,
        *,
        max_block_graphs: "int | None" = None,
        ctx=None,
    ) -> "PredictionService":
        """Load + verify the named bundle and wrap it for serving.

        Verification runs once, in the constructor — ``verify=False``
        here avoids hashing the N training graphs twice per cold start.
        """
        return cls(
            ModelBundle.load(store, name, verify=False),
            max_block_graphs=max_block_graphs,
            ctx=ctx,
        )

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #

    def predict(self, graphs: "list[Graph]") -> PredictionResult:
        """Classify a batch of newcomer graphs.

        Evaluates only the ``(ΔN, N)`` cross pairs against the bundle's
        training graphs (plus ``ΔN`` self-similarities when the bundle
        was trained on a cosine-normalised Gram), conditions them with
        the frozen training statistics, and votes the OvO machines.
        """
        graphs = list(graphs)
        model = self.bundle.model
        if not graphs:
            # Explicit empty result: no engine call, no conditioning, no
            # vote pass — shapes and dtypes exactly match a non-empty
            # prediction sliced to zero rows (pinned in tests/serve).
            classes = model.classes_
            return PredictionResult(
                labels=classes[:0],
                votes=np.zeros((0, classes.size)),
                margins=np.zeros((0, classes.size)),
                classes=classes,
            )
        # End-to-end streaming bound: each loop iteration materialises at
        # most chunk × N kernel values (rows are dropped after voting),
        # so max_block_graphs caps peak memory even for one huge batch.
        chunk = self.max_block_graphs or len(graphs)
        labels, votes, margins = [], [], []
        for start in range(0, len(graphs), chunk):
            rows = self.conditioned_rows(graphs[start : start + chunk])
            # One pass over the OvO machines yields votes + margins; the
            # labels are derived from them without re-evaluating.
            chunk_votes, chunk_margins = model.vote_margins(rows)
            labels.append(model.labels_from_votes(chunk_votes, chunk_margins))
            votes.append(chunk_votes)
            margins.append(chunk_margins)
        return PredictionResult(
            labels=np.concatenate(labels),
            votes=np.vstack(votes),
            margins=np.vstack(margins),
            classes=model.classes_,
        )

    def predict_labels(self, graphs: "list[Graph]") -> np.ndarray:
        """Just the labels (the CLI's default output)."""
        return self.predict(graphs).labels

    def conditioned_rows(self, graphs: "list[Graph]") -> np.ndarray:
        """The fully conditioned ``(ΔN, N)`` rows the SVM consumes.

        Exposed so the serving-equivalence tests can compare against the
        transductive full-Gram protocol row by row. Note this returns the
        *whole* block — ``max_block_graphs`` bounds each internal engine
        call here, but the end-to-end memory bound lives in
        :meth:`predict`, which streams chunks through this method and
        drops each block after voting.
        """
        bundle = self.bundle
        kernel = bundle.kernel
        if not graphs:
            # Zero chunks would leave nothing to stack; the empty batch
            # short-circuits to a conditioned (0, N) block directly.
            empty = np.zeros((0, len(bundle.training_graphs)))
            return bundle.conditioner.transform_cross(empty)
        step = self.max_block_graphs or len(graphs)
        new_states = None
        if isinstance(kernel, PairwiseKernel):
            # Amortised pairwise path: the training states are prepared
            # once per service, so a batch pays O(ΔN) preparation plus
            # exactly the ΔN·N cross pair values through the engine. With
            # max_block_graphs, the rectangle streams in bounded row
            # chunks — each engine call sees at most step × N pairs.
            if self._train_states is None:
                with self._prepare_lock:
                    if self._train_states is None:
                        self._train_states = kernel.prepare(
                            list(bundle.training_graphs)
                        )
            new_states = kernel.prepare(graphs)
            engine = self.ctx.resolved_engine()
            chunks = [
                engine.cross_gram(
                    kernel, new_states[start : start + step], self._train_states
                )
                for start in range(0, len(new_states), step)
            ]
        else:
            # Feature-map kernels re-extract features over train + batch
            # each call: vocabularies are per-call, so rows from separate
            # feature_matrix calls cannot be dotted. Extraction is linear
            # in N (no quadratic pair stage), so the cross rectangle still
            # dominates; a vocabulary-stable feature cache would shave the
            # O(N) term if feature-map serving ever becomes the hot path.
            cross_ctx = self.ctx.replace(store=None, sink_factory=None)
            chunks = [
                kernel.cross_gram(
                    graphs[start : start + step],
                    bundle.training_graphs,
                    ctx=cross_ctx,
                )
                for start in range(0, len(graphs), step)
            ]
        rows = np.vstack([np.asarray(chunk, dtype=float) for chunk in chunks])
        if bundle.normalize:
            rows = self._cosine_normalized(rows, graphs, new_states)
        return bundle.conditioner.transform_cross(rows)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _cosine_normalized(
        self, rows: np.ndarray, graphs: "list[Graph]", states=None
    ) -> np.ndarray:
        """``K(t, i) / sqrt(K_tt K_ii)`` with the **stored training**
        diagonal for the columns — the same
        :func:`~repro.kernels.base.cosine_scale` policy ``normalize_gram``
        applied to the training Gram, so serving rows land in exactly the
        cosine geometry the SVM was trained in. Newcomer self-similarities
        cost ΔN extra pair values (``states``: see
        :meth:`_self_similarities`)."""
        row_scale = cosine_scale(self._self_similarities(graphs, states))
        col_scale = cosine_scale(self.bundle.train_diagonal)
        return normalize_gram_block(rows, row_scale, col_scale)

    def _self_similarities(
        self, graphs: "list[Graph]", states=None
    ) -> np.ndarray:
        """``K(g, g)`` per newcomer — ΔN pair evaluations, no rectangle.

        Legitimate because the bundle kernel is collection-independent
        (verified): preparing the newcomers alone yields the same states
        as preparing them alongside the training graphs. A pairwise
        kernel reuses ``states`` — the newcomers' states the cross block
        already prepared — and prepares them only when none are given.
        """
        kernel = self.bundle.kernel
        if isinstance(kernel, PairwiseKernel):
            if states is None:
                states = kernel.prepare(graphs)
            return np.array(
                [float(kernel.pair_value(s, s)) for s in states], dtype=float
            )
        if isinstance(kernel, FeatureMapKernel):
            features = np.asarray(kernel.feature_matrix(graphs), dtype=float)
            return np.einsum("ij,ij->i", features, features)
        return np.array([float(kernel(g, g)) for g in graphs], dtype=float)

    def info(self) -> dict:
        """Bundle summary plus the serving configuration."""
        info = self.bundle.info()
        info["engine"] = self.ctx.resolved_engine().name
        info["max_block_graphs"] = self.max_block_graphs
        return info
