"""The prediction service — batch classification of newcomer graphs.

Serving cost model: the one-vs-one C-SVM's decision function sums over
its support vectors only (LIBSVM's, the paper's classifier), so against a
bundle whose machines have non-zero duals on ``|S|`` of its ``N``
training graphs, a batch of ``ΔN`` newcomers costs exactly the
``(ΔN, |S|)`` cross-block pair evaluations (plus ``ΔN`` self-similarities
when the bundle was trained on a cosine-normalised Gram). The rectangle
runs through the same engine backends as
:meth:`~repro.kernels.base.GraphKernel.gram_extend`'s cross block, without
its ``(ΔN, ΔN)`` diagonal block, which a decision function never reads.
Training states are prepared per graph on first use, so a service
prepares the ``|S|`` support graphs and no others until
:meth:`PredictionService.conditioned_rows` asks for the full ``(ΔN, N)``
block. ``tests/serve`` pins the exact pair budget with a counting kernel,
the way ``benchmarks/bench_incremental_gram.py`` does for ``gram_extend``.

The other columns of each row are left zero and the whole ``(ΔN, N)``
row is conditioned **inductively** — the bundle's
:class:`~repro.ml.kernel_utils.GramConditioner` applies the training-fold
centering and scale statistics, never fresh ones — and voted by the
bundle's own one-vs-one SVM, which returns labels plus per-class
accumulated OvO margins as the confidence signal. A zero column meets a
zero dual in every machine; the one term of the conditioning that reads
it, the row's mean, enters every decision multiplied by ``Σᵢ αᵢyᵢ``,
which the dual's constraint ``yᵀα = 0`` makes zero. So labels and votes
equal the full rows' and margins differ only at round-off (declared tier
1e-12; DESIGN.md, "Serving reads only the support vectors").
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
        at most ``max_block_graphs × N`` conditioned values (of which
        ``max_block_graphs × |S|`` are evaluated) at any moment (only the
        O(ΔN × classes) votes/margins accumulate). Labels,
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
        #: ``S``: the training indices some machine's decision reads.
        self.support = self.bundle.support
        # Prepared training states by index, each computed on first use
        # (legal: the bundle kernel is collection-independent, so a state
        # does not depend on which graphs it was prepared with). The lock
        # makes concurrent first predicts prepare each state exactly once:
        # one service is shared across the HTTP server's request threads,
        # and a prepared state is only ever read.
        self._train_states: dict = {}
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

        Evaluates only the ``(ΔN, |S|)`` cross pairs against the training
        graphs the machines' non-zero duals select (plus ``ΔN``
        self-similarities when the bundle was trained on a
        cosine-normalised Gram), conditions the rows, zero elsewhere, with
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
        # most chunk × N conditioned values (rows are dropped after
        # voting), so max_block_graphs caps peak memory even for one huge
        # batch.
        chunk = self.max_block_graphs or len(graphs)
        n_train = len(self.bundle.training_graphs)
        labels, votes, margins = [], [], []
        for start in range(0, len(graphs), chunk):
            batch = graphs[start : start + chunk]
            # Columns outside S stay zero: every machine multiplies them
            # by a zero dual, and their share of the row mean cancels
            # through yᵀα = 0 (module docstring).
            rows = np.zeros((len(batch), n_train))
            rows[:, self.support] = self._cross_rows(batch, self.support)
            # One pass over the OvO machines yields votes + margins; the
            # labels are derived from them without re-evaluating.
            chunk_votes, chunk_margins = model.vote_margins(
                self.bundle.conditioner.transform_cross(rows)
            )
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
        """The fully conditioned ``(ΔN, N)`` rows over every training graph.

        Exposed so the serving-equivalence tests can compare against the
        transductive full-Gram protocol row by row, and
        ``vote_margins(conditioned_rows(...))`` against :meth:`predict`.
        It costs ``N·ΔN`` pairs and prepares every training graph not
        prepared yet; :meth:`predict` never calls it. Note this returns
        the *whole* block — ``max_block_graphs`` bounds each internal
        engine call here, but the end-to-end memory bound lives in
        :meth:`predict`.
        """
        columns = np.arange(len(self.bundle.training_graphs))
        rows = self._cross_rows(list(graphs), columns)
        return self.bundle.conditioner.transform_cross(rows)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _cross_rows(self, graphs: "list[Graph]", columns: np.ndarray) -> np.ndarray:
        """Raw ``K(graphs, training[columns])``, cosine-normalised when the
        bundle is — the one cross-block routine of :meth:`predict` and
        :meth:`conditioned_rows`. A pair's value does not depend on the
        other pairs of the block, so a column here is the same bytes
        whichever columns share the call."""
        bundle = self.bundle
        kernel = bundle.kernel
        if not graphs or not len(columns):
            # Nothing to evaluate: no states, no engine call.
            return np.zeros((len(graphs), len(columns)))
        step = self.max_block_graphs or len(graphs)
        new_states = None
        if isinstance(kernel, PairwiseKernel):
            # Amortised pairwise path: training states are prepared once
            # per service, so a batch pays O(ΔN) preparation plus exactly
            # the ΔN × len(columns) cross pair values through the engine.
            # With max_block_graphs, the rectangle streams in bounded row
            # chunks — each engine call sees at most step × len(columns).
            train_states = self._training_states(columns)
            new_states = kernel.prepare(graphs)
            engine = self.ctx.resolved_engine()
            chunks = [
                engine.cross_gram(
                    kernel, new_states[start : start + step], train_states
                )
                for start in range(0, len(new_states), step)
            ]
        else:
            # Feature-map kernels re-extract features over the batch and
            # the selected training graphs each call: vocabularies are
            # per-call, so rows from separate feature_matrix calls cannot
            # be dotted. Extraction is linear in the graph count (no
            # quadratic pair stage), so the cross rectangle still
            # dominates; a vocabulary-stable feature cache would shave that
            # term if feature-map serving ever becomes the hot path.
            cross_ctx = self.ctx.replace(store=None, sink_factory=None)
            train_graphs = [bundle.training_graphs[i] for i in columns]
            chunks = [
                kernel.cross_gram(
                    graphs[start : start + step], train_graphs, ctx=cross_ctx
                )
                for start in range(0, len(graphs), step)
            ]
        rows = np.vstack([np.asarray(chunk, dtype=float) for chunk in chunks])
        if bundle.normalize:
            rows = self._cosine_normalized(rows, graphs, new_states, columns)
        return rows

    def _training_states(self, columns) -> list:
        """Prepared states of the training graphs at ``columns``, each
        computed once per service, on first use."""
        states = self._train_states
        if any(i not in states for i in columns):
            with self._prepare_lock:
                missing = [int(i) for i in columns if i not in states]
                if missing:
                    graphs = self.bundle.training_graphs
                    prepared = self.bundle.kernel.prepare(
                        [graphs[i] for i in missing]
                    )
                    states.update(zip(missing, prepared))
        return [states[i] for i in columns]

    def _cosine_normalized(
        self, rows: np.ndarray, graphs: "list[Graph]", states=None,
        columns=slice(None),
    ) -> np.ndarray:
        """``K(t, i) / sqrt(K_tt K_ii)`` with the **stored training**
        diagonal for the columns (``columns`` selects them; all by
        default) — the same :func:`~repro.kernels.base.cosine_scale`
        policy ``normalize_gram`` applied to the training Gram, so serving
        rows land in exactly the cosine geometry the SVM was trained in.
        Newcomer self-similarities cost ΔN extra pair values (``states``:
        see :meth:`_self_similarities`)."""
        row_scale = cosine_scale(self._self_similarities(graphs, states))
        col_scale = cosine_scale(self.bundle.train_diagonal[columns])
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
