"""Model bundles — the persisted train→serve contract.

A :class:`ModelBundle` is everything a fresh process needs to classify
newcomer graphs exactly as an in-process fit would have: the serving-ready
kernel (collection-independent — feature maps, the QJSD family, or a
frozen-prototype HAQJSK whose :class:`~repro.kernels.haqjsk.HierarchicalAligner`
state rides along inside the pickled kernel), the training graphs the
cross block is evaluated against, the fitted
:class:`~repro.ml.kernel_utils.GramConditioner` (training-fold centering
and scale statistics — the inductive conditioning contract), the
:class:`~repro.ml.multiclass.KernelSVC` duals, and the label mapping.

Integrity is content-addressed, matching the artifact store's philosophy:
the bundle records the kernel configuration fingerprint and the training
collection's digest at train time, and :meth:`ModelBundle.verify`
recomputes both on load — a bundle whose kernel or graphs were tampered
with (or whose pickle predates a config change) refuses to serve rather
than silently predicting from inconsistent state.

Persistence goes through the existing :class:`~repro.store.ArtifactStore`
(atomic temp-file + rename writes), under a key derived from the caller's
bundle name, so ``train`` in one process and ``predict`` in another meet
at the store directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import KernelError, ServingError, ValidationError
from repro.graphs.hashing import collection_digest, graph_digest
from repro.kernels.base import GraphKernel, normalize_gram
from repro.ml.cross_validation import DEFAULT_C_GRID, select_c
from repro.ml.kernel_utils import GramConditioner
from repro.ml.multiclass import KernelSVC

#: Artifact-store kind under which bundles are persisted.
BUNDLE_KIND = "bundle"


def bundle_key(name: str) -> str:
    """The artifact-store key of the named bundle."""
    from repro.store import artifact_key

    if not name or not str(name).strip():
        raise ValidationError("bundle name must be a non-empty string")
    return artifact_key("model-bundle", str(name))


@dataclass
class ModelBundle:
    """A self-contained, picklable prediction model.

    Attributes
    ----------
    kernel:
        The serving kernel; must be collection-independent (for HAQJSK:
        frozen — the frozen aligner state is part of the pickle).
    training_graphs / training_labels:
        The collection the SVM was trained on; serving evaluates the
        ``(ΔN, |S|)`` cross block against the support graphs among them
        (:attr:`support`).
    conditioner:
        Fitted :class:`GramConditioner` holding the *training* centering
        and scale statistics applied to every serving cross block.
    model:
        Fitted one-vs-one :class:`KernelSVC` (duals + label mapping in
        ``classes_``).
    kernel_fingerprint / training_digest / graph_digests:
        Content identities captured at train time; :meth:`verify`
        recomputes them on load.
    normalize:
        Whether the training Gram was cosine-normalised; serving then
        normalises cross rows with the stored ``train_diagonal`` plus
        ΔN newcomer self-similarities.
    train_diagonal:
        Raw training self-similarities ``K(i, i)`` (pre-normalisation).
    c / train_accuracy / metadata:
        The chosen box constraint, training-set accuracy, and free-form
        run context (CLI arguments, dataset name, ...).
    """

    kernel: GraphKernel
    training_graphs: list
    training_labels: np.ndarray
    conditioner: GramConditioner
    model: KernelSVC
    kernel_fingerprint: str
    training_digest: str
    graph_digests: tuple
    normalize: bool
    train_diagonal: np.ndarray
    c: float
    train_accuracy: float
    metadata: dict = field(default_factory=dict)
    #: Serialized, resolved :class:`~repro.kernels.KernelSpec` record
    #: (``{"name": ..., "params": {...}}``) when the bundle was trained
    #: declaratively (Session / CLI); ``None`` for hand-built kernels.
    kernel_spec: "dict | None" = None
    #: :meth:`ExecutionContext.to_record` of the training context —
    #: round-trippable via :meth:`ExecutionContext.from_record`.
    context_record: "dict | None" = None

    @property
    def classes(self) -> np.ndarray:
        """The label mapping the OvO machines vote over."""
        return self.model.classes_

    @property
    def n_training_graphs(self) -> int:
        return len(self.training_graphs)

    @property
    def support(self) -> np.ndarray:
        """``S``: the sorted training indices with a non-zero dual
        coefficient in at least one one-vs-one machine — the only training
        graphs a decision function reads."""
        # (class_a, class_b, training indices, BinarySVM) per OvO machine.
        return np.unique(np.concatenate([
            indices[np.flatnonzero(machine.dual_coef_)]
            for _, _, indices, machine in self.model._machines
        ]))

    def verify(self) -> "ModelBundle":
        """Recompute content identities; raise :class:`ServingError` on
        any mismatch between the bundle's state and its recorded digests."""
        fingerprint = self.kernel.fingerprint()
        if fingerprint != self.kernel_fingerprint:
            raise ServingError(
                "bundle kernel fingerprint mismatch: the unpickled kernel "
                f"fingerprints as {fingerprint[:12]}…, the bundle recorded "
                f"{self.kernel_fingerprint[:12]}… — the kernel config or "
                "fingerprint scheme changed since training"
            )
        digest = collection_digest(self.training_graphs)
        if digest != self.training_digest:
            # Per-graph digests localise the damage for the error report.
            current = [graph_digest(g) for g in self.training_graphs]
            changed = [
                i
                for i, (new, old) in enumerate(zip(current, self.graph_digests))
                if new != old
            ]
            detail = (
                f"graphs at indices {changed[:10]} changed"
                if changed and len(current) == len(self.graph_digests)
                else f"graph count changed ({len(current)} vs "
                f"{len(self.graph_digests)} at train time)"
            )
            raise ServingError(
                "bundle training-collection digest mismatch — the stored "
                f"graphs do not match the collection the SVM was trained on "
                f"({detail})"
            )
        if not self.kernel.collection_independent:
            raise ServingError(
                f"{self.kernel.name}: bundle kernel is no longer "
                "collection-independent (did the aligner get unfrozen?)"
            )
        return self

    def info(self) -> dict:
        """Human-readable summary (the CLI ``info`` subcommand)."""
        return {
            "kernel": self.kernel.name,
            "kernel_fingerprint": self.kernel_fingerprint,
            "training_digest": self.training_digest,
            "n_training_graphs": self.n_training_graphs,
            # |S|: the training graphs a served prediction is paired with.
            "support_graphs": int(self.support.size),
            "classes": [c.item() if hasattr(c, "item") else c for c in self.classes],
            "normalize": self.normalize,
            "conditioner_center": self.conditioner.center,
            "conditioner_scale": self.conditioner.scale,
            "conditioner_scale_value": self.conditioner.scale_,
            "c": self.c,
            "train_accuracy": self.train_accuracy,
            "kernel_spec": getattr(self, "kernel_spec", None),
            "context": getattr(self, "context_record", None),
            "metadata": dict(self.metadata),
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, store, name: str) -> str:
        """Persist under ``name`` via the store's atomic object writer;
        returns the on-disk path."""
        return store.put_object(BUNDLE_KIND, bundle_key(name), self)

    @classmethod
    def load(cls, store, name: str, *, verify: bool = True) -> "ModelBundle":
        """Load (and by default :meth:`verify`) the named bundle.

        Raises :class:`ServingError` when the name is unknown in this
        store — a missing artifact is an operator error at serving time,
        not a cache miss to silently recompute. ``verify=False`` skips
        the digest recomputation for callers that verify themselves
        immediately afterwards (``PredictionService.from_store`` — the
        digest walk over N training graphs should run once, not twice).
        """
        bundle = store.get_object(BUNDLE_KIND, bundle_key(name))
        if bundle is None:
            raise ServingError(
                f"no bundle named {name!r} in store {store.address!r} — "
                "train one first (python -m repro.serve train)"
            )
        if not isinstance(bundle, cls):
            raise ServingError(
                f"artifact under bundle name {name!r} is a "
                f"{type(bundle).__name__}, not a ModelBundle"
            )
        return bundle.verify() if verify else bundle


def train_bundle(
    kernel: GraphKernel,
    graphs,
    labels,
    *,
    c: "float | None" = None,
    c_grid=DEFAULT_C_GRID,
    normalize: bool = False,
    condition: bool = True,
    ctx=None,
    seed: "int | None" = 0,
    metadata: "dict | None" = None,
    spec=None,
) -> ModelBundle:
    """Fit the full serving pipeline on a training collection.

    Pipeline: raw Gram (store-backed when ``ctx.store`` is set, so
    retraining over the same collection is a disk read, tile-checkpointed
    on a miss when ``ctx.tile_checkpoint`` is on) → optional cosine
    normalisation → :class:`GramConditioner` ``fit_transform`` (training
    statistics frozen into the bundle) → ``C`` selection by inner CV when
    ``c`` is ``None`` → one-vs-one :class:`KernelSVC` fit.

    The kernel must be collection-independent — the serving cross block is
    only meaningful when newcomer pair values cannot perturb the training
    rows. HAQJSK callers freeze first (``kernel.freeze(graphs)``); other
    collection-level kernels are refused with the same named error as
    :meth:`~repro.kernels.base.GraphKernel.gram_extend`.

    ``condition=False`` keeps the conditioner as a fitted no-op, so the
    serving path stays uniform.

    ``ctx`` (an :class:`~repro.api.ExecutionContext`) selects the engine
    and store, and is recorded on the bundle
    (``context_record``) together with the resolved ``spec``
    (a :class:`~repro.kernels.KernelSpec`, when the kernel was built
    declaratively), so a later process can reconstruct what was trained
    (the record names the engine backend; it does not capture
    instance-level tuning such as worker counts — see
    :meth:`~repro.api.ExecutionContext.to_record`).
    """
    from repro.api.context import as_context

    ctx = as_context(ctx, owner="train_bundle")
    graphs = list(graphs)
    y = np.asarray(labels)
    if y.ndim != 1 or y.size != len(graphs):
        raise ValidationError(
            f"labels {y.shape} incompatible with {len(graphs)} graphs"
        )
    if not kernel.collection_independent:
        hint = getattr(kernel, "_extension_hint", "")
        raise KernelError(
            f"{kernel.name}: cannot build a serving bundle — this kernel's "
            f"values depend on the whole collection, so newcomer rows would "
            f"disagree with the training Gram." + (f" {hint}" if hint else "")
        )
    if not hasattr(kernel, "cross_gram"):
        raise KernelError(
            f"{kernel.name}: serving needs a cross_gram path "
            f"(pairwise or feature-map kernel)"
        )
    spec_record = None
    if spec is not None:
        from repro.kernels.registry import as_spec

        spec_record = as_spec(spec).resolved().to_dict()
    raw = kernel.gram(graphs, normalize=False, ensure_psd=False, ctx=ctx)
    train_diagonal = np.array(np.diag(raw), dtype=float)
    gram = normalize_gram(raw) if normalize else np.asarray(raw, dtype=float)
    conditioner = GramConditioner(center=condition, scale=condition)
    conditioned = conditioner.fit_transform(gram)
    if c is None:
        c = select_c(conditioned, y, np.arange(y.size), c_grid=c_grid, seed=seed)
    model = KernelSVC(c=float(c)).fit(conditioned, y)
    train_accuracy = model.score(conditioned, y)
    return ModelBundle(
        kernel=kernel,
        training_graphs=graphs,
        training_labels=y,
        conditioner=conditioner,
        model=model,
        kernel_fingerprint=kernel.fingerprint(),
        training_digest=collection_digest(graphs),
        graph_digests=tuple(graph_digest(g) for g in graphs),
        normalize=bool(normalize),
        train_diagonal=train_diagonal,
        c=float(c),
        train_accuracy=float(train_accuracy),
        metadata=dict(metadata or {}),
        kernel_spec=spec_record,
        context_record=ctx.to_record(),
    )
