"""repro.Session — the documented front door of the library.

A :class:`Session` binds one :class:`~repro.api.context.ExecutionContext`
(engine, store, sinks, tile/checkpoint/normalisation policy) and exposes
the whole pipeline — Gram computation, the paper's CV protocol, bundle
training and inductive serving — as four verbs taking declarative
:class:`~repro.kernels.registry.KernelSpec` inputs::

    import repro

    session = repro.Session(repro.ExecutionContext.from_env())
    spec = repro.KernelSpec("HAQJSK(D)", n_prototypes=32)

    gram = session.gram(spec, dataset.graphs)
    result = session.cross_validate(spec, dataset)
    bundle = session.train(spec, dataset, name="production")
    labels = session.predict("production", newcomer_graphs).labels

Everything a Session does is also reachable through the layer APIs it
delegates to (``kernel.gram(ctx=...)``, ``cross_validate_graph_kernel``,
``train_bundle``, ``PredictionService``) — the facade adds no semantics,
so Session results are bit-identical to the explicit calls. The serve
CLI and the experiment runners are thin Session clients.
"""

from __future__ import annotations

import numpy as np

from repro.api.context import ExecutionContext
from repro.errors import ServingError, ValidationError
from repro.kernels.registry import KernelSpec, as_spec


def _graphs_and_labels(dataset, labels):
    """Accept a GraphDataset-like object or an explicit (graphs, labels)."""
    if labels is None:
        graphs = getattr(dataset, "graphs", None)
        targets = getattr(dataset, "targets", None)
        if graphs is None or targets is None:
            raise ValidationError(
                "pass a dataset object with .graphs/.targets, or graphs "
                "and labels explicitly"
            )
        return list(graphs), np.asarray(targets)
    return list(dataset), np.asarray(labels)


class Session:
    """One configured entry point over the full kernel pipeline.

    Parameters
    ----------
    ctx:
        The execution context every operation runs under; ``None`` reads
        the ``REPRO_*`` environment (:meth:`ExecutionContext.from_env`).
        The context is validated once, up front, so inconsistent knob
        combinations fail at construction, not mid-pipeline.
    """

    def __init__(self, ctx: "ExecutionContext | None" = None) -> None:
        if ctx is None:
            ctx = ExecutionContext.from_env()
        if not isinstance(ctx, ExecutionContext):
            raise ValidationError(
                f"Session needs an ExecutionContext, got {type(ctx).__name__}"
            )
        self.ctx = ctx.validate()
        self._services: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(ctx={self.ctx!r})"

    # ------------------------------------------------------------------ #
    # Kernel construction
    # ------------------------------------------------------------------ #

    def kernel(self, spec_or_name, **params):
        """Build the kernel a spec (or registered name) describes."""
        return as_spec(spec_or_name, **params).make()

    # ------------------------------------------------------------------ #
    # Gram matrices
    # ------------------------------------------------------------------ #

    def gram(
        self,
        spec_or_name,
        graphs,
        *,
        normalize: "bool | None" = None,
        ensure_psd: "bool | None" = None,
    ) -> np.ndarray:
        """The Gram matrix of the specified kernel over ``graphs``.

        Store-backed when the context carries a store (content-addressed
        fetch, tile-checkpointed miss); out-of-core when it carries a
        sink factory. ``normalize`` / ``ensure_psd`` default to the
        context policy, else to the raw-Gram historical defaults. Pure
        delegation — ``kernel.gram(ctx=...)`` owns the whole dispatch.
        """
        return self.kernel(spec_or_name).gram(
            list(graphs),
            normalize=normalize,
            ensure_psd=ensure_psd,
            ctx=self.ctx,
        )

    def cross_gram(self, spec_or_name, graphs_a, graphs_b) -> np.ndarray:
        """Rectangular Gram between two graph lists."""
        return self.kernel(spec_or_name).cross_gram(
            list(graphs_a), list(graphs_b), ctx=self.ctx
        )

    # ------------------------------------------------------------------ #
    # Evaluation protocol
    # ------------------------------------------------------------------ #

    def cross_validate(
        self,
        spec_or_name,
        dataset,
        labels=None,
        *,
        normalize: "bool | None" = None,
        ensure_psd: "bool | None" = None,
        condition: bool = True,
        **cv_kwargs,
    ):
        """The paper's repeated stratified 10-fold protocol.

        ``dataset`` is a GraphDataset-like object (``.graphs`` /
        ``.targets``) or a graph list with explicit ``labels``;
        remaining keywords (``n_folds``, ``n_repeats``, ``seed``, ...)
        reach :func:`~repro.ml.cross_validation.cross_validate_kernel`.
        """
        from repro.ml.cross_validation import cross_validate_graph_kernel

        graphs, y = _graphs_and_labels(dataset, labels)
        # Tri-state flags pass through untouched: the wrapper resolves
        # them against this same context (one resolution site).
        return cross_validate_graph_kernel(
            self.kernel(spec_or_name),
            graphs,
            y,
            ctx=self.ctx,
            normalize=normalize,
            ensure_psd=ensure_psd,
            condition=condition,
            **cv_kwargs,
        )

    # ------------------------------------------------------------------ #
    # Train / predict
    # ------------------------------------------------------------------ #

    def train(
        self,
        spec_or_name,
        dataset,
        labels=None,
        *,
        name: "str | None" = None,
        c: "float | None" = None,
        normalize: "bool | None" = None,
        condition: bool = True,
        seed: "int | None" = 0,
        metadata: "dict | None" = None,
    ):
        """Fit the serving pipeline; returns the :class:`ModelBundle`.

        Collection-level kernels with a serving mode (the HAQJSK family)
        are frozen on the training collection first — the same protocol
        the serve CLI always applied. With a ``name`` (requires a store
        on the context) the bundle is persisted and immediately
        addressable by :meth:`predict`. The bundle records the resolved
        :class:`KernelSpec` and the context, so a later process can
        reconstruct what was trained.
        """
        from repro.serve.bundle import train_bundle

        ctx = self.ctx
        if name is not None and ctx.store is None:
            # Fail before the (possibly hours-long) training run, not
            # after it — the check depends only on the arguments.
            raise ValidationError(
                "Session.train(name=...) persists the bundle, which "
                "needs a store on the ExecutionContext"
            )
        graphs, y = _graphs_and_labels(dataset, labels)
        spec = as_spec(spec_or_name)
        kernel = spec.make()
        if not kernel.collection_independent and hasattr(kernel, "freeze"):
            kernel.freeze(graphs)
        bundle = train_bundle(
            kernel,
            graphs,
            y,
            c=c,
            normalize=ctx.policy(normalize, "normalize", False),
            condition=condition,
            seed=seed,
            metadata=metadata,
            ctx=ctx,
            spec=spec,
        )
        if name is not None:
            bundle.save(ctx.store, name)
            # Retraining under a name supersedes any service this session
            # already built for it — drop the cache so the next predict
            # serves the new model, not the stale one.
            self._services = {
                key: service
                for key, service in self._services.items()
                if key[0] != name
            }
        return bundle

    def predict(
        self,
        bundle_ref,
        graphs,
        *,
        max_block_graphs: "int | None" = None,
    ):
        """Classify newcomer graphs against a bundle (object or name).

        A string ``bundle_ref`` is loaded (and verified) from the
        context's store; the wrapped
        :class:`~repro.serve.service.PredictionService` is cached per
        reference, so repeated serving calls amortise the training-state
        preparation.
        """
        service = self._service(bundle_ref, max_block_graphs)
        return service.predict(list(graphs))

    def service(
        self,
        bundle_ref,
        *,
        max_block_graphs: "int | None" = None,
    ):
        """The (cached) :class:`PredictionService` for ``bundle_ref``."""
        return self._service(bundle_ref, max_block_graphs)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _service(self, bundle_ref, max_block_graphs):
        from repro.serve.bundle import ModelBundle
        from repro.serve.service import PredictionService

        cache_key = (
            bundle_ref if isinstance(bundle_ref, str) else id(bundle_ref),
            max_block_graphs,
        )
        cached = self._services.get(cache_key)
        if cached is not None:
            return cached
        if isinstance(bundle_ref, str):
            if self.ctx.store is None:
                raise ServingError(
                    f"loading bundle {bundle_ref!r} by name needs a store "
                    "on the ExecutionContext"
                )
            bundle = ModelBundle.load(self.ctx.store, bundle_ref, verify=False)
        elif isinstance(bundle_ref, ModelBundle):
            bundle = bundle_ref
        else:
            raise ValidationError(
                f"bundle_ref must be a ModelBundle or a stored bundle "
                f"name, got {type(bundle_ref).__name__}"
            )
        service = PredictionService(
            bundle,
            max_block_graphs=max_block_graphs,
            ctx=self.ctx,
        )
        self._services[cache_key] = service
        return service
