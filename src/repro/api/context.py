"""ExecutionContext — the one per-call selector of execution policy.

:class:`ExecutionContext` bundles every execution knob (engine, tile
size, sink factory, store, tile checkpointing, normalisation policy and
the compute policy) into a single frozen value threaded as one ``ctx=``
parameter through ``gram`` / ``cross_gram`` / ``gram_extend``,
``cross_validate_graph_kernel``, ``NystromApproximation``,
``GramConditioner``, ``train_bundle`` / ``PredictionService`` and the
experiment runners:

    ctx = ExecutionContext(engine="process", store=ArtifactStore("arts"))
    kernel.gram(graphs, ctx=ctx)
    cross_validate_graph_kernel(kernel, graphs, labels, ctx=ctx)

``ctx=None`` means ``ExecutionContext()``. The Gram engine resolves
``ctx.engine`` → ``REPRO_GRAM_ENGINE`` → ``"batched"``; the ``REPRO_*``
environment is the process-wide default, never a per-call override.

Cross-knob consistency rules live in :meth:`ExecutionContext.validate`,
so an invalid combination (``ensure_psd`` against an out-of-core sink,
``store`` together with an explicit ``sink_factory``) is refused by one
named :class:`~repro.errors.ValidationError` naming the offending fields
— at whichever entry point it reaches first.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, replace

from repro.backend import ENTROPY_ENV_VAR, PRECISION_ENV_VAR, ComputePolicy
from repro.engine.base import (
    ENGINE_ENV_VAR,
    GramEngine,
    resolve_engine,
)
from repro.engine.tiles import TILE_ENV_VAR, DenseSink, GramSink
from repro.errors import ValidationError

#: Environment variable pointing the harness at a persistent store
#: (shared definition with ``repro.experiments.config``).
STORE_ENV_VAR = "REPRO_STORE"


def _engine_name(engine) -> "str | None":
    if engine is None:
        return None
    if isinstance(engine, GramEngine):
        return engine.name
    return str(engine)


@dataclass(frozen=True)
class ExecutionContext:
    """Frozen bundle of execution policy for Gram-matrix pipelines.

    Fields
    ------
    engine:
        Gram backend — a name (``"serial"`` / ``"batched"`` /
        ``"process"``), a configured :class:`GramEngine` instance, or
        ``None`` for the process-wide default (``REPRO_GRAM_ENGINE``,
        else ``"batched"``).
    tile_size:
        Explicit tile-plan edge, overriding the backend default and the
        ``REPRO_GRAM_TILE`` environment variable.
    store:
        An :class:`~repro.store.ArtifactStore`, a store *address* string
        (``dir:/path``, a bare directory path, or ``mem:name`` — see
        :func:`repro.store.backend_for`; strings are coerced to a store
        at construction), or ``None``: completed Grams are
        fetched/persisted by content key, and miss computations
        tile-checkpoint when ``tile_checkpoint`` is on.
    sink_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.engine.tiles.GramSink` per matrix (sinks are
        single-use); ``None`` means a fresh in-memory
        :class:`~repro.engine.tiles.DenseSink`. Mutually exclusive with
        ``store``.
    tile_checkpoint:
        Whether store-backed miss computations commit finished tiles
        (kill → resume at tile granularity). Ignored without a store.
    normalize / ensure_psd:
        Tri-state policy defaults: ``None`` keeps each entry point's
        historical default (``gram`` raw, the CV protocol normalised),
        ``True``/``False`` pins the policy for every call through this
        context unless the call site overrides it explicitly.
    precision / entropy:
        Compute-policy knobs (see :class:`repro.backend.ComputePolicy`):
        the compute precision (``"float64"`` / ``"float32"``) and the
        entropy path (``"eig"`` / ``"chebyshev"`` / ``"auto"``). ``None``
        falls back to the ``REPRO_PRECISION`` / ``REPRO_ENTROPY``
        environment, else the bit-stable float64/eig reference. Field
        values are validated at construction.
    """

    engine: "GramEngine | str | None" = None
    tile_size: "int | None" = None
    store: object = None
    sink_factory: object = None
    tile_checkpoint: bool = True
    normalize: "bool | None" = None
    ensure_psd: "bool | None" = None
    precision: "str | None" = None
    entropy: "str | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.store, str):
            # Address form: "dir:/path", a bare directory, or "mem:name".
            # Coerced here so every consumer downstream sees one type,
            # and a bad address fails at construction with the backend's
            # named error instead of deep inside a Gram call.
            from repro.store import ArtifactStore

            object.__setattr__(self, "store", ArtifactStore(self.store))
        if self.tile_size is not None and int(self.tile_size) < 1:
            raise ValidationError(
                f"ExecutionContext.tile_size must be >= 1, got {self.tile_size}"
            )
        if self.sink_factory is not None and not callable(self.sink_factory):
            raise ValidationError(
                "ExecutionContext.sink_factory must be a zero-argument "
                f"callable producing a GramSink, got "
                f"{type(self.sink_factory).__name__} (a sink instance is "
                "single-use — wrap it: sink_factory=lambda: sink)"
            )
        # A typo'd precision/entropy raises a named BackendError.
        if self.has_compute_fields():
            ComputePolicy(
                precision=self.precision or "float64",
                entropy=self.entropy or "eig",
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_env(cls, **overrides) -> "ExecutionContext":
        """The context the ``REPRO_*`` environment describes.

        Reads ``REPRO_GRAM_ENGINE`` (backend name), ``REPRO_GRAM_TILE``
        (tile size) and ``REPRO_STORE`` (a store address: ``dir:/path``,
        a bare directory — created if missing, with a named
        :class:`~repro.errors.ValidationError` citing the path when that
        fails — or ``mem:name``); keyword ``overrides`` replace any
        field afterwards. This is how the experiment runners and the
        serve CLI build their default context, so one environment drives
        every entry point.
        """
        values: dict = {}
        engine = os.environ.get(ENGINE_ENV_VAR, "").strip()
        if engine:
            values["engine"] = engine
        tile = os.environ.get(TILE_ENV_VAR, "").strip()
        if tile:
            try:
                values["tile_size"] = int(tile)
            except ValueError:
                raise ValidationError(
                    f"{TILE_ENV_VAR} must be an integer, got {tile!r}"
                ) from None
        root = os.environ.get(STORE_ENV_VAR, "").strip()
        if root:
            from repro.store import ArtifactStore

            values["store"] = ArtifactStore(root)
        for env_var, field in (
            (PRECISION_ENV_VAR, "precision"),
            (ENTROPY_ENV_VAR, "entropy"),
        ):
            raw = os.environ.get(env_var, "").strip()
            if raw:
                values[field] = raw
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "ExecutionContext":
        """A copy with ``changes`` applied (contexts are immutable)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Validation — the one home of cross-knob consistency rules
    # ------------------------------------------------------------------ #

    def validate(
        self, *, ensure_psd: "bool | None" = None, sink: "GramSink | None" = None
    ) -> "ExecutionContext":
        """Refuse inconsistent knob combinations with one named error.

        ``ensure_psd`` / ``sink`` are the call-site effective values when
        an entry point has already bound them; without arguments the
        context's own fields are checked (the pre-flight form
        ``Session`` runs at construction).
        """
        if self.store is not None and self.sink_factory is not None:
            raise ValidationError(
                "ExecutionContext: pass either store= (content-addressed "
                "persistence) or sink_factory= (explicit tile destination), "
                "not both (offending fields: store, sink_factory)"
            )
        effective_psd = self.ensure_psd if ensure_psd is None else ensure_psd
        out_of_core = sink is not None and not getattr(sink, "in_memory", True)
        if effective_psd and out_of_core:
            raise ValidationError(
                "ExecutionContext: ensure_psd=True needs a global "
                "eigendecomposition, which would densify the out-of-core "
                "Gram; use an in-memory sink or project the matrix "
                "explicitly (offending fields: ensure_psd, sink)"
            )
        return self

    # ------------------------------------------------------------------ #
    # Resolution helpers the entry points consume
    # ------------------------------------------------------------------ #

    def has_compute_fields(self) -> bool:
        """Whether any compute-policy knob is explicitly set."""
        return self.precision is not None or self.entropy is not None

    def compute_policy(self) -> ComputePolicy:
        """The :class:`~repro.backend.ComputePolicy` this context selects.

        Explicit fields win; unset fields fall back to the ``REPRO_*``
        environment (then the reference defaults), so a context created
        with no compute knobs still reports the policy that actually ran.
        """
        overrides = {
            field: value
            for field, value in (
                ("precision", self.precision),
                ("entropy", self.entropy),
            )
            if value is not None
        }
        return ComputePolicy.from_env(**overrides)

    def engine_argument(self) -> "GramEngine | str | None":
        """The ``engine`` value to hand the Gram machinery.

        Without a ``tile_size`` or compute-policy field this is just the
        ``engine`` field — ``None`` leaves the choice to
        :func:`~repro.engine.resolve_engine` (``REPRO_GRAM_ENGINE``, else
        ``"batched"``). Otherwise the engine is materialised and cloned
        with the context's tile size and compute policy, so both
        overrides survive however deep the engine travels (the engine
        installs the policy around its tile stream with
        :func:`repro.backend.policy_scope`).
        """
        engine = self.engine
        if self.tile_size is None and not self.has_compute_fields():
            return engine
        resolved = resolve_engine(engine)
        if isinstance(engine, GramEngine):
            resolved = copy.copy(resolved)
        if self.tile_size is not None:
            resolved.tile_size = int(self.tile_size)
        if self.has_compute_fields():
            resolved.policy = self.compute_policy()
        return resolved

    def make_sink(self) -> GramSink:
        """A fresh sink from the factory, or a fresh in-memory
        :class:`~repro.engine.tiles.DenseSink` — every Gram streams its
        tiles into a sink."""
        if self.sink_factory is None:
            return DenseSink()
        sink = self.sink_factory()
        if not isinstance(sink, GramSink):
            raise ValidationError(
                f"ExecutionContext.sink_factory produced "
                f"{type(sink).__name__}, expected a GramSink"
            )
        return sink

    def policy(self, value: "bool | None", name: str, default: bool) -> bool:
        """Resolve a tri-state call-site flag against this context.

        Precedence: explicit call-site value > context policy field >
        the entry point's historical ``default``.
        """
        if value is not None:
            return bool(value)
        policy = getattr(self, name)
        return default if policy is None else bool(policy)

    # ------------------------------------------------------------------ #
    # Serialisation — the round-trippable record reports/bundles persist
    # ------------------------------------------------------------------ #

    def to_record(self) -> dict:
        """JSON-able description of this context.

        Engine *instances* are recorded by backend name only — the
        context's own ``tile_size`` field round-trips, but
        instance-level tuning (a ``ProcessEngine``'s worker count, a
        tile size set on the instance rather than the context) does not;
        scheduling never changes values, so the record identifies the
        execution policy, not the exact scheduler object.
        ``sink_factory`` is code, not data — it is recorded by class
        name only, and :meth:`from_record` refuses records carrying one
        (rebuild the factory at the call site instead).
        ``precision`` / ``entropy`` are recorded *resolved* (explicit
        field, else environment, else reference default): the record
        describes the compute policy that actually ran, and resolution is
        a fixed point so records round-trip.
        """
        sink_name = None
        if self.sink_factory is not None:
            probe = getattr(self.sink_factory, "__name__", None)
            sink_name = probe or type(self.sink_factory).__name__
        policy = self.compute_policy()
        return {
            "engine": _engine_name(self.engine),
            "tile_size": self.tile_size,
            "store": getattr(
                self.store, "address", getattr(self.store, "root", None)
            ),
            "sink": sink_name,
            "tile_checkpoint": bool(self.tile_checkpoint),
            "normalize": self.normalize,
            "ensure_psd": self.ensure_psd,
            "precision": policy.precision,
            "entropy": policy.entropy,
        }

    @classmethod
    def from_record(cls, record: dict) -> "ExecutionContext":
        """Rebuild a context from :meth:`to_record` output.

        Records written while contexts still had an array-backend field
        (bundles, report footers) carry ``"backend": "numpy"``. Numpy is
        what runs now, so that value is accepted and dropped; any other
        backend is refused.
        """
        if not isinstance(record, dict):
            raise ValidationError(
                f"an ExecutionContext record must be a dict, got "
                f"{type(record).__name__}"
            )
        known = {
            "engine", "tile_size", "store", "sink",
            "tile_checkpoint", "normalize", "ensure_psd",
            "backend", "precision", "entropy",
        }
        extras = set(record) - known
        if extras:
            raise ValidationError(
                f"unexpected ExecutionContext record keys {sorted(extras)}"
            )
        backend = record.get("backend", "numpy")
        if backend != "numpy":
            raise ValidationError(
                f"ExecutionContext record field 'backend' is {backend!r}: "
                "computation runs on numpy only, so records naming another "
                "array backend cannot be rebuilt"
            )
        if record.get("sink") is not None:
            raise ValidationError(
                "ExecutionContext records cannot carry a sink factory "
                f"({record['sink']!r}) — sinks are code; rebuild the "
                "factory at the call site"
            )
        store = record.get("store")
        if store is not None:
            from repro.store import ArtifactStore

            store = ArtifactStore(store)
        return cls(
            engine=record.get("engine"),
            tile_size=record.get("tile_size"),
            store=store,
            tile_checkpoint=bool(record.get("tile_checkpoint", True)),
            normalize=record.get("normalize"),
            ensure_psd=record.get("ensure_psd"),
            precision=record.get("precision"),
            entropy=record.get("entropy"),
        )


def as_context(ctx: "ExecutionContext | None", *, owner: str) -> ExecutionContext:
    """The context an entry point runs under: ``ctx`` itself, or
    ``ExecutionContext()`` for ``None``. Anything else is refused with a
    :class:`~repro.errors.ValidationError` naming ``owner``."""
    if ctx is None:
        return ExecutionContext()
    if not isinstance(ctx, ExecutionContext):
        raise ValidationError(
            f"{owner}: ctx must be an ExecutionContext, got {type(ctx).__name__}"
        )
    return ctx
