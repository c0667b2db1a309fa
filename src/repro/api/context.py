"""ExecutionContext — the one selector of execution policy.

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

A context means exactly its fields. ``ctx=None`` means
``ExecutionContext()``, and an unset field is the library default: the
``batched`` engine at its own tile size, the float64/eig reference
policy, no store. :meth:`ExecutionContext.resolved_engine` turns a
context into the engine every Gram under it runs on.

The ``REPRO_*`` environment enters in one place,
:meth:`ExecutionContext.from_env`: ``Session()``, the CLIs and the HTTP
server build their context there, and nothing beneath a context reads
the environment.

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

from repro.backend import ComputePolicy
from repro.engine.base import GramEngine, resolve_engine
from repro.engine.tiles import DenseSink, GramSink
from repro.errors import ValidationError

#: The environment :meth:`ExecutionContext.from_env` reads, one variable
#: per field: backend name, tile size, store address, compute precision
#: and entropy path.
ENGINE_ENV_VAR = "REPRO_GRAM_ENGINE"
TILE_ENV_VAR = "REPRO_GRAM_TILE"
STORE_ENV_VAR = "REPRO_STORE"
PRECISION_ENV_VAR = "REPRO_PRECISION"
ENTROPY_ENV_VAR = "REPRO_ENTROPY"

_ENV_FIELDS = (
    ("engine", ENGINE_ENV_VAR),
    ("tile_size", TILE_ENV_VAR),
    ("store", STORE_ENV_VAR),
    ("precision", PRECISION_ENV_VAR),
    ("entropy", ENTROPY_ENV_VAR),
)


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
        ``None`` for ``"batched"``.
    tile_size:
        Explicit tile-plan edge, overriding the engine's own.
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
        is the bit-stable float64/eig reference. Field values are
        validated at construction.
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
        self.compute_policy()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_env(cls, **overrides) -> "ExecutionContext":
        """The context the ``REPRO_*`` environment describes.

        The one place the library reads its execution environment:
        ``REPRO_GRAM_ENGINE`` (backend name), ``REPRO_GRAM_TILE`` (tile
        size), ``REPRO_STORE`` (a store address: ``dir:/path``, a bare
        directory — created if missing, with a named
        :class:`~repro.errors.ValidationError` citing the path when that
        fails — or ``mem:name``), ``REPRO_PRECISION`` and
        ``REPRO_ENTROPY``. Unset variables leave their field unset;
        keyword ``overrides`` replace any field afterwards.
        ``Session()``, the experiment runners, the serve CLI and the HTTP
        server build their context here, so one environment drives every
        entry point.
        """
        values: dict = {}
        for field, env_var in _ENV_FIELDS:
            raw = os.environ.get(env_var, "").strip()
            if raw:
                values[field] = raw
        if "tile_size" in values:
            try:
                values["tile_size"] = int(values["tile_size"])
            except ValueError:
                raise ValidationError(
                    f"{TILE_ENV_VAR} must be an integer, "
                    f"got {values['tile_size']!r}"
                ) from None
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

    def compute_policy(self) -> ComputePolicy:
        """The :class:`~repro.backend.ComputePolicy` this context selects:
        its ``precision`` / ``entropy`` fields, the float64/eig reference
        for any it leaves unset."""
        fields = {"precision": self.precision, "entropy": self.entropy}
        return ComputePolicy(
            **{name: value for name, value in fields.items() if value is not None}
        )

    def resolved_engine(self) -> GramEngine:
        """The :class:`~repro.engine.GramEngine` every Gram under this
        context runs on.

        A backend name (``None`` means ``"batched"``) resolves to a fresh
        instance. An engine instance is copied: its own tile size, policy
        and worker count carry over, and the caller's object is never
        touched. The context's ``tile_size`` and compute policy override
        the engine's only when the context sets them; the engine installs
        its policy around the tile stream with
        :func:`repro.backend.policy_scope`, and an engine without one
        lets the ambient policy show through.
        """
        if isinstance(self.engine, GramEngine):
            engine = copy.copy(self.engine)
        else:
            engine = resolve_engine(self.engine)
        if self.tile_size is not None:
            engine.tile_size = int(self.tile_size)
        if self.precision is not None or self.entropy is not None:
            engine.policy = self.compute_policy()
        return engine

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
        field, else the reference default): the record describes the
        compute policy that actually ran, and resolution is a fixed point
        so records round-trip.
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
