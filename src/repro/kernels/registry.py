"""The kernel registry: string-addressable, declarative kernel construction.

The mapping from Table IV row labels ("HAQJSK(D)", "WLSK", ...) to
configured :class:`~repro.kernels.base.GraphKernel` instances is needed
by the experiments, serving, the CLI and library users alike, so it is a
first-class public API:

* each kernel module registers its classes (or factory functions) with
  the :func:`register_kernel` decorator, declaring scale-aware defaults;
* a :class:`KernelSpec` — a frozen ``(name, params)`` value object — is
  the declarative description of a kernel: validated against the
  registered signature at construction, round-trippable to/from JSON,
  and the canonical input of configuration fingerprints recorded in
  model bundles and experiment reports;
* :func:`make` builds the kernel a spec (or a bare name plus keyword
  parameters) describes.

Every lookup failure is a named :class:`~repro.errors.KernelSpecError`
listing what *is* registered — replacing the bare ``KeyError`` /
``TypeError`` a dictionary-based factory would raise.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass

from repro.errors import KernelSpecError

#: Environment variable requesting paper-scale hyperparameters (shared
#: with the experiment harness; ``repro.experiments.config.full_scale``
#: delegates here so there is exactly one definition).
FULL_SCALE_ENV_VAR = "REPRO_FULL_SCALE"


def full_scale() -> bool:
    """True when the environment requests paper-scale settings."""
    return os.environ.get(FULL_SCALE_ENV_VAR, "") == "1"


class ScaledDefault:
    """A registered default that depends on the active experiment scale.

    Resolved at :func:`make` time, so flipping ``REPRO_FULL_SCALE``
    switches every registered kernel's hyperparameters without touching
    any spec.
    """

    def __init__(self, scaled_value, full_value) -> None:
        self.scaled_value = scaled_value
        self.full_value = full_value

    def __call__(self):
        return self.full_value if full_scale() else self.scaled_value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScaledDefault({self.scaled_value!r}, {self.full_value!r})"


def scaled(scaled_value, full_value) -> ScaledDefault:
    """Shorthand used by the per-module registrations."""
    return ScaledDefault(scaled_value, full_value)


#: JSON-representable parameter types a spec may carry (round-trip
#: fidelity is part of the KernelSpec contract).
_JSON_SCALARS = (bool, int, float, str, type(None))


@dataclass(frozen=True)
class RegisteredKernel:
    """One registry entry: how to build a kernel and what it accepts."""

    name: str
    factory: object
    parameters: "tuple[str, ...]"
    defaults: "tuple[tuple[str, object], ...]"
    aliases: "tuple[str, ...]"
    description: str = ""

    def resolved_params(self, params: "dict") -> dict:
        """``params`` completed with the registered (scale-aware) defaults."""
        merged = dict(params)
        for key, default in self.defaults:
            if key not in merged:
                merged[key] = default() if callable(default) else default
        return merged

    def build(self, params: "dict"):
        return self.factory(**self.resolved_params(params))


#: normalised lookup key -> entry (canonical names and aliases both map).
_REGISTRY: "dict[str, RegisteredKernel]" = {}
#: canonical names in registration order (the user-facing listing).
_CANONICAL: "list[str]" = []


def _normalize(name: str) -> str:
    return str(name).strip().lower()


def _signature_parameters(callable_obj, exclude: "tuple[str, ...]") -> tuple:
    """Accepted keyword-parameter names of a factory or class.

    Classes with a ``**kwargs`` constructor (the HAQJSK family forwards
    to its aligner) must register with ``signature_from=`` so the
    accepted set stays explicit and spec validation stays strict.
    """
    target = callable_obj.__init__ if inspect.isclass(callable_obj) else callable_obj
    names = []
    for parameter in inspect.signature(target).parameters.values():
        if parameter.name in ("self", *exclude):
            continue
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            raise KernelSpecError(
                f"cannot infer the accepted parameters of "
                f"{callable_obj!r}: its signature has *args/**kwargs — "
                f"register it with signature_from= naming an explicit "
                f"signature"
            )
        names.append(parameter.name)
    return tuple(names)


def register_kernel(
    name: str,
    *,
    aliases: "tuple[str, ...]" = (),
    defaults: "dict | None" = None,
    signature_from=None,
    exclude: "tuple[str, ...]" = (),
    description: str = "",
):
    """Class/function decorator adding a kernel to the registry.

    Parameters
    ----------
    name:
        Canonical name (the Table IV row label where one exists).
    aliases:
        Extra lookup names; resolution is case-insensitive throughout.
    defaults:
        Parameter defaults applied when a spec omits them. Values may be
        callables (see :func:`scaled`) resolved at build time — this is
        where the scale-aware hyperparameters of the old kernel zoo live.
    signature_from:
        Callable whose signature defines the accepted parameters, for
        factories whose own signature is ``**kwargs``.
    exclude:
        Signature parameters that are not spec-addressable (non-JSON
        objects like a pre-built aligner).
    """

    def decorate(obj):
        parameters = _signature_parameters(signature_from or obj, exclude)
        unknown_defaults = set(defaults or {}) - set(parameters)
        if unknown_defaults:
            raise KernelSpecError(
                f"kernel {name!r}: defaults {sorted(unknown_defaults)} are "
                f"not accepted parameters {parameters}"
            )
        entry = RegisteredKernel(
            name=name,
            factory=obj,
            parameters=parameters,
            defaults=tuple(sorted((defaults or {}).items())),
            aliases=tuple(aliases),
            description=description or (inspect.getdoc(obj) or "").split("\n")[0],
        )
        for key in (name, *aliases):
            normalized = _normalize(key)
            existing = _REGISTRY.get(normalized)
            if existing is not None and existing.name != entry.name:
                raise KernelSpecError(
                    f"kernel name {key!r} is already registered "
                    f"(by {existing.name!r})"
                )
            _REGISTRY[normalized] = entry
        if entry.name not in _CANONICAL:
            _CANONICAL.append(entry.name)
        return obj

    return decorate


def _ensure_populated() -> None:
    # Registrations live in the kernel modules themselves; importing the
    # package runs them all. Lazy so `repro.kernels.registry` itself has
    # no import-time dependency on any kernel module.
    if not _REGISTRY:
        import repro.kernels  # noqa: F401  (import side effect)


def registered_kernels() -> "tuple[str, ...]":
    """Canonical registered kernel names, in registration order."""
    _ensure_populated()
    return tuple(_CANONICAL)


def kernel_entry(name: str) -> RegisteredKernel:
    """The registry entry for ``name`` (canonical or alias, any case).

    Raises :class:`KernelSpecError` listing the registered kernels when
    the name is unknown — the named replacement for a bare ``KeyError``.
    """
    _ensure_populated()
    entry = _REGISTRY.get(_normalize(name))
    if entry is None:
        raise KernelSpecError(
            f"unknown kernel {name!r}; registered kernels: "
            f"{', '.join(registered_kernels())}"
        )
    return entry


def supported_params(name: str) -> "tuple[str, ...]":
    """The parameter names ``name``'s registered signature accepts."""
    return kernel_entry(name).parameters


def lenient_spec(name: str, **params) -> "KernelSpec":
    """A spec from ``params`` with unsupported ones silently dropped.

    For callers carrying a fixed flag set (``n_prototypes``/``seed``)
    across a heterogeneous roster — the serve CLI, the Table IV/V sweeps,
    the properties experiment — where kernels that do not take a flag
    ignore it. The strict :class:`KernelSpec` constructor refuses
    unknown params.
    """
    accepted = set(kernel_entry(name).parameters)
    return KernelSpec(
        name, {key: value for key, value in params.items() if key in accepted}
    )


@dataclass(frozen=True, init=False)
class KernelSpec:
    """A frozen, declarative description of one configured kernel.

    ``KernelSpec("HAQJSK(D)", n_prototypes=32)`` is a *value*: hashable,
    comparable, JSON round-trippable (:meth:`to_json` / :meth:`from_json`)
    and validated against the registered signature at construction — an
    unknown kernel name or an unexpected parameter raises a named
    :class:`~repro.errors.KernelSpecError` instead of surfacing later as
    a ``TypeError`` inside some constructor. Model bundles and experiment
    reports persist the :meth:`resolved` spec, which is the canonical
    fingerprint input for declaratively-built kernels.
    """

    name: str
    params: "tuple[tuple[str, object], ...]"

    def __init__(self, name: str, params: "dict | None" = None, **kwargs) -> None:
        merged = dict(params or {})
        merged.update(kwargs)
        entry = kernel_entry(name)
        unexpected = set(merged) - set(entry.parameters)
        if unexpected:
            raise KernelSpecError(
                f"kernel {entry.name!r} does not accept "
                f"{sorted(unexpected)}; accepted parameters: "
                f"{', '.join(entry.parameters) or '(none)'}"
            )
        for key, value in merged.items():
            if not isinstance(value, _JSON_SCALARS):
                raise KernelSpecError(
                    f"kernel {entry.name!r}: parameter {key}={value!r} is "
                    f"not a JSON scalar — specs must round-trip through "
                    f"JSON, pass configured objects to the class directly"
                )
        object.__setattr__(self, "name", entry.name)
        object.__setattr__(self, "params", tuple(sorted(merged.items())))

    # ------------------------------------------------------------------ #
    # Construction / serialisation
    # ------------------------------------------------------------------ #

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    def with_params(self, **params) -> "KernelSpec":
        """A new spec with ``params`` overriding/extending this one's."""
        return KernelSpec(self.name, {**self.param_dict, **params})

    def resolved(self) -> "KernelSpec":
        """The canonical fully-explicit spec: registered defaults filled.

        Resolving pins scale-dependent defaults to their current values,
        so a resolved spec rebuilds the identical kernel regardless of
        the environment it is later read in — which is why bundles and
        reports record the resolved form.
        """
        entry = kernel_entry(self.name)
        return KernelSpec(self.name, entry.resolved_params(self.param_dict))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.param_dict}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, record: "dict") -> "KernelSpec":
        if not isinstance(record, dict) or "name" not in record:
            raise KernelSpecError(
                f"a KernelSpec record needs 'name' (and optional 'params') "
                f"keys, got {record!r}"
            )
        extras = set(record) - {"name", "params"}
        if extras:
            raise KernelSpecError(
                f"unexpected KernelSpec record keys {sorted(extras)}"
            )
        return cls(record["name"], record.get("params") or {})

    @classmethod
    def from_json(cls, payload: str) -> "KernelSpec":
        try:
            record = json.loads(payload)
        except (TypeError, ValueError) as exc:
            raise KernelSpecError(
                f"KernelSpec payload is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(record)

    # ------------------------------------------------------------------ #
    # Use
    # ------------------------------------------------------------------ #

    def make(self):
        """Build the configured :class:`~repro.kernels.base.GraphKernel`."""
        return kernel_entry(self.name).build(self.param_dict)

    def fingerprint(self) -> str:
        """Stable hex digest of the *resolved* spec — the content identity
        declaratively-built kernels are recorded under."""
        import hashlib

        return hashlib.sha256(
            self.resolved().to_json().encode()
        ).hexdigest()

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({rendered})"


def as_spec(spec_or_name, **params) -> KernelSpec:
    """Coerce a :class:`KernelSpec` or a name (+ params) into a spec."""
    if isinstance(spec_or_name, KernelSpec):
        return spec_or_name.with_params(**params) if params else spec_or_name
    if isinstance(spec_or_name, str):
        return KernelSpec(spec_or_name, params)
    raise KernelSpecError(
        f"expected a KernelSpec or a kernel name, got "
        f"{type(spec_or_name).__name__}"
    )


def make(spec_or_name, **params):
    """Build a kernel from a spec or a registered name plus parameters.

    The declarative entry point::

        kernel = repro.kernels.make("HAQJSK(D)", n_prototypes=32)
        kernel = repro.kernels.make(KernelSpec("WLSK"))
    """
    return as_spec(spec_or_name, **params).make()
