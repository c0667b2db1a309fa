"""The :class:`ArrayBackend` protocol and its registry.

A backend owns the batched hot-path primitives every QJSD-family kernel
bottoms out in — stacked Hermitian eigenvalues, the ``safe_xlogx``
entropy reduction, mixed-state assembly, matmul — over *device arrays*
of its own kind (plain ndarrays for the NumPy reference, the only
backend shipped). The compute seam is deliberately narrow: host code
hands a backend float64 NumPy input once per tile, all intermediate
math happens in device arrays at the policy's precision, and only small
reductions (entropies, traces) come back to the host — always as
float64, so tile accumulation never inherits device round-off beyond
the documented tolerance tier.

Backends register by name with :func:`register_backend`;
:func:`resolve_backend` raises a named
:class:`~repro.errors.BackendError` listing the registered backends for
an unknown name.
"""

from __future__ import annotations

import abc
import os

import numpy as np

from repro.errors import BackendError

#: Environment variable selecting the process-wide default backend.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend used when nothing else is specified.
FALLBACK_BACKEND = "numpy"

#: Precision names the mixed-precision policy accepts.
PRECISIONS = ("float64", "float32")


class ArrayBackend(abc.ABC):
    """Batched array primitives behind the kernel hot paths.

    One instance per backend (they are stateless); all ``stack``
    arguments are whatever :meth:`asarray` returned — backend-native
    device arrays — except where a method documents a host ndarray.
    Reductions (:meth:`entropy_reduce`, :meth:`trace`,
    :meth:`pair_trace`, :meth:`gershgorin`) return **host float64**
    ndarrays: the accumulation side of the mixed-precision policy.
    """

    #: Registry key; subclasses set it and appear in :data:`BACKENDS`.
    name: str = "backend"

    # ------------------------------------------------------------------ #
    # Transfer
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def asarray(self, array: np.ndarray, dtype: str):
        """Host ndarray → device array at ``dtype`` ("float64"/"float32")."""

    @abc.abstractmethod
    def to_numpy(self, array) -> np.ndarray:
        """Device array → host ndarray (dtype preserved)."""

    # ------------------------------------------------------------------ #
    # Batched primitives (device in, device out)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def symmetrize(self, stack):
        """``(A + A^T) / 2`` over the last two axes."""

    @abc.abstractmethod
    def eigvalsh(self, stack):
        """Stacked Hermitian eigenvalues of a ``(..., m, m)`` stack."""

    @abc.abstractmethod
    def take(self, stack, indices: np.ndarray):
        """Gather ``stack[indices]`` along the first axis."""

    @abc.abstractmethod
    def mix(self, a, b):
        """Mixed states ``(a + b) / 2`` (the QJSD assembly primitive)."""

    @abc.abstractmethod
    def matmul(self, a, b):
        """Batched matrix product over the last two axes."""

    @abc.abstractmethod
    def add_scaled_identity(self, stack, coefficients: np.ndarray):
        """``stack + diag(coefficients[..., None])`` — per-matrix shifts.

        ``coefficients`` is a host float64 array broadcastable to the
        stack's batch shape; used by the Chebyshev path to build the
        scaled operator and apply the ``T_0 = I`` recurrence term.
        """

    @abc.abstractmethod
    def scale(self, stack, factors: np.ndarray):
        """``stack * factors[..., None, None]`` — per-matrix scaling."""

    @abc.abstractmethod
    def subtract(self, a, b):
        """Elementwise ``a - b`` (Chebyshev three-term recurrence)."""

    # ------------------------------------------------------------------ #
    # Reductions (device in, host float64 out)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def entropy_reduce(self, values) -> np.ndarray:
        """``-sum safe_xlogx(values)`` over the last axis, host float64.

        Must clip tiny negatives to zero and use the ``0 log 0 = 0``
        convention exactly like :func:`repro.utils.linalg.safe_xlogx`.
        """

    @abc.abstractmethod
    def trace(self, stack) -> np.ndarray:
        """Batched trace over the last two axes, host float64."""

    @abc.abstractmethod
    def pair_trace(self, a, b) -> np.ndarray:
        """``tr(A_i B_i)`` for symmetric pairs — ``sum(A * B)`` over the
        last two axes — host float64."""

    @abc.abstractmethod
    def gershgorin(self, stack) -> "tuple[np.ndarray, np.ndarray]":
        """Per-matrix Gershgorin spectral bounds ``(lo, hi)``.

        ``lo = min_i(d_i - r_i)``, ``hi = max_i(d_i + r_i)`` with ``d``
        the diagonal and ``r`` the off-diagonal absolute row sums; both
        host float64 arrays over the batch shape.
        """

    @abc.abstractmethod
    def zero_row_counts(self, stack) -> np.ndarray:
        """Per-matrix count of exactly-zero rows (host int array).

        Zero-padded stacks carry exact-zero rows whose eigenvalues are
        exact zeros; the Chebyshev path corrects for the polynomial's
        value at zero on them.
        """

    def prefers_eig_free(self, m: int, precision: str) -> bool:
        """Whether the Chebyshev entropy path beats stacked ``eigvalsh``
        here for ``(m, m)`` matrices at ``precision`` — the ``auto``
        entropy mode consults this per tile."""
        return False

    def approx_chunk_elements(self, precision: str) -> int:
        """Element budget per Chebyshev sub-batch (0 = whole batch).

        The Chebyshev recurrence keeps ``K + 1`` polynomial stacks alive
        at once, so CPU backends cap the sub-batch to keep that working
        set cache-resident; device backends return 0 — they want the
        largest launch the memory holds.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: name -> ArrayBackend subclass (instances are cached by resolve).
BACKENDS: "dict[str, type]" = {}

_INSTANCES: "dict[str, ArrayBackend]" = {}


def register_backend(cls):
    """Class decorator adding a backend to the registry under ``cls.name``."""
    BACKENDS[cls.name] = cls
    return cls


def available_backends() -> "tuple[str, ...]":
    """Registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


def default_backend_name() -> str:
    """The process-wide default backend (env override, else numpy)."""
    name = os.environ.get(BACKEND_ENV_VAR, "").strip()
    return name or FALLBACK_BACKEND


def check_precision(precision: str) -> str:
    """Validate a precision name; returns it normalised."""
    name = str(precision).strip().lower()
    if name not in PRECISIONS:
        raise BackendError(
            f"unknown precision {precision!r}; expected one of "
            f"{', '.join(PRECISIONS)}"
        )
    return name


def resolve_backend(backend: "ArrayBackend | str | None" = None) -> ArrayBackend:
    """Resolve a backend spec (instance, name, or ``None``) to an instance.

    ``None`` selects :func:`default_backend_name`. Unknown names raise a
    :class:`~repro.errors.BackendError` listing the registered backends.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None:
        backend = default_backend_name()
    if not isinstance(backend, str):
        raise BackendError(
            f"backend must be an ArrayBackend, a backend name, or None; "
            f"got {type(backend).__name__}"
        )
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise BackendError(
            f"unknown array backend {backend!r}; registered: "
            f"{', '.join(available_backends())}"
        ) from None
    if backend not in _INSTANCES:
        _INSTANCES[backend] = cls()
    return _INSTANCES[backend]
