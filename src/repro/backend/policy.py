"""ComputePolicy — which backend, precision, and entropy path a tile uses.

A :class:`ComputePolicy` is a small frozen value (picklable — it crosses
process boundaries with the process engine's tile tasks) bundling the
three compute knobs:

* ``backend`` — an :data:`~repro.backend.base.BACKENDS` name;
* ``precision`` — the *device compute* dtype (``float64``/``float32``).
  Accumulation is always float64: reductions return host float64 and the
  engine sink upcasts every tile block before placement, so low-precision
  round-off stays per-entry and never compounds across tiles;
* ``entropy`` — ``eig`` (stacked ``eigvalsh``, the reference),
  ``chebyshev`` (the eigenvalue-free path of
  :mod:`repro.backend.chebyshev`), or ``auto`` (ask the backend per tile
  via :meth:`~repro.backend.base.ArrayBackend.prefers_eig_free`, gated by
  ``approx_min_dim`` — small matrices stay exact).

The **default policy is the reference**: ``numpy``/``float64``/``eig``.
Mixed states whose exact support is far smaller than their edge (see
:mod:`repro.backend.support`) are solved on that support and agree with
the dense solve to ~1e-14; all other mixed states run the historical
dense arithmetic bit for bit. A pair's solve depends only on its own two
matrices, so batched, process, tiled and distributed Grams agree with
each other bitwise.

Kernels read the ambient policy through :func:`active_policy`; engines
install their context's policy around the tile stream with
:func:`policy_scope` (thread-local, so concurrent sessions don't leak
policies into each other). :func:`collect_phase_timings` exposes the
assembly / eig / reduce wall-clock split the throughput bench records.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.backend.base import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ArrayBackend,
    available_backends,
    check_precision,
    resolve_backend,
)
from repro.backend.chebyshev import chebyshev_entropies
from repro.backend.support import (
    SUPPORT_MIN_DIM,
    gather_offsets,
    support_buckets,
    support_masks,
    take_principal,
)
from repro.errors import BackendError

#: Environment variable selecting the process-wide device precision.
PRECISION_ENV_VAR = "REPRO_PRECISION"

#: Environment variable selecting the process-wide entropy path.
ENTROPY_ENV_VAR = "REPRO_ENTROPY"

#: Entropy-path names a policy accepts.
ENTROPY_PATHS = ("eig", "chebyshev", "auto")

#: Default Chebyshev interpolation degree — ~2e-3 max entropy error,
#: roughly 1.5-2x faster than the float64 eigensolver in float32 on CPU.
DEFAULT_CHEBYSHEV_DEGREE = 16

#: Memory budget (float64 elements, ~64 MB) for one batched intermediate:
#: every chunked gather / ``eigvalsh`` / broadcast loop in the backend and
#: the kernels sizes its stacks by it. Only memory depends on it — each
#: matrix is solved on its own, so moving a chunk boundary changes no
#: value.
DEFAULT_CHUNK_ELEMENTS = 1 << 23

_STATE = threading.local()


@dataclass(frozen=True)
class ComputePolicy:
    """Frozen backend + precision + entropy-path selection.

    ``approx_min_dim`` is the smallest matrix edge the ``auto`` entropy
    mode may approximate; forced ``chebyshev`` applies from ``m > 2``
    (1x1/2x2 spectra are closed-form or trivially cheap exactly).
    """

    backend: str = "numpy"
    precision: str = "float64"
    entropy: str = "eig"
    chebyshev_degree: int = DEFAULT_CHEBYSHEV_DEGREE
    approx_min_dim: int = 16

    def __post_init__(self) -> None:
        if isinstance(self.backend, ArrayBackend):
            object.__setattr__(self, "backend", self.backend.name)
        if not isinstance(self.backend, str) or self.backend not in BACKENDS:
            raise BackendError(
                f"unknown array backend {self.backend!r}; registered: "
                f"{', '.join(available_backends())}"
            )
        object.__setattr__(self, "precision", check_precision(self.precision))
        if self.entropy not in ENTROPY_PATHS:
            raise BackendError(
                f"unknown entropy path {self.entropy!r}; expected one of "
                f"{', '.join(ENTROPY_PATHS)}"
            )
        if int(self.chebyshev_degree) < 2:
            raise BackendError(
                f"chebyshev_degree must be >= 2, got {self.chebyshev_degree}"
            )
        object.__setattr__(self, "chebyshev_degree", int(self.chebyshev_degree))
        if int(self.approx_min_dim) < 1:
            raise BackendError(
                f"approx_min_dim must be >= 1, got {self.approx_min_dim}"
            )
        object.__setattr__(self, "approx_min_dim", int(self.approx_min_dim))

    # ------------------------------------------------------------------ #
    # Construction / description
    # ------------------------------------------------------------------ #

    @classmethod
    def from_env(cls, **overrides) -> "ComputePolicy":
        """The policy the ``REPRO_*`` environment describes.

        Reads ``REPRO_BACKEND``, ``REPRO_PRECISION`` and
        ``REPRO_ENTROPY``; keyword ``overrides`` replace fields after.
        """
        values: dict = {}
        for env_var, field in (
            (BACKEND_ENV_VAR, "backend"),
            (PRECISION_ENV_VAR, "precision"),
            (ENTROPY_ENV_VAR, "entropy"),
        ):
            raw = os.environ.get(env_var, "").strip()
            if raw:
                values[field] = raw
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "ComputePolicy":
        """A copy with ``changes`` applied (policies are immutable)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """``backend/precision/entropy`` — the report-footer form."""
        return f"{self.backend}/{self.precision}/{self.entropy}"

    @property
    def is_reference(self) -> bool:
        """True for the bit-stable numpy/float64/eig reference policy."""
        return (
            self.backend == "numpy"
            and self.precision == "float64"
            and self.entropy == "eig"
        )

    @property
    def array_backend(self) -> ArrayBackend:
        """The resolved backend instance (may raise ``BackendError``)."""
        return resolve_backend(self.backend)

    # ------------------------------------------------------------------ #
    # The hot-path primitives kernels call
    # ------------------------------------------------------------------ #

    def uses_approx(self, m: int) -> bool:
        """Whether ``(.., m, m)`` entropies take the Chebyshev path."""
        if self.entropy == "eig" or m <= 2:
            return False
        if self.entropy == "chebyshev":
            return True
        return m >= self.approx_min_dim and self.array_backend.prefers_eig_free(
            m, self.precision
        )

    def entropies(self, stack, *, symmetrize: bool = True) -> np.ndarray:
        """Batched von Neumann entropies of a host ``(..., m, m)`` stack.

        ``symmetrize`` mirrors the two historical call sites: the QJSK
        path symmetrises like :func:`von_neumann_entropies`, the HAQJSK
        fast path feeds symmetric-by-construction stacks directly.
        Returns host float64.
        """
        backend = self.array_backend
        with _phase("assembly"):
            device = backend.asarray(stack, self.precision)
            if symmetrize:
                device = backend.symmetrize(device)
        return self._device_entropies(backend, device)

    def mixed_entropies(
        self,
        stack_a: np.ndarray,
        stack_b: np.ndarray,
        idx_a: np.ndarray,
        idx_b: np.ndarray,
        *,
        symmetrize: bool = True,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> np.ndarray:
        """Entropies of the mixed states ``(a[idx_a] + b[idx_b]) / 2``.

        The tile workhorse. Each pair is solved on the union of its two
        exact supports, rounded up to a bucket (see
        :mod:`repro.backend.support`): its principal submatrices are
        gathered on the host, cross to the device at the policy's
        precision and mix there, and the entropy path (``uses_approx``)
        is chosen on the bucket's edge. Pairs in the dense bucket take the
        full-edge route: each host stack crosses to the device once and
        every chunk gathers, mixes and reduces in device arrays. Chunking
        by ``chunk_elements`` bounds every gathered intermediate
        regardless of pair count.
        """
        backend = self.array_backend
        m = int(stack_a.shape[-1])
        idx_a = np.asarray(idx_a)
        idx_b = np.asarray(idx_b)
        out = np.empty(idx_a.size)
        if m >= SUPPORT_MIN_DIM:
            with _phase("assembly"):
                support_a = support_masks(stack_a)
                support_b = (
                    support_a if stack_b is stack_a else support_masks(stack_b)
                )
                buckets = list(support_buckets(support_a[idx_a] | support_b[idx_b]))
        else:
            buckets = [(m, np.arange(idx_a.size), None)]
        if any(gather is None for _, _, gather in buckets):
            with _phase("assembly"):
                device_a = backend.asarray(stack_a, self.precision)
                device_b = (
                    device_a
                    if stack_b is stack_a
                    else backend.asarray(stack_b, self.precision)
                )
        for size, positions, gather in buckets:
            rows_a = idx_a[positions]
            rows_b = idx_b[positions]
            chunk = max(1, chunk_elements // max(1, size * size))
            for start in range(0, positions.size, chunk):
                stop = min(start + chunk, positions.size)
                with _phase("assembly"):
                    if gather is None:
                        part_a = backend.take(device_a, rows_a[start:stop])
                        part_b = backend.take(device_b, rows_b[start:stop])
                    else:
                        offsets = gather_offsets(gather[start:stop], m)
                        part_a = backend.asarray(
                            take_principal(stack_a, rows_a[start:stop], offsets),
                            self.precision,
                        )
                        part_b = backend.asarray(
                            take_principal(stack_b, rows_b[start:stop], offsets),
                            self.precision,
                        )
                    mixed = backend.mix(part_a, part_b)
                    if symmetrize:
                        mixed = backend.symmetrize(mixed)
                out[positions[start:stop]] = self._device_entropies(backend, mixed)
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Host-in, host-float64-out matrix product at device precision."""
        backend = self.array_backend
        with _phase("assembly"):
            device_a = backend.asarray(a, self.precision)
            device_b = backend.asarray(b, self.precision)
        with _phase("matmul"):
            product = backend.matmul(device_a, device_b)
        with _phase("reduce"):
            return np.asarray(backend.to_numpy(product), dtype=np.float64)

    def _device_entropies(self, backend, device) -> np.ndarray:
        """Entropy reduction of an already-assembled device stack."""
        m = int(device.shape[-1])
        if self.uses_approx(m):
            with _phase("eig"):
                return self._approx_entropies(backend, device, m)
        with _phase("eig"):
            values = backend.eigvalsh(device)
        with _phase("reduce"):
            return backend.entropy_reduce(values)

    def _approx_entropies(self, backend, device, m: int) -> np.ndarray:
        """Chebyshev entropies, sub-batched to the backend's cache budget.

        Per-matrix arithmetic is independent of the batch split, so the
        result is bitwise the same as whole-batch evaluation — the split
        only keeps the recurrence's working set cache-resident on CPUs
        (device backends return a 0 budget and take one launch).
        """
        budget = backend.approx_chunk_elements(self.precision)
        batch = int(device.shape[0]) if device.ndim == 3 else 0
        chunk = budget // (m * m) if budget else 0
        if device.ndim != 3 or chunk < 1 or batch <= chunk:
            return chebyshev_entropies(backend, device, self.chebyshev_degree)
        out = np.empty(batch)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            out[start:stop] = chebyshev_entropies(
                backend, device[start:stop], self.chebyshev_degree
            )
        return out


#: The bit-stable reference policy (numpy / float64 / eig).
REFERENCE_POLICY = ComputePolicy()


# --------------------------------------------------------------------- #
# Ambient policy (thread-local, environment fallback)
# --------------------------------------------------------------------- #


def active_policy() -> ComputePolicy:
    """The innermost :func:`policy_scope` policy, else the environment's.

    Kernels call this once per tile; outside any scope the policy comes
    from ``REPRO_BACKEND`` / ``REPRO_PRECISION`` / ``REPRO_ENTROPY`` so
    standalone ``block_values`` calls honour the environment too.
    """
    policy = getattr(_STATE, "policy", None)
    return policy if policy is not None else ComputePolicy.from_env()


def scoped_policy() -> "ComputePolicy | None":
    """The innermost scope's policy, or ``None`` outside any scope."""
    return getattr(_STATE, "policy", None)


@contextmanager
def policy_scope(policy: "ComputePolicy | None"):
    """Install ``policy`` as the ambient policy for this thread.

    ``None`` is a no-op scope (the ambient policy shows through) so
    callers can wrap unconditionally. Scopes nest; each restores the
    previous policy on exit.
    """
    if policy is None:
        yield None
        return
    if not isinstance(policy, ComputePolicy):
        raise BackendError(
            f"policy_scope needs a ComputePolicy, got {type(policy).__name__}"
        )
    previous = getattr(_STATE, "policy", None)
    _STATE.policy = policy
    try:
        yield policy
    finally:
        _STATE.policy = previous


# --------------------------------------------------------------------- #
# Phase timing (the bench's assembly / eig / reduce split)
# --------------------------------------------------------------------- #


@contextmanager
def collect_phase_timings():
    """Collect per-phase wall-clock seconds for this thread.

    Yields a dict accumulating ``{"assembly": s, "eig": s, "reduce": s}``
    (plus ``"matmul"`` for the JTQK pair stage) across every policy call
    inside the block. GPU backends execute asynchronously, so device
    phases measure submission time there; on the NumPy backend the split
    is exact.
    """
    previous = getattr(_STATE, "timings", None)
    timings: dict = {}
    _STATE.timings = timings
    try:
        yield timings
    finally:
        _STATE.timings = previous


@contextmanager
def _phase(name: str):
    sink = getattr(_STATE, "timings", None)
    if sink is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        sink[name] = sink.get(name, 0.0) + (time.perf_counter() - started)
