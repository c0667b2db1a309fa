"""ComputePolicy — which precision and entropy path a tile uses.

A :class:`ComputePolicy` is a small frozen value (picklable — it crosses
process boundaries with the process engine's tile tasks) bundling the
compute knobs of the numpy hot path:

* ``precision`` — the *compute* dtype (``float64``/``float32``) of the
  stacks the eigensolver or Chebyshev recurrence runs on. Accumulation
  is always float64: reductions return float64 and the engine sink
  upcasts every tile block before placement, so low-precision round-off
  stays per-entry and never compounds across tiles;
* ``entropy`` — ``eig`` (stacked ``eigvalsh``, the reference),
  ``chebyshev`` (the eigenvalue-free path of
  :mod:`repro.backend.chebyshev`), or ``auto`` (Chebyshev at float32
  only, gated by ``approx_min_dim`` — small matrices stay exact).

The **default policy is the reference**: ``float64``/``eig``. Mixed
states whose exact support is far smaller than their edge (see
:mod:`repro.backend.support`) are solved on that support and agree with
the dense solve to ~1e-14; all other mixed states run the historical
dense arithmetic bit for bit. A pair's solve depends only on its own two
matrices, so batched, process, tiled and distributed Grams agree with
each other bitwise.

Kernels read the ambient policy through :func:`active_policy` (the
reference outside any scope); engines install their context's policy
around the tile stream with :func:`policy_scope` (thread-local, so
concurrent sessions don't leak policies into each other).
:func:`collect_phase_timings` exposes the assembly / eig / reduce
wall-clock split the throughput bench records.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.backend.chebyshev import chebyshev_entropies
from repro.backend.support import (
    SUPPORT_MIN_DIM,
    eig_entropies,
    gather_offsets,
    support_buckets,
    support_masks,
    take_principal,
)
from repro.errors import BackendError
from repro.utils.linalg import symmetrize as _symmetrize

#: Precision names a policy accepts, and the dtypes they compute in.
_DTYPES = {"float64": np.float64, "float32": np.float32}

#: Entropy-path names a policy accepts.
ENTROPY_PATHS = ("eig", "chebyshev", "auto")

#: Default Chebyshev interpolation degree — ~2e-3 max entropy error,
#: roughly 1.5-2x faster than the float64 eigensolver in float32 on CPU.
DEFAULT_CHEBYSHEV_DEGREE = 16

#: Memory budget (float64 elements, ~64 MB) for one batched intermediate:
#: every chunked gather / ``eigvalsh`` / broadcast loop in the policy and
#: the kernels sizes its stacks by it. Only memory depends on it — each
#: matrix is solved on its own, so moving a chunk boundary changes no
#: value.
DEFAULT_CHUNK_ELEMENTS = 1 << 23

#: Element budget per Chebyshev sub-batch. The recurrence keeps ``K + 1``
#: polynomial stacks alive at once and is cache-bound, not flop-bound: at
#: a 256k-element sub-batch the live float32 stacks (~1 MB each) stay
#: cache-resident, which is worth ~1.7x over whole-batch evaluation at
#: m ~ 26-64 (whole-batch barely ties eigvalsh).
APPROX_CHUNK_ELEMENTS = 1 << 18

_STATE = threading.local()


@dataclass(frozen=True)
class ComputePolicy:
    """Frozen precision + entropy-path selection.

    ``approx_min_dim`` is the smallest matrix edge the ``auto`` entropy
    mode may approximate; forced ``chebyshev`` applies from ``m > 2``
    (1x1/2x2 spectra are closed-form or trivially cheap exactly).
    """

    precision: str = "float64"
    entropy: str = "eig"
    chebyshev_degree: int = DEFAULT_CHEBYSHEV_DEGREE
    approx_min_dim: int = 16

    def __post_init__(self) -> None:
        precision = str(self.precision).strip().lower()
        if precision not in _DTYPES:
            raise BackendError(
                f"unknown precision {self.precision!r}; expected one of "
                f"{', '.join(_DTYPES)}"
            )
        object.__setattr__(self, "precision", precision)
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

    def replace(self, **changes) -> "ComputePolicy":
        """A copy with ``changes`` applied (policies are immutable)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """``precision/entropy`` — the report-footer form."""
        return f"{self.precision}/{self.entropy}"

    @property
    def is_reference(self) -> bool:
        """True for the bit-stable float64/eig reference policy."""
        return self.precision == "float64" and self.entropy == "eig"

    # ------------------------------------------------------------------ #
    # The hot-path primitives kernels call
    # ------------------------------------------------------------------ #

    def uses_approx(self, m: int) -> bool:
        """Whether ``(.., m, m)`` entropies take the Chebyshev path."""
        if self.entropy == "eig" or m <= 2:
            return False
        if self.entropy == "chebyshev":
            return True
        # auto. Measured on the reference box: float32 matmuls run ~3.5x
        # faster than float64 while LAPACK's float32 eigvalsh does not
        # beat the float64 solver at all, so the K matmuls of the
        # Chebyshev path only pay off in float32 and only once eig's m^3
        # dominates.
        return m >= self.approx_min_dim and self.precision == "float32"

    def entropies(self, stack, *, symmetrize: bool = True) -> np.ndarray:
        """Batched von Neumann entropies of a ``(..., m, m)`` stack.

        ``symmetrize`` mirrors the two historical call sites: the QJSK
        path symmetrises like :func:`von_neumann_entropies`, the HAQJSK
        fast path feeds symmetric-by-construction stacks directly.
        Returns float64.
        """
        with _phase("assembly"):
            cast = as_precision(stack, self.precision)
            if symmetrize:
                cast = _symmetrize(cast)
        return self._entropies(cast)

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
        gathered from the float64 stacks, cast to the policy's precision
        and mixed, and the entropy path (``uses_approx``) is chosen on the
        bucket's edge. Pairs in the dense bucket take the full-edge route:
        each stack is cast once and every chunk gathers, mixes and reduces
        at the policy's precision. Chunking by ``chunk_elements`` bounds
        every gathered intermediate regardless of pair count.
        """
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
                cast_a = as_precision(stack_a, self.precision)
                cast_b = (
                    cast_a
                    if stack_b is stack_a
                    else as_precision(stack_b, self.precision)
                )
        for size, positions, gather in buckets:
            rows_a = idx_a[positions]
            rows_b = idx_b[positions]
            chunk = max(1, chunk_elements // max(1, size * size))
            for start in range(0, positions.size, chunk):
                stop = min(start + chunk, positions.size)
                with _phase("assembly"):
                    if gather is None:
                        part_a = cast_a[rows_a[start:stop]]
                        part_b = cast_b[rows_b[start:stop]]
                    else:
                        offsets = gather_offsets(gather[start:stop], m)
                        part_a = as_precision(
                            take_principal(stack_a, rows_a[start:stop], offsets),
                            self.precision,
                        )
                        part_b = as_precision(
                            take_principal(stack_b, rows_b[start:stop], offsets),
                            self.precision,
                        )
                    mixed = mix(part_a, part_b)
                    if symmetrize:
                        mixed = _symmetrize(mixed)
                out[positions[start:stop]] = self._entropies(mixed)
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product at the policy's precision, returned as float64."""
        with _phase("assembly"):
            cast_a = as_precision(a, self.precision)
            cast_b = as_precision(b, self.precision)
        with _phase("matmul"):
            product = np.matmul(cast_a, cast_b)
        with _phase("reduce"):
            return np.asarray(product, dtype=np.float64)

    def _entropies(self, stack: np.ndarray) -> np.ndarray:
        """Entropies of an assembled stack at the policy's precision."""
        m = int(stack.shape[-1])
        with _phase("eig"):
            if self.uses_approx(m):
                return self._approx_entropies(stack, m)
            return eig_entropies(stack)

    def _approx_entropies(self, stack: np.ndarray, m: int) -> np.ndarray:
        """Chebyshev entropies in sub-batches of
        :data:`APPROX_CHUNK_ELEMENTS`.

        Per-matrix arithmetic is independent of the batch split, so the
        result is bitwise the same as whole-batch evaluation — the split
        only keeps the recurrence's working set cache-resident.
        """
        batch = int(stack.shape[0]) if stack.ndim == 3 else 0
        chunk = APPROX_CHUNK_ELEMENTS // (m * m)
        if stack.ndim != 3 or chunk < 1 or batch <= chunk:
            return chebyshev_entropies(stack, self.chebyshev_degree)
        out = np.empty(batch)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            out[start:stop] = chebyshev_entropies(
                stack[start:stop], self.chebyshev_degree
            )
        return out


def as_precision(array, precision: str) -> np.ndarray:
    """``array`` as an ndarray of the ``precision`` dtype (no copy when it
    already is one)."""
    return np.asarray(array, dtype=_DTYPES[precision])


def mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mixed states ``(a + b) / 2`` (the QJSD assembly primitive), at the
    operands' dtype."""
    mixed = a + b
    mixed *= np.asarray(0.5, dtype=mixed.dtype)
    return mixed


#: The bit-stable reference policy (float64 / eig).
REFERENCE_POLICY = ComputePolicy()


# --------------------------------------------------------------------- #
# Ambient policy (thread-local, reference fallback)
# --------------------------------------------------------------------- #


def active_policy() -> ComputePolicy:
    """The innermost :func:`policy_scope` policy, else the reference.

    Kernels call this once per tile; outside any scope (a standalone
    ``block_values`` call) it is :data:`REFERENCE_POLICY`.
    """
    policy = getattr(_STATE, "policy", None)
    return policy if policy is not None else REFERENCE_POLICY


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

    Yields a dict accumulating ``{"assembly": s, "eig": s}`` across
    every entropy call inside the block (``"eig"`` covers the eigensolve
    or Chebyshev recurrence together with its entropy sum), plus
    ``"matmul"`` and ``"reduce"`` (the float64 upcast of the product) for
    the JTQK pair stage. Every phase runs synchronously on the calling
    thread, so the split is exact.
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
