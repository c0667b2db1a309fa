"""Pluggable array backends with a mixed-precision compute policy.

The kernel hot paths (stacked Hermitian eigenvalues, entropy reductions,
mixed-state assembly, matmul) dispatch through an
:class:`~repro.backend.base.ArrayBackend` selected by a
:class:`~repro.backend.policy.ComputePolicy`:

    from repro.backend import ComputePolicy, policy_scope

    fast = ComputePolicy(backend="numpy", precision="float32",
                         entropy="auto")
    with policy_scope(fast):
        gram = kernel.gram(graphs)          # float32 tiles, float64 sums

or, end to end, through the execution context:

    ctx = ExecutionContext(backend="numpy", precision="float32")

Backend: ``numpy``, the only one shipped; the :class:`ArrayBackend`
protocol and :func:`register_backend` keep the seam open, and an
unknown name raises a named :class:`~repro.errors.BackendError` listing
the registered backends. The default policy (numpy / float64 / eig) is the
exact reference: mixed states are solved on their exact support
(:mod:`repro.backend.support`, ≤1e-12 from the dense solve) and every
engine and tiling agrees bitwise; the float32 and Chebyshev fast paths
trade documented tolerance tiers (README "Backends & precision") for
throughput.
"""

from __future__ import annotations

from repro.backend.base import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ArrayBackend,
    available_backends,
    default_backend_name,
    register_backend,
    resolve_backend,
)
from repro.backend.chebyshev import chebyshev_entropies

# Importing the implementation module registers it.
from repro.backend import numpy_backend  # noqa: F401
from repro.backend.policy import (
    DEFAULT_CHEBYSHEV_DEGREE,
    ENTROPY_ENV_VAR,
    ENTROPY_PATHS,
    PRECISION_ENV_VAR,
    REFERENCE_POLICY,
    ComputePolicy,
    active_policy,
    collect_phase_timings,
    policy_scope,
    scoped_policy,
)

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "ComputePolicy",
    "DEFAULT_CHEBYSHEV_DEGREE",
    "ENTROPY_ENV_VAR",
    "ENTROPY_PATHS",
    "PRECISION_ENV_VAR",
    "REFERENCE_POLICY",
    "active_policy",
    "available_backends",
    "chebyshev_entropies",
    "collect_phase_timings",
    "default_backend_name",
    "policy_scope",
    "register_backend",
    "resolve_backend",
    "scoped_policy",
]
