"""The numpy compute path behind the kernels, with a mixed-precision policy.

The kernel hot paths (stacked Hermitian eigenvalues, entropy reductions,
mixed-state assembly, matmul) run through a
:class:`~repro.backend.policy.ComputePolicy` that picks the compute
precision and the entropy path:

    from repro.backend import ComputePolicy, policy_scope

    fast = ComputePolicy(precision="float32", entropy="auto")
    with policy_scope(fast):
        gram = kernel.gram(graphs)          # float32 tiles, float64 sums

or, end to end, through the execution context:

    ctx = ExecutionContext(precision="float32", entropy="auto")

Outside any scope the policy is the reference; the ``REPRO_PRECISION``
and ``REPRO_ENTROPY`` environment variables enter only through
:meth:`repro.api.ExecutionContext.from_env`.

The default policy (float64 / eig) is the exact reference: mixed states
are solved on their exact support (:mod:`repro.backend.support`, ≤1e-12
from the dense solve) and every engine and tiling agrees bitwise; the
float32 and Chebyshev fast paths trade documented tolerance tiers
(README "Backends & precision") for throughput.
"""

from __future__ import annotations

from repro.backend.chebyshev import chebyshev_entropies
from repro.backend.policy import (
    DEFAULT_CHEBYSHEV_DEGREE,
    ENTROPY_PATHS,
    REFERENCE_POLICY,
    ComputePolicy,
    active_policy,
    collect_phase_timings,
    policy_scope,
    scoped_policy,
)

__all__ = [
    "ComputePolicy",
    "DEFAULT_CHEBYSHEV_DEGREE",
    "ENTROPY_PATHS",
    "REFERENCE_POLICY",
    "active_policy",
    "chebyshev_entropies",
    "collect_phase_timings",
    "policy_scope",
    "scoped_policy",
]
