"""The numpy compute path behind the QJSD kernels: one exact entropy path.

Every von Neumann entropy the kernels need comes from a float64
symmetric eigensolve, summed as ``-Σ λ log λ`` (paper Eq. 6/7). The pair
stage's mixed states go through :meth:`ComputePolicy.mixed_entropies` on the
module instance :data:`EXACT`, which solves each mixed state on its
exact support (:mod:`repro.backend.support`, ≤1e-12 from the dense
solve); batched, process, tiled and distributed Grams agree bitwise.
"""

from __future__ import annotations

from repro.backend.policy import EXACT, ComputePolicy

__all__ = ["EXACT", "ComputePolicy"]
