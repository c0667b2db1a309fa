"""The unified public API: declarative kernels, one execution context,
and the :class:`Session` facade.

Three first-class objects replace the historical kwarg sprawl:

* :class:`~repro.kernels.registry.KernelSpec` — a frozen, validated,
  JSON round-trippable ``(name, params)`` description of a kernel
  (re-exported here; the registry itself lives in
  :mod:`repro.kernels.registry`);
* :class:`ExecutionContext` — engine, store, sinks, tile size,
  normalisation and compute policy as one immutable value, threaded as a
  single ``ctx=`` parameter through every pipeline entry point. A
  context means exactly its fields; the ``REPRO_*`` environment enters
  only through :meth:`ExecutionContext.from_env`, which ``Session()``
  and the CLIs call;
* :class:`Session` — ``Session(ctx).gram / cross_validate / train /
  predict``, the documented way in (``import repro;
  repro.Session(...)``).
"""

from repro.api.context import ExecutionContext
from repro.api.session import Session
from repro.kernels.registry import KernelSpec, make

__all__ = [
    "ExecutionContext",
    "KernelSpec",
    "Session",
    "make",
]
