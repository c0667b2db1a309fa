"""Distributed Gram computation: work-stealing tile workers over a store.

Built on three earlier layers — content-addressed tiles
(:mod:`repro.store.tiles`), pluggable store backends with CAS
(:mod:`repro.store.backends`), and the lease/heartbeat claim protocol
(:mod:`repro.store.claims`) — this package adds the processes:

* :class:`~repro.distributed.jobspec.JobSpec` — a job's full identity
  (kernel spec, collection digest, engine, tile size),
  seeded into the store so workers need only ``(address, job id)``;
* :class:`~repro.distributed.worker.TileWorker` and its CLI
  (``python -m repro.distributed.worker``) — the claim → compute →
  commit → heartbeat loop;
* :class:`~repro.distributed.coordinator.DistributedJob` /
  :func:`~repro.distributed.coordinator.run_distributed_gram` — seed,
  watch, assemble.

K workers pointed at one ``dir:`` store converge on a Gram
byte-identical to the single-process ``kernel.gram(graphs, ctx=ctx)``
run — including after workers are SIGKILLed mid-tile, because expired
leases are stolen and tile commits are idempotent. DESIGN.md
("Distributed tiles: leases and heartbeats") has the invariants.
"""

from repro.distributed.jobspec import (
    JOB_INPUT_KIND,
    JOB_KIND,
    JobSpec,
    job_spec_for,
    load_job,
    seed_job,
)

#: Lazily exported names (PEP 562): importing the package must not pull
#: in the worker module, or ``python -m repro.distributed.worker`` would
#: find it in ``sys.modules`` before runpy executes it and warn.
_LAZY = {
    "DistributedJob": "repro.distributed.coordinator",
    "run_distributed_gram": "repro.distributed.coordinator",
    "spawn_worker": "repro.distributed.coordinator",
    "TileWorker": "repro.distributed.worker",
    "default_worker_id": "repro.distributed.worker",
    "watch_jobs": "repro.distributed.worker",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        # The module __getattr__ protocol demands AttributeError; a
        # ReproError here would break hasattr()/dir() on the package.
        # repro-lint: ignore[REPRO001]
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "DistributedJob",
    "JOB_INPUT_KIND",
    "JOB_KIND",
    "JobSpec",
    "TileWorker",
    "default_worker_id",
    "job_spec_for",
    "load_job",
    "run_distributed_gram",
    "seed_job",
    "spawn_worker",
    "watch_jobs",
]
