"""The coordinator: seed a job, watch it converge, assemble the Gram.

The coordinator is *not* a scheduler — workers self-schedule through the
store's lease table. It owns the three bookends of a distributed Gram:

* **submit** — resolve the kernel, engine and tile size into a
  :class:`~repro.distributed.jobspec.JobSpec`, seed record + input
  collection into the store, print one job id for workers to join;
* **watch** — poll the tile ledger (``done/total``) and the lease table
  (active workers) until every tile of the plan is committed;
* **assemble** — restore the committed tiles through a dense sink (the
  same mirroring the live engines use) and run ``kernel.gram``'s own
  post-pass, reproducing ``kernel.gram(graphs, ctx=ctx)`` byte-for-byte.

:func:`run_distributed_gram` strings the three together around locally
spawned worker subprocesses — the one-call form the smoke tests, the CI
multi-worker job, and the bench harness use.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from repro.engine.tiles import DenseSink
from repro.errors import DistributedError, ValidationError
from repro.store.artifacts import ArtifactStore, gram_key
from repro.store.backends import DirectoryBackend
from repro.store.claims import DEFAULT_LEASE_TTL, TileClaims
from repro.store.tiles import TileLedger, tile_keyer_for

from repro.distributed.jobspec import (
    JobSpec,
    job_spec_for,
    load_job,
    seed_job,
)
from repro.distributed.worker import DEFAULT_POLL, TileWorker

#: Default seconds between coordinator progress polls while waiting.
DEFAULT_WATCH_POLL = 0.2


class DistributedJob:
    """One seeded Gram job, as the coordinator sees it."""

    def __init__(
        self,
        store: "ArtifactStore | str",
        spec: JobSpec,
        graphs,
        *,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.spec = spec
        self.graphs = list(graphs)
        self.kernel = spec.build_kernel()
        self.plan = spec.plan()
        self.ledger = TileLedger(
            self.store, tile_keyer_for(self.kernel, self.graphs), self.plan
        )
        self.claims = TileClaims(self.store, ttl=ttl)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def submit(
        cls,
        store: "ArtifactStore | str",
        kernel,
        graphs,
        *,
        ctx=None,
        normalize: "bool | None" = None,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> "DistributedJob":
        """Seed ``kernel.gram(graphs)`` under ``ctx`` as a joinable job.

        ``kernel`` is a registry name, :class:`KernelSpec`, or kernel
        instance (anything :func:`repro.kernels.registry.as_spec`
        accepts) — workers rebuild it from the spec, so it must be
        registry-expressible.
        """
        store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        graphs = list(graphs)
        spec = job_spec_for(kernel, graphs, ctx=ctx, normalize=normalize)
        seed_job(store, spec, graphs)
        return cls(store, spec, graphs, ttl=ttl)

    @classmethod
    def attach(
        cls,
        store: "ArtifactStore | str",
        job_id: str,
        *,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> "DistributedJob":
        """Re-open a previously seeded job (coordinator restart)."""
        store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        spec, graphs = load_job(store, job_id)
        return cls(store, spec, graphs, ttl=ttl)

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    # ------------------------------------------------------------------ #
    # Watching
    # ------------------------------------------------------------------ #

    def progress(self) -> dict:
        """Ledger + lease snapshot: committed tiles and live workers."""
        done = self.ledger.done_count()
        pending = [key for _, _, key in self.ledger.pending()]
        leases = self.claims.active(pending)
        return {
            "job": self.job_id,
            "done": done,
            "total": self.ledger.total(),
            "active_leases": len(leases),
            "workers": sorted({lease.worker for lease in leases.values()}),
        }

    def wait(
        self,
        *,
        timeout: "float | None" = None,
        poll: float = DEFAULT_WATCH_POLL,
    ) -> dict:
        """Block until every tile is committed; returns final progress.

        Raises a :class:`~repro.errors.DistributedError` carrying the
        last progress snapshot when ``timeout`` elapses first — the
        caller decides whether to spawn more workers or give up.
        """
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        while True:
            if self.ledger.complete():
                return self.progress()
            if deadline is not None and time.monotonic() >= deadline:
                snapshot = self.progress()
                raise DistributedError(
                    f"job {self.job_id} incomplete after {timeout}s: "
                    f"{snapshot['done']}/{snapshot['total']} tiles done, "
                    f"{snapshot['active_leases']} leases active"
                )
            time.sleep(float(poll))

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #

    def assemble(self, *, persist: bool = True) -> np.ndarray:
        """The finished Gram, byte-identical to the single-process run.

        Restores every committed tile through a dense sink (off-diagonal
        mirroring identical to the live engines), then runs the post-pass
        every :meth:`~repro.kernels.base.GraphKernel.gram` ends with: the
        shape check, tile-wise cosine normalisation when the job was
        submitted with ``normalize``, and the sink's commit. Workers
        compute the same tiles the single-process scheduler does, so the
        bytes match.

        ``persist=True`` additionally commits the result under its
        whole-Gram content key, so any later ``kernel.gram(graphs,
        ctx=ctx_with_this_store)`` is a cache hit; collection-dependent
        tile sets are then reclaimed, mirroring
        :func:`~repro.store.artifacts.store_backed_gram`.
        """
        from repro.kernels.base import _finish_gram

        if not self.ledger.complete():
            snapshot = self.progress()
            raise DistributedError(
                f"job {self.job_id} cannot assemble: "
                f"{snapshot['total'] - snapshot['done']} of "
                f"{snapshot['total']} tiles still pending"
            )
        sink = DenseSink()
        try:
            matrix = self.ledger.restore_into(sink)
        except ValidationError as exc:
            # A tile vanished between the completeness probe and the
            # restore (foreign sweep) — surface it as the job's problem.
            raise DistributedError(
                f"job {self.job_id} lost tiles during assembly: {exc}"
            ) from exc
        matrix = _finish_gram(
            matrix,
            sink,
            len(self.graphs),
            owner=f"job {self.job_id}",
            normalize=self.spec.normalize,
            ensure_psd=False,
            tile_size=self.plan.tile_size,
        )
        if persist:
            key = gram_key(
                self.kernel,
                self.graphs,
                normalize=self.spec.normalize,
                ensure_psd=False,
            )
            self.store.put_array("gram", key, matrix)
            self.cleanup(
                discard_tiles=not getattr(
                    self.kernel, "collection_independent", False
                )
            )
        return matrix

    def cleanup(self, *, discard_tiles: bool = False) -> None:
        """Drop the job's lease records (and optionally its tiles)."""
        for _, _, key in self.ledger.entries():
            self.claims.store.delete_bytes(self.claims.kind, key, suffix=".json")
        if discard_tiles:
            from repro.store.tiles import discard_plan_tiles

            discard_plan_tiles(self.store, self.ledger.keyer, self.plan)

    # ------------------------------------------------------------------ #
    # Local participation
    # ------------------------------------------------------------------ #

    def run_inline(self, **worker_kwargs) -> dict:
        """Run one worker inside this process (tests, single-node use)."""
        worker = TileWorker(
            self.store, self.job_id, ttl=self.claims.ttl, **worker_kwargs
        )
        return worker.run()


def spawn_worker(
    store_address: str,
    job_id: str,
    *,
    worker_id: "str | None" = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    tile_delay: float = 0.0,
    python: "str | None" = None,
) -> subprocess.Popen:
    """Launch ``python -m repro.distributed.worker`` as a subprocess.

    The child inherits this process's environment (``PYTHONPATH`` and
    the ``REPRO_*`` knobs included — though the job spec, not the
    environment, decides what the worker computes).
    """
    command = [
        python or sys.executable,
        "-m",
        "repro.distributed.worker",
        "--store",
        str(store_address),
        "--job",
        str(job_id),
        "--ttl",
        str(float(ttl)),
        "--poll",
        str(float(poll)),
    ]
    if worker_id:
        command += ["--worker-id", str(worker_id)]
    if tile_delay:
        command += ["--tile-delay", str(float(tile_delay))]
    return subprocess.Popen(command)


def run_distributed_gram(
    kernel,
    graphs,
    store: "ArtifactStore | str",
    *,
    workers: int = 2,
    ctx=None,
    normalize: "bool | None" = None,
    ttl: float = DEFAULT_LEASE_TTL,
    timeout: "float | None" = 300.0,
    tile_delay: float = 0.0,
) -> np.ndarray:
    """Submit, fan out ``workers`` local subprocesses, wait, assemble.

    The one-call distributed form of ``kernel.gram(graphs, ctx=ctx)``.
    Requires a ``dir:`` (shared-filesystem) store — subprocesses cannot
    see a ``mem:`` backend, which lives in this process's memory.
    """
    if int(workers) < 1:
        raise DistributedError(f"need at least 1 worker, got {workers}")
    job = DistributedJob.submit(store, kernel, graphs, ctx=ctx, normalize=normalize, ttl=ttl)
    if not isinstance(job.store.backend, DirectoryBackend):
        raise DistributedError(
            f"subprocess workers need a shared dir: store, got "
            f"{job.store.address!r} — use run_inline() for in-process "
            "backends"
        )
    procs = [
        spawn_worker(
            job.store.address,
            job.job_id,
            worker_id=f"local-{index}",
            ttl=ttl,
            tile_delay=tile_delay,
        )
        for index in range(int(workers))
    ]
    try:
        job.wait(timeout=timeout)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                proc.kill()
    return job.assemble()
