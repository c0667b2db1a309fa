"""The tile worker: claim → compute → commit → heartbeat, until done.

``python -m repro.distributed.worker --store dir:/shared --job <id>``
turns any machine that can reach the store into one more participant in
a Gram computation. Workers share nothing but the store: the job record
tells them what to compute and exactly how (engine, tile size), the
tile ledger tells them what remains, and the lease table
keeps them off each other's tiles (:mod:`repro.store.claims`).

The loop is deliberately crash-shaped. A worker SIGKILLed at *any* point
leaves either (a) an unclaimed pending tile, (b) a lease that expires
after its TTL and is stolen by a survivor, or (c) a committed tile plus
a stale lease that the next claimant releases — in every case the job
completes with byte-identical results, because tiles are pure functions
of their content keys and commits are idempotent CAS writes.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time
import uuid

from repro.errors import DistributedError
from repro.store.artifacts import ArtifactStore
from repro.store.claims import DEFAULT_LEASE_TTL, TileClaims
from repro.store.tiles import TileLedger, tile_keyer_for

from repro.distributed.jobspec import JOB_KIND, load_job, tile_computer

#: Default seconds a worker sleeps between sweeps that found no free tile.
DEFAULT_POLL = 0.2

#: Default seconds a watching worker sleeps between job-prefix polls.
DEFAULT_WATCH_POLL = 1.0


def default_worker_id() -> str:
    """``host-pid-nonce`` — unique even across forked twins."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


class _HeartbeatThread(threading.Thread):
    """Renews the lease of whichever tile the worker currently computes.

    A daemon thread so a crashing worker takes its heartbeat down with it
    — which is precisely what lets survivors observe the lease expiring.
    """

    def __init__(self, claims: TileClaims, interval: float) -> None:
        super().__init__(name="tile-lease-heartbeat", daemon=True)
        self.claims = claims
        self.interval = float(interval)
        self._lock = threading.Lock()
        self._lease = None
        self._done = threading.Event()

    def watch(self, lease) -> None:
        with self._lock:
            self._lease = lease

    def clear(self) -> None:
        with self._lock:
            self._lease = None

    def stop(self) -> None:
        self._done.set()

    def run(self) -> None:  # pragma: no cover - timing-dependent loop
        while not self._done.wait(self.interval):
            with self._lock:
                lease = self._lease
            if lease is None:
                continue
            renewed = self.claims.heartbeat(lease)
            if renewed is None:
                # Lost to a stealer after a stall; stop renewing and let
                # the main loop's (idempotent) commit finish the tile.
                self.clear()
                continue
            with self._lock:
                if self._lease is not None and self._lease.key == renewed.key:
                    self._lease = renewed


class TileWorker:
    """One claim→compute→commit participant in a seeded job.

    Parameters
    ----------
    store:
        The shared store — an :class:`~repro.store.ArtifactStore` or an
        address string (``dir:/path``, ``mem:name``).
    job_id:
        A job seeded by :func:`repro.distributed.jobspec.seed_job`.
    worker_id:
        Identity written into lease records; defaults to
        ``host-pid-nonce``.
    ttl:
        Lease time-to-live. The heartbeat renews every ``ttl / 4``
        seconds, so only a *dead* worker's leases expire.
    poll:
        Sleep between sweeps that found every pending tile claimed.
    tile_delay:
        Extra seconds slept inside each tile computation — a test/bench
        hook that widens the kill window; never set in production.
    """

    def __init__(
        self,
        store: "ArtifactStore | str",
        job_id: str,
        *,
        worker_id: "str | None" = None,
        ttl: float = DEFAULT_LEASE_TTL,
        poll: float = DEFAULT_POLL,
        tile_delay: float = 0.0,
    ) -> None:
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.job_id = str(job_id)
        self.worker_id = worker_id or default_worker_id()
        self.poll = float(poll)
        self.tile_delay = float(tile_delay)
        self.spec, self.graphs = load_job(self.store, self.job_id)
        self.kernel = self.spec.build_kernel()
        self.engine = self.spec.resolved_engine()
        self.plan = self.spec.plan()
        self.ledger = TileLedger(
            self.store, tile_keyer_for(self.kernel, self.graphs), self.plan
        )
        self.claims = TileClaims(self.store, ttl=ttl)

    def run(self, *, max_tiles: "int | None" = None) -> dict:
        """Participate until the job completes (or ``max_tiles`` landed).

        Returns the worker's accounting: tiles computed here, sweeps
        over the plan, claim contentions lost, and wall-clock seconds.
        """
        stats = {
            "worker": self.worker_id,
            "job": self.job_id,
            "computed": 0,
            "contended": 0,
            "sweeps": 0,
            "elapsed": 0.0,
        }
        started = time.monotonic()
        compute = tile_computer(self.kernel, self.graphs, self.engine)
        heartbeat = _HeartbeatThread(self.claims, self.claims.ttl / 4.0)
        heartbeat.start()
        try:
            while True:
                stats["sweeps"] += 1
                landed = self._sweep(compute, heartbeat, stats, max_tiles)
                if max_tiles is not None and stats["computed"] >= max_tiles:
                    break
                if self.ledger.complete():
                    break
                if not landed:
                    # Everything pending is claimed by live peers (or a
                    # lease has yet to expire) — wait, then re-sweep.
                    time.sleep(self.poll)
        finally:
            heartbeat.stop()
            stats["elapsed"] = time.monotonic() - started
        return stats

    def _sweep(self, compute, heartbeat, stats, max_tiles) -> bool:
        """One pass over the plan; True when at least one tile landed."""
        landed = False
        for rows, cols, key in self.ledger.entries():
            if max_tiles is not None and stats["computed"] >= max_tiles:
                return landed
            if self.ledger.is_done(key):
                continue
            lease = self.claims.claim(key, self.worker_id)
            if lease is None:
                stats["contended"] += 1
                continue
            if self.ledger.is_done(key):
                # Committed between our pending-probe and the claim (we
                # inherited a finished tile's stale lease) — just clean up.
                self.claims.release(lease)
                continue
            heartbeat.watch(lease)
            try:
                block = compute(rows, cols, self.plan.is_diagonal(rows, cols))
                if self.tile_delay:
                    time.sleep(self.tile_delay)
                self.ledger.commit(rows, cols, block)
            finally:
                heartbeat.clear()
            self.claims.release(lease)
            stats["computed"] += 1
            landed = True
        return landed


def watch_jobs(
    store: "ArtifactStore | str",
    *,
    worker_id: "str | None" = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    watch_poll: float = DEFAULT_WATCH_POLL,
    tile_delay: float = 0.0,
    idle_timeout: "float | None" = None,
    max_jobs: "int | None" = None,
) -> dict:
    """Daemon mode: poll the store's job prefix and work every job found.

    Instead of exiting after one ``--job`` id, the worker sweeps
    ``store.list_keys("job")``, participates in each job it has not
    finished yet (newest submissions included — a coordinator can keep
    seeding work at a pool of long-lived watchers), and sleeps
    ``watch_poll`` seconds between sweeps that found nothing new.
    Completed job ids are remembered in-process, so a finished job costs
    one ledger probe per sweep at most once.

    ``idle_timeout`` bounds how long the watcher idles (seconds with no
    job worked) before returning — ``None`` watches forever;
    ``max_jobs`` returns after that many jobs completed (testing hook).
    Returns the watcher's accounting: per-job stats plus totals.
    """
    store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
    worker_id = worker_id or default_worker_id()
    finished: set = set()
    totals = {
        "worker": worker_id,
        "jobs": 0,
        "computed": 0,
        "sweeps": 0,
        "per_job": [],
    }
    idle_since = time.monotonic()
    while True:
        totals["sweeps"] += 1
        worked = False
        for job_id in store.list_keys(JOB_KIND):
            if job_id in finished:
                continue
            worker = TileWorker(
                store,
                job_id,
                worker_id=worker_id,
                ttl=ttl,
                poll=poll,
                tile_delay=tile_delay,
            )
            stats = worker.run()
            finished.add(job_id)
            totals["jobs"] += 1
            totals["computed"] += stats["computed"]
            totals["per_job"].append(stats)
            worked = True
            if max_jobs is not None and totals["jobs"] >= max_jobs:
                return totals
        if worked:
            idle_since = time.monotonic()
        elif (
            idle_timeout is not None
            and time.monotonic() - idle_since >= idle_timeout
        ):
            return totals
        else:
            time.sleep(watch_poll)


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: run one worker against a seeded job."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed.worker",
        description=(
            "Join a distributed Gram computation: claim pending tiles "
            "from the shared store, compute them under the job's pinned "
            "engine and tile size, commit, repeat until complete."
        ),
    )
    parser.add_argument(
        "--store",
        required=True,
        help="store address shared with the coordinator (dir:/path, mem:name)",
    )
    parser.add_argument(
        "--job",
        default=None,
        help="job id printed by the coordinator (required unless --watch)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="daemon mode: poll the store's job prefix and work every job "
        "found instead of exiting after one --job",
    )
    parser.add_argument(
        "--watch-poll",
        type=float,
        default=DEFAULT_WATCH_POLL,
        help="seconds between job-prefix polls in --watch mode "
        f"(default {DEFAULT_WATCH_POLL})",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit --watch mode after this many seconds without work "
        "(default: watch forever)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit --watch mode after completing this many jobs",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="lease identity (default: host-pid-nonce)",
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help=f"lease time-to-live in seconds (default {DEFAULT_LEASE_TTL})",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=DEFAULT_POLL,
        help="seconds between sweeps when all pending tiles are claimed",
    )
    parser.add_argument(
        "--max-tiles",
        type=int,
        default=None,
        help="exit after landing this many tiles (testing hook)",
    )
    parser.add_argument(
        "--tile-delay",
        type=float,
        default=0.0,
        help="extra seconds slept per tile (kill-window testing hook)",
    )
    args = parser.parse_args(argv)
    if args.watch == (args.job is not None):
        parser.error("pass exactly one of --job ID or --watch")
    try:
        if args.watch:
            stats = watch_jobs(
                args.store,
                worker_id=args.worker_id,
                ttl=args.ttl,
                poll=args.poll,
                watch_poll=args.watch_poll,
                tile_delay=args.tile_delay,
                idle_timeout=args.idle_timeout,
                max_jobs=args.max_jobs,
            )
        else:
            worker = TileWorker(
                args.store,
                args.job,
                worker_id=args.worker_id,
                ttl=args.ttl,
                poll=args.poll,
                tile_delay=args.tile_delay,
            )
            stats = worker.run(max_tiles=args.max_tiles)
    except DistributedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(stats, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
