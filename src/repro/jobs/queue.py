"""A sqlite-backed priority job queue with a crash-shaped lifecycle.

One ``jobs`` table holds every job ever submitted; the queue is the set
of ``pending`` rows. The lifecycle mirrors the lease protocol of
:mod:`repro.store.claims`, translated from store records to sqlite rows:

* :meth:`JobQueue.submit` inserts a ``pending`` row (idempotent under a
  caller-chosen ``key`` — resubmitting an existing key returns the
  existing job, so a restarted scheduler never duplicates work);
* :meth:`JobQueue.claim` atomically flips the highest-priority runnable
  row to ``running`` and stamps a lease deadline for the claiming
  worker — exactly one claimant wins a job (``BEGIN IMMEDIATE``
  serialises racing processes on the database file);
* :meth:`JobQueue.heartbeat` advances a running job's lease deadline;
  :meth:`JobQueue.requeue_expired` returns jobs whose worker missed its
  deadline (SIGKILL, OOM) to ``pending`` — the claim/TTL semantics of
  :class:`~repro.store.claims.TileClaims`, without burning a retry,
  because a dead worker says nothing about whether the job can succeed;
* :meth:`JobQueue.fail` retries with exponential backoff while attempts
  remain, else parks the job as ``failed`` with its stored error;
  :meth:`JobQueue.complete` / :meth:`JobQueue.cancel` finish the
  terminal states.

Durability comes from sqlite itself: every transition is one committed
transaction, so a process killed at any point leaves either the old row
or the new row, never a torn one.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass

from repro.errors import CampaignError
from repro.utils.sqlite import SqliteFile

#: Every status a job row can hold.
JOB_STATUSES = ("pending", "running", "done", "failed", "cancelled")

#: Statuses a job never leaves on its own.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Default seconds a running job's lease stays valid without a heartbeat.
DEFAULT_LEASE_TTL = 60.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    kind TEXT NOT NULL,
    key TEXT,
    payload TEXT NOT NULL DEFAULT '{}',
    priority INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_retries INTEGER NOT NULL DEFAULT 0,
    backoff REAL NOT NULL DEFAULT 0.0,
    not_before REAL NOT NULL DEFAULT 0.0,
    worker TEXT,
    lease_ttl REAL NOT NULL DEFAULT 60.0,
    lease_deadline REAL,
    result TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE UNIQUE INDEX IF NOT EXISTS jobs_key
    ON jobs(key) WHERE key IS NOT NULL;
CREATE INDEX IF NOT EXISTS jobs_claimable
    ON jobs(status, priority, id);
"""


@dataclass(frozen=True)
class QueuedJob:
    """One immutable snapshot of a job row."""

    id: int
    kind: str
    key: "str | None"
    payload: dict
    priority: int
    status: str
    attempts: int
    max_retries: int
    backoff: float
    not_before: float
    worker: "str | None"
    lease_ttl: float
    lease_deadline: "float | None"
    result: "dict | None"
    error: "str | None"
    created_at: float
    updated_at: float

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "QueuedJob":
        return cls(
            id=int(row["id"]),
            kind=row["kind"],
            key=row["key"],
            payload=json.loads(row["payload"]),
            priority=int(row["priority"]),
            status=row["status"],
            attempts=int(row["attempts"]),
            max_retries=int(row["max_retries"]),
            backoff=float(row["backoff"]),
            not_before=float(row["not_before"]),
            worker=row["worker"],
            lease_ttl=float(row["lease_ttl"]),
            lease_deadline=(
                None if row["lease_deadline"] is None else float(row["lease_deadline"])
            ),
            result=None if row["result"] is None else json.loads(row["result"]),
            error=row["error"],
            created_at=float(row["created_at"]),
            updated_at=float(row["updated_at"]),
        )


class JobQueue(SqliteFile):
    """A persistent priority queue over one sqlite database.

    Parameters
    ----------
    path:
        Database file (created with its parent directory if missing), or
        ``":memory:"`` for an ephemeral in-process queue. Several
        :class:`JobQueue` instances — across processes — may share one
        file; sqlite's locking serialises them.
    clock:
        Time source (``time.time``); injectable so retry backoff and
        lease expiry are testable in virtual time.
    """

    def __init__(self, path: str, *, clock=time.time) -> None:
        super().__init__(path, _SCHEMA)
        self.clock = clock

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        kind: str,
        payload: "dict | None" = None,
        *,
        key: "str | None" = None,
        priority: int = 0,
        max_retries: int = 0,
        backoff: float = 1.0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> QueuedJob:
        """Enqueue a job; returns the (possibly pre-existing) row.

        ``key`` is the job's dedup identity: submitting a key that is
        already pending/running/done returns that job untouched, while a
        ``failed`` or ``cancelled`` row under the key is *revived* —
        reset to pending with a fresh retry budget. That makes
        "re-submit everything" the correct, idempotent way to resume a
        half-finished schedule.
        """
        if float(lease_ttl) <= 0:
            raise CampaignError(f"lease_ttl must be > 0 seconds, got {lease_ttl!r}")
        now = self.clock()
        encoded = json.dumps(payload or {}, sort_keys=True)
        with self._txn() as conn:
            job_id = None
            if key is not None:
                row = conn.execute(
                    "SELECT * FROM jobs WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    if row["status"] in ("failed", "cancelled"):
                        conn.execute(
                            "UPDATE jobs SET status='pending', attempts=0, "
                            "worker=NULL, lease_deadline=NULL, error=NULL, "
                            "not_before=0.0, payload=?, priority=?, "
                            "max_retries=?, backoff=?, lease_ttl=?, "
                            "updated_at=? WHERE id = ?",
                            (encoded, int(priority), int(max_retries),
                             float(backoff), float(lease_ttl), now, row["id"]),
                        )
                    job_id = int(row["id"])
            if job_id is None:
                cursor = conn.execute(
                    "INSERT INTO jobs (kind, key, payload, priority, "
                    "max_retries, backoff, lease_ttl, created_at, updated_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (str(kind), key, encoded, int(priority), int(max_retries),
                     float(backoff), float(lease_ttl), now, now),
                )
                job_id = int(cursor.lastrowid)
        return self.get(job_id)

    def cancel(self, job_id: int) -> bool:
        """Cancel a pending/running job; True when the row transitioned.

        A running job's worker only notices at its next heartbeat (the
        heartbeat returns ``False``); its in-flight work is discarded by
        the status, not interrupted.
        """
        now = self.clock()
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET status='cancelled', updated_at=?, "
                "lease_deadline=NULL WHERE id=? AND status IN "
                "('pending', 'running')",
                (now, int(job_id)),
            )
        return cursor.rowcount > 0

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #

    def claim(
        self, worker: str, *, kinds: "tuple | list | None" = None
    ) -> "QueuedJob | None":
        """Atomically take the best runnable job for ``worker``.

        Order: highest ``priority`` first, then FIFO by id. A pending
        job still inside its retry backoff window (``not_before`` in the
        future) is invisible. Returns ``None`` when nothing is runnable.
        """
        now = self.clock()
        query = (
            "SELECT * FROM jobs WHERE status='pending' AND not_before <= ?"
        )
        params: list = [now]
        if kinds:
            marks = ", ".join("?" for _ in kinds)
            query += f" AND kind IN ({marks})"
            params.extend(str(kind) for kind in kinds)
        query += " ORDER BY priority DESC, id ASC LIMIT 1"
        with self._txn() as conn:
            row = conn.execute(query, params).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET status='running', worker=?, "
                "attempts=attempts+1, lease_deadline=?, updated_at=? "
                "WHERE id=?",
                (str(worker), now + float(row["lease_ttl"]), now, row["id"]),
            )
        return self.get(int(row["id"]))

    def heartbeat(self, job_id: int, worker: str) -> bool:
        """Advance a running job's lease; False when the job was lost
        (cancelled, requeued after an expiry, or claimed by another
        worker) — the signal for the worker to abandon it."""
        now = self.clock()
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_deadline = ? + lease_ttl, updated_at=? "
                "WHERE id=? AND status='running' AND worker=?",
                (now, now, int(job_id), str(worker)),
            )
        return cursor.rowcount > 0

    def complete(self, job_id: int, result: "dict | None" = None) -> QueuedJob:
        """Mark a job done, storing its JSON result."""
        now = self.clock()
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET status='done', result=?, error=NULL, "
                "lease_deadline=NULL, updated_at=? WHERE id=?",
                (json.dumps(result, sort_keys=True) if result is not None else None,
                 now, int(job_id)),
            )
        return self.get(int(job_id))

    def fail(self, job_id: int, error: str) -> QueuedJob:
        """Record a failed attempt: retry with backoff, or park as failed.

        While ``attempts <= max_retries`` the job returns to ``pending``
        with ``not_before = now + backoff * 2**(attempts-1)`` (exponential
        backoff, first retry after one full ``backoff``); past the budget
        it lands in ``failed`` with ``error`` stored for triage.
        """
        now = self.clock()
        with self._txn() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id=?", (int(job_id),)
            ).fetchone()
            if row is None:
                raise CampaignError(f"no job {job_id!r} in {self.path!r}")
            if int(row["attempts"]) <= int(row["max_retries"]):
                delay = float(row["backoff"]) * (
                    2.0 ** max(int(row["attempts"]) - 1, 0)
                )
                conn.execute(
                    "UPDATE jobs SET status='pending', worker=NULL, "
                    "lease_deadline=NULL, not_before=?, error=?, "
                    "updated_at=? WHERE id=?",
                    (now + delay, str(error), now, int(job_id)),
                )
            else:
                conn.execute(
                    "UPDATE jobs SET status='failed', worker=NULL, "
                    "lease_deadline=NULL, error=?, updated_at=? WHERE id=?",
                    (str(error), now, int(job_id)),
                )
        return self.get(int(job_id))

    def requeue_expired(self) -> "list[QueuedJob]":
        """Return every running job whose lease lapsed to ``pending``.

        The sqlite translation of the tile-lease steal: a worker that
        died mid-job stops heartbeating, its lease deadline passes, and
        the job becomes claimable again. Expiry does *not* consume a
        retry — the attempt counter already advanced at claim time, but
        ``max_retries`` budgets failures, and a dead worker is not
        evidence the job itself fails (``fail`` handles that).
        """
        now = self.clock()
        with self._txn() as conn:
            rows = conn.execute(
                "SELECT id FROM jobs WHERE status='running' AND "
                "lease_deadline IS NOT NULL AND lease_deadline < ?",
                (now,),
            ).fetchall()
            ids = [int(row["id"]) for row in rows]
            for job_id in ids:
                conn.execute(
                    "UPDATE jobs SET status='pending', worker=NULL, "
                    "lease_deadline=NULL, attempts=attempts-1, "
                    "updated_at=? WHERE id=?",
                    (now, job_id),
                )
        return [self.get(job_id) for job_id in ids]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def get(self, job_id: int) -> QueuedJob:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id=?", (int(job_id),)
            ).fetchone()
        if row is None:
            raise CampaignError(f"no job {job_id!r} in {self.path!r}")
        return QueuedJob.from_row(row)

    def wait(
        self, job_id: int, *, timeout: float = 60.0, poll: float = 0.05
    ) -> QueuedJob:
        """Block until the job reaches a terminal state; return it.

        Polling, not notification — sqlite has no wakeups, and the
        waiters (serve-layer tests, CLI train-and-wait flows) are not
        latency-critical. Raises :class:`CampaignError` on timeout with
        the job's last observed status, so a hung worker is diagnosable.
        """
        deadline = time.monotonic() + float(timeout)
        while True:
            job = self.get(job_id)
            if job.terminal:
                return job
            if time.monotonic() >= deadline:
                raise CampaignError(
                    f"job {job_id} still {job.status!r} after "
                    f"{timeout:.1f}s (worker {job.worker!r})"
                )
            time.sleep(poll)

    def by_key(self, key: str) -> "QueuedJob | None":
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE key=?", (str(key),)
            ).fetchone()
        return None if row is None else QueuedJob.from_row(row)

    def list_jobs(
        self, *, status: "str | None" = None, kind: "str | None" = None
    ) -> "list[QueuedJob]":
        query, params = "SELECT * FROM jobs", []
        clauses = []
        if status is not None:
            if status not in JOB_STATUSES:
                raise CampaignError(
                    f"unknown job status {status!r}; expected one of "
                    f"{', '.join(JOB_STATUSES)}"
                )
            clauses.append("status=?")
            params.append(status)
        if kind is not None:
            clauses.append("kind=?")
            params.append(str(kind))
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY priority DESC, id ASC"
        with self._read() as conn:
            rows = conn.execute(query, params).fetchall()
        return [QueuedJob.from_row(row) for row in rows]

    def counts(self) -> "dict[str, int]":
        """``{status: n}`` over every status (zero-filled)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in JOB_STATUSES}
        for row in rows:
            counts[row["status"]] = int(row["n"])
        return counts
