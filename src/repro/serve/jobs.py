"""The training-job table behind the server's ``POST /train``.

One ``jobs`` row per bundle name. The server that owns the file is its
only writer: request threads submit rows, and one training thread takes
them oldest first, ``pending`` → ``running`` → ``done`` or ``failed``.
Resubmitting a name returns its row and revives a failed one. The file
is the whole state, so a server started over it trains what is still
``pending`` — and, since only one server drives a database, whatever a
dead server left ``running`` (:meth:`JobTable.reset_running`).

Files written by the earlier priority queue open unchanged: its wider
``jobs`` table holds these columns too, and every extra one it declares
has a default.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass

from repro.utils.sqlite import SqliteFile

#: Every status a job row can hold (nothing sets ``cancelled`` any more;
#: files written by the earlier queue may still hold it).
JOB_STATUSES = ("pending", "running", "done", "failed", "cancelled")

#: ``kind`` of every row, and the prefix of its ``key``.
TRAIN_JOB_KIND = "serve-train"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    key TEXT NOT NULL UNIQUE,
    payload TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    result TEXT,
    error TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
"""


@dataclass(frozen=True)
class TrainJob:
    """One snapshot of a job row."""

    id: int
    kind: str
    key: str
    payload: dict
    status: str
    attempts: int
    result: "dict | None"
    error: "str | None"
    created_at: float
    updated_at: float

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "TrainJob":
        return cls(
            id=int(row["id"]),
            kind=row["kind"],
            key=row["key"],
            payload=json.loads(row["payload"]),
            status=row["status"],
            attempts=int(row["attempts"]),
            result=None if row["result"] is None else json.loads(row["result"]),
            error=row["error"],
            created_at=float(row["created_at"]),
            updated_at=float(row["updated_at"]),
        )


class JobTable(SqliteFile):
    """The ``jobs`` table of one sqlite file (or ``":memory:"``).

    ``clock`` stamps ``created_at``/``updated_at``; injectable for tests.
    """

    def __init__(self, path: str, *, clock=time.time) -> None:
        super().__init__(path, _SCHEMA)
        self.clock = clock

    def submit(self, name: str, spec: dict) -> TrainJob:
        """The row of bundle ``name``: a new ``pending`` one, or the
        existing one.

        An existing ``failed`` (or ``cancelled``) row is revived: back to
        ``pending`` with ``spec``, no attempts and no error.
        """
        key = f"{TRAIN_JOB_KIND}:{name}"
        now = self.clock()
        encoded = json.dumps(spec, sort_keys=True)
        with self._txn() as conn:
            row = conn.execute(
                "SELECT status FROM jobs WHERE key=?", (key,)
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO jobs (kind, key, payload, created_at, "
                    "updated_at) VALUES (?, ?, ?, ?, ?)",
                    (TRAIN_JOB_KIND, key, encoded, now, now),
                )
            elif row["status"] in ("failed", "cancelled"):
                conn.execute(
                    "UPDATE jobs SET status='pending', payload=?, attempts=0, "
                    "error=NULL, updated_at=? WHERE key=?",
                    (encoded, now, key),
                )
            row = conn.execute("SELECT * FROM jobs WHERE key=?", (key,)).fetchone()
        return TrainJob.from_row(row)

    def take(self) -> "TrainJob | None":
        """Mark the oldest ``pending`` row ``running`` and return it."""
        with self._txn() as conn:
            row = conn.execute(
                "SELECT id FROM jobs WHERE status='pending' ORDER BY id LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            conn.execute(
                "UPDATE jobs SET status='running', attempts=attempts+1, "
                "updated_at=? WHERE id=?",
                (self.clock(), row["id"]),
            )
            row = conn.execute(
                "SELECT * FROM jobs WHERE id=?", (row["id"],)
            ).fetchone()
        return TrainJob.from_row(row)

    def complete(self, job_id: int, result: dict) -> None:
        self._finish(job_id, "done", json.dumps(result, sort_keys=True), None)

    def fail(self, job_id: int, error: str) -> None:
        self._finish(job_id, "failed", None, str(error))

    def _finish(self, job_id, status, result, error) -> None:
        with self._txn() as conn:
            conn.execute(
                "UPDATE jobs SET status=?, result=?, error=?, updated_at=? "
                "WHERE id=?",
                (status, result, error, self.clock(), int(job_id)),
            )

    def reset_running(self) -> int:
        """Rows a dead server left ``running`` go back to ``pending``."""
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET status='pending', updated_at=? "
                "WHERE status='running'",
                (self.clock(),),
            )
        return cursor.rowcount

    def get(self, job_id: int) -> "TrainJob | None":
        """The row ``job_id``, or ``None`` — also for an id no sqlite
        ``INTEGER`` holds."""
        if not 0 < job_id < 2**63:
            return None
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id=?", (int(job_id),)
            ).fetchone()
        return None if row is None else TrainJob.from_row(row)

    def counts(self) -> "dict[str, int]":
        """``{status: n}`` over every status (zero-filled)."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        return {status: 0 for status in JOB_STATUSES} | {
            row["status"]: int(row["n"]) for row in rows
        }
