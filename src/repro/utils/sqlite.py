"""One sqlite file behind one locked connection.

The bootstrap and transaction discipline that
:class:`~repro.campaign.db.CampaignDB` and the server's
:class:`~repro.serve.jobs.JobTable` share: create the parent directory,
connect, switch to WAL, apply the subclass's ``CREATE ... IF NOT
EXISTS`` schema, then run every statement through
:meth:`SqliteFile._txn` or :meth:`SqliteFile._read` (lint rule
REPRO005). Durability comes from sqlite itself: every write is one
committed transaction, so a process killed at any point leaves either
the old row or the new row, never a torn one.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager

from repro.errors import CampaignError


class SqliteFile:
    """A sqlite database file (or ``":memory:"``) with ``schema`` applied.

    Several instances, across processes, may share one file; sqlite's
    locking serialises them. Within a process, one thread lock guards
    the shared connection.
    """

    def __init__(self, path: str, schema: str) -> None:
        if not str(path).strip():
            raise CampaignError(f"{type(self).__name__} needs a database path")
        self.path = str(path)
        self._lock = threading.Lock()
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if self.path != ":memory:":
                # WAL keeps readers (status CLIs, peer workers) unblocked
                # while a write transaction runs.
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(schema)
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # ------------------------------------------------------------------ #
    # Transaction discipline (REPRO005): every statement on the shared
    # connection runs inside one of these two helpers.
    # ------------------------------------------------------------------ #

    @contextmanager
    def _txn(self):
        """One committed write transaction on the shared connection.

        ``BEGIN IMMEDIATE`` takes the database write lock up front so
        racing processes serialise at entry instead of deadlocking
        mid-transaction; commit-or-rollback on every exit path means a
        process killed anywhere inside leaves whole rows, never torn
        ones.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                raise
            else:
                self._conn.execute("COMMIT")

    @contextmanager
    def _read(self):
        """The shared connection for reads (thread lock, no transaction)."""
        with self._lock:
            yield self._conn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(path={self.path!r})"
