"""The training jobs behind ``POST /train`` (:mod:`repro.serve.jobs`).

The table keeps one row per bundle name: a resubmitted name returns its
row and a failed one is revived; rows train oldest first; ``/healthz``
counts them by status. A server started over a file trains the rows a
dead server left ``running``, and files written by the earlier priority
queue, whose wider ``jobs`` table is :data:`PARENT_SCHEMA`, open and
take new rows.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time

import pytest

from repro.serve import ServeApp
from repro.serve.jobs import JOB_STATUSES, JobTable
from repro.store import ArtifactStore

from held_predict import PATIENCE

KIND = "serve-train"

#: A spec that trains in about a second.
SPEC = {
    "name": "restarted", "dataset": "MUTAG", "scale": 0.1, "seed": 1,
    "limit": None, "tu_dir": None, "kernel": "WLSK", "prototypes": 16,
    "kernel_seed": 0, "c": 10.0, "normalize": False,
}

#: The ``jobs`` table as the earlier priority queue declared it.
PARENT_SCHEMA = """
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


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = float(now)

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture()
def table(tmp_path):
    table = JobTable(str(tmp_path / "jobs.db"), clock=FakeClock())
    yield table
    table.close()


def submit(table, name, **spec):
    return table.submit(name, {"name": name, **spec})


@pytest.fixture()
def parent_file(tmp_path):
    """A file the earlier queue wrote: a done row, a row its server was
    training when it died (3 599 s of its 3 600 s lease left), and a
    cancelled row."""
    path = str(tmp_path / "serve-jobs.db")
    conn = sqlite3.connect(path)
    conn.executescript(PARENT_SCHEMA)
    conn.execute(
        "INSERT INTO jobs (kind, key, payload, status, attempts, result, "
        "lease_ttl, created_at, updated_at) VALUES (?, ?, ?, 'done', 1, ?, "
        "3600.0, 10.0, 20.0)",
        (KIND, f"{KIND}:old", json.dumps({"name": "old"}),
         json.dumps({"bundle": "old"})),
    )
    conn.execute(
        "INSERT INTO jobs (kind, key, payload, status, attempts, worker, "
        "lease_ttl, lease_deadline, created_at, updated_at) VALUES "
        "(?, ?, ?, 'running', 1, 'serve-train-1', 3600.0, 4599.0, 999.0, "
        "1000.0)",
        (KIND, f"{KIND}:restarted", json.dumps(SPEC, sort_keys=True)),
    )
    conn.execute(
        "INSERT INTO jobs (kind, key, payload, status, created_at, "
        "updated_at) VALUES (?, ?, ?, 'cancelled', 30.0, 40.0)",
        (KIND, f"{KIND}:cancelled", json.dumps({"name": "cancelled"})),
    )
    conn.commit()
    conn.close()
    return path


class TestJobTable:
    def test_submit_take_complete_roundtrip(self, table):
        job = submit(table, "a", seed=0)
        assert (job.kind, job.key, job.status) == (KIND, f"{KIND}:a", "pending")
        assert (job.payload, job.attempts) == ({"name": "a", "seed": 0}, 0)
        taken = table.take()
        assert (taken.id, taken.status, taken.attempts) == (job.id, "running", 1)
        table.complete(taken.id, {"bundle": "a"})
        done = table.get(job.id)
        assert (done.status, done.result, done.error) == ("done", {"bundle": "a"}, None)
        assert table.take() is None

    def test_resubmitting_a_name_returns_its_row(self, table):
        first = submit(table, "a", seed=0)
        again = submit(table, "a", seed=1)
        assert again == first
        assert table.take().id == first.id
        running = submit(table, "a", seed=2)
        assert (running.id, running.status) == (first.id, "running")
        assert running.payload == {"name": "a", "seed": 0}
        table.complete(first.id, {"bundle": "a"})
        done = submit(table, "a", seed=3)
        assert (done.status, done.result) == ("done", {"bundle": "a"})
        assert sum(table.counts().values()) == 1

    def test_failed_row_is_revived_on_resubmit(self, table):
        job = submit(table, "a", dataset="NOPE")
        table.take()
        table.fail(job.id, "DatasetError: NOPE")
        failed = table.get(job.id)
        assert (failed.status, failed.attempts) == ("failed", 1)
        assert failed.error == "DatasetError: NOPE"
        revived = submit(table, "a", dataset="MUTAG")
        assert revived.id == job.id
        assert (revived.status, revived.attempts, revived.error) == ("pending", 0, None)
        assert revived.payload == {"name": "a", "dataset": "MUTAG"}
        assert revived.updated_at > failed.updated_at

    def test_rows_are_taken_oldest_first(self, table):
        ids = [submit(table, name).id for name in ("c", "a", "b")]
        taken = [table.take() for _ in ids]
        assert [job.id for job in taken] == ids
        assert all(job.status == "running" and job.attempts == 1 for job in taken)
        assert table.take() is None

    def test_rows_are_counted_by_status(self, table):
        assert table.counts() == dict.fromkeys(JOB_STATUSES, 0)
        ids = [submit(table, name).id for name in ("a", "b", "c")]
        for _ in ids:
            table.take()
        table.complete(ids[0], {})
        table.fail(ids[1], "boom")
        submit(table, "d")
        submit(table, "e")
        assert table.counts() == {
            "pending": 2, "running": 1, "done": 1, "failed": 1, "cancelled": 0,
        }
        assert tuple(table.counts()) == JOB_STATUSES

    def test_reset_running_returns_running_rows_to_pending(self, table):
        job = submit(table, "a")
        table.take()
        assert table.reset_running() == 1
        assert table.get(job.id).status == "pending"
        assert table.take().attempts == 2

    def test_unknown_id_reads_none(self, table):
        submit(table, "a")
        assert [table.get(i) for i in (2, 0, -1, 2**63)] == [None] * 4

    def test_table_survives_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.db")
        table = JobTable(path, clock=FakeClock())
        try:
            job = submit(table, "persisted", seed=1)
        finally:
            table.close()
        reopened = JobTable(path, clock=FakeClock())
        try:
            assert reopened.get(job.id) == job
            assert submit(reopened, "persisted", seed=2) == job
        finally:
            reopened.close()

    def test_cancelled_row_of_parent_file_is_revived(self, parent_file):
        table = JobTable(parent_file, clock=FakeClock(5000.0))
        try:
            cancelled = table.get(3)
            assert (cancelled.key, cancelled.status) == (f"{KIND}:cancelled", "cancelled")
            revived = submit(table, "cancelled", seed=5)
            assert (revived.id, revived.status, revived.attempts) == (3, "pending", 0)
            assert revived.payload == {"name": "cancelled", "seed": 5}
            assert revived.updated_at > 5000.0
            assert table.counts()["cancelled"] == 0
        finally:
            table.close()

    def test_parent_file_is_read_and_written(self, parent_file):
        table = JobTable(parent_file, clock=FakeClock(5000.0))
        try:
            old = table.get(1)
            assert (old.kind, old.key, old.status) == (KIND, f"{KIND}:old", "done")
            assert (old.result, old.created_at, old.updated_at) == (
                {"bundle": "old"}, 10.0, 20.0,
            )
            assert submit(table, "old").id == 1
            new = submit(table, "new", seed=4)
            assert (new.id, new.kind, new.status) == (4, KIND, "pending")
            assert new.created_at == new.updated_at > 5000.0
            assert submit(table, "cancelled").status == "pending"
            assert table.reset_running() == 1
            assert [table.take().id for _ in range(3)] == [2, 3, 4]
            table.complete(4, {"bundle": "new"})
            assert table.counts() == {
                "pending": 0, "running": 2, "done": 2, "failed": 0, "cancelled": 0,
            }
        finally:
            table.close()


class TestTrainWorker:
    def test_running_row_of_a_dead_server_trains_at_start(self, parent_file):
        store = ArtifactStore("mem:restarted-jobs")
        app = ServeApp(store, jobs_db=parent_file)
        try:
            done = _wait_until_finished(app, 2)
            assert done["status"] == "done", done["error"]
            assert done["result"]["bundle"] == "restarted"
            assert done["attempts"] == 2
            _, payload, _ = app.handle("GET", "/healthz", {}, None)
            assert payload["jobs"]["done"] == 2
        finally:
            app.close()

    def test_idle_server_runs_no_sqlite_statement(self, monkeypatch):
        taken = threading.Event()
        take = JobTable.take

        def observed_take(table):
            job = take(table)
            taken.set()
            return job

        monkeypatch.setattr(JobTable, "take", observed_take)
        app = ServeApp(ArtifactStore("mem:idle-jobs"), jobs_db=":memory:")
        try:
            assert taken.wait(PATIENCE)  # the start-up look at the file
            statements = []
            app.jobs._conn.set_trace_callback(statements.append)
            time.sleep(0.1)
            assert statements == []
        finally:
            app.close()


def _wait_until_finished(app, job_id, *, timeout=120):
    """Poll ``GET /jobs/<id>`` through the app until done or failed."""
    deadline = time.monotonic() + timeout
    while True:
        status, job, _ = app.handle("GET", f"/jobs/{job_id}", {}, None)
        assert status == 200
        if job["status"] in ("done", "failed"):
            return job
        assert time.monotonic() < deadline, (
            f"job {job_id} still {job['status']!r} after {timeout}s"
        )
        time.sleep(0.05)
