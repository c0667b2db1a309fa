"""The sqlite campaign database: durable per-node state for DAG runs.

One file records every campaign it has ever scheduled: a ``campaigns``
row per DAG and a ``campaign_nodes`` row per cell, holding the node's
content key, payload, status, JSON result and stored exception. These
two tables are a campaign's whole scheduling state — the runner picks
its next node straight from them — so it survives SIGKILL as a single
crash-consistent artifact. One runner drives a database at a time.

Resume semantics live here:

* :meth:`CampaignDB.ensure` upserts a campaign's declared nodes. A node
  whose recorded key matches keeps its status (``done`` stays done — the
  skip on resume); a node whose key *changed* (edited kernel config under
  the same grid position) is reset to ``pending``.
* :meth:`CampaignDB.reset_running` returns nodes a dead process left
  ``running`` to ``pending``.
* :meth:`CampaignDB.result_for_key` finds a done result recorded under
  the same content key by any campaign in the file — cross-campaign
  reuse, the DB-level mirror of the artifact store's content addressing.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass

from repro.campaign.nodes import Campaign
from repro.errors import CampaignError
from repro.utils.sqlite import SqliteFile

#: Every status a campaign node can hold.
NODE_STATUSES = ("pending", "running", "done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_nodes (
    campaign TEXT NOT NULL,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    payload TEXT NOT NULL DEFAULT '{}',
    deps TEXT NOT NULL DEFAULT '[]',
    position INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL DEFAULT 'pending',
    reused INTEGER NOT NULL DEFAULT 0,
    result TEXT,
    error TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    started_at REAL,
    finished_at REAL,
    updated_at REAL NOT NULL,
    PRIMARY KEY (campaign, name)
);
CREATE INDEX IF NOT EXISTS campaign_nodes_key ON campaign_nodes(key, status);
"""


@dataclass(frozen=True)
class NodeState:
    """One snapshot of a campaign node's recorded state."""

    campaign: str
    name: str
    kind: str
    key: str
    payload: dict
    deps: "tuple[str, ...]"
    status: str
    reused: bool
    result: "dict | None"
    error: "str | None"
    attempts: int

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "NodeState":
        return cls(
            campaign=row["campaign"],
            name=row["name"],
            kind=row["kind"],
            key=row["key"],
            payload=json.loads(row["payload"]),
            deps=tuple(json.loads(row["deps"])),
            status=row["status"],
            reused=bool(row["reused"]),
            result=None if row["result"] is None else json.loads(row["result"]),
            error=row["error"],
            attempts=int(row["attempts"]),
        )


class CampaignDB(SqliteFile):
    """Durable campaign/node state over one sqlite file.

    ``clock`` is injectable for tests.
    """

    def __init__(self, path: str, *, clock=time.time) -> None:
        super().__init__(path, _SCHEMA)
        self.clock = clock

    # ------------------------------------------------------------------ #
    # Campaign registration / resume
    # ------------------------------------------------------------------ #

    def ensure(self, campaign: Campaign) -> str:
        """Upsert the campaign's declared nodes; returns the campaign id.

        Existing nodes keep their recorded state when their content key
        is unchanged; a changed key resets the node to ``pending`` (its
        inputs changed, its old result is stale). Nodes no longer in the
        declaration are removed.
        """
        cid = campaign.campaign_id
        now = self.clock()
        with self._txn() as conn:
            conn.execute(
                "INSERT INTO campaigns (id, name, created_at, updated_at) "
                "VALUES (?, ?, ?, ?) ON CONFLICT(id) DO UPDATE SET "
                "updated_at=excluded.updated_at",
                (cid, campaign.name, now, now),
            )
            declared = {node.name for node in campaign}
            rows = conn.execute(
                "SELECT name, key FROM campaign_nodes WHERE campaign=?",
                (cid,),
            ).fetchall()
            recorded = {row["name"]: row["key"] for row in rows}
            for stale in set(recorded) - declared:
                conn.execute(
                    "DELETE FROM campaign_nodes WHERE campaign=? AND name=?",
                    (cid, stale),
                )
            for position, node in enumerate(campaign):
                payload = json.dumps(node.payload, sort_keys=True)
                deps = json.dumps(list(node.deps))
                if node.name not in recorded:
                    conn.execute(
                        "INSERT INTO campaign_nodes (campaign, name, kind, "
                        "key, payload, deps, position, updated_at) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (cid, node.name, node.kind, node.key, payload,
                         deps, position, now),
                    )
                elif recorded[node.name] != node.key:
                    conn.execute(
                        "UPDATE campaign_nodes SET kind=?, key=?, "
                        "payload=?, deps=?, position=?, status='pending', "
                        "reused=0, result=NULL, error=NULL, attempts=0, "
                        "started_at=NULL, finished_at=NULL, updated_at=? "
                        "WHERE campaign=? AND name=?",
                        (node.kind, node.key, payload, deps, position,
                         now, cid, node.name),
                    )
                else:
                    conn.execute(
                        "UPDATE campaign_nodes SET kind=?, payload=?, "
                        "deps=?, position=?, updated_at=? "
                        "WHERE campaign=? AND name=?",
                        (node.kind, payload, deps, position, now, cid,
                         node.name),
                    )
        return cid

    def reset_running(self, campaign_id: str) -> int:
        """Nodes a dead process left ``running`` go back to ``pending``."""
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE campaign_nodes SET status='pending', updated_at=? "
                "WHERE campaign=? AND status='running'",
                (self.clock(), str(campaign_id)),
            )
        return cursor.rowcount

    # ------------------------------------------------------------------ #
    # Node transitions
    # ------------------------------------------------------------------ #

    def mark_running(self, campaign_id: str, name: str) -> None:
        now = self.clock()
        self._transition(
            campaign_id, name,
            "status='running', attempts=attempts+1, started_at=?, updated_at=?",
            (now, now),
        )

    def mark_done(
        self, campaign_id: str, name: str, result: "dict | None",
        *, reused: bool = False,
    ) -> None:
        now = self.clock()
        self._transition(
            campaign_id, name,
            "status='done', result=?, error=NULL, reused=?, finished_at=?, "
            "updated_at=?",
            (json.dumps(result, sort_keys=True) if result is not None else None,
             1 if reused else 0, now, now),
        )

    def mark_failed(self, campaign_id: str, name: str, error: str) -> None:
        now = self.clock()
        self._transition(
            campaign_id, name,
            "status='failed', error=?, finished_at=?, updated_at=?",
            (str(error), now, now),
        )

    def revive(self, campaign_id: str) -> int:
        """Failed/cancelled nodes return to ``pending``, errors cleared.

        ``run``/``resume`` call this first: running a campaign again is
        the retry. ``done`` rows are untouched — the skip-by-key resume
        path never recomputes a recorded result.
        """
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE campaign_nodes SET status='pending', error=NULL, "
                "finished_at=NULL, updated_at=? "
                "WHERE campaign=? AND status IN ('failed', 'cancelled')",
                (self.clock(), str(campaign_id)),
            )
        return cursor.rowcount

    def cancel_pending(self, campaign_id: str) -> int:
        """Cancel every pending/running node; returns how many moved."""
        with self._txn() as conn:
            cursor = conn.execute(
                "UPDATE campaign_nodes SET status='cancelled', updated_at=? "
                "WHERE campaign=? AND status IN ('pending', 'running')",
                (self.clock(), str(campaign_id)),
            )
        return cursor.rowcount

    def _transition(self, campaign_id: str, name: str, set_clause: str, params) -> None:
        with self._txn() as conn:
            cursor = conn.execute(
                f"UPDATE campaign_nodes SET {set_clause} "
                "WHERE campaign=? AND name=?",
                tuple(params) + (str(campaign_id), str(name)),
            )
        if cursor.rowcount == 0:
            raise CampaignError(
                f"campaign {campaign_id!r} has no node {name!r} in {self.path!r}"
            )

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def node_states(self, campaign_id: str) -> "dict[str, NodeState]":
        """Every node of the campaign, in declared order."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM campaign_nodes WHERE campaign=? "
                "ORDER BY position ASC",
                (str(campaign_id),),
            ).fetchall()
        return {row["name"]: NodeState.from_row(row) for row in rows}

    def results(self, campaign_id: str) -> "dict[str, dict]":
        """``{name: result}`` over the campaign's done nodes."""
        return {
            name: state.result
            for name, state in self.node_states(campaign_id).items()
            if state.status == "done"
        }

    def counts(self, campaign_id: str) -> "dict[str, int]":
        counts = {status: 0 for status in NODE_STATUSES}
        for state in self.node_states(campaign_id).values():
            counts[state.status] += 1
        return counts

    def failed_nodes(self, campaign_id: str) -> "list[NodeState]":
        return [
            state for state in self.node_states(campaign_id).values()
            if state.status == "failed"
        ]

    def result_for_key(
        self, key: str, *, exclude: "tuple[str, str] | None" = None
    ) -> "dict | None":
        """A done result recorded under ``key`` by any campaign, if any.

        ``exclude`` names one ``(campaign, node)`` to skip — the node
        currently being scheduled must not reuse itself. ``done`` rows
        with a ``NULL`` result cannot be distinguished from "no result",
        so executors always return at least an empty dict.
        """
        query = (
            "SELECT campaign, name, result FROM campaign_nodes "
            "WHERE key=? AND status='done' AND result IS NOT NULL"
        )
        params: list = [str(key)]
        if exclude is not None:
            query += " AND NOT (campaign=? AND name=?)"
            params.extend([str(exclude[0]), str(exclude[1])])
        query += " ORDER BY finished_at DESC LIMIT 1"
        with self._read() as conn:
            row = conn.execute(query, params).fetchone()
        return None if row is None else json.loads(row["result"])

    def campaigns(self) -> "list[dict]":
        """Every recorded campaign: id, name, per-status node counts."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT id, name, created_at FROM campaigns "
                "ORDER BY created_at ASC"
            ).fetchall()
        listed = []
        for row in rows:
            entry = {"id": row["id"], "name": row["name"]}
            entry.update(self.counts(row["id"]))
            listed.append(entry)
        return listed
