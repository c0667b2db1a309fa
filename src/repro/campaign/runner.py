"""The campaign runner: execute ready DAG nodes straight from the DB.

One :class:`CampaignRunner` drives one campaign to completion:

1. :meth:`~repro.campaign.db.CampaignDB.ensure` upserts the declared
   nodes (unchanged keys keep their state — the resume path), nodes a
   dead process left ``running`` return to ``pending``, and failed or
   cancelled nodes are revived (running again is the retry);
2. every ``pending`` node whose dependencies are all ``done`` and whose
   content key already has a recorded result
   (:meth:`~repro.campaign.db.CampaignDB.result_for_key`) adopts that
   result instead of executing;
3. of the remaining ready nodes, the highest-priority one executes
   through its registered executor (ties go to the first in
   :meth:`~repro.campaign.nodes.Campaign.toposort` order, which keeps
   declared order among peers), its result or stored exception is
   recorded, and step 2 repeats until nothing is runnable.

The campaign DB is the whole schedule: a SIGKILL at any instant loses
at most the node that was mid-execution, which the next run finds
``running`` and executes again. One runner drives a database at a time;
nothing stops a second one from executing the same node. Failed nodes
stay failed within a run (their dependents are *blocked*, not
cancelled).
"""

from __future__ import annotations

import os
import tempfile
import traceback
from dataclasses import dataclass, field

from repro.campaign.db import CampaignDB, NodeState
from repro.campaign.nodes import Campaign, CampaignNode, CampaignPlan
from repro.campaign.registry import executor_for
from repro.errors import CampaignError


@dataclass
class CampaignRun:
    """The outcome of one :meth:`CampaignRunner.run` call."""

    campaign_id: str
    plan: CampaignPlan
    counts: "dict[str, int]"
    results: "dict[str, dict]"
    failed: "list[NodeState]" = field(default_factory=list)
    blocked: "list[str]" = field(default_factory=list)
    executed: int = 0
    reused: int = 0
    restored: int = 0
    stopped: bool = False

    @property
    def ok(self) -> bool:
        """True when every node is done (nothing failed/blocked/stopped)."""
        return not self.failed and not self.blocked and not self.stopped

    def report(self) -> str:
        """The plan's report, rendered from the done-node results."""
        return self.plan.report(self.results)

    def summary(self) -> str:
        """One status line: ``done a/b (executed x, skipped y, ...)``."""
        total = sum(self.counts.values())
        parts = [f"executed {self.executed}", f"skipped {self.restored + self.reused}"]
        if self.failed:
            parts.append(f"failed {len(self.failed)}")
        if self.blocked:
            parts.append(f"blocked {len(self.blocked)}")
        return (
            f"campaign {self.campaign_id}: done {self.counts['done']}/{total} "
            f"({', '.join(parts)})"
        )


class CampaignRunner:
    """Executes one campaign's ready nodes, recording each in the DB.

    Parameters
    ----------
    plan:
        A :class:`~repro.campaign.nodes.CampaignPlan` (or bare
        :class:`~repro.campaign.nodes.Campaign`).
    db:
        The :class:`~repro.campaign.db.CampaignDB` recording node state.
    ctx:
        The :class:`~repro.api.ExecutionContext` handed to every
        executor (engine, store, normalisation).
    """

    def __init__(
        self,
        plan: "CampaignPlan | Campaign",
        db: CampaignDB,
        *,
        ctx=None,
    ) -> None:
        if isinstance(plan, Campaign):
            plan = CampaignPlan(plan)
        if not isinstance(plan, CampaignPlan):
            raise CampaignError(
                f"CampaignRunner needs a CampaignPlan or Campaign, got "
                f"{type(plan).__name__}"
            )
        self.plan = plan
        self.campaign = plan.campaign
        self.db = db
        self.ctx = ctx

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, *, max_nodes: "int | None" = None) -> CampaignRun:
        """Drive the campaign until nothing is runnable.

        ``max_nodes`` stops after executing that many nodes — the
        testing hook the kill/resume suites use to leave a campaign
        half-finished deterministically.
        """
        cid = self.db.ensure(self.campaign)
        self.db.reset_running(cid)
        self.db.revive(cid)
        restored = self.db.counts(cid)["done"]
        executed = reused = 0
        stopped = False
        while True:
            node, adopted = self._next_node(cid)
            reused += adopted
            if node is None:
                break
            self.db.mark_running(cid, node.name)
            try:
                result = executor_for(node.kind)(dict(node.payload), self.ctx)
                self.db.mark_done(cid, node.name, {} if result is None else result)
                executed += 1
            except KeyboardInterrupt:
                # Leave the node pending so a resume re-runs it cleanly.
                self.db.reset_running(cid)
                raise
            except Exception:
                self.db.mark_failed(cid, node.name, traceback.format_exc())
            if max_nodes is not None and executed >= max_nodes:
                stopped = self._unfinished(cid)
                break
        return self._outcome(
            cid, executed=executed, reused=reused, restored=restored,
            stopped=stopped,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _next_node(self, cid: str) -> "tuple[CampaignNode | None, int]":
        """The next node to execute, and how many results were adopted.

        Walks the ready nodes (``pending``, every dependency ``done``)
        in toposort order. A node whose content key already has a
        recorded result (this file, any campaign) adopts it and counts
        as done for the nodes after it; of the rest, the first with the
        highest priority is returned (``None`` when nothing is ready).
        """
        status = {
            name: state.status
            for name, state in self.db.node_states(cid).items()
        }
        chosen = None
        adopted = 0
        for node in self.campaign.toposort():
            if status[node.name] != "pending" or any(
                status[dep] != "done" for dep in node.deps
            ):
                continue
            recorded = self.db.result_for_key(node.key, exclude=(cid, node.name))
            if recorded is not None:
                self.db.mark_done(cid, node.name, recorded, reused=True)
                status[node.name] = "done"
                adopted += 1
            elif chosen is None or node.priority > chosen.priority:
                chosen = node
        return chosen, adopted

    def _unfinished(self, cid: str) -> bool:
        counts = self.db.counts(cid)
        return counts["pending"] > 0 or counts["running"] > 0

    def _outcome(self, cid, *, executed, reused, restored, stopped) -> CampaignRun:
        states = self.db.node_states(cid)
        failed = [s for s in states.values() if s.status == "failed"]
        blocked = []
        for name, state in states.items():
            if state.status != "pending":
                continue
            broken = [
                dep for dep in state.deps
                if states[dep].status in ("failed", "cancelled")
                or dep in blocked
            ]
            if broken and not stopped:
                blocked.append(name)
        return CampaignRun(
            campaign_id=cid,
            plan=self.plan,
            counts=self.db.counts(cid),
            results=self.db.results(cid),
            failed=failed,
            blocked=blocked,
            executed=executed,
            reused=reused,
            restored=restored,
            stopped=stopped,
        )


def default_db_path(ctx) -> "str | None":
    """The campaign database that rides the context's store, if any.

    A directory-backed store hosts ``campaign.db`` next to its
    artifacts, so one ``--store`` flag gives a sweep both its Gram cache
    and its durable schedule; address-only backends (``mem:``) have no
    local file to offer.
    """
    store = getattr(ctx, "store", None)
    if store is None:
        return None
    path = store.backend.local_path("campaign.db")
    return path


def run_campaign_plan(
    plan: CampaignPlan,
    *,
    ctx=None,
    db: "CampaignDB | None" = None,
    db_path: "str | None" = None,
    max_nodes: "int | None" = None,
) -> CampaignRun:
    """Build the runner plumbing around ``plan`` and run it.

    Database resolution: an explicit ``db`` or ``db_path`` wins, else
    the context's store hosts ``campaign.db``
    (:func:`default_db_path`), else the run is ephemeral — scheduled
    through a throwaway sqlite file that is deleted afterwards (the
    in-process convenience path ``run_table4`` and friends use).
    """
    ephemeral_dir = None
    close_db = False
    if db is None:
        if db_path is None:
            db_path = default_db_path(ctx)
        if db_path is None:
            ephemeral_dir = tempfile.TemporaryDirectory(prefix="repro-campaign-")
            db_path = os.path.join(ephemeral_dir.name, "campaign.db")
        db = CampaignDB(db_path)
        close_db = True
    try:
        return CampaignRunner(plan, db, ctx=ctx).run(max_nodes=max_nodes)
    finally:
        if close_db:
            db.close()
        if ephemeral_dir is not None:
            ephemeral_dir.cleanup()
