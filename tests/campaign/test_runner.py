"""CampaignRunner: scheduling from the campaign DB, resume, reuse, failure."""

import pytest

from repro.campaign import (
    Campaign,
    CampaignDB,
    CampaignNode,
    CampaignPlan,
    CampaignRunner,
    node_key,
    register_executor,
    run_campaign_plan,
)
from repro.errors import CampaignError

#: Execution trace the synthetic executors append to (reset per test).
CALLS = []


@register_executor("runnertest.ok")
def _ok_executor(payload, ctx):
    CALLS.append(payload["name"])
    return {"value": payload.get("value", 0)}


@register_executor("runnertest.boom")
def _boom_executor(payload, ctx):
    CALLS.append(payload["name"])
    raise RuntimeError(f"boom in {payload['name']}")


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


@pytest.fixture()
def db(tmp_path):
    db = CampaignDB(str(tmp_path / "campaign.db"))
    yield db
    db.close()


def _node(name, deps=(), kind="runnertest.ok", value=0, priority=0, **params):
    return CampaignNode(
        name,
        kind,
        node_key(kind, params={"name": name, "value": value, **params}),
        payload={"name": name, "value": value},
        deps=deps,
        priority=priority,
    )


def _chain(campaign_name="chain", **params):
    return Campaign(
        campaign_name,
        [
            _node("gram", value=1, **params),
            _node("cell", deps=("gram",), value=2, **params),
            _node("row", deps=("cell",), value=3, **params),
        ],
    )


def test_runs_nodes_in_dependency_order(db):
    run = CampaignRunner(_chain(), db).run()
    assert run.ok
    assert run.executed == 3
    assert CALLS == ["gram", "cell", "row"]
    assert run.results["row"] == {"value": 3}
    assert run.counts["done"] == 3


def test_resume_skips_every_done_node(db):
    campaign = _chain()
    CampaignRunner(campaign, db).run()
    CALLS.clear()

    resumed = CampaignRunner(_chain(), db).run()
    assert resumed.ok
    assert resumed.executed == 0
    assert resumed.restored == 3
    assert CALLS == []
    # The resumed results render to the identical report.
    plan = CampaignPlan(campaign, render=lambda r: repr(sorted(r.items())))
    assert plan.report(resumed.results) == plan.report(db.results(resumed.campaign_id))


def test_max_nodes_stops_then_resume_finishes_the_rest(db):
    partial = CampaignRunner(_chain(), db).run(max_nodes=1)
    assert partial.stopped
    assert not partial.ok
    assert partial.executed == 1
    assert partial.counts["done"] == 1
    assert partial.counts["pending"] == 2

    resumed = CampaignRunner(_chain(), db).run()
    assert resumed.ok
    assert resumed.executed == 2
    assert resumed.restored == 1
    assert CALLS == ["gram", "cell", "row"]


def test_results_are_reused_across_campaigns_by_content_key(db):
    first = CampaignRunner(Campaign("one", [_node("a", value=7)]), db).run()
    assert first.executed == 1
    CALLS.clear()

    # A *different* campaign declares a node with the same content key:
    # the recorded result is adopted without executing anything.
    other = Campaign("two", [_node("a", value=7), _node("b", value=8)])
    run = CampaignRunner(other, db).run()
    assert run.ok
    assert run.reused == 1
    assert run.executed == 1
    assert CALLS == ["b"]
    assert run.results["a"] == {"value": 7}
    states = db.node_states(run.campaign_id)
    assert states["a"].reused and not states["b"].reused


def test_changed_params_recompute_only_the_changed_node(db):
    v1 = Campaign("grid", [_node("a", value=1), _node("b", value=2)])
    CampaignRunner(v1, db).run()
    CALLS.clear()

    # Same grid, one cell's inputs changed: new campaign identity, but
    # the unchanged cell still skips through key-level reuse.
    v2 = Campaign("grid", [_node("a", value=1), _node("b", value=2, seed=1)])
    assert v2.campaign_id != v1.campaign_id
    run = CampaignRunner(v2, db).run()
    assert run.ok
    assert run.reused == 1
    assert run.executed == 1
    assert CALLS == ["b"]


def test_failed_node_blocks_dependents(db):
    campaign = Campaign(
        "failing",
        [
            _node("bad", kind="runnertest.boom"),
            _node("downstream", deps=("bad",)),
            _node("independent"),
        ],
    )
    run = CampaignRunner(campaign, db).run()
    assert not run.ok
    assert [s.name for s in run.failed] == ["bad"]
    assert run.blocked == ["downstream"]
    assert run.executed == 1  # only `independent` completed
    assert CALLS == ["bad", "independent"]
    assert "RuntimeError: boom in bad" in run.failed[0].error
    assert run.counts == {
        "pending": 1, "running": 0, "done": 1, "failed": 1, "cancelled": 0,
    }


def test_resume_retries_failed_and_cancelled_nodes(db):
    campaign = Campaign("flaky", [_node("bad", kind="runnertest.boom")])
    first = CampaignRunner(campaign, db).run()
    assert [s.name for s in first.failed] == ["bad"]
    db.cancel_pending(first.campaign_id)  # no-op: nothing pending

    # Running again is the retry: the failed node is revived and
    # re-executed (and fails again here, with a fresh stored error).
    again = CampaignRunner(campaign, db).run()
    assert CALLS == ["bad", "bad"]
    assert [s.name for s in again.failed] == ["bad"]


def test_priority_then_declared_order_on_a_table4_shaped_dag(db):
    # table4 with a store: per (kernel, dataset) a priority-1 Gram node
    # feeding a priority-0 cell node, declared pairwise. Every Gram runs
    # first, in declared order, then every cell in declared order.
    nodes = []
    for name in ("QJSK", "WLSK", "SPGK"):
        nodes += [
            _node(f"gram:{name}", priority=1),
            _node(f"cell:{name}", deps=(f"gram:{name}",)),
        ]
    run = CampaignRunner(Campaign("table4-shaped", nodes), db).run()
    assert run.ok and run.executed == 6
    assert CALLS == [
        "gram:QJSK", "gram:WLSK", "gram:SPGK",
        "cell:QJSK", "cell:WLSK", "cell:SPGK",
    ]


def test_higher_priority_runs_before_earlier_declared_nodes(db):
    campaign = Campaign(
        "priorities",
        [_node("first"), _node("second"), _node("urgent", priority=2)],
    )
    assert CampaignRunner(campaign, db).run().ok
    assert CALLS == ["urgent", "first", "second"]


def test_node_left_running_by_a_killed_run_executes_once(db):
    campaign = _chain()
    cid = db.ensure(campaign)
    db.mark_running(cid, "gram")
    db.mark_done(cid, "gram", {"value": 1})
    # Killed mid-execution: the DB still says `cell` is running.
    db.mark_running(cid, "cell")

    run = CampaignRunner(campaign, db).run()
    assert run.ok
    assert run.executed == 2 and run.restored == 1
    assert CALLS == ["cell", "row"]
    assert db.node_states(cid)["cell"].attempts == 2


def test_unknown_executor_kind_is_a_stored_failure(db):
    campaign = Campaign(
        "unknown", [_node("a", kind="runnertest.not-registered")]
    )
    run = CampaignRunner(campaign, db).run()
    assert [s.name for s in run.failed] == ["a"]
    assert "no executor registered" in run.failed[0].error


def test_runner_rejects_non_plans(db):
    with pytest.raises(CampaignError):
        CampaignRunner(object(), db)


def test_run_campaign_plan_is_ephemeral_without_db():
    plan = CampaignPlan(
        Campaign("ephemeral", [_node("a", value=5)]),
        render=lambda results: f"value={results['a']['value']}",
    )
    run = run_campaign_plan(plan)
    assert run.ok
    assert run.report() == "value=5"


def test_summary_line_counts(db):
    run = CampaignRunner(_chain(), db).run()
    summary = run.summary()
    assert "done 3/3" in summary
    assert "executed 3" in summary
    resumed = CampaignRunner(_chain(), db).run()
    assert "executed 0, skipped 3" in resumed.summary()
