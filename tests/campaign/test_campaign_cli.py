"""``python -m repro.campaign`` CLI: run/status/resume/cancel in-process."""

import sqlite3

import pytest

from repro.campaign import (
    Campaign,
    CampaignNode,
    CampaignPlan,
    node_key,
    register_campaign,
    register_executor,
)
from repro.campaign.cli import main

CALLS = []


@register_executor("clitest.ok")
def _ok(payload, ctx):
    CALLS.append(payload["name"])
    return {"value": payload["value"]}


@register_executor("clitest.boom")
def _boom(payload, ctx):
    raise RuntimeError("kaboom")


def _node(name, kind="clitest.ok", value=0, deps=()):
    return CampaignNode(
        name,
        kind,
        node_key(kind, params={"name": name, "value": value}),
        payload={"name": name, "value": value},
        deps=deps,
    )


@register_campaign("clitest-pair")
def _pair_campaign(*, ctx=None, **_):
    nodes = [_node("a", value=1), _node("b", value=2, deps=("a",))]
    return CampaignPlan(
        Campaign("clitest-pair", nodes),
        render=lambda results: "\n".join(
            f"{name}={results[name]['value']}" for name in sorted(results)
        ),
    )


@register_campaign("clitest-boom")
def _boom_campaign(*, ctx=None, **_):
    return CampaignPlan(
        Campaign("clitest-boom", [_node("bad", kind="clitest.boom")]),
        render=lambda results: "(unreachable)",
    )


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "campaign.db")


def test_run_then_resume_is_idempotent(db_path, tmp_path, capsys):
    report1 = str(tmp_path / "report1.md")
    report2 = str(tmp_path / "report2.md")
    assert main(["run", "clitest-pair", "--db", db_path, "--report", report1]) == 0
    err = capsys.readouterr().err
    assert "executed 2" in err
    assert CALLS == ["a", "b"]

    assert main(["resume", "clitest-pair", "--db", db_path, "--report", report2]) == 0
    err = capsys.readouterr().err
    assert "executed 0, skipped 2" in err
    assert CALLS == ["a", "b"]  # nothing recomputed
    with open(report1) as f1, open(report2) as f2:
        assert f1.read() == f2.read() == "a=1\nb=2\n"


def test_database_holds_only_the_campaign_tables(db_path):
    assert main(["run", "clitest-pair", "--db", db_path]) == 0
    conn = sqlite3.connect(db_path)
    try:
        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
    finally:
        conn.close()
    assert tables == {"campaigns", "campaign_nodes"}


def test_run_without_report_prints_it(db_path, capsys):
    assert main(["run", "clitest-pair", "--db", db_path]) == 0
    assert "a=1\nb=2" in capsys.readouterr().out


def test_run_without_db_or_store_is_ephemeral(capsys):
    assert main(["run", "clitest-pair"]) == 0
    assert "ephemeral" in capsys.readouterr().err


def test_failed_node_sets_exit_code_and_is_listed_in_status(db_path, capsys):
    assert main(["run", "clitest-boom", "--db", db_path]) == 1
    err = capsys.readouterr().err
    assert "failed: bad: RuntimeError: kaboom" in err

    # `status` exits non-zero too and prints the stored traceback.
    assert main(["status", "--db", db_path]) == 1
    out = capsys.readouterr().out
    assert "clitest-boom: 1 failed" in out
    assert "failed node bad:" in out
    assert "RuntimeError: kaboom" in out
    assert 'raise RuntimeError("kaboom")' in out


def test_status_lists_nodes_and_filters_campaigns(db_path, capsys):
    main(["run", "clitest-pair", "--db", db_path])
    capsys.readouterr()
    assert main(["status", "--db", db_path, "--nodes"]) == 0
    out = capsys.readouterr().out
    assert "clitest-pair: 2 done" in out
    assert "done  a" in out and "done  b" in out

    assert main(["status", "--db", db_path, "--campaign", "nonsense"]) == 2
    assert "no campaign 'nonsense'" in capsys.readouterr().err


def test_status_on_empty_db(db_path, capsys):
    assert main(["status", "--db", db_path]) == 0
    assert "no campaigns recorded" in capsys.readouterr().out


def test_status_without_db_errors(capsys):
    assert main(["status"]) == 2
    assert "no campaign database" in capsys.readouterr().err


def test_cancel_then_run_revives(db_path, capsys):
    # Stop after one node: the second stays pending.
    assert main(["run", "clitest-pair", "--db", db_path, "--max-nodes", "1"]) == 1
    assert CALLS == ["a"]
    assert main(["cancel", "clitest-pair", "--db", db_path]) == 0
    assert "cancelled 1 nodes" in capsys.readouterr().out
    assert main(["status", "--db", db_path]) == 0
    assert "1 cancelled" in capsys.readouterr().out

    # Running again revives the cancelled node; the done one still skips.
    assert main(["run", "clitest-pair", "--db", db_path]) == 0
    assert CALLS == ["a", "b"]


def test_cancel_unknown_campaign(db_path, capsys):
    assert main(["cancel", "nonsense", "--db", db_path]) == 2
    assert "no campaign 'nonsense'" in capsys.readouterr().err


def test_unknown_campaign_name_is_a_clean_error(db_path, capsys):
    assert main(["run", "no-such-campaign", "--db", db_path]) == 2
    assert "error:" in capsys.readouterr().err
