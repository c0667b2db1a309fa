"""Campaign-layer benchmarks — scheduling overhead and resume skip rate.

The campaign runner picks every node straight from its durable sqlite
campaign database (DESIGN.md, "Campaign node keys"), so each executed
node costs a scan of the node table plus two transactions: mark running,
mark done. These benches put a number on that overhead with no-op
executors:

* cold scheduling throughput — nodes/s through ensure → pick → execute →
  record on one sqlite file;
* resume skip rate — nodes/s when every node is already ``done`` and the
  run only restores recorded state;
* cross-campaign key reuse — nodes/s when results are adopted from
  another campaign's identical content keys.

Each bench emits a machine-readable JSON record in
``extra_info["campaign_row"]``; the overhead is the floor under real
campaigns, whose Gram/CV nodes cost seconds each.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignDB,
    CampaignNode,
    CampaignRunner,
    node_key,
    register_executor,
)

#: Synthetic campaign size: enough transactions to measure, < 1 s wall.
N_NODES = 64


@register_executor("bench.noop")
def _noop(payload, ctx):
    return {"value": payload["value"]}


def _campaign(name: str, *, chained: bool = False) -> Campaign:
    nodes = []
    for index in range(N_NODES):
        nodes.append(
            CampaignNode(
                f"n{index:03d}",
                "bench.noop",
                node_key("bench.noop", params={"i": index}),
                payload={"value": index},
                deps=(f"n{index - 1:03d}",) if chained and index else (),
            )
        )
    return Campaign(name, nodes)


def _timed_run(runner):
    started = time.perf_counter()
    run = runner.run()
    return run, time.perf_counter() - started


@pytest.mark.parametrize("shape", ["flat", "chained"])
def test_bench_cold_scheduling_throughput(shape, benchmark, tmp_path_factory):
    timings = {}

    def run():
        db = CampaignDB(str(tmp_path_factory.mktemp("sched") / "campaign.db"))
        try:
            run, seconds = _timed_run(
                CampaignRunner(_campaign(f"bench-{shape}", chained=shape == "chained"), db)
            )
            timings["seconds"] = seconds
            return run
        finally:
            db.close()

    run = benchmark.pedantic(run, rounds=1, iterations=1)
    assert run.ok and run.executed == N_NODES
    record = {
        "bench": "cold",
        "shape": shape,
        "nodes": N_NODES,
        "seconds": round(timings["seconds"], 4),
        "nodes_per_second": round(N_NODES / timings["seconds"], 1),
    }
    benchmark.extra_info["campaign_row"] = json.dumps(record, sort_keys=True)


def test_bench_resume_skip_rate(benchmark, tmp_path_factory):
    db = CampaignDB(str(tmp_path_factory.mktemp("resume") / "campaign.db"))
    try:
        CampaignRunner(_campaign("bench-resume"), db).run()

        def resume():
            run, seconds = _timed_run(
                CampaignRunner(_campaign("bench-resume"), db)
            )
            resume.seconds = seconds
            return run

        run = benchmark.pedantic(resume, rounds=1, iterations=1)
        assert run.ok and run.executed == 0 and run.restored == N_NODES
        record = {
            "bench": "resume",
            "nodes": N_NODES,
            "seconds": round(resume.seconds, 4),
            "nodes_per_second": round(N_NODES / resume.seconds, 1),
        }
        benchmark.extra_info["campaign_row"] = json.dumps(record, sort_keys=True)
    finally:
        db.close()


def test_bench_cross_campaign_key_reuse(benchmark, tmp_path_factory):
    db = CampaignDB(str(tmp_path_factory.mktemp("reuse") / "campaign.db"))
    try:
        CampaignRunner(_campaign("bench-donor"), db).run()

        def adopt():
            run, seconds = _timed_run(
                CampaignRunner(_campaign("bench-adopter"), db)
            )
            adopt.seconds = seconds
            return run

        run = benchmark.pedantic(adopt, rounds=1, iterations=1)
        assert run.ok and run.executed == 0 and run.reused == N_NODES
        record = {
            "bench": "reuse",
            "nodes": N_NODES,
            "seconds": round(adopt.seconds, 4),
            "nodes_per_second": round(N_NODES / adopt.seconds, 1),
        }
        benchmark.extra_info["campaign_row"] = json.dumps(record, sort_keys=True)
    finally:
        db.close()
