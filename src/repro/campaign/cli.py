"""``python -m repro.campaign`` — run/status/resume/cancel campaigns.

One durable sqlite file (``--db``, or ``campaign.db`` inside the
``--store`` directory) carries the campaign DAG state the runner
schedules from, so the whole lifecycle is::

    python -m repro.campaign run table4 --store /tmp/sweep
    # ... SIGKILL at any point ...
    python -m repro.campaign status --store /tmp/sweep
    python -m repro.campaign resume table4 --store /tmp/sweep

``resume`` is ``run`` under another name — running a campaign is
idempotent: nodes whose content keys are already recorded as done are
skipped, only the unfinished remainder executes. One runner drives a
database at a time: do not ``run`` the same file from two processes.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.db import CampaignDB
from repro.campaign.registry import build_campaign, registered_campaigns
from repro.campaign.runner import default_db_path, run_campaign_plan
from repro.errors import CampaignError, ReproError


def _add_db_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db",
        default=None,
        help="campaign database file (default: campaign.db inside --store)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="artifact-store address (dir:/path or bare path); also hosts "
        "the campaign database when --db is not given",
    )


def _context(args):
    from repro.experiments.config import execution_context

    return execution_context(args.store)


def _resolve_db_path(args, ctx, *, required: bool) -> "str | None":
    if args.db:
        return args.db
    path = default_db_path(ctx)
    if path is None and required:
        raise CampaignError(
            "no campaign database: pass --db FILE or --store DIR"
        )
    return path


def _build_plan(args, ctx):
    options = {
        "seed": args.seed,
        "n_repeats": args.repeats,
    }
    if args.kernels:
        options["kernels"] = args.kernels
    if args.datasets:
        options["datasets"] = args.datasets
    if args.models:
        options["models"] = args.models
    return build_campaign(args.campaign, ctx=ctx, **options)


def _cmd_run(args) -> int:
    ctx = _context(args)
    plan = _build_plan(args, ctx)
    db_path = _resolve_db_path(args, ctx, required=False)
    if db_path is None:
        print(
            "note: no --db/--store given; campaign state is ephemeral "
            "(a killed run cannot be resumed)",
            file=sys.stderr,
        )
    run = run_campaign_plan(
        plan, ctx=ctx, db_path=db_path, max_nodes=args.max_nodes
    )
    print(run.summary(), file=sys.stderr)
    if args.report:
        report = run.report()
        with open(args.report, "w") as f:
            f.write(report if report.endswith("\n") else report + "\n")
        print(f"[report written to {args.report}]", file=sys.stderr)
    elif not run.failed and not run.blocked and not run.stopped:
        print(run.report())
    for state in run.failed:
        head = (state.error or "").strip().splitlines()
        print(
            f"failed: {state.name}: {head[-1] if head else '(no error recorded)'}",
            file=sys.stderr,
        )
    return 0 if run.ok else 1


def _cmd_status(args) -> int:
    ctx = _context(args)
    db = CampaignDB(_resolve_db_path(args, ctx, required=True))
    try:
        campaigns = db.campaigns()
        if not campaigns:
            print("no campaigns recorded")
            return 0
        selected = [
            c for c in campaigns
            if args.campaign in (None, c["id"], c["name"])
        ]
        if not selected:
            known = ", ".join(f"{c['id']} ({c['name']})" for c in campaigns)
            print(
                f"no campaign {args.campaign!r}; recorded: {known}",
                file=sys.stderr,
            )
            return 2
        exit_code = 0
        for entry in selected:
            print(
                f"{entry['id']}  {entry['name']}: "
                + ", ".join(
                    f"{entry[s]} {s}"
                    for s in ("pending", "running", "done", "failed", "cancelled")
                    if entry[s]
                )
            )
            for state in db.node_states(entry["id"]).values():
                if args.nodes:
                    flag = " (reused)" if state.reused else ""
                    print(f"  {state.status:>9}  {state.name}{flag}")
            for state in db.failed_nodes(entry["id"]):
                exit_code = 1
                print(f"  failed node {state.name}:")
                for line in (state.error or "(no error recorded)").strip().splitlines():
                    print(f"    {line}")
        return exit_code
    finally:
        db.close()


def _cmd_cancel(args) -> int:
    ctx = _context(args)
    db = CampaignDB(_resolve_db_path(args, ctx, required=True))
    try:
        campaigns = db.campaigns()
        selected = [
            c for c in campaigns
            if args.campaign in (c["id"], c["name"])
        ]
        if not selected:
            known = ", ".join(f"{c['id']} ({c['name']})" for c in campaigns)
            print(
                f"no campaign {args.campaign!r}; recorded: "
                f"{known or '(none)'}",
                file=sys.stderr,
            )
            return 2
        for entry in selected:
            moved = db.cancel_pending(entry["id"])
            print(f"{entry['id']}  {entry['name']}: cancelled {moved} nodes")
        return 0
    finally:
        db.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Durable experiment campaigns: declare, run, kill, resume.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_run_like(name: str, help_text: str):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument(
            "campaign",
            help=f"registered campaign ({', '.join(registered_campaigns())})",
        )
        _add_db_arguments(sub)
        sub.add_argument("--kernels", nargs="*", default=None)
        sub.add_argument("--datasets", nargs="*", default=None)
        sub.add_argument("--models", nargs="*", default=None)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--repeats", type=int, default=None)
        sub.add_argument(
            "--max-nodes",
            type=int,
            default=None,
            help="stop after executing this many nodes (testing hook)",
        )
        sub.add_argument(
            "--report",
            default=None,
            help="write the rendered report to this file",
        )
        sub.set_defaults(handler=_cmd_run)
        return sub

    add_run_like("run", "declare the campaign and run every unfinished node")
    add_run_like(
        "resume",
        "synonym of run: re-declare and execute only what is not done",
    )

    status = commands.add_parser(
        "status", help="recorded campaigns, node counts, failed-node errors"
    )
    _add_db_arguments(status)
    status.add_argument(
        "--campaign", default=None, help="limit to one campaign id or name"
    )
    status.add_argument(
        "--nodes", action="store_true", help="list every node's status"
    )
    status.set_defaults(handler=_cmd_status)

    cancel = commands.add_parser(
        "cancel", help="cancel a campaign's pending/running nodes"
    )
    cancel.add_argument("campaign", help="campaign id or name to cancel")
    _add_db_arguments(cancel)
    cancel.set_defaults(handler=_cmd_cancel)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
