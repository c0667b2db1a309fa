"""Benchmark entry point; README.md beside this file explains it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a ``perfbench-report {...}`` line — provenance, workload
descriptors, the samples behind each metric, the output checks and, when
traced, every per-layer metric with its status — and, as the last line,
the result ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics
BENCHMARK.json names with ``--trace 1``. In a checkout without the
program it exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchenv  # noqa: E402

REMOVED_ENV = benchenv.pin_environment()

import hostspeed  # noqa: E402  (imports numpy, so after pinning)
import workloads  # noqa: E402

#: The end-to-end metrics and their units, as BENCHMARK.json declares them.
END_TO_END = {
    "cell_s": "s",
    "gram_s": "s",
    "cv_accuracy": "fraction",
    "predict_p50_ms": "ms",
    "predict_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Seconds a cell worker may take; a whole run must end within 180.
CELL_TIMEOUT = 150.0


def run_cells(workload, args, work) -> dict:
    """Time ``setup_probes`` fresh interpreters, each between two timings
    of the host reference (``setup_s`` is the median in reference-host
    seconds); then the worker computes the cell."""
    command = [sys.executable, benchenv.BENCH_DIR / "cells.py"]
    flags = ["--workload", workload.name] + (["--smoke"] if args.smoke else [])
    calibrator = hostspeed.Calibrator()
    before = calibrator.mark()
    ready, setup_s = [], []
    for _ in range(workload.setup_probes):
        with benchenv.Child(command + ["probe", *flags]) as child:
            ready.append(child.wait_line(benchenv.READY, 60.0)[0])
            child.wait(60.0)
        after = calibrator.mark()
        setup_s.append(ready[-1] * calibrator.factor(before))
        before = after
    out = work / "cell.json"
    run_flags = ["--seed", args.seed, "--seconds", args.seconds,
                 "--trace", args.trace, "--out", out]
    with benchenv.Child(command + ["run", *flags, *run_flags]) as child:
        worker_ready = child.wait_line(benchenv.READY, 60.0)[0]
        child.wait(CELL_TIMEOUT)
    result = json.loads(out.read_text())
    result["setup_samples_s"] = ready
    result["setup_reference_s"] = calibrator.marks
    result["worker_setup_s"] = worker_ready
    if result["metrics"] is not None:
        result["metrics"]["setup_s"] = statistics.median(setup_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness self-tests")
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps its children on the way out.
    # SIGINT gets a handler too: children inherit an *ignored* SIGINT (as
    # under nohup or `cmd &`), and servers stop on SIGINT; a handled one
    # is reset to the default when a child starts.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        benchenv.import_program()
    except benchenv.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, smoke=args.smoke)
    work = benchenv.WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload.kind == "cell":
            outcome = run_cells(workload, args, work)
        else:
            import serving

            outcome = serving.run(workload, args.seed, args.seconds,
                                  bool(args.trace), work)
    except benchenv.ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        import layers

        per_layer = outcome.get("per_layer")
        metrics = layers.summary_line(per_layer) if per_layer else None
    elif outcome.get("metrics"):
        values = outcome["metrics"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        metrics = None
    if metrics is None:
        print("perfbench: no operation succeeded; nothing to report", file=sys.stderr)
        return 1
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": benchenv.provenance(REMOVED_ENV),
        **{key: value for key, value in outcome.items() if key != "metrics"},
    }
    saved = benchenv.WORK_ROOT / "reports" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    saved.parent.mkdir(parents=True, exist_ok=True)
    saved.write_text(json.dumps(report, indent=1, sort_keys=True))
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
