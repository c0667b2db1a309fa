"""The cell workloads' worker: graph list → normalised Gram → CV accuracy.

``run.py`` starts one fresh interpreter per cell run, so ``setup_s`` and
``peak_rss_mb`` describe the process that computes the cell::

    python3 perfbench/cells.py probe --workload W [--smoke]
    python3 perfbench/cells.py run --workload W --seed N --seconds S \\
        --trace 0|1 --out PATH [--smoke]

Both print ``benchenv.READY`` once ``repro`` is imported and the kernel
is built: the end of set-up. ``run`` then computes the cell repeatedly
for about ``--seconds`` (alternating untraced and traced cells with
``--trace 1``), timing the host's reference computation (:mod:`hostspeed`)
before the first cell, between each cell's Gram and its CV, and after
each cell; checks every Gram against the serial oracle and writes its
result as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchenv  # noqa: E402

REMOVED_ENV = benchenv.pin_environment()

import hostspeed  # noqa: E402  (imports numpy, so after pinning)
import workloads  # noqa: E402


def build(workload):
    """Set-up: ``import repro`` and kernel construction."""
    benchenv.import_program()
    from repro import ExecutionContext, Session

    session = Session(ExecutionContext())
    spec = workloads.kernel_spec(workload)
    session.kernel(spec)
    print(benchenv.READY, flush=True)
    return session, spec


def run(args) -> dict:
    workload = workloads.get(args.workload, smoke=args.smoke)
    session, spec = build(workload)
    import layers
    import tracing
    from repro.alignment import level_sizes
    from repro.datasets import load_dataset

    dataset = load_dataset(workload.dataset, scale=workload.scale,
                           seed=workload.dataset_seed)
    graphs = workloads.presented(dataset.graphs, args.seed)
    targets = dataset.targets
    entries = workloads.sample_entries(len(graphs), workload.oracle_entries, args.seed)
    # The oracle runs first: it exercises the same preparation code, so
    # the first timed cell does not pay the process's first-touch costs.
    expected, states = workloads.oracle_entries(
        session.kernel(spec), workloads.fresh(graphs), entries
    )
    levels = workloads.level_descriptors(states)
    del states  # not held while the cells set peak_rss_mb
    tracer = tracing.Tracer()
    hooks = tracing.HookSet(tracer, layers.layer_hooks(tracer))
    calibrator = hostspeed.Calibrator()
    cells = []
    started = time.perf_counter()
    before = calibrator.mark()
    while True:
        cell = {"traced": bool(args.trace) and len(cells) % 2 == 1}
        batch = workloads.fresh(graphs)
        try:
            if cell["traced"]:
                hooks.install()
            with tracer.context(f"{workload.name}:{args.seed}:{len(cells)}"):
                gram, timing = workloads.timed_cell(session, spec, batch, targets,
                                                    workload, pause=calibrator.mark)
            cell.update(timing)
            cell["sampled"] = {entry: float(gram[entry]) for entry in entries}
        except Exception as exc:  # a failed cell is counted, not raised
            cell["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            hooks.uninstall()
        # The marks before, inside (after the Gram) and after the cell.
        after = calibrator.mark()
        cell["host_factor"] = calibrator.factor(before)
        before = after
        cells.append(cell)
        if "error" in cell:
            break
        if args.trace and len(cells) < 2:
            continue  # a traced run needs one untraced and one traced cell
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(cells) > args.seconds:
            break
    peak_rss = benchenv.peak_rss_mb()

    accuracy = next((c["accuracy"] for c in cells if "accuracy" in c), None)
    failed = 0
    for cell in cells:
        if "error" in cell:
            problems = [cell["error"]]
        else:
            problems = workloads.gram_mismatches(cell.pop("sampled"), expected)
            if cell["accuracy"] != accuracy:
                problems.append(f"accuracy {cell['accuracy']} != {accuracy}")
        cell["problems"] = problems
        failed += bool(problems)

    result = {
        "attempted": len(cells),
        "failed": failed,
        "cells": cells,
        "descriptors": {
            **workloads.collection_descriptors(graphs, targets),
            "levels": levels,
            "oracle_entries": len(entries),
            "cv": {"folds": workload.folds, "repeats": workload.repeats,
                   "seed": workload.cv_seed},
        },
        "worker": {"blas_threads": benchenv.blas_threads(),
                   "repro_env_removed": REMOVED_ENV},
        "host_reference_s": calibrator.marks,
        "metrics": None,
        "per_layer": None,
    }
    plain = [c for c in cells if "error" not in c and not c["traced"]]
    traced = [c for c in cells if "error" not in c and c["traced"]]

    def host_s(selected, key) -> "list[float]":
        """Each selected cell's ``key`` in reference-host seconds."""
        return [c[key] * c["host_factor"] for c in selected]

    if plain and not args.trace:
        cell_s = host_s(plain, "cell_s")
        result["metrics"] = {
            "cell_s": statistics.median(cell_s),
            "gram_s": statistics.median(host_s(plain, "gram_s")),
            "cv_accuracy": accuracy,
            # A cell is this workload's unit of work: its latency
            # percentiles are the median and the slowest cell of the run.
            "predict_p50_ms": 1e3 * statistics.median(cell_s),
            "predict_p95_ms": 1e3 * max(cell_s),
            "peak_rss_mb": peak_rss,
        }
    if plain and traced:
        overhead = (statistics.median(host_s(traced, "cell_s"))
                    / statistics.median(host_s(plain, "cell_s")) - 1.0)
        report = layers.summarize(
            tracer.spans, kind="cell",
            level_sizes=level_sizes(workload.prototypes, workload.levels),
            missing=hooks.missing, overhead=overhead,
        )
        result["per_layer"] = report
        result["shares"] = _shares(report, traced)
        path = benchenv.trace_path(workload.name, args.seed)
        tracer.dump(path)
        result["trace_file"] = str(path.relative_to(benchenv.ROOT))
    return result


def _shares(report: dict, traced: list) -> dict:
    """The split the cell workloads were chosen for, over traced cells."""
    gram = sum(c["gram_s"] for c in traced)
    cell = sum(c["cell_s"] for c in traced)

    def value(name):
        return report[name]["value"] or 0.0

    return {
        "backend.mixed_s / gram_s": value("backend.mixed_s") / gram,
        "(alignment.db_s + alignment.kmeans_s) / gram_s":
            (value("alignment.db_s") + value("alignment.kmeans_s")) / gram,
        "ml.smo_s / cell_s": value("ml.smo_s") / cell,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cell workload worker (run.py starts it).")
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "probe":
        build(workloads.get(args.workload, smoke=args.smoke))
        return 0
    result = run(args)
    with open(args.out, "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
