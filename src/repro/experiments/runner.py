"""CLI dispatcher: ``python -m repro.experiments.runner <experiment> ...``.

Experiments: ``table1`` (properties), ``table2`` (dataset statistics),
``table3`` (kernel taxonomy), ``table4`` (kernel accuracies), ``table5``
(deep-learning comparison), ``figure2`` (prototype hierarchy),
``complexity`` (Section III-D scaling). Reports are echoed and written
under ``results/``.

Checkpoint/resume: point ``REPRO_STORE`` at a store address — a
directory, ``dir:/path``, or ``mem:name`` — (or pass ``--store`` to
experiments that accept it) and every completed Gram
matrix is persisted in a content-addressed artifact store
(:mod:`repro.store`) — with the in-flight Gram additionally
tile-checkpointed, so a killed run resumes at the first unfinished tile,
not the cell boundary. Reruns produce the identical report; the footer
records the engine, tile size and tile-resume counters.
"""

from __future__ import annotations

import os
import sys

from repro.api.context import STORE_ENV_VAR
from repro.experiments import complexity, figure2, properties, table2, table4, table5
from repro.experiments.config import TABLE4_KERNELS, execution_context
from repro.experiments.reporting import format_table, save_report
from repro.kernels.registry import lenient_spec


def run_table3() -> str:
    """Table III — the kernel taxonomy, from each kernel's traits."""
    rows = []
    for name in TABLE4_KERNELS:
        traits = lenient_spec(name, n_prototypes=8).make().traits
        rows.append(
            {
                "Kernel Methods": name,
                "Kernel Frameworks": traits.framework,
                "Aligned": "Yes" if traits.aligned else "No",
                "Transitive": "Yes" if traits.transitive else "No",
                "Structure Patterns": ", ".join(traits.structure_patterns),
                "Computing Models": traits.computing_model,
            }
        )
    return format_table(rows)


_EXPERIMENTS = {
    "table1": lambda argv: format_table(
        properties.run_properties(ctx=execution_context())
    ),
    "table2": lambda argv: table2.main(argv),
    "table3": lambda argv: run_table3(),
    "table4": lambda argv: table4.main(argv),
    "table5": lambda argv: table5.main(argv),
    "figure2": lambda argv: figure2.main(argv),
    "complexity": lambda argv: complexity.main(argv),
}


def _extract_store_flag(argv: list) -> list:
    """Route a runner-global ``--store ADDRESS`` through the environment.

    Every experiment (and the report footer) builds its context with
    :func:`~repro.experiments.config.execution_context`, which reads
    ``REPRO_STORE``, so resolving the flag here keeps them all in
    agreement — including experiments whose own parsers predate the flag.
    """
    if "--store" not in argv:
        return argv
    index = argv.index("--store")
    if index + 1 >= len(argv):
        raise SystemExit("--store needs a store-address argument")
    os.environ[STORE_ENV_VAR] = argv[index + 1]
    return argv[:index] + argv[index + 2 :]


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help") or argv[0] not in _EXPERIMENTS:
        names = ", ".join(sorted(_EXPERIMENTS))
        print(f"usage: repro-experiments <experiment> [--store ADDRESS] [options]\n"
              f"experiments: {names}")
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    name = argv[0]
    output = _EXPERIMENTS[name](_extract_store_flag(argv[1:]))
    if output:
        import json

        # The footer describes the context the experiment ran under.
        ctx = execution_context()
        record = ctx.to_record()
        metadata = {
            "gram_engine": ctx.resolved_engine().name,
            "gram_tile": ctx.tile_size or "backend default",
            "compute_backend": ctx.compute_policy().describe(),
        }
        if record["store"]:
            metadata["artifact_store"] = record["store"]
        # The full execution context, as the round-trippable JSON record
        # ExecutionContext.from_record accepts — reports carry enough
        # provenance to rebuild the run's execution policy exactly.
        metadata["context"] = json.dumps(record, sort_keys=True)
        path = save_report(name, output, metadata=metadata)
        print(f"\n[saved to {path}]")
    failures = getattr(output, "failed", ())
    if failures:
        # A failed cell must fail the invocation (CI depends on the exit
        # code), after the partial report is saved for triage; the full
        # stored tracebacks are in `python -m repro.campaign status`.
        print(f"\n{len(failures)} cells failed:", file=sys.stderr)
        for cell_name, error in failures:
            lines = (error or "").strip().splitlines()
            print(
                f"  {cell_name}: {lines[-1] if lines else 'no error recorded'}",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
