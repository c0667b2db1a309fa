"""Table IV — classification accuracy of the kernels under 10-fold CV.

For every (kernel, dataset) cell: build the dataset at the configured
scale, compute the normalised Gram matrix, repair indefinite baselines to
PSD, run the repeated stratified 10-fold C-SVM protocol, and report
``mean ± standard error`` exactly as the paper does.

The sweep itself is declared as a campaign (:mod:`repro.campaign`):
:func:`build_table4_campaign` emits, per cell, a Gram node and a CV node
keyed by kernel fingerprint + dataset digest + the value-relevant
context record, so ``python -m repro.campaign run table4`` can be killed
and resumed with only the unfinished cells recomputing. This module
keeps only the per-node executors and the thin row formatting.

Paper accuracies are included for side-by-side comparison; the *shape*
(who wins where) is the reproduction target, not the absolute numbers —
our datasets are synthetic surrogates (DESIGN.md §2).
"""

from __future__ import annotations

import time

from repro.campaign import (
    Campaign,
    CampaignNode,
    CampaignPlan,
    node_key,
    register_campaign,
    register_executor,
)
from repro.datasets import load_dataset
from repro.experiments.config import (
    TABLE4_DATASETS,
    TABLE4_KERNELS,
    cv_repeats,
    dataset_scale,
)
from repro.experiments.reporting import ReportOutput, format_table
from repro.ml import GramConditioner, cross_validate_kernel
from repro.utils.logging import get_logger

_LOGGER = get_logger("experiments.table4")

#: Kernels whose Gram matrices are not PSD by construction and get the
#: eigenvalue-clipping repair before the SVM (paper Section II-D discusses
#: why QJSK/ASK/SPEGK are indefinite).
INDEFINITE_KERNELS = frozenset({"QJSK", "ASK", "SPEGK"})

#: Paper Table IV (mean accuracy only), for the comparison column.
PAPER_TABLE4 = {
    "HAQJSK(A)": {"MUTAG": 85.83, "PPIs": 89.71, "CATH2": 83.47, "PTC": 62.35,
                  "GatorBait": 20.00, "BAR31": 68.00, "BSPHERE31": 58.40,
                  "GEOD31": 45.26, "IMDB-B": 73.50, "IMDB-M": 50.08,
                  "RED-B": 90.93, "COLLAB": 79.20},
    "HAQJSK(D)": {"MUTAG": 86.33, "PPIs": 86.28, "CATH2": 87.89, "PTC": 59.05,
                  "GatorBait": 22.80, "BAR31": 71.70, "BSPHERE31": 61.60,
                  "GEOD31": 47.53, "IMDB-B": 72.57, "IMDB-M": 49.30,
                  "RED-B": 89.50, "COLLAB": 78.82},
    "QJSK": {"MUTAG": 82.72, "PPIs": 65.61, "CATH2": 71.11, "PTC": 56.70,
             "GatorBait": 9.00, "BAR31": 30.80, "BSPHERE31": 24.80,
             "GEOD31": 23.73, "IMDB-B": 62.10, "IMDB-M": 43.24},
    "ASK": {"MUTAG": 87.50, "PPIs": 80.14, "CATH2": 78.52, "PTC": 56.22,
            "GatorBait": 7.50, "BAR31": 73.10, "BSPHERE31": 60.30,
            "GEOD31": 46.21, "IMDB-B": 63.57, "IMDB-M": 42.81},
    "JTQK": {"MUTAG": 85.50, "PPIs": 88.47, "CATH2": 68.70, "PTC": 58.50,
             "GatorBait": 11.40, "BAR31": 60.56, "BSPHERE31": 46.93,
             "GEOD31": 40.10, "IMDB-B": 72.45, "IMDB-M": 50.33,
             "RED-B": 77.60, "COLLAB": 76.85},
    "GCGK": {"MUTAG": 81.66, "PPIs": 46.61, "CATH2": 73.68, "PTC": 52.26,
             "GatorBait": 8.40, "BAR31": 22.96, "BSPHERE31": 17.10,
             "GEOD31": 15.30, "IMDB-B": 65.87, "IMDB-M": 45.42, "RED-B": 77.34},
    "WLSK": {"MUTAG": 82.88, "PPIs": 88.09, "CATH2": 67.36, "PTC": 58.26,
             "GatorBait": 10.10, "BAR31": 58.53, "BSPHERE31": 42.10,
             "GEOD31": 38.20, "IMDB-B": 71.88, "IMDB-M": 49.50,
             "RED-B": 76.56, "COLLAB": 77.39},
    "CORE WL": {"MUTAG": 87.47, "PTC": 59.43, "IMDB-B": 74.02, "IMDB-M": 51.35,
                "RED-B": 78.02},
    "SPGK": {"MUTAG": 83.38, "PPIs": 59.04, "CATH2": 81.89, "PTC": 55.52,
             "GatorBait": 9.00, "BAR31": 55.73, "BSPHERE31": 48.20,
             "GEOD31": 38.40, "IMDB-B": 71.26, "IMDB-M": 51.33,
             "RED-B": 84.20, "COLLAB": 58.80},
    "CORE SP": {"MUTAG": 88.29, "PTC": 59.06, "IMDB-B": 72.62, "IMDB-M": 49.43,
                "RED-B": 90.84},
    "PMGK": {"MUTAG": 86.67, "PTC": 60.22, "IMDB-B": 68.53, "IMDB-M": 45.75,
             "RED-B": 82.70},
    "SPEGK": {"MUTAG": 86.35, "PPIs": 84.13, "CATH2": 83.58, "PTC": 56.79,
              "GatorBait": 14.40, "BAR31": 70.08, "BSPHERE31": 57.36,
              "GEOD31": 43.57},
}


def cell_kernel_spec(kernel_name: str, *, seed: int = 0, n_prototypes: int = 32):
    """The declarative :class:`~repro.kernels.KernelSpec` of one cell.

    Parameters the named kernel does not accept are dropped (the old
    zoo's leniency), and the spec is *resolved* — scale-aware defaults
    pinned — so the record persisted in the report rebuilds the
    identical kernel in any later environment.
    """
    from repro.kernels.registry import lenient_spec

    return lenient_spec(
        kernel_name, n_prototypes=n_prototypes, seed=seed
    ).resolved()


def _cell_dataset(dataset_name: str, seed: int):
    """The dataset one cell evaluates on, at the configured scale."""
    scale_cfg = dataset_scale(dataset_name)
    dataset = load_dataset(
        dataset_name,
        scale=scale_cfg.scale,
        size_scale=scale_cfg.size_scale,
        seed=seed,
    )
    return scale_cfg, dataset


def evaluate_cell(
    kernel_name: str,
    dataset_name: str,
    *,
    seed: int = 0,
    n_repeats: "int | None" = None,
    ctx=None,
    dataset_digest: "str | None" = None,
) -> dict:
    """One Table IV cell: accuracy of ``kernel_name`` on ``dataset_name``.

    ``ctx`` (an :class:`~repro.api.ExecutionContext`) selects the engine
    and persistence. With a store, the Gram matrix — the cell's dominant
    cost — is fetched by content key and only computed (then persisted)
    on a miss. The miss computation itself runs as a tile-checkpointed
    execution plan: every finished tile commits to the store before the
    next is computed, so a sweep killed *mid-Gram* resumes at the first
    unfinished tile, not from the cell boundary. ``dataset_digest`` is
    the precomputed collection digest — campaign builders hash each
    dataset once and thread it through every cell of the sweep.
    """
    from repro.api.context import as_context

    ctx = as_context(ctx, owner="evaluate_cell")
    scale_cfg, dataset = _cell_dataset(dataset_name, seed)
    spec = cell_kernel_spec(
        kernel_name, seed=seed, n_prototypes=scale_cfg.haqjsk_prototypes
    )
    kernel = spec.make()
    ensure_psd = kernel_name in INDEFINITE_KERNELS
    from repro.store import store_backed_gram

    # One protocol for hit / tile-checkpointed miss / dead-tile cleanup:
    # store_backed_gram owns it, the cell just reads the accounting.
    stats: dict = {}
    started = time.perf_counter()
    gram = store_backed_gram(
        kernel,
        dataset.graphs,
        ctx.store,
        normalize=True,
        ensure_psd=ensure_psd,
        tile_checkpoint=ctx.tile_checkpoint,
        stats=stats,
        ctx=ctx.replace(store=None),
        digest=dataset_digest,
    )
    gram_seconds = time.perf_counter() - started
    gram_cached = stats["cached"]
    tiles_restored = stats["tiles_restored"]
    tiles_computed = stats["tiles_computed"]
    # Fit/transform on the full collection Gram: transductive by design
    # (the paper's protocol), but through the same GramConditioner the
    # serving path applies inductively, so a bundle trained on this cell's
    # training fold would see the identical conditioned matrix.
    result = cross_validate_kernel(
        GramConditioner().fit_transform(gram),
        dataset.targets,
        n_folds=10,
        n_repeats=n_repeats or cv_repeats(),
        seed=seed + 1,
    )
    _LOGGER.info(
        "%s / %s: %s (gram %.1fs%s)",
        kernel_name,
        dataset_name,
        result,
        gram_seconds,
        ", from store" if gram_cached else "",
    )
    record = ctx.to_record()
    return {
        "kernel": kernel_name,
        "dataset": dataset_name,
        "accuracy": result.mean_accuracy * 100.0,
        "stderr": result.standard_error * 100.0,
        "paper": PAPER_TABLE4.get(kernel_name, {}).get(dataset_name),
        "gram_seconds": gram_seconds,
        "gram_engine": ctx.resolved_engine().name,
        "gram_cached": gram_cached,
        "gram_tiles_restored": tiles_restored,
        "gram_tiles_computed": tiles_computed,
        "n_graphs": len(dataset),
        # Round-trippable provenance: KernelSpec.from_dict /
        # ExecutionContext.from_record reconstruct the cell's inputs.
        "kernel_spec": spec.to_dict(),
        "context": record,
    }


# ---------------------------------------------------------------------- #
# Campaign declaration
# ---------------------------------------------------------------------- #


@register_campaign("table4")
def build_table4_campaign(
    *,
    kernels=None,
    datasets=None,
    seed: int = 0,
    n_repeats: "int | None" = None,
    ctx=None,
) -> CampaignPlan:
    """Declare the Table IV sweep as a campaign DAG.

    Per cell: a ``table4.gram`` node (the dominant cost, persisted to the
    context's store — emitted only when a store is configured) feeding a
    ``table4.cell`` node (conditioning + CV + row values). Each dataset
    is loaded and digested exactly once here; the digest threads through
    every node key and payload of its column, so the cells never re-hash
    the collection.
    """
    from repro.graphs.hashing import collection_digest

    repeats = n_repeats or cv_repeats()
    has_store = ctx is not None and getattr(ctx, "store", None) is not None
    nodes = []
    for dataset_name in datasets or TABLE4_DATASETS:
        scale_cfg, dataset = _cell_dataset(dataset_name, seed)
        digest = collection_digest(dataset.graphs)
        for kernel_name in kernels or TABLE4_KERNELS:
            spec = cell_kernel_spec(
                kernel_name, seed=seed, n_prototypes=scale_cfg.haqjsk_prototypes
            )
            fingerprint = spec.fingerprint()
            ensure_psd = kernel_name in INDEFINITE_KERNELS
            payload = {
                "kernel": kernel_name,
                "dataset": dataset_name,
                "seed": seed,
                "repeats": repeats,
                "digest": digest,
            }
            deps = ()
            if has_store:
                gram_name = f"gram:{kernel_name}:{dataset_name}"
                nodes.append(
                    CampaignNode(
                        name=gram_name,
                        kind="table4.gram",
                        key=node_key(
                            "table4.gram",
                            fingerprint=fingerprint,
                            digest=digest,
                            ctx=ctx,
                            params={"normalize": True, "ensure_psd": ensure_psd},
                        ),
                        payload=payload,
                        priority=1,
                    )
                )
                deps = (gram_name,)
            nodes.append(
                CampaignNode(
                    name=f"cell:{kernel_name}:{dataset_name}",
                    kind="table4.cell",
                    key=node_key(
                        "table4.cell",
                        fingerprint=fingerprint,
                        digest=digest,
                        ctx=ctx,
                        params={"seed": seed, "repeats": repeats},
                    ),
                    payload=payload,
                    deps=deps,
                )
            )
    return CampaignPlan(Campaign("table4", nodes), render_table4)


@register_executor("table4.gram")
def _execute_gram_node(payload: dict, ctx) -> dict:
    """Compute and persist one cell's Gram matrix (the heavy stage)."""
    from repro.api.context import as_context
    from repro.store import store_backed_gram

    ctx = as_context(ctx, owner="table4.gram")
    scale_cfg, dataset = _cell_dataset(payload["dataset"], payload["seed"])
    spec = cell_kernel_spec(
        payload["kernel"], seed=payload["seed"],
        n_prototypes=scale_cfg.haqjsk_prototypes,
    )
    stats: dict = {}
    started = time.perf_counter()
    store_backed_gram(
        spec.make(),
        dataset.graphs,
        ctx.store,
        normalize=True,
        ensure_psd=payload["kernel"] in INDEFINITE_KERNELS,
        tile_checkpoint=ctx.tile_checkpoint,
        stats=stats,
        ctx=ctx.replace(store=None),
        digest=payload.get("digest"),
    )
    stats["seconds"] = time.perf_counter() - started
    return stats


@register_executor("table4.cell")
def _execute_cell_node(payload: dict, ctx) -> dict:
    """Conditioning + CV for one cell (its Gram node already persisted)."""
    return evaluate_cell(
        payload["kernel"],
        payload["dataset"],
        seed=payload["seed"],
        n_repeats=payload.get("repeats"),
        ctx=ctx,
        dataset_digest=payload.get("digest"),
    )


def run_table4(
    *,
    kernels=None,
    datasets=None,
    seed: int = 0,
    n_repeats: "int | None" = None,
    ctx=None,
) -> "list[dict]":
    """All requested Table IV cells (defaults: the full paper grid).

    Declares the sweep as a campaign and drives it through the runner —
    with a store-backed context the campaign database rides the store
    directory, so a killed call resumes where it stopped; without one
    the scheduling state is ephemeral. A failed cell raises with the
    stored executor traceback.
    """
    from repro.api.context import as_context
    from repro.campaign import run_campaign_plan
    from repro.errors import CampaignError

    ctx = as_context(ctx, owner="run_table4")
    plan = build_table4_campaign(
        kernels=kernels, datasets=datasets, seed=seed, n_repeats=n_repeats,
        ctx=ctx,
    )
    run = run_campaign_plan(plan, ctx=ctx)
    if run.failed:
        first = run.failed[0]
        raise CampaignError(
            f"table4 campaign: {len(run.failed)} nodes failed; first "
            f"{first.name}:\n{first.error}"
        )
    return [
        result for name, result in run.results.items()
        if name.startswith("cell:")
    ]


def cells_to_rows(cells: "list[dict]") -> "list[dict]":
    """Pivot cells into paper-shaped rows (kernel x dataset)."""
    datasets = []
    for cell in cells:
        if cell["dataset"] not in datasets:
            datasets.append(cell["dataset"])
    rows: dict = {}
    for cell in cells:
        row = rows.setdefault(cell["kernel"], {"Kernel": cell["kernel"]})
        row[cell["dataset"]] = f"{cell['accuracy']:.2f} ± {cell['stderr']:.2f}"
        if cell["paper"] is not None:
            row[cell["dataset"]] += f" (paper {cell['paper']:.2f})"
    ordered = [rows[k] for k in rows]
    return ordered


def render_table4(results: "dict[str, dict]") -> str:
    """Render the paper-shaped table from campaign results.

    Pure function of the recorded cell *values* (accuracy ± stderr), so
    an interrupted-and-resumed campaign renders byte-identical output to
    an uninterrupted one — scheduling accounting never enters the table.
    """
    cells = [
        result for name, result in results.items()
        if name.startswith("cell:")
    ]
    return format_table(cells_to_rows(cells))


def main(argv=None) -> str:  # pragma: no cover - CLI glue
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate Table IV")
    parser.add_argument("--datasets", nargs="*", default=None)
    parser.add_argument("--kernels", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--store",
        default=None,
        help="artifact-store directory for checkpoint/resume "
        "(default: $REPRO_STORE; unset = recompute everything)",
    )
    args = parser.parse_args(argv)
    from repro.campaign import run_campaign_plan
    from repro.experiments.config import execution_context

    ctx = execution_context(args.store)
    plan = build_table4_campaign(
        kernels=args.kernels, datasets=args.datasets, seed=args.seed,
        n_repeats=args.repeats, ctx=ctx,
    )
    run = run_campaign_plan(plan, ctx=ctx)
    table = run.report()
    if ctx.store is not None:
        # Single "\n": the line must start with "_" so report diffs that
        # strip italic metadata (grep -v '^_') see identical tables with
        # and without a store.
        table += f"\n_{run.summary()}_"
    output = ReportOutput(
        table, failed=[(state.name, state.error) for state in run.failed]
    )
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
