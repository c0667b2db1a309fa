"""Table V — HAQJSK kernels vs graph deep-learning baselines.

The deep models (DGCNN, PSGCNN, DCNN) are trained per CV fold with Adam on
the numpy autograd; the embedding methods (DGK, AWE) produce Gram matrices
and reuse the kernel CV protocol, exactly as their original papers do.

Like Table IV, the sweep is declared as a campaign
(:func:`build_table5_campaign`): one ``table5.cell`` node per (model,
dataset), keyed by the model's configuration, the dataset digest and the
value-relevant context record, so a killed ``python -m repro.campaign
run table5`` resumes with only the unfinished cells recomputing.
"""

from __future__ import annotations

import numpy as np

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
    TABLE5_DATASETS,
    TABLE5_MODELS,
    cv_repeats,
    dataset_scale,
)
from repro.experiments.reporting import ReportOutput, format_table
from repro.gnn import (
    DCNN,
    DGCNN,
    PSGCNN,
    AnonymousWalkKernel,
    DeepGraphKernel,
    evaluate_model,
    train_graph_classifier,
)
from repro.kernels.registry import lenient_spec
from repro.ml import (
    GramConditioner,
    cross_validate_kernel,
    stratified_k_fold,
    summarize_repeats,
)
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng, spawn_seed

_LOGGER = get_logger("experiments.table5")

#: Paper Table V (mean accuracy only).
PAPER_TABLE5 = {
    "HAQJSK(A)": {"MUTAG": 85.83, "PTC": 62.35, "IMDB-B": 73.50, "IMDB-M": 50.08,
                  "RED-B": 90.93, "COLLAB": 79.20},
    "HAQJSK(D)": {"MUTAG": 86.33, "PTC": 59.05, "IMDB-B": 72.51, "IMDB-M": 49.30,
                  "RED-B": 89.50, "COLLAB": 78.82},
    "DGCNN": {"MUTAG": 85.83, "PTC": 58.59, "IMDB-B": 70.03, "IMDB-M": 47.83,
              "RED-B": 76.02, "COLLAB": 73.76},
    "PSGCNN": {"MUTAG": 88.95, "PTC": 62.29, "IMDB-B": 71.00, "IMDB-M": 45.23,
               "RED-B": 86.30, "COLLAB": 72.60},
    "DCNN": {"MUTAG": 66.98, "PTC": 58.09, "IMDB-B": 49.06, "IMDB-M": 33.49,
             "COLLAB": 52.11},
    "DGK": {"MUTAG": 82.66, "PTC": 57.32, "IMDB-B": 66.96, "IMDB-M": 44.55,
            "RED-B": 78.30, "COLLAB": 73.09},
    "AWE": {"MUTAG": 87.87, "IMDB-B": 73.13, "IMDB-M": 51.58, "RED-B": 82.97,
            "COLLAB": 70.99},
}

_TRAINED_MODELS = {"DGCNN": DGCNN, "PSGCNN": PSGCNN, "DCNN": DCNN}
_EMBEDDING_KERNELS = {"DGK": DeepGraphKernel, "AWE": AnonymousWalkKernel}


def _cv_trained_model(model_name, dataset, *, n_repeats, n_epochs, seed) -> tuple:
    """Repeated 10-fold CV training a fresh model per fold."""
    model_cls = _TRAINED_MODELS[model_name]
    rng = as_rng(seed)
    max_degree = int(
        min(max(g.unweighted_degrees().max() for g in dataset.graphs), 30)
    )
    per_repeat = []
    for _ in range(n_repeats):
        folds = stratified_k_fold(dataset.targets, 10, seed=spawn_seed(rng))
        accuracies = []
        for train_idx, test_idx in folds:
            if np.unique(dataset.targets[train_idx]).size < 2:
                continue
            model = model_cls(
                dataset.n_classes, max_degree=max_degree, seed=spawn_seed(rng)
            )
            train_graph_classifier(
                model,
                [dataset.graphs[i] for i in train_idx],
                dataset.targets[train_idx],
                n_epochs=n_epochs,
                seed=spawn_seed(rng),
            )
            accuracies.append(
                evaluate_model(
                    model,
                    [dataset.graphs[i] for i in test_idx],
                    dataset.targets[test_idx],
                )
            )
        if accuracies:
            per_repeat.append(float(np.mean(accuracies)))
    summary = summarize_repeats(per_repeat, best_c=float("nan"))
    return summary.mean_accuracy, summary.standard_error


def evaluate_cell(
    model_name: str,
    dataset_name: str,
    *,
    seed: int = 0,
    n_repeats: "int | None" = None,
    n_epochs: int = 40,
    ctx=None,
) -> dict:
    """One Table V cell.

    ``ctx`` (an :class:`~repro.api.ExecutionContext`) drives the kernel
    rows' Gram computation; the trained deep models ignore it (no Gram
    stage).
    """
    scale_cfg = dataset_scale(dataset_name)
    dataset = load_dataset(
        dataset_name, scale=scale_cfg.scale, size_scale=scale_cfg.size_scale,
        seed=seed,
    )
    repeats = n_repeats or max(cv_repeats() // 3, 1)
    if model_name in _TRAINED_MODELS:
        mean, stderr = _cv_trained_model(
            model_name, dataset, n_repeats=repeats, n_epochs=n_epochs, seed=seed + 1
        )
    else:
        if model_name in _EMBEDDING_KERNELS:
            kernel = _EMBEDDING_KERNELS[model_name]()
        else:
            kernel = lenient_spec(
                model_name, n_prototypes=scale_cfg.haqjsk_prototypes, seed=seed
            ).make()
        gram = kernel.gram(dataset.graphs, normalize=True, ctx=ctx)
        result = cross_validate_kernel(
            GramConditioner().fit_transform(gram), dataset.targets, n_folds=10,
            n_repeats=n_repeats or cv_repeats(), seed=seed + 1,
        )
        mean, stderr = result.mean_accuracy, result.standard_error
    _LOGGER.info("%s / %s: %.2f ± %.2f", model_name, dataset_name, mean * 100, stderr * 100)
    return {
        "model": model_name,
        "dataset": dataset_name,
        "accuracy": mean * 100.0,
        "stderr": stderr * 100.0,
        "paper": PAPER_TABLE5.get(model_name, {}).get(dataset_name),
        "n_graphs": len(dataset),
    }


# ---------------------------------------------------------------------- #
# Campaign declaration
# ---------------------------------------------------------------------- #


@register_campaign("table5")
def build_table5_campaign(
    *,
    models=None,
    datasets=None,
    seed: int = 0,
    n_repeats: "int | None" = None,
    ctx=None,
) -> CampaignPlan:
    """Declare the Table V sweep: one ``table5.cell`` node per cell.

    Kernel rows key on the kernel's configuration fingerprint; trained /
    embedding models carry their identity in the node parameters. Each
    dataset is loaded and digested once, here.
    """
    from repro.graphs.hashing import collection_digest

    nodes = []
    for dataset_name in datasets or TABLE5_DATASETS:
        scale_cfg = dataset_scale(dataset_name)
        dataset = load_dataset(
            dataset_name, scale=scale_cfg.scale,
            size_scale=scale_cfg.size_scale, seed=seed,
        )
        digest = collection_digest(dataset.graphs)
        for model_name in models or TABLE5_MODELS:
            fingerprint = None
            if (
                model_name not in _TRAINED_MODELS
                and model_name not in _EMBEDDING_KERNELS
            ):
                fingerprint = lenient_spec(
                    model_name, n_prototypes=scale_cfg.haqjsk_prototypes,
                    seed=seed,
                ).make().fingerprint()
            nodes.append(
                CampaignNode(
                    name=f"cell:{model_name}:{dataset_name}",
                    kind="table5.cell",
                    key=node_key(
                        "table5.cell",
                        fingerprint=fingerprint,
                        digest=digest,
                        ctx=ctx,
                        params={
                            "model": model_name,
                            "seed": seed,
                            "repeats": n_repeats,
                            "cv": cv_repeats(),
                            "epochs": 40,
                            "prototypes": scale_cfg.haqjsk_prototypes,
                        },
                    ),
                    payload={
                        "model": model_name,
                        "dataset": dataset_name,
                        "seed": seed,
                        "repeats": n_repeats,
                    },
                )
            )
    return CampaignPlan(Campaign("table5", nodes), render_table5)


@register_executor("table5.cell")
def _execute_cell_node(payload: dict, ctx) -> dict:
    return evaluate_cell(
        payload["model"],
        payload["dataset"],
        seed=payload["seed"],
        n_repeats=payload.get("repeats"),
        ctx=ctx,
    )


def run_table5(
    *, models=None, datasets=None, seed: int = 0,
    n_repeats: "int | None" = None, ctx=None,
) -> "list[dict]":
    """All requested Table V cells (defaults: the paper grid).

    Runs through the campaign runner; a failed cell raises with the
    stored executor traceback.
    """
    from repro.campaign import run_campaign_plan
    from repro.errors import CampaignError

    plan = build_table5_campaign(
        models=models, datasets=datasets, seed=seed, n_repeats=n_repeats,
        ctx=ctx,
    )
    run = run_campaign_plan(plan, ctx=ctx)
    if run.failed:
        first = run.failed[0]
        raise CampaignError(
            f"table5 campaign: {len(run.failed)} nodes failed; first "
            f"{first.name}:\n{first.error}"
        )
    return list(run.results.values())


def cells_to_rows(cells: "list[dict]") -> "list[dict]":
    """Pivot into paper-shaped rows (model x dataset)."""
    rows: dict = {}
    for cell in cells:
        row = rows.setdefault(cell["model"], {"Method": cell["model"]})
        row[cell["dataset"]] = f"{cell['accuracy']:.2f} ± {cell['stderr']:.2f}"
        if cell["paper"] is not None:
            row[cell["dataset"]] += f" (paper {cell['paper']:.2f})"
    return list(rows.values())


def render_table5(results: "dict[str, dict]") -> str:
    """Render the table from campaign results (pure value formatting)."""
    return format_table(cells_to_rows(list(results.values())))


def main(argv=None, *, store: "str | None" = None) -> str:  # pragma: no cover - CLI glue
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate Table V")
    parser.add_argument("--datasets", nargs="*", default=None)
    parser.add_argument("--models", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    from repro.campaign import run_campaign_plan
    from repro.experiments.config import execution_context

    ctx = execution_context(store)
    plan = build_table5_campaign(
        models=args.models, datasets=args.datasets, seed=args.seed,
        n_repeats=args.repeats, ctx=ctx,
    )
    run = run_campaign_plan(plan, ctx=ctx)
    output = ReportOutput(
        run.report(),
        failed=[(state.name, state.error) for state in run.failed],
    )
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
