"""Figure 2 — the hierarchical prototype construction, regenerated.

The paper's Fig. 2 shows 2-D vertex representations being clustered into
1-, 2- and 3-level prototypes by hierarchically applied κ-means. This
experiment reproduces the construction on real DB representations (first
two coordinates) from a small graph collection and reports, per level, the
prototype count, the cluster populations, and the within-cluster inertia —
plus an ASCII scatter of the level-1 prototypes so the hierarchy can be
eyeballed in a terminal.
"""

from __future__ import annotations

import numpy as np

from repro.alignment.depth_based import DBRepresentationExtractor
from repro.alignment.prototypes import fit_prototype_hierarchy
from repro.campaign import (
    Campaign,
    CampaignNode,
    CampaignPlan,
    node_key,
    register_campaign,
    register_executor,
)
from repro.datasets import load_dataset
from repro.experiments.reporting import ReportOutput, format_table


def run_figure2(
    *,
    n_prototypes: int = 16,
    n_levels: int = 3,
    seed: int = 0,
) -> dict:
    """Regenerate the Fig. 2 construction; returns levels + ascii plot."""
    dataset = load_dataset("MUTAG", scale=0.1, seed=seed)
    extractor = DBRepresentationExtractor(max_layers=2)
    representations = extractor.fit_transform(dataset.graphs)
    pooled = np.vstack([rep[:, :2] for rep in representations])
    hierarchy = fit_prototype_hierarchy(
        pooled, n_prototypes=n_prototypes, n_levels=n_levels, seed=seed
    )
    level_rows = []
    for level in range(1, hierarchy.n_levels + 1):
        assignments = hierarchy.assign(pooled, level)
        counts = np.bincount(assignments, minlength=hierarchy.size(level))
        centers = hierarchy.centers[level - 1]
        distances = pooled - centers[assignments]
        inertia = float(np.sum(distances**2))
        level_rows.append(
            {
                "Level h": level,
                "Prototypes |P^h|": hierarchy.size(level),
                "Occupied": int((counts > 0).sum()),
                "Largest cluster": int(counts.max()),
                "Inertia": round(inertia, 3),
            }
        )
    return {
        "n_points": pooled.shape[0],
        "levels": level_rows,
        "ascii": ascii_scatter(pooled, hierarchy.centers[0]),
        "hierarchy": hierarchy,
    }


def ascii_scatter(
    points: np.ndarray, centers: np.ndarray, *, width: int = 60, height: int = 18
) -> str:
    """Terminal scatter: ``.`` = vertex representation, ``#`` = prototype."""
    both = np.vstack([points, centers])
    low = both.min(axis=0)
    span = np.maximum(both.max(axis=0) - low, 1e-9)
    canvas = [[" "] * width for _ in range(height)]

    def place(point, mark):
        x = int((point[0] - low[0]) / span[0] * (width - 1))
        y = int((point[1] - low[1]) / span[1] * (height - 1))
        canvas[height - 1 - y][x] = mark

    for p in points:
        place(p, ".")
    for c in centers:
        place(c, "#")
    return "\n".join("".join(row) for row in canvas)


# ---------------------------------------------------------------------- #
# Campaign declaration
# ---------------------------------------------------------------------- #


@register_campaign("figure2")
def build_figure2_campaign(
    *,
    n_prototypes: int = 16,
    n_levels: int = 3,
    seed: int = 0,
    ctx=None,
) -> CampaignPlan:
    """One ``figure2.hierarchy`` node: the whole construction is one cell."""
    params = {
        "n_prototypes": int(n_prototypes),
        "n_levels": int(n_levels),
        "seed": int(seed),
    }
    node = CampaignNode(
        name="hierarchy",
        kind="figure2.hierarchy",
        key=node_key("figure2.hierarchy", ctx=ctx, params=params),
        payload=params,
    )
    return CampaignPlan(Campaign("figure2", [node]), render_figure2)


@register_executor("figure2.hierarchy")
def _execute_hierarchy_node(payload: dict, ctx) -> dict:
    result = run_figure2(
        n_prototypes=payload["n_prototypes"],
        n_levels=payload["n_levels"],
        seed=payload["seed"],
    )
    # The fitted hierarchy object is not JSON-able (and not needed for
    # the report) — the recorded result keeps only the renderable facts.
    return {key: result[key] for key in ("n_points", "levels", "ascii")}


def render_figure2(results: "dict[str, dict]") -> str:
    result = results.get("hierarchy")
    if result is None:
        return "(no results)"
    table = format_table(result["levels"])
    return (
        f"{result['n_points']} vertex representations\n\n{table}\n\n"
        f"level-1 prototypes (#) over vertex representations (.):\n"
        f"{result['ascii']}"
    )


def main(argv=None, *, store: "str | None" = None) -> str:  # pragma: no cover - CLI glue
    from repro.campaign import run_campaign_plan
    from repro.experiments.config import execution_context

    ctx = execution_context(store)
    plan = build_figure2_campaign(ctx=ctx)
    run = run_campaign_plan(plan, ctx=ctx)
    output = ReportOutput(
        run.report(),
        failed=[(state.name, state.error) for state in run.failed],
    )
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
