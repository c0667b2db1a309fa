"""Section III-D — empirical computational-complexity check.

The paper claims overall time ``O(N^2 n^3)`` (N graphs of n vertices),
dominated by the per-pair spectral work of the QJSD. The cost decomposes
into two stages with different exponents:

* **preparation** — DB representations, prototype fitting, per-graph
  density matrices: ``O(N · n^3)`` (linear in N, cubic spectral work in n);
* **pairwise QJSD** — one mixed-state eigendecomposition per graph pair
  over the fixed-size aligned structures: ``O(N^2 · M^3)`` (quadratic in
  N; independent of n because alignment fixed the size at M prototypes).

Timing only the total hides the N² term at small N (preparation dominates
until N is in the hundreds), so this experiment times the two stages
*separately* and fits a log-log slope per stage: the pairwise slope should
sit near 2 and the preparation slope near 1, which together are exactly
the paper's O(N²n³) once M is folded back into the constant.

Each sweep point is one ``complexity.probe`` campaign node
(:func:`build_complexity_campaign`), so long sweeps interrupt and resume
like every other campaign; the slopes are fitted at render time from
whatever probes are recorded.
"""

from __future__ import annotations

import time

import numpy as np

from repro.campaign import (
    Campaign,
    CampaignNode,
    CampaignPlan,
    node_key,
    register_campaign,
    register_executor,
)
from repro.engine import SerialEngine
from repro.experiments.reporting import ReportOutput, format_table
from repro.graphs.generators import erdos_renyi
from repro.kernels import HAQJSKKernelA
from repro.utils.rng import as_rng, spawn_seed

#: Default sweep sizes (kept here so the campaign builder, the report
#: renderer and the benchmarks agree on the probe grid).
VERTEX_SWEEP = (16, 24, 36, 54)
GRAPH_SWEEP = (8, 16, 32, 64, 128)

#: The fixed probe-kernel configuration every timing runs with; part of
#: each probe's node key so a changed probe invalidates recorded timings.
_PROBE_KERNEL = {"prototypes": 16, "levels": 2, "layers": 4}


def _probe_graphs(n_graphs: int, n_vertices: int, seed: int) -> list:
    rng = as_rng(seed)
    return [
        erdos_renyi(n_vertices, min(4.0 / max(n_vertices - 1, 1), 0.5),
                    seed=spawn_seed(rng))
        for _ in range(n_graphs)
    ]


def time_gram_stages(
    n_graphs: int, n_vertices: int, *, seed: int = 0, ctx=None
) -> dict:
    """Wall-clock seconds of the two Gram stages for HAQJSK(A).

    Uses the kernel's prepare / engine split directly, which is how
    ``gram`` itself is computed, so the sum of the stages is the honest
    total. By default the pairwise stage runs as a tile plan on the
    serial backend — the same scheduler every production Gram goes
    through, evaluating exactly the ``N(N+1)/2`` upper-triangle
    ``pair_value`` calls the paper's ``O(N²)`` term counts; a ``ctx``
    with an explicit engine re-times the sweep on that backend instead.
    """
    graphs = _probe_graphs(n_graphs, n_vertices, seed)
    kernel = HAQJSKKernelA(
        n_prototypes=_PROBE_KERNEL["prototypes"],
        n_levels=_PROBE_KERNEL["levels"],
        max_layers=_PROBE_KERNEL["layers"],
        seed=seed,
    )
    if ctx is not None and ctx.engine is not None:
        engine = ctx.resolved_engine()
    else:
        engine = SerialEngine()

    started = time.perf_counter()
    states = kernel.prepare(graphs)
    prepare_seconds = time.perf_counter() - started

    started = time.perf_counter()
    engine.gram(kernel, states)
    pairwise_seconds = time.perf_counter() - started
    return {
        "prepare": prepare_seconds,
        "pairwise": pairwise_seconds,
        "total": prepare_seconds + pairwise_seconds,
    }


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-9))
    slope, _ = np.polyfit(log_x, log_y, 1)
    return float(slope)


# ---------------------------------------------------------------------- #
# Campaign declaration
# ---------------------------------------------------------------------- #


@register_campaign("complexity")
def build_complexity_campaign(
    *,
    vertex_sweep=VERTEX_SWEEP,
    graph_sweep=GRAPH_SWEEP,
    seed: int = 0,
    ctx=None,
) -> CampaignPlan:
    """One ``complexity.probe`` node per sweep point, both sweeps."""
    nodes = []
    for n_vertices in vertex_sweep:
        nodes.append(_probe_node("vertices", 10, int(n_vertices), seed, ctx))
    for n_graphs in graph_sweep:
        nodes.append(_probe_node("graphs", int(n_graphs), 20, seed, ctx))
    return CampaignPlan(Campaign("complexity", nodes), render_complexity)


def _probe_node(sweep: str, n_graphs: int, n_vertices: int, seed: int, ctx):
    point = n_vertices if sweep == "vertices" else n_graphs
    params = {
        "n_graphs": n_graphs,
        "n_vertices": n_vertices,
        "seed": seed,
        "kernel": _PROBE_KERNEL,
    }
    return CampaignNode(
        name=f"{sweep}:{point}",
        kind="complexity.probe",
        key=node_key("complexity.probe", ctx=ctx, params=params),
        payload={"n_graphs": n_graphs, "n_vertices": n_vertices, "seed": seed},
    )


@register_executor("complexity.probe")
def _execute_probe_node(payload: dict, ctx) -> dict:
    return time_gram_stages(
        payload["n_graphs"], payload["n_vertices"], seed=payload["seed"],
        ctx=ctx,
    )


def run_complexity(
    *,
    vertex_sweep=VERTEX_SWEEP,
    graph_sweep=GRAPH_SWEEP,
    seed: int = 0,
    ctx=None,
) -> dict:
    """Measure both sweeps and fit per-stage scaling exponents."""
    from repro.campaign import run_campaign_plan
    from repro.errors import CampaignError

    plan = build_complexity_campaign(
        vertex_sweep=vertex_sweep, graph_sweep=graph_sweep, seed=seed, ctx=ctx
    )
    run = run_campaign_plan(plan, ctx=ctx)
    if run.failed:
        first = run.failed[0]
        raise CampaignError(
            f"complexity campaign: {len(run.failed)} probes failed; first "
            f"{first.name}:\n{first.error}"
        )
    vertex_rows = [
        _vertex_row(int(name.split(":", 1)[1]), stages)
        for name, stages in run.results.items()
        if name.startswith("vertices:")
    ]
    graph_rows = [
        _graph_row(int(name.split(":", 1)[1]), stages)
        for name, stages in run.results.items()
        if name.startswith("graphs:")
    ]
    return {
        "vertex_rows": vertex_rows,
        "graph_rows": graph_rows,
        "vertex_slope": fit_loglog_slope(
            [row["n (vertices)"] for row in vertex_rows],
            [row["total s"] for row in vertex_rows],
        ),
        "graph_prepare_slope": fit_loglog_slope(
            [row["N (graphs)"] for row in graph_rows],
            [row["prepare s"] for row in graph_rows],
        ),
        "graph_pairwise_slope": fit_loglog_slope(
            [row["N (graphs)"] for row in graph_rows],
            [row["pairwise s"] for row in graph_rows],
        ),
    }


def _vertex_row(n_vertices: int, stages: dict) -> dict:
    return {
        "n (vertices)": n_vertices,
        "prepare s": round(stages["prepare"], 4),
        "pairwise s": round(stages["pairwise"], 4),
        "total s": round(stages["total"], 4),
    }


def _graph_row(n_graphs: int, stages: dict) -> dict:
    return {
        "N (graphs)": n_graphs,
        "prepare s": round(stages["prepare"], 4),
        "pairwise s": round(stages["pairwise"], 4),
        "total s": round(stages["total"], 4),
    }


def render_complexity(results: "dict[str, dict]") -> str:
    """Render both sweep tables plus fitted slopes from probe results."""
    vertex_rows = [
        _vertex_row(int(name.split(":", 1)[1]), stages)
        for name, stages in results.items()
        if name.startswith("vertices:")
    ]
    graph_rows = [
        _graph_row(int(name.split(":", 1)[1]), stages)
        for name, stages in results.items()
        if name.startswith("graphs:")
    ]
    if not vertex_rows or not graph_rows:
        return "(no results)"
    vertex_slope = fit_loglog_slope(
        [row["n (vertices)"] for row in vertex_rows],
        [row["total s"] for row in vertex_rows],
    )
    prepare_slope = fit_loglog_slope(
        [row["N (graphs)"] for row in graph_rows],
        [row["prepare s"] for row in graph_rows],
    )
    pairwise_slope = fit_loglog_slope(
        [row["N (graphs)"] for row in graph_rows],
        [row["pairwise s"] for row in graph_rows],
    )
    return (
        format_table(vertex_rows)
        + f"\nlog-log total slope vs n: {vertex_slope:.2f} "
        + "(n enters the O(N n^3) preparation term only)\n\n"
        + format_table(graph_rows)
        + f"\nlog-log slope vs N — prepare: {prepare_slope:.2f}"
        + " (expected ~1), pairwise: "
        + f"{pairwise_slope:.2f} (expected ~2; the paper's"
        + " O(N^2) term)"
    )


def main(argv=None) -> str:  # pragma: no cover - CLI glue
    from repro.campaign import run_campaign_plan
    from repro.experiments.config import execution_context

    ctx = execution_context()
    plan = build_complexity_campaign(ctx=ctx)
    run = run_campaign_plan(plan, ctx=ctx)
    output = ReportOutput(
        run.report(),
        failed=[(state.name, state.error) for state in run.failed],
    )
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
