"""Table II — dataset statistics, measured vs paper.

Regenerates every dataset (at the requested scale) and prints its measured
Table II row next to the paper's row. At ``scale=1.0`` the graph counts
match the paper exactly and the vertex/edge means land near the paper's:
``tests/experiments/test_experiments.py`` holds the mean vertex count of
MUTAG and PTC within ±25 % of Table II.
"""

from __future__ import annotations

from repro.datasets import DATASET_NAMES, PAPER_STATISTICS, load_dataset
from repro.experiments.reporting import format_table


def run_table2(
    *, scale: float = 1.0, size_scale: float = 1.0, seed: int = 0, names=None
) -> "list[dict]":
    """Measured-vs-paper statistics rows for each dataset."""
    rows = []
    for name in names or DATASET_NAMES:
        dataset = load_dataset(name, scale=scale, size_scale=size_scale, seed=seed)
        measured = dataset.statistics()
        paper = PAPER_STATISTICS[name]
        rows.append(
            {
                "Dataset": name,
                "Max V (paper)": paper.max_vertices,
                "Max V (ours)": measured.max_vertices,
                "Mean V (paper)": paper.mean_vertices,
                "Mean V (ours)": round(measured.mean_vertices, 2),
                "Mean E (paper)": paper.mean_edges,
                "Mean E (ours)": round(measured.mean_edges, 2),
                "Graphs (paper)": paper.n_graphs,
                "Graphs (ours)": measured.n_graphs,
                "Classes": measured.n_classes,
                "Labels": measured.n_vertex_labels or "-",
                "Domain": paper.domain,
            }
        )
    return rows


def main(argv=None) -> str:  # pragma: no cover - CLI glue
    import argparse

    parser = argparse.ArgumentParser(description="Regenerate Table II")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--size-scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    table = format_table(
        run_table2(scale=args.scale, size_scale=args.size_scale, seed=args.seed)
    )
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
