"""The benchmark's workloads, how a seed presents them, and output checks.

Each workload is a fixed collection (a Table IV cell, or the serving
bundle's training set and request pool) with a fixed protocol (the CV
splits of a cell). The seed decides how the inputs are *presented*: the
vertex numbering of every graph and, for serving, the request mix and
arrival times. HAQJSK is permutation invariant, so every seed runs the
same computation on different bytes: a seed moves neither the amount of
work nor the result, only the inputs' form.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

#: Largest |batched − serial oracle| accepted for a normalised Gram entry.
ORACLE_TOL = 1e-10


@dataclass(frozen=True)
class CellWorkload:
    """Graph list → normalised Gram → conditioning → repeated CV."""

    name: str
    dataset: str
    scale: float
    prototypes: int
    levels: int = 5
    dataset_seed: int = 0
    folds: int = 10
    repeats: int = 3
    #: Part of the protocol, like the folds: with the splits fixed,
    #: ``cv_accuracy`` depends on the kernel values alone.
    cv_seed: int = 0
    #: Gram entries the serial oracle recomputes.
    oracle_entries: int = 16
    #: Fresh interpreters timed for ``setup_s`` before the cell worker.
    setup_probes: int = 5
    kind: str = "cell"


@dataclass(frozen=True)
class ServeWorkload:
    """A frozen bundle behind ``python -m repro.serve serve``."""

    name: str
    prototypes: int = 32
    levels: int = 5
    train_scale: float = 0.5
    train_seed: int = 0
    #: The request pool comes from another dataset seed than training.
    pool_scale: float = 0.25
    pool_seed: int = 1
    templates: int = 48
    max_request_graphs: int = 4
    rate: float = 8.0
    #: Seeds the traffic shape — arrival times and the order of template
    #: slots, hence of request sizes — which, like a cell's CV splits, is
    #: part of the workload: seeding it per run moved ``predict_p95_ms``
    #: between 62 and 102 ms with the program and host unchanged.
    traffic_seed: int = 0
    #: Fixed request count; ``None`` sends ``rate × seconds`` requests.
    requests: "int | None" = None
    connections: int = 2
    #: The load runs in this many segments; the host reference is timed
    #: between them, while the server is idle.
    segments: int = 10
    request_timeout: float = 30.0
    #: Server spawns timed for ``setup_s``; the last one takes the load.
    setup_spawns: int = 3
    #: In-process samples behind the serve ``cell_s`` / ``gram_s`` (best of).
    inprocess_repeats: int = 5
    kind: str = "serve"


WORKLOADS = {
    "cell-mutag-p256": CellWorkload("cell-mutag-p256", "MUTAG", 0.25, 256),
    "cell-ppis-p32": CellWorkload("cell-ppis-p32", "PPIs", 0.5, 32),
    "serve-mutag-p32": ServeWorkload("serve-mutag-p32"),
}

#: Same code paths on tiny inputs, for the harness self-tests.
SMOKE = {
    "cell-mutag-p256": replace(
        WORKLOADS["cell-mutag-p256"], scale=0.06, prototypes=8, folds=3,
        repeats=1, oracle_entries=4, setup_probes=1,
    ),
    "cell-ppis-p32": replace(
        WORKLOADS["cell-ppis-p32"], scale=0.05, prototypes=8, folds=2,
        repeats=1, oracle_entries=4, setup_probes=1,
    ),
    "serve-mutag-p32": replace(
        WORKLOADS["serve-mutag-p32"], prototypes=8, train_scale=0.07,
        pool_scale=0.06, templates=6, rate=math.inf, requests=12,
        setup_spawns=1, inprocess_repeats=1,
    ),
}


def get(name: str, *, smoke: bool = False):
    return (SMOKE if smoke else WORKLOADS)[name]


def kernel_spec(workload):
    from repro import KernelSpec

    return KernelSpec(
        "HAQJSK(D)", n_prototypes=workload.prototypes,
        n_levels=workload.levels, seed=0,
    )


def presented(graphs, seed: int):
    """The seed's presentation of a fixed collection: every graph with a
    random vertex numbering, in the collection's order."""
    from repro import Graph

    rng = np.random.default_rng([seed, 0])
    out = []
    for graph in graphs:
        perm = rng.permutation(graph.n_vertices)
        labels = None if graph.labels is None else graph.labels[perm]
        out.append(Graph(graph.adjacency[np.ix_(perm, perm)], labels=labels,
                         name=graph.name))
    return out


def fresh(graphs):
    """New graph objects with the same content — empty per-instance
    caches, like graphs that just arrived."""
    from repro import Graph

    return [Graph(g.adjacency, labels=g.labels, name=g.name) for g in graphs]


def timed_cell(session, spec, graphs, targets, workload, pause=None):
    """One cell, timed: the sequence ``Session.cross_validate`` runs —
    normalised Gram, conditioning, repeated stratified CV. ``pause()``,
    if given, runs untimed between the Gram and the rest.

    Returns ``(normalised Gram, {"gram_s", "cell_s", "accuracy"})``.
    """
    from repro.ml import GramConditioner, cross_validate_kernel

    start = time.perf_counter()
    gram = session.gram(spec, graphs, normalize=True)
    gram_s = time.perf_counter() - start
    if pause is not None:
        pause()
    resumed = time.perf_counter()
    conditioned = GramConditioner(ctx=session.ctx).fit(gram).transform(gram)
    result = cross_validate_kernel(
        conditioned, targets, n_folds=workload.folds,
        n_repeats=workload.repeats, seed=workload.cv_seed,
    )
    return gram, {
        "gram_s": gram_s,
        "cell_s": gram_s + time.perf_counter() - resumed,
        "accuracy": float(result.mean_accuracy),
    }


# --------------------------------------------------------------------- #
# Descriptors (measured outside the timed region)
# --------------------------------------------------------------------- #


def collection_descriptors(graphs, targets) -> dict:
    return {
        "n_graphs": len(graphs),
        "n_classes": len(set(np.asarray(targets).tolist())),
        "mean_vertices": float(np.mean([g.n_vertices for g in graphs])),
    }


def level_descriptors(states) -> "list[dict]":
    """Per hierarchy level: aligned size m_h and the mean numerical rank
    of the aligned density matrices ρ (HAQJSK states are
    ``(entropies, matrices)``)."""
    levels = []
    for h in range(len(states[0][1])):
        matrices = [state[1][h] for state in states]
        ranks = [int(np.linalg.matrix_rank(m, hermitian=True)) for m in matrices]
        levels.append({
            "level": h + 1,
            "m": int(matrices[0].shape[0]),
            "mean_rank": float(np.mean(ranks)),
        })
    return levels


# --------------------------------------------------------------------- #
# Output checks: failures are counted, never raised
# --------------------------------------------------------------------- #


def sample_entries(n: int, count: int, seed: int) -> "list[tuple[int, int]]":
    """Seeded Gram positions ``(i, j)``, ``i <= j``, for the oracle."""
    rng = np.random.default_rng([seed, 2])
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    picks = rng.choice(len(upper), size=min(count, len(upper)), replace=False)
    return sorted(upper[int(k)] for k in picks)


def oracle_entries(kernel, graphs, entries):
    """The serial reference for sampled normalised Gram entries:
    ``pair_value`` over ``prepare`` states, cosine-normalised.

    Returns ``(expected, states)``.
    """
    states = kernel.prepare(list(graphs))
    values: dict = {}

    def value(i, j):
        if (i, j) not in values:
            values[(i, j)] = float(kernel.pair_value(states[i], states[j]))
        return values[(i, j)]

    expected = {
        (i, j): value(i, j) / math.sqrt(value(i, i) * value(j, j))
        for i, j in entries
    }
    return expected, states


def gram_mismatches(sampled: dict, expected: dict, tol: float = ORACLE_TOL) -> list:
    """Sampled entries not within ``tol`` of the oracle (NaN fails)."""
    return [
        {"entry": [i, j], "got": got, "want": expected[(i, j)]}
        for (i, j), got in sorted(sampled.items())
        if not abs(got - expected[(i, j)]) <= tol
    ]


def reply_failures(records, expected_labels) -> list:
    """Requests that got no 200 reply, or labels other than the solo
    ``PredictionService.predict`` oracle of their template."""
    failures = []
    for record in records:
        labels = (record.payload or {}).get("labels") if record.status == 200 else None
        want = expected_labels[record.template]
        if labels != want:
            failures.append({
                "rid": record.rid, "status": record.status,
                "error": record.error, "labels": labels, "expected": want,
            })
    return failures
