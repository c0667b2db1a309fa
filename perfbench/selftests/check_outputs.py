"""The output checks count a perturbed Gram entry and a swapped label as
failures, on real smoke-size outputs of the program."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchenv  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

benchenv.import_program()

from repro import ExecutionContext, Session  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402

CELL = workloads.get("cell-mutag-p256", smoke=True)
SERVE = workloads.get("serve-mutag-p32", smoke=True)


def _cell_inputs(seed: int = 3):
    dataset = load_dataset(CELL.dataset, scale=CELL.scale, seed=CELL.dataset_seed)
    return workloads.presented(dataset.graphs, seed), dataset.targets


def test_a_perturbed_gram_entry_is_a_failure():
    graphs, _ = _cell_inputs()
    session = Session(ExecutionContext())
    spec = workloads.kernel_spec(CELL)
    gram = session.gram(spec, workloads.fresh(graphs), normalize=True)
    entries = workloads.sample_entries(len(graphs), 6, seed=3)
    expected, _ = workloads.oracle_entries(session.kernel(spec),
                                           workloads.fresh(graphs), entries)
    sampled = {entry: float(gram[entry]) for entry in entries}
    assert workloads.gram_mismatches(sampled, expected) == []
    victim = entries[2]
    sampled[victim] += 1e-8
    assert [m["entry"] for m in workloads.gram_mismatches(sampled, expected)] == [
        list(victim)
    ]
    sampled[victim] = float("nan")
    assert len(workloads.gram_mismatches(sampled, expected)) == 1


def test_the_timed_cell_is_what_session_cross_validate_runs():
    graphs, targets = _cell_inputs()
    session = Session(ExecutionContext())
    spec = workloads.kernel_spec(CELL)
    _, timing = workloads.timed_cell(session, spec, workloads.fresh(graphs), targets,
                                     CELL)
    reference = session.cross_validate(spec, workloads.fresh(graphs), targets,
                                       n_folds=CELL.folds, n_repeats=CELL.repeats,
                                       seed=CELL.cv_seed)
    assert timing["accuracy"] == reference.mean_accuracy


def test_vertex_numbering_changes_the_input_bytes_not_the_result():
    """The seed renumbers vertices; HAQJSK is permutation invariant, so
    every seed computes the same Gram."""
    (one, targets), (two, _) = _cell_inputs(seed=1), _cell_inputs(seed=2)
    assert any((a.adjacency != b.adjacency).any() for a, b in zip(one, two))
    session = Session(ExecutionContext())
    spec = workloads.kernel_spec(CELL)
    gram_one = session.gram(spec, one, normalize=True)
    gram_two = session.gram(spec, two, normalize=True)
    assert abs(gram_one - gram_two).max() < 1e-10


def test_a_swapped_label_or_a_refused_request_is_a_failure():
    training = load_dataset("MUTAG", scale=SERVE.train_scale, seed=SERVE.train_seed)
    session = Session(ExecutionContext())
    bundle = session.train(workloads.kernel_spec(SERVE), training.graphs,
                           training.targets)
    service = session.service(bundle)
    pool = load_dataset("MUTAG", scale=SERVE.pool_scale, seed=SERVE.pool_seed).graphs
    templates = [[0, 1], [2], [3, 4, 5]]
    expected = [[int(label) for label in service.predict([pool[i] for i in t]).labels]
                for t in templates]
    records = [
        loadgen.Record(rid, template, 0.0, status=200,
                       payload={"labels": list(expected[template])})
        for rid, template in enumerate([0, 1, 2, 0])
    ]
    assert workloads.reply_failures(records, expected) == []
    first, *rest = expected[0]
    records[3].payload = {"labels": [1 - first, *rest]}
    records[1].status, records[1].payload = 503, {"error": {"kind": "busy"}}
    assert [f["rid"] for f in workloads.reply_failures(records, expected)] == [1, 3]
