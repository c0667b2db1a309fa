"""Lockstep SMO against the one-machine reference loop, byte for byte.

``fit_machines`` advances a batch of binary problems together; each
problem must end with the ``dual_coef_``, ``bias_``, ``support_`` and
``n_iter_`` bytes of ``tests/ml/smo_reference.py``'s loop. The Grams are
PSD and indefinite (random, and QJSK/JTQK Grams shifted below zero), one
is not bitwise symmetric (WLSK), and the drawn rows repeat indices, so
sub-matrices hold duplicate rows. Batches mix problem sizes, C values
(both grid ends included) and iteration caps. A result must not depend on
its batch companions or on how the element budget splits the batch, and
the pooled protocol must reproduce the one-fit-at-a-time protocol's
``CVResult`` on a 5-class PPIs subsample.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.multiclass as multiclass
import repro.ml.svm as svm
import smo_reference as reference
from repro.api import ExecutionContext, Session
from repro.datasets import load_dataset
from repro.errors import ConvergenceWarning, ValidationError
from repro.ml import DEFAULT_C_GRID, GramConditioner, KernelSVC, cross_validate_kernel
from repro.ml import select_c
from repro.ml.multiclass import fit_svcs
from repro.ml.svm import BinarySVM, fit_machines


def _nan_blind(values):
    """Bytes with every NaN made the same NaN: IEEE leaves the sign and
    payload of a NaN result to the hardware path, scalar or vector."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).tobytes()


def assert_same_fit(machine, expected, *, bytes_of=lambda x: np.asarray(x).tobytes()):
    assert machine.dual_coef_.dtype == expected.dual_coef_.dtype
    assert bytes_of(machine.dual_coef_) == bytes_of(expected.dual_coef_)
    assert bytes_of(np.float64(machine.bias_)) == bytes_of(np.float64(expected.bias_))
    assert machine.support_.dtype == expected.support_.dtype
    assert machine.support_.tobytes() == expected.support_.tobytes()
    assert machine.n_iter_ == expected.n_iter_


def reference_fit(gram, rows, labels, c, max_iter, tol=1e-3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return reference.BinarySVM(c, tol=tol, max_iter=max_iter).fit(
            gram[np.ix_(rows, rows)], labels
        )


def lockstep_fit(gram, specs):
    """``specs`` holds ``(rows, labels, c, max_iter)``; one batch."""
    machines = [BinarySVM(c, max_iter=max_iter) for _, _, c, max_iter in specs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        fit_machines(gram, [(m, r, y) for m, (r, y, _, _) in zip(machines, specs)])
    return machines


# --------------------------------------------------------------------- #
# Grams
# --------------------------------------------------------------------- #

_GRAMS: dict = {}


def _shifted_below_zero(gram):
    """The Gram minus half its mean diagonal: indefinite by construction."""
    shifted = gram - 0.5 * float(np.mean(np.diag(gram))) * np.eye(len(gram))
    assert np.linalg.eigvalsh((shifted + shifted.T) / 2).min() < 0
    return shifted


def gram(name):
    if name not in _GRAMS:
        rng = np.random.default_rng(7)
        if name == "psd":
            factors = rng.normal(size=(40, 3))
            _GRAMS[name] = factors @ factors.T
        elif name == "random-indefinite":
            noise = rng.normal(size=(40, 40))
            _GRAMS[name] = (noise + noise.T) / 2
        else:
            kernel = name.split("-")[0].upper()
            graphs = load_dataset("MUTAG", scale=0.2, seed=0).graphs
            session = Session(ExecutionContext())
            matrix = np.asarray(session.gram(kernel, graphs, normalize=True))
            if name.endswith("indefinite"):
                matrix = _shifted_below_zero(matrix)
            _GRAMS[name] = matrix
    return _GRAMS[name]


GRAM_NAMES = [
    "psd", "random-indefinite", "qjsk", "qjsk-indefinite", "jtqk-indefinite", "wlsk",
]


def test_wlsk_gram_is_not_bitwise_symmetric():
    matrix = gram("wlsk")
    assert not np.array_equal(matrix, matrix.T)


@st.composite
def problems(draw, n):
    """``(rows, labels, c, max_iter)``: rows may repeat (duplicate rows)."""
    size = draw(st.integers(min_value=2, max_value=min(n, 36)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    signs = st.sampled_from([-1.0, 1.0])
    labels = np.asarray(draw(st.lists(signs, min_size=size, max_size=size)))
    labels[:2] = (1.0, -1.0)
    c = draw(st.sampled_from(DEFAULT_C_GRID))
    max_iter = draw(st.sampled_from([1, 4, 40, 400]))
    return np.asarray(rows), labels, c, max_iter


@st.composite
def batches(draw):
    name = draw(st.sampled_from(GRAM_NAMES))
    n = len(gram(name))
    return name, draw(st.lists(problems(n), min_size=1, max_size=5))


# --------------------------------------------------------------------- #
# Byte identity
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(batch=batches())
def test_batch_matches_reference(batch):
    name, specs = batch
    matrix = gram(name)
    machines = lockstep_fit(matrix, specs)
    for machine, (rows, labels, c, max_iter) in zip(machines, specs):
        assert_same_fit(machine, reference_fit(matrix, rows, labels, c, max_iter))
        assert machine.n_iter_ <= max_iter


@pytest.mark.parametrize("name", GRAM_NAMES)
def test_grid_ends_and_caps_in_one_batch(name):
    """Both C grid ends, converged and capped fits, sizes 3 to 30."""
    matrix = gram(name)
    rng = np.random.default_rng(len(name))
    specs = []
    cases = [(30, 0.01, 100_000), (3, 1000.0, 100_000), (17, 1000.0, 100_000),
             (30, 1000.0, 5), (22, 0.01, 2), (9, 1.0, 100_000)]
    for size, c, max_iter in cases:
        rows = rng.choice(len(matrix), size=size, replace=False)
        labels = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
        specs.append((rows, labels, c, max_iter))
    machines = lockstep_fit(matrix, specs)
    for machine, (rows, labels, c, max_iter) in zip(machines, specs):
        assert_same_fit(machine, reference_fit(matrix, rows, labels, c, max_iter))
    assert machines[3].n_iter_ == 5 and machines[4].n_iter_ == 2


@pytest.mark.parametrize("name", GRAM_NAMES)
def test_duplicate_rows(name):
    """Repeated training points, with equal and with opposite labels."""
    matrix = gram(name)
    base = np.arange(0, 24, 3)
    specs = [
        (np.repeat(base, 3), np.tile([1.0, 1.0, -1.0], base.size), 10.0, 100_000),
        (np.concatenate([base, base]), np.repeat([1.0, -1.0], base.size), 1.0, 100_000),
        (np.repeat(base[:4], 5), np.tile([1.0, -1.0], 10), 1000.0, 300),
    ]
    for machine, (rows, labels, c, max_iter) in zip(lockstep_fit(matrix, specs), specs):
        assert_same_fit(machine, reference_fit(matrix, rows, labels, c, max_iter))


def test_non_finite_grams_match_reference():
    """NaN and ±inf entries: the masked reductions and the stop tests
    still make the loop's choices, down to when it stops; only the sign
    and payload of NaN results may differ."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(4, 16))
        factors = rng.normal(size=(n, 3))
        matrix = factors @ factors.T
        for value in rng.choice([np.nan, np.inf, -np.inf], size=2):
            matrix[tuple(rng.integers(0, n, size=2))] = value
        labels = rng.choice([-1.0, 1.0], size=n)
        labels[:2] = (1.0, -1.0)
        rows = np.arange(n)
        specs = [(rows, labels, 10.0, 50), (rows[::-1], labels, 0.1, 50)]
        with np.errstate(all="ignore"):
            machines = lockstep_fit(matrix, specs)
            for machine, (rows, y, c, max_iter) in zip(machines, specs):
                expected = reference_fit(matrix, rows, y, c, max_iter)
                assert_same_fit(machine, expected, bytes_of=_nan_blind)


_EDGES = st.sampled_from(
    [0.0, -0.0, 1e-13, 0.01, 1.0, 1000.0, -1.0, np.nan, np.inf, -np.inf]
)
_VALUES = st.one_of(_EDGES, st.floats(-1e3, 1e3), st.floats(allow_nan=True))


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(DEFAULT_C_GRID), st.sampled_from([-1.0, 1.0]),
            st.sampled_from([-1.0, 1.0]), *[_VALUES] * 7,
        ),
        min_size=1, max_size=8,
    )
)
def test_pair_step_matches_reference_update(steps):
    """The batched clipped step against the loop's in-place pair update,
    on box edges, signed zeros and non-finite values alike (NaN results
    compare as one NaN)."""
    c, y_i, y_j, a_i, a_j, g_i, g_j, q_ii, q_jj, q_ij = map(np.array, zip(*steps))
    with np.errstate(all="ignore"):
        new_i, new_j = svm._clipped_pair_step(
            a_i, a_j, g_i, g_j, y_i != y_j, q_ii, q_jj, q_ij, c
        )
        for k in range(len(steps)):
            alpha = np.array([a_i[k], a_j[k]])
            reference.BinarySVM._update_pair(
                0, 1, np.array([y_i[k], y_j[k]]), alpha, np.array([g_i[k], g_j[k]]),
                np.array([[q_ii[k], q_ij[k]], [np.nan, q_jj[k]]]), c[k],
            )
            assert _nan_blind([new_i[k], new_j[k]]) == _nan_blind(alpha)


def _mixed_specs():
    rng = np.random.default_rng(3)
    matrix = gram("psd")
    specs = []
    for k, size in enumerate([5, 31, 12, 40, 2, 26, 18]):
        rows = rng.choice(len(matrix), size=size, replace=size > len(matrix))
        labels = rng.choice([-1.0, 1.0], size=size)
        labels[:2] = (1.0, -1.0)
        c = DEFAULT_C_GRID[k % len(DEFAULT_C_GRID)]
        specs.append((rows, labels, c, [100_000, 3][k % 2]))
    return matrix, specs


def _state(machine):
    return (machine.dual_coef_.tobytes(), np.float64(machine.bias_).tobytes(),
            machine.support_.tobytes(), machine.n_iter_)


def test_result_independent_of_companions():
    matrix, specs = _mixed_specs()
    together = [_state(m) for m in lockstep_fit(matrix, specs)]
    alone = [_state(lockstep_fit(matrix, [spec])[0]) for spec in specs]
    reversed_batch = [_state(m) for m in lockstep_fit(matrix, specs[::-1])][::-1]
    assert together == alone == reversed_batch


@pytest.mark.parametrize("budget", [1, 2 * 31**2, 3 * 40**2, 10**6])
def test_result_independent_of_budget_split(monkeypatch, budget):
    matrix, specs = _mixed_specs()
    expected = [_state(m) for m in lockstep_fit(matrix, specs)]
    solves = []
    solve = svm._solve
    monkeypatch.setattr(svm, "_STACK_ELEMENTS", budget)
    monkeypatch.setattr(
        svm, "_solve", lambda g, chunk: (solves.append(len(chunk)), solve(g, chunk))
    )
    assert [_state(m) for m in lockstep_fit(matrix, specs)] == expected
    assert sum(solves) == len(specs)
    if budget == 1:
        assert solves == [1] * len(specs)
    if budget == 10**6:
        assert solves == [len(specs)]


def test_chunks_stay_within_budget(monkeypatch):
    monkeypatch.setattr(svm, "_STACK_ELEMENTS", 5000)
    sized = [(None, np.arange(n), None) for n in [10, 30, 40, 90, 5, 5, 5, 70]]
    chunks = list(svm._chunks(sized))
    assert [p for chunk in chunks for p in chunk] == sized
    for chunk in chunks:
        width = max(p[1].size for p in chunk)
        assert len(chunk) == 1 or len(chunk) * width**2 <= 5000


# --------------------------------------------------------------------- #
# Warnings and validation
# --------------------------------------------------------------------- #


def test_capped_problems_warn_once_each():
    matrix = gram("psd")[:30, :30]
    labels = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
    rows = np.arange(30)
    caps = [1, 100_000, 2, 3]
    machines = [BinarySVM(10.0, max_iter=cap) for cap in caps]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit_machines(matrix, [(m, rows, labels) for m in machines])
    messages = [
        str(w.message) for w in caught if issubclass(w.category, ConvergenceWarning)
    ]
    with warnings.catch_warnings(record=True) as expected:
        warnings.simplefilter("always")
        for cap in caps:
            reference.BinarySVM(10.0, max_iter=cap).fit(matrix, labels)
    assert len(caught) == 3
    assert messages == [str(w.message) for w in expected]
    assert messages[0] == "SMO hit the iteration cap (1); solution may be inexact"


def test_uncapped_batch_does_not_warn():
    matrix = gram("psd")
    labels = np.where(np.arange(20) % 2 == 0, 1.0, -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_machines(
            matrix, [(BinarySVM(c), np.arange(20), labels) for c in (0.1, 1.0)]
        )


def test_invalid_problem_fits_nothing():
    matrix = gram("psd")
    good = BinarySVM()
    labels = np.where(np.arange(6) % 2 == 0, 1.0, -1.0)
    with pytest.raises(ValidationError, match="-1 or \\+1"):
        fit_machines(matrix, [(good, np.arange(6), labels),
                              (BinarySVM(), np.arange(6), np.arange(6.0))])
    with pytest.raises(ValidationError, match="both classes"):
        fit_machines(matrix, [(good, np.arange(6), labels),
                              (BinarySVM(), np.arange(6), np.ones(6))])
    assert good.dual_coef_ is None


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": 0}, {"tol": 2}, {"max_iter": 0}],
    ids=["tol=0", "tol=2", "max_iter=0"],
)
def test_kernel_svc_validates_at_construction(kwargs):
    with pytest.raises(ValidationError) as binary:
        BinarySVM(**kwargs)
    with pytest.raises(ValidationError) as multi:
        KernelSVC(**kwargs)
    assert str(multi.value) == str(binary.value)


# --------------------------------------------------------------------- #
# KernelSVC pooling, pickling and the protocol
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def ppis():
    """A 5-class PPIs subsample's conditioned JTQK Gram and labels."""
    dataset = load_dataset("PPIs", scale=0.2, seed=0)
    matrix = Session(ExecutionContext()).gram("JTQK", dataset.graphs, normalize=True)
    conditioned = GramConditioner().fit(matrix).transform(matrix)
    assert np.unique(dataset.targets).size == 5
    return conditioned, np.asarray(dataset.targets)


def _machine_states(model):
    return [(a, b, idx.tobytes(), _state(m)) for a, b, idx, m in model._machines]


def test_fit_svcs_matches_solo_fits(ppis):
    matrix, y = ppis
    rng = np.random.default_rng(0)
    jobs = [
        (KernelSVC(c=c), np.sort(rng.choice(y.size, size=size, replace=False)))
        for c, size in [(0.01, 40), (1000.0, 25), (10.0, 33), (1.0, 44)]
    ]
    fit_svcs(matrix, y, jobs)
    for model, rows in jobs:
        solo = reference.fit_kernel_svc(
            KernelSVC(c=model.c), matrix[np.ix_(rows, rows)], y[rows]
        )
        assert model.classes_.tobytes() == solo.classes_.tobytes()
        assert model._n_train == solo._n_train
        assert _machine_states(model) == _machine_states(solo)


def test_pickled_model_gives_same_vote_margins(ppis):
    matrix, y = ppis
    model = KernelSVC(c=10.0).fit(matrix[:30, :30], y[:30])
    for _, _, indices, machine in model._machines:
        assert type(machine) is BinarySVM and indices.dtype.kind == "i"
    restored = pickle.loads(pickle.dumps(model))
    rows = matrix[30:, :30]
    for before, after in zip(model.vote_margins(rows), restored.vote_margins(rows)):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize("select_per_fold", [False, True])
def test_protocol_matches_reference_protocol(ppis, select_per_fold):
    matrix, y = ppis
    kwargs = dict(n_folds=5, n_repeats=2, seed=11, select_per_fold=select_per_fold)
    expected = reference.cross_validate_kernel(matrix, y, **kwargs)
    assert cross_validate_kernel(matrix, y, **kwargs) == expected


def test_reference_solver_patched_into_protocol(ppis, monkeypatch):
    matrix, y = ppis
    train = np.arange(5, y.size)
    pooled = (select_c(matrix, y, train, seed=4),
              cross_validate_kernel(matrix, y, n_folds=5, n_repeats=2, seed=5))
    calls = []

    def reference_solver(gram_, problems):
        calls.append(len(problems))
        reference.fit_machines(gram_, problems)

    monkeypatch.setattr(multiclass, "fit_machines", reference_solver)
    patched = (select_c(matrix, y, train, seed=4),
               cross_validate_kernel(matrix, y, n_folds=5, n_repeats=2, seed=5))
    assert patched == pooled
    # One solve per select_c call and per repeat's outer folds.
    assert len(calls) == 1 + 2 * 2
