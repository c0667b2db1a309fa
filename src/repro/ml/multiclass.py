"""Multiclass SVM via one-vs-one voting (LIBSVM's scheme).

The paper's datasets range from 2 to 30 classes (Table II); C-SVM handles
multiclass by training ``K(K-1)/2`` binary machines and voting, which is
what :class:`KernelSVC` does on precomputed Gram matrices.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import NotFittedError, ValidationError
from repro.ml.svm import BinarySVM, fit_machines
from repro.utils.validation import check_in_range, check_positive_int


class KernelSVC:
    """One-vs-one multiclass C-SVM on a precomputed kernel.

    Usage::

        model = KernelSVC(c=10.0).fit(K[train][:, train], y[train])
        predictions = model.predict(K[test][:, train])
    """

    def __init__(self, c: float = 1.0, *, tol: float = 1e-3, max_iter: int = 100_000):
        self.c = check_in_range(c, "c", low=0.0, high=np.inf, low_inclusive=False)
        self.tol = check_in_range(tol, "tol", low=0.0, high=1.0, low_inclusive=False)
        self.max_iter = check_positive_int(max_iter, "max_iter", minimum=1)
        self.classes_: "np.ndarray | None" = None
        self._machines: "list[tuple] | None" = None
        self._n_train: int = 0

    def fit(self, kernel: np.ndarray, labels) -> "KernelSVC":
        """Train all pairwise machines on the training Gram matrix."""
        k_matrix = np.asarray(kernel, dtype=float)
        y = np.asarray(labels)
        if y.ndim != 1 or k_matrix.shape != (y.size, y.size):
            raise ValidationError(
                f"kernel {k_matrix.shape} incompatible with labels {y.shape}"
            )
        fit_svcs(k_matrix, y, [(self, np.arange(y.size))])
        return self

    def vote_margins(self, kernel_rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Per-class OvO votes and accumulated decision margins.

        Returns ``(votes, margins)``, both ``(n_test, n_classes)`` aligned
        with :attr:`classes_`: each pairwise machine adds one vote to its
        winner and its signed decision value to both classes' margin
        accumulators. The margins are what the serving layer reports as
        prediction confidence.
        """
        if self._machines is None or self.classes_ is None:
            raise NotFittedError("KernelSVC must be fitted before prediction")
        rows = np.asarray(kernel_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self._n_train:
            raise ValidationError(
                f"kernel_rows must be (n_test, {self._n_train}), got {rows.shape}"
            )
        n_test = rows.shape[0]
        class_index = {c: i for i, c in enumerate(self.classes_)}
        votes = np.zeros((n_test, self.classes_.size))
        margins = np.zeros((n_test, self.classes_.size))
        for class_a, class_b, indices, machine in self._machines:
            decision = machine.decision_function(rows[:, indices])
            a_idx, b_idx = class_index[class_a], class_index[class_b]
            wins_a = decision >= 0
            votes[wins_a, a_idx] += 1
            votes[~wins_a, b_idx] += 1
            margins[:, a_idx] += decision
            margins[:, b_idx] -= decision
        return votes, margins

    def predict(self, kernel_rows: np.ndarray) -> np.ndarray:
        """Predict labels for test rows ``K(test, train)`` by OvO voting.

        Ties break toward the class with the larger accumulated decision
        margin, then toward the smaller class label (deterministic).
        Empty batches (``n_test == 0``) return an empty label array —
        ``np.ptp`` is undefined on zero-size margins.
        """
        votes, margins = self.vote_margins(kernel_rows)
        return self.labels_from_votes(votes, margins)

    def labels_from_votes(
        self, votes: np.ndarray, margins: np.ndarray
    ) -> np.ndarray:
        """Labels from a :meth:`vote_margins` result — the voting argmax
        without re-running the pairwise decision functions (the serving
        layer needs both labels and margins from one evaluation)."""
        if self.classes_ is None:
            raise NotFittedError("KernelSVC must be fitted before prediction")
        if votes.shape[0] == 0:
            return self.classes_[:0]
        # Lexicographic argmax: votes first, margins as tie-break.
        margin_range = np.ptp(margins) + 1.0
        score = votes + (margins / margin_range) * 0.5
        best = np.argmax(score, axis=1)
        return self.classes_[best]

    def score(self, kernel_rows: np.ndarray, labels) -> float:
        """Mean accuracy on the given test rows."""
        predictions = self.predict(kernel_rows)
        return float(np.mean(predictions == np.asarray(labels)))


def fit_svcs(gram: np.ndarray, labels, jobs) -> None:
    """Fit several one-vs-one models with one lockstep SMO solve.

    ``jobs`` holds ``(model, rows)`` pairs. Each :class:`KernelSVC` ends
    as ``model.fit(gram[np.ix_(rows, rows)], labels[rows])`` would leave
    it, bit for bit, but the binary machines of all the models train
    together in :func:`repro.ml.svm.fit_machines`, which gathers their
    sub-matrices from ``gram`` one chunk at a time.
    """
    y_all = np.asarray(labels)
    problems = []
    fitted = []
    for model, rows in jobs:
        rows = np.asarray(rows)
        y = y_all[rows]
        classes = np.unique(y)
        if classes.size < 2:
            raise ValidationError("need at least two classes")
        machines = []
        for class_a, class_b in itertools.combinations(classes, 2):
            indices = np.flatnonzero((y == class_a) | (y == class_b))
            machine = BinarySVM(model.c, tol=model.tol, max_iter=model.max_iter)
            problems.append(
                (machine, rows[indices], np.where(y[indices] == class_a, 1.0, -1.0))
            )
            machines.append((class_a, class_b, indices, machine))
        fitted.append((model, classes, y.size, machines))
    fit_machines(gram, problems)
    for model, classes, n_train, machines in fitted:
        model.classes_, model._n_train, model._machines = classes, n_train, machines
