"""The one-machine-at-a-time SMO loop and CV protocol, kept as the
reference for :func:`repro.ml.svm.fit_machines` and the pooled protocol.

The library advances a batch of binary problems in lockstep as padded
``(B, n)`` arrays. Each problem runs the same IEEE operations in the same
order as :class:`BinarySVM` below, so every fit must match it byte for
byte: ``dual_coef_``, ``bias_``, ``support_`` and ``n_iter_``.
:func:`cross_validate_kernel` and :func:`select_c` below fit one
:class:`~repro.ml.multiclass.KernelSVC`, and each of its machines, at a
time, as the protocol did before it pooled its fits; the library's
protocol must give the same :class:`~repro.ml.metrics.CVResult`.
"""

from __future__ import annotations

import warnings

import numpy as np

import itertools

from repro.errors import ConvergenceWarning, NotFittedError, ValidationError
from repro.ml.cross_validation import DEFAULT_C_GRID, stratified_k_fold
from repro.ml.metrics import CVResult, accuracy, summarize_repeats
from repro.ml.multiclass import KernelSVC
from repro.utils.rng import as_rng, spawn_seed
from repro.utils.validation import check_in_range, check_positive_int

_TAU = 1e-12


class BinarySVM:
    """Soft-margin binary SVM on a precomputed kernel.

    Parameters
    ----------
    c:
        Box constraint ``C`` (larger = harder margin).
    tol:
        KKT violation tolerance for the stopping rule.
    max_iter:
        Cap on SMO iterations; hitting it emits :class:`ConvergenceWarning`.

    Attributes (after :meth:`fit`)
    ------------------------------
    dual_coef_:  ``alpha_i * y_i`` for every training point.
    bias_:       the decision-function offset ``-rho``.
    support_:    indices with non-zero ``alpha``.
    n_iter_:     SMO iterations performed.
    """

    def __init__(self, c: float = 1.0, *, tol: float = 1e-3, max_iter: int = 100_000):
        self.c = check_in_range(c, "c", low=0.0, high=np.inf, low_inclusive=False)
        self.tol = check_in_range(tol, "tol", low=0.0, high=1.0, low_inclusive=False)
        self.max_iter = check_positive_int(max_iter, "max_iter", minimum=1)
        self.dual_coef_: "np.ndarray | None" = None
        self.bias_: float = 0.0
        self.support_: "np.ndarray | None" = None
        self.n_iter_: int = 0

    def fit(self, kernel: np.ndarray, labels: np.ndarray) -> "BinarySVM":
        """Train on ``kernel`` (n x n Gram) and ``labels`` in {-1, +1}."""
        k_matrix = np.asarray(kernel, dtype=float)
        y = np.asarray(labels, dtype=float)
        n = y.shape[0]
        if k_matrix.shape != (n, n):
            raise ValidationError(
                f"kernel must be ({n}, {n}) to match labels, got {k_matrix.shape}"
            )
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValidationError("labels must be -1 or +1")
        if np.unique(y).size < 2:
            raise ValidationError("need both classes present to fit an SVM")

        q_matrix = k_matrix * np.outer(y, y)
        alpha = np.zeros(n)
        gradient = np.full(n, -1.0)  # G = Q alpha - e at alpha = 0
        c = self.c

        iteration = 0
        while iteration < self.max_iter:
            selected = self._select_working_set(y, alpha, gradient, q_matrix)
            if selected is None:
                break
            i, j = selected
            old_ai, old_aj = alpha[i], alpha[j]
            self._update_pair(i, j, y, alpha, gradient, q_matrix, c)
            delta_i, delta_j = alpha[i] - old_ai, alpha[j] - old_aj
            gradient += q_matrix[:, i] * delta_i + q_matrix[:, j] * delta_j
            iteration += 1

        if iteration >= self.max_iter:
            warnings.warn(
                f"SMO hit the iteration cap ({self.max_iter}); "
                "solution may be inexact",
                ConvergenceWarning,
                stacklevel=2,
            )

        self.n_iter_ = iteration
        self.dual_coef_ = alpha * y
        self.support_ = np.flatnonzero(alpha > 1e-12)
        self.bias_ = -self._compute_rho(y, alpha, gradient, c)
        return self

    def decision_function(self, kernel_rows: np.ndarray) -> np.ndarray:
        """``f(x) = sum_i alpha_i y_i K(x_i, x) + bias`` per row.

        ``kernel_rows[t, i]`` must be the kernel between test point ``t``
        and training point ``i``.
        """
        if self.dual_coef_ is None:
            raise NotFittedError("BinarySVM must be fitted before prediction")
        rows = np.asarray(kernel_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dual_coef_.shape[0]:
            raise ValidationError(
                f"kernel_rows must be (n_test, {self.dual_coef_.shape[0]}), "
                f"got {rows.shape}"
            )
        return rows @ self.dual_coef_ + self.bias_

    def predict(self, kernel_rows: np.ndarray) -> np.ndarray:
        """Class predictions in {-1, +1} (ties resolve to +1)."""
        return np.where(self.decision_function(kernel_rows) >= 0.0, 1.0, -1.0)

    # ------------------------------------------------------------------ #
    # SMO internals
    # ------------------------------------------------------------------ #

    def _select_working_set(self, y, alpha, gradient, q_matrix):
        """LIBSVM WSS 2: maximal violating pair with second-order j choice."""
        c = self.c
        up_mask = ((y > 0) & (alpha < c - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low_mask = ((y > 0) & (alpha > 1e-12)) | ((y < 0) & (alpha < c - 1e-12))
        if not up_mask.any() or not low_mask.any():
            return None
        neg_yg = -y * gradient
        up_indices = np.flatnonzero(up_mask)
        i = int(up_indices[np.argmax(neg_yg[up_indices])])
        g_max = neg_yg[i]

        low_indices = np.flatnonzero(low_mask)
        g_min = float(np.min(neg_yg[low_indices]))
        if g_max - g_min < self.tol:
            return None

        # Second-order choice of j: largest decrease of the dual objective.
        grad_diff = g_max + y[low_indices] * gradient[low_indices]
        positive = grad_diff > 0
        if not positive.any():
            return None
        candidates = low_indices[positive]
        diffs = grad_diff[positive]
        # Pair curvature in K-space: K_ii + K_tt - 2 K_it. Since Q includes
        # the label signs, that equals Q_ii + Q_tt - 2 y_i y_t Q_it.
        quad = (
            q_matrix[i, i]
            + q_matrix[candidates, candidates]
            - 2.0 * y[i] * y[candidates] * q_matrix[i, candidates]
        )
        quad = np.where(quad <= 0, _TAU, quad)
        objective = -(diffs**2) / quad
        j = int(candidates[np.argmin(objective)])
        return i, j

    @staticmethod
    def _update_pair(i, j, y, alpha, gradient, q_matrix, c):
        """Two-variable analytic step, clipped to the box (LIBSVM update)."""
        if y[i] != y[j]:
            quad_coef = q_matrix[i, i] + q_matrix[j, j] + 2.0 * q_matrix[i, j]
            if quad_coef <= 0:
                quad_coef = _TAU
            delta = (-gradient[i] - gradient[j]) / quad_coef
            diff = alpha[i] - alpha[j]
            alpha[i] += delta
            alpha[j] += delta
            if diff > 0:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = diff
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = -diff
            if diff > 0:
                if alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = c - diff
            else:
                if alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = c + diff
        else:
            quad_coef = q_matrix[i, i] + q_matrix[j, j] - 2.0 * q_matrix[i, j]
            if quad_coef <= 0:
                quad_coef = _TAU
            delta = (gradient[i] - gradient[j]) / quad_coef
            total = alpha[i] + alpha[j]
            alpha[i] -= delta
            alpha[j] += delta
            if total > c:
                if alpha[i] > c:
                    alpha[i] = c
                    alpha[j] = total - c
            else:
                if alpha[j] < 0:
                    alpha[j] = 0.0
                    alpha[i] = total
            if total > c:
                if alpha[j] > c:
                    alpha[j] = c
                    alpha[i] = total - c
            else:
                if alpha[i] < 0:
                    alpha[i] = 0.0
                    alpha[j] = total

    @staticmethod
    def _compute_rho(y, alpha, gradient, c) -> float:
        """The decision threshold, averaged over free support vectors."""
        y_grad = y * gradient
        free = (alpha > 1e-12) & (alpha < c - 1e-12)
        if free.any():
            return float(y_grad[free].mean())
        upper = ((alpha <= 1e-12) & (y > 0)) | ((alpha >= c - 1e-12) & (y < 0))
        lower = ((alpha <= 1e-12) & (y < 0)) | ((alpha >= c - 1e-12) & (y > 0))
        ub = float(y_grad[upper].min()) if upper.any() else 0.0
        lb = float(y_grad[lower].max()) if lower.any() else 0.0
        return (ub + lb) / 2.0


def fit_machines(gram, problems) -> None:
    """Drop-in for :func:`repro.ml.svm.fit_machines`: one reference fit
    per ``(machine, rows, labels)``, copied onto the machine."""
    for machine, rows, labels in problems:
        fitted = BinarySVM(machine.c, tol=machine.tol, max_iter=machine.max_iter)
        fitted.fit(gram[np.ix_(rows, rows)], labels)
        machine.dual_coef_ = fitted.dual_coef_
        machine.bias_ = fitted.bias_
        machine.support_ = fitted.support_
        machine.n_iter_ = fitted.n_iter_


# --------------------------------------------------------------------- #
# The protocol, one model and one machine at a time
# --------------------------------------------------------------------- #


def fit_kernel_svc(model: KernelSVC, kernel, labels) -> KernelSVC:
    """``KernelSVC.fit`` as a loop of reference machine fits."""
    k_matrix = np.asarray(kernel, dtype=float)
    y = np.asarray(labels)
    if y.ndim != 1 or k_matrix.shape != (y.size, y.size):
        raise ValidationError(
            f"kernel {k_matrix.shape} incompatible with labels {y.shape}"
        )
    model.classes_ = np.unique(y)
    if model.classes_.size < 2:
        raise ValidationError("need at least two classes")
    model._n_train = y.size
    model._machines = []
    for class_a, class_b in itertools.combinations(model.classes_, 2):
        member_mask = (y == class_a) | (y == class_b)
        indices = np.flatnonzero(member_mask)
        binary_labels = np.where(y[indices] == class_a, 1.0, -1.0)
        machine = BinarySVM(model.c, tol=model.tol, max_iter=model.max_iter)
        machine.fit(k_matrix[np.ix_(indices, indices)], binary_labels)
        model._machines.append((class_a, class_b, indices, machine))
    return model


def _fit_predict(gram, y, train, test, c) -> np.ndarray:
    model = KernelSVC(c=c)
    fit_kernel_svc(model, gram[np.ix_(train, train)], y[train])
    return model.predict(gram[np.ix_(test, train)])


def select_c(
    gram: np.ndarray,
    labels: np.ndarray,
    train: np.ndarray,
    *,
    c_grid=DEFAULT_C_GRID,
    inner_folds: int = 3,
    seed=None,
) -> float:
    """Pick ``C`` by inner stratified CV restricted to the training indices."""
    y = np.asarray(labels)
    rng = as_rng(seed)
    sub_y = y[train]
    # Guard: inner folds need every class at least twice for a meaningful
    # split; fall back to the grid midpoint otherwise.
    _, counts = np.unique(sub_y, return_counts=True)
    if counts.min() < 2 or train.size < inner_folds * 2:
        return float(c_grid[len(c_grid) // 2])
    splits = stratified_k_fold(sub_y, inner_folds, seed=spawn_seed(rng))
    best_c, best_score = float(c_grid[0]), -1.0
    for c in c_grid:
        scores = []
        for inner_train, inner_test in splits:
            if np.unique(sub_y[inner_train]).size < 2:
                continue
            predictions = _fit_predict(
                gram[np.ix_(train, train)], sub_y, inner_train, inner_test, c
            )
            scores.append(accuracy(sub_y[inner_test], predictions))
        score = float(np.mean(scores)) if scores else -1.0
        if score > best_score:
            best_score, best_c = score, float(c)
    return best_c


def cross_validate_kernel(
    gram: np.ndarray,
    labels,
    *,
    n_folds: int = 10,
    n_repeats: int = 10,
    c_grid=DEFAULT_C_GRID,
    inner_folds: int = 3,
    select_per_fold: bool = False,
    seed=0,
) -> CVResult:
    """The paper's protocol on one precomputed Gram matrix."""
    k_matrix = np.asarray(gram, dtype=float)
    y = np.asarray(labels)
    if k_matrix.shape != (y.size, y.size):
        raise ValidationError(
            f"gram {k_matrix.shape} incompatible with labels {y.shape}"
        )
    n_repeats = check_positive_int(n_repeats, "n_repeats", minimum=1)
    rng = as_rng(seed)
    per_repeat = []
    chosen_cs = []
    for _ in range(n_repeats):
        splits = stratified_k_fold(y, n_folds, seed=spawn_seed(rng))
        fold_accuracies = []
        repeat_c: "float | None" = None
        for train, test in splits:
            if np.unique(y[train]).size < 2:
                continue
            if select_per_fold or repeat_c is None:
                repeat_c = select_c(
                    k_matrix,
                    y,
                    train,
                    c_grid=c_grid,
                    inner_folds=inner_folds,
                    seed=spawn_seed(rng),
                )
                chosen_cs.append(repeat_c)
            predictions = _fit_predict(k_matrix, y, train, test, repeat_c)
            fold_accuracies.append(accuracy(y[test], predictions))
        if fold_accuracies:
            per_repeat.append(float(np.mean(fold_accuracies)))
    best_c = float(np.median(chosen_cs)) if chosen_cs else float("nan")
    return summarize_repeats(per_repeat, best_c)
