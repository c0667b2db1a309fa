"""C-SVM with precomputed kernels, trained by SMO (LIBSVM-style solver).

The paper trains C-SVMs (LIBSVM, ref. [51]) on kernel matrices; scikit-learn
is unavailable here, so this module implements the same dual problem

    min_alpha  1/2 alphaᵀ Q alpha - eᵀ alpha
    s.t.       yᵀ alpha = 0,  0 <= alpha_i <= C,   Q_ij = y_i y_j K_ij

with second-order working-set selection (LIBSVM's WSS 2; Fan, Chen & Lin,
JMLR 2005) and the standard two-variable analytic update. Only the
precomputed-kernel path is needed — every model in this reproduction
consumes a Gram matrix.

One solver serves every fit: :func:`fit_machines` advances a batch of
independent binary problems in lockstep as padded ``(B, n)`` arrays, one
set of numpy calls per SMO iteration for the whole batch, and retires each
problem when it converges or reaches its iteration cap. Every problem runs
the operations of a one-problem loop in the same order, so its result does
not depend on the batch it rode in (DESIGN.md, "Lockstep SMO").
:meth:`BinarySVM.fit` is a batch of one.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.errors import ConvergenceWarning, NotFittedError, ValidationError
from repro.utils.validation import check_in_range, check_positive_int

_TAU = 1e-12

#: Most elements (``B·n²``) one lockstep solve's Q stack may hold — 32 MiB
#: of float64. A larger batch is solved in consecutive chunks under it; a
#: single problem above it is solved alone.
_STACK_ELEMENTS = 1 << 22


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
        fit_machines(k_matrix, [(self, np.arange(n), y)])
        return self

    def decision_function(self, kernel_rows: np.ndarray) -> np.ndarray:
        """``f(x) = sum_i alpha_i y_i K(x_i, x) + bias`` per row.

        ``kernel_rows[t, i]`` must be the kernel between test point ``t``
        and training point ``i``. Each row's value is the same bytes
        whatever rows share the call: on C-contiguous rows ``einsum``
        reduces every row with one inner loop, where ``rows @ dual_coef_``
        takes a BLAS path chosen by the row count.
        """
        if self.dual_coef_ is None:
            raise NotFittedError("BinarySVM must be fitted before prediction")
        rows = np.asarray(kernel_rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dual_coef_.shape[0]:
            raise ValidationError(
                f"kernel_rows must be (n_test, {self.dual_coef_.shape[0]}), "
                f"got {rows.shape}"
            )
        coef = self.dual_coef_
        return np.einsum("ij,j->i", np.ascontiguousarray(rows), coef) + self.bias_

    def predict(self, kernel_rows: np.ndarray) -> np.ndarray:
        """Class predictions in {-1, +1} (ties resolve to +1)."""
        return np.where(self.decision_function(kernel_rows) >= 0.0, 1.0, -1.0)


def fit_machines(gram: np.ndarray, problems) -> None:
    """Fit every ``(machine, rows, labels)`` of ``problems`` by lockstep SMO.

    Each :class:`BinarySVM` learns ``gram[np.ix_(rows, rows)]`` with
    ``labels`` in {-1, +1} under its own ``c``, ``tol`` and ``max_iter``,
    and ends with the attributes a fit on that sub-matrix alone gives, bit
    for bit. Sub-matrices are gathered one chunk at a time, so the caller's
    Gram is never copied whole. Every problem that reaches its cap emits
    one :class:`ConvergenceWarning`.
    """
    checked = []
    for machine, rows, labels in problems:
        y = np.asarray(labels, dtype=float)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValidationError("labels must be -1 or +1")
        if np.unique(y).size < 2:
            raise ValidationError("need both classes present to fit an SVM")
        checked.append((machine, np.asarray(rows), y))
    for chunk in _chunks(checked):
        _solve(gram, chunk)
    for machine, _, _ in checked:
        if machine.n_iter_ >= machine.max_iter:
            warnings.warn(
                f"SMO hit the iteration cap ({machine.max_iter}); "
                "solution may be inexact",
                ConvergenceWarning,
                stacklevel=2,
            )


def _chunks(problems):
    """Consecutive runs of ``problems`` whose padded Q stack fits in
    :data:`_STACK_ELEMENTS`."""
    chunk: list = []
    width = 0
    for problem in problems:
        n = problem[1].size
        if chunk and (len(chunk) + 1) * max(width, n) ** 2 > _STACK_ELEMENTS:
            yield chunk
            chunk, width = [], 0
        chunk.append(problem)
        width = max(width, n)
    if chunk:
        yield chunk


def _solve(gram: np.ndarray, problems) -> None:
    """Lockstep SMO over one chunk; writes each machine's fitted attributes.

    Problem ``k`` occupies row ``k`` of the padded arrays. Padding has
    label 0, which keeps it out of both index sets: it is never selected,
    and its zero rows of Q leave its gradient untouched.
    """
    b = len(problems)
    n = max(rows.size for _, rows, _ in problems)
    q = np.zeros((b, n, n))
    y = np.zeros((b, n))
    for k, (_, rows, labels) in enumerate(problems):
        m = rows.size
        block = gram[np.ix_(rows, rows)]
        np.multiply(block, np.outer(labels, labels), out=q[k, :m, :m])
        y[k, :m] = labels
    q_rows = q.reshape(b * n, n)
    alpha, gradient = np.empty((b, n)), np.empty((b, n))
    n_iter = np.zeros(b, dtype=int)

    # Per live problem, compacted whenever some retire. ``live`` maps a
    # live row to its problem: q stays whole and is read through it.
    state = [
        np.arange(b),  # live
        np.zeros((b, n)),  # alpha
        np.full((b, n), -1.0),  # G = Q alpha - e at alpha = 0
        y,
        -y,
        q[:, np.arange(n), np.arange(n)],  # diag(Q)
        np.array([machine.c for machine, _, _ in problems]),
        np.array([machine.tol for machine, _, _ in problems]),
        np.array([machine.max_iter for machine, _, _ in problems]),
    ]
    live, a, g, yl, neg_y, dl, cl, tl, capl = state
    offset = np.arange(b) * n  # flat index of each live row
    iteration = 0
    while True:
        i, j, stop = _working_pairs(
            q_rows, live * n, offset, a, g, yl, neg_y, dl, cl, tl
        )
        finished = stop | (capl <= iteration)
        if finished.any():
            done = live[finished]
            alpha[done], gradient[done] = a[finished], g[finished]
            n_iter[done] = iteration
            keep = ~finished
            state = [x[keep] for x in state]
            if not keep.any():
                break
            live, a, g, yl, neg_y, dl, cl, tl, capl = state
            i, j, offset = i[keep], j[keep], offset[: live.size]
        fi, fj = offset + i, offset + j
        flat_a, flat_g, flat_y, flat_d = a.ravel(), g.ravel(), yl.ravel(), dl.ravel()
        old_i, old_j = flat_a[fi], flat_a[fj]
        new_i, new_j = _clipped_pair_step(
            old_i, old_j, flat_g[fi], flat_g[fj], flat_y[fi] != flat_y[fj],
            flat_d[fi], flat_d[fj], q[live, i, j], cl,
        )
        flat_a[fi], flat_a[fj] = new_i, new_j
        g += (q[live, :, i] * (new_i - old_i)[:, None]
              + q[live, :, j] * (new_j - old_j)[:, None])
        iteration += 1

    for k, (machine, rows, labels) in enumerate(problems):
        m = rows.size
        alpha_k = alpha[k, :m]
        machine.n_iter_ = int(n_iter[k])
        machine.dual_coef_ = alpha_k * labels
        machine.support_ = np.flatnonzero(alpha_k > 1e-12)
        machine.bias_ = -_compute_rho(labels, alpha_k, gradient[k, :m], machine.c)


def _working_pairs(
    q_rows, row_offset, offset, alpha, gradient, y, neg_y, diag, c, tol
):
    """LIBSVM WSS 2 for every live problem: ``(i, j, stop)``.

    ``i`` is the maximal violator among the "up" indices and ``j`` the
    second-order choice among the "low" ones; both masked reductions keep
    the first index, as ``argmax``/``argmin`` over the compacted index
    sets do. ``stop`` marks a violation gap below ``tol`` or no candidate
    ``j``. An empty "up" set needs no test of its own: ``g_max`` is then
    ``-inf``, so no ``j`` is a candidate.
    """
    above = alpha > 1e-12
    below = alpha < (c - 1e-12)[:, None]
    positive, negative = y > 0, y < 0
    up = (positive & below) | (negative & above)
    low = (positive & above) | (negative & below)
    neg_yg = neg_y * gradient
    up_values = np.where(up, neg_yg, -np.inf)
    i = up_values.argmax(axis=1)
    fi = offset + i
    g_max = up_values.ravel()[fi]
    g_min = np.where(low, neg_yg, np.inf).min(axis=1)

    # Second-order choice of j: largest decrease of the dual objective.
    # y_t G_t is exactly -neg_yg_t, so this is g_max + y_t G_t.
    grad_diff = g_max[:, None] - neg_yg
    candidates = low & (grad_diff > 0)
    # Pair curvature in K-space: K_ii + K_tt - 2 K_it. Since Q includes
    # the label signs, that equals Q_ii + Q_tt - 2 y_i y_t Q_it.
    quad = ((diag.ravel()[fi][:, None] + diag)
            - ((2.0 * y.ravel()[fi])[:, None] * y) * q_rows[row_offset + i])
    quad[quad <= 0] = _TAU
    objective = np.where(candidates, -(grad_diff**2) / quad, np.inf)
    j = objective.argmin(axis=1)
    # A candidate's objective is <= 0 or NaN, never +inf.
    stop = (objective.ravel()[offset + j] == np.inf) | (g_max - g_min < tol)
    return i, j, stop


def _clipped_pair_step(a_i, a_j, g_i, g_j, opposite, q_ii, q_jj, q_ij, c):
    """The two-variable analytic step clipped to the box (LIBSVM update),
    for every live problem at once: the new ``(alpha_i, alpha_j)``.

    ``opposite`` marks ``y_i != y_j``, where the step keeps
    ``alpha_i - alpha_j``; otherwise it keeps ``alpha_i + alpha_j``.
    ``x + (-1.0)·y`` is ``x - y`` bit for bit, so one signed expression
    serves both cases. Each clipping branch of the one-problem update is
    a masked assignment of the same values, in the same order.
    """
    sign = np.where(opposite, 1.0, -1.0)
    quad = (q_ii + q_jj) + sign * (2.0 * q_ij)
    quad[quad <= 0] = _TAU
    delta = np.where(opposite, -g_i - g_j, g_i - g_j) / quad
    new_i, new_j = a_i + sign * delta, a_j + delta

    # Every clip below fires only on a value outside [0, c]; fmin and fmax
    # skip NaN, as the comparisons of a NaN do.
    if not ((np.fmin(new_i, new_j) < 0) | (np.fmax(new_i, new_j) > c)).any():
        return new_i, new_j
    diff, total = a_i - a_j, a_i + a_j
    ahead, over = diff > 0, total > c
    ahead_opp, behind_opp = opposite & ahead, opposite & ~ahead
    over_same, under_same = ~opposite & over, ~opposite & ~over
    # First clip, then second, as the one-problem update orders them.
    clip = ahead_opp & (new_j < 0)
    new_j[clip], new_i[clip] = 0.0, diff[clip]
    clip = behind_opp & (new_i < 0)
    new_i[clip], new_j[clip] = 0.0, -diff[clip]
    clip = over_same & (new_i > c)
    new_i[clip], new_j[clip] = c[clip], (total - c)[clip]
    clip = under_same & (new_j < 0)
    new_j[clip], new_i[clip] = 0.0, total[clip]

    clip = ahead_opp & (new_i > c)
    new_i[clip], new_j[clip] = c[clip], (c - diff)[clip]
    clip = behind_opp & (new_j > c)
    new_j[clip], new_i[clip] = c[clip], (c + diff)[clip]
    clip = over_same & (new_j > c)
    new_j[clip], new_i[clip] = c[clip], (total - c)[clip]
    clip = under_same & (new_i < 0)
    new_i[clip], new_j[clip] = 0.0, total[clip]
    return new_i, new_j


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
