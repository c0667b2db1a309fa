"""The paper's evaluation protocol: repeated stratified 10-fold CV.

Section IV-B: "we perform the 10-fold cross-validation strategy to compute
the classification accuracy through the C-SVM associated with the graph
kernels. For each kernel, we employ the optimal C-SVM parameters and repeat
the experiment for 10 times"; the reported numbers are mean accuracy ±
standard error.

``C`` is selected by an inner stratified CV over a logarithmic grid. By
default (``select_per_fold=False``) that happens once per repeat, on the
repeat's first outer training fold, and the chosen ``C`` is reused for the
other folds. That training fold holds the other folds' test rows, so the
default lets test information into model selection.
``select_per_fold=True`` selects ``C`` inside every outer training fold,
which is leakage-free at about 7x the fits (see
:func:`cross_validate_kernel`). Making per-fold selection the only
protocol is ROADMAP item 11.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.ml.kernel_utils import GramConditioner
from repro.ml.metrics import CVResult, accuracy, summarize_repeats
from repro.ml.multiclass import KernelSVC, fit_svcs
from repro.utils.rng import as_rng, spawn_seed
from repro.utils.validation import check_positive_int

#: The default C grid, matching common LIBSVM protocol on graph kernels
#: (log-spaced; the upper decades matter for low-signal Gram matrices).
DEFAULT_C_GRID = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


def stratified_k_fold(labels, n_folds: int, *, seed=None) -> list:
    """Index splits ``[(train, test), ...]`` preserving class proportions.

    Every class must have at least one member; classes smaller than
    ``n_folds`` simply appear in fewer test folds.
    """
    y = np.asarray(labels)
    n_folds = check_positive_int(n_folds, "n_folds", minimum=2)
    if y.ndim != 1 or y.size < n_folds:
        raise ValidationError(
            f"need at least n_folds={n_folds} samples, got {y.size}"
        )
    rng = as_rng(seed)
    fold_members: list = [[] for _ in range(n_folds)]
    cursor = 0
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(members.size)]
        for member in members:
            fold_members[cursor % n_folds].append(int(member))
            cursor += 1
    splits = []
    all_indices = set(range(y.size))
    for fold in fold_members:
        if not fold:
            continue
        test = np.asarray(sorted(fold), dtype=int)
        train = np.asarray(sorted(all_indices - set(fold)), dtype=int)
        splits.append((train, test))
    return splits


def _fold_predictions(gram, y, folds) -> list:
    """Test-row labels of one :class:`KernelSVC` per ``(train, test, c)``
    fold. The models' machines all train in one lockstep SMO solve."""
    models = [KernelSVC(c=c) for _, _, c in folds]
    fit_svcs(gram, y, [(model, rows) for model, (rows, _, _) in zip(models, folds)])
    return [
        model.predict(gram[np.ix_(test, train)])
        for model, (train, test, _) in zip(models, folds)
    ]


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
    # Inner folds as rows of ``gram``, so that every (C, fold) model of
    # the grid trains in one lockstep solve.
    splits = [
        (train[inner_train], train[inner_test])
        for inner_train, inner_test in stratified_k_fold(
            sub_y, inner_folds, seed=spawn_seed(rng)
        )
        if np.unique(sub_y[inner_train]).size >= 2
    ]
    folds = [(fit_rows, test_rows, c) for c in c_grid for fit_rows, test_rows in splits]
    predictions = iter(_fold_predictions(gram, y, folds))
    best_c, best_score = float(c_grid[0]), -1.0
    for c in c_grid:
        scores = [accuracy(y[test_rows], next(predictions)) for _, test_rows in splits]
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
    """The paper's protocol on one precomputed Gram matrix.

    Parameters
    ----------
    select_per_fold:
        If True, re-select ``C`` inside every outer training fold (about
        7x the fits, fully leakage-free). The default selects ``C`` once
        per repeat on the first training fold, a common compromise that
        keeps Table IV affordable. The two agreed within about one
        standard error on three of four Grams checked, but not on a
        47-graph MUTAG sample, where per-fold selection scored 11 points
        higher (DESIGN.md, "Lockstep SMO").
    """
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
        folds = []
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
            folds.append((train, test, repeat_c))
        # After the repeat's select_c calls, so the RNG draws keep their order.
        predictions = _fold_predictions(k_matrix, y, folds)
        fold_accuracies = [
            accuracy(y[test], labels)
            for (_, test, _), labels in zip(folds, predictions)
        ]
        if fold_accuracies:
            per_repeat.append(float(np.mean(fold_accuracies)))
    best_c = float(np.median(chosen_cs)) if chosen_cs else float("nan")
    return summarize_repeats(per_repeat, best_c)


def cross_validate_graph_kernel(
    kernel,
    graphs,
    labels,
    *,
    ctx=None,
    normalize: "bool | None" = None,
    ensure_psd: "bool | None" = None,
    condition: bool = True,
    **cv_kwargs,
) -> CVResult:
    """End-to-end protocol from graphs: Gram -> conditioning -> repeated CV.

    Convenience wrapper tying the kernel layer to the evaluation
    protocol: the Gram matrix is computed under the supplied
    :class:`~repro.api.context.ExecutionContext` (``ctx=None`` means the
    defaults — process-default backend, no persistence), optionally
    conditioned with a
    :class:`repro.ml.kernel_utils.GramConditioner`, and handed to
    :func:`cross_validate_kernel` with any remaining keyword arguments
    (``n_folds``, ``n_repeats``, ``seed``, ...). ``normalize`` defaults
    to the context policy, else on — the paper's protocol.

    The Gram step is one ``kernel.gram(..., ctx=ctx)`` call, so the
    context's fields select the execution strategy exactly as they do
    for :meth:`~repro.kernels.base.GraphKernel.gram`:

    * ``ctx.store`` (a :class:`repro.store.ArtifactStore`) makes the
      Gram step persistent: the matrix is fetched by content key —
      kernel fingerprint + collection digest + options — and only
      computed (then persisted) on a miss, so repeated protocol runs and
      interrupted experiment sweeps skip straight past completed Grams.
      On a miss the computation itself streams through a
      tile-checkpointing plan (``ctx.tile_checkpoint``, default on): a
      run killed mid-Gram resumes at the first unfinished *tile*, not
      from scratch.
    * ``ctx.sink_factory`` (exclusive with the store —
      :meth:`ExecutionContext.validate` refuses the combination) hands
      Gram assembly to an explicit sink — a
      :class:`~repro.engine.tiles.MemmapSink` runs the protocol over a
      Gram that never fits in RAM (the conditioner fits by streaming row
      stripes; fold sub-matrices densify only at ``train × train``
      size). With ``condition=True`` a memmapped Gram is conditioned
      **in place**: the sink's backing file ends up holding conditioned
      values, so point it at a scratch path — never at a store artifact
      other readers expect to contain raw kernel values.
    """
    from repro.api.context import as_context

    ctx = as_context(ctx, owner="cross_validate_graph_kernel")
    normalize = ctx.policy(normalize, "normalize", True)
    ensure_psd = ctx.policy(ensure_psd, "ensure_psd", False)
    gram = kernel.gram(
        list(graphs), normalize=normalize, ensure_psd=ensure_psd, ctx=ctx
    )
    if condition:
        # The same fit/transform object the serving path uses
        # (repro.serve), so protocol runs and bundles condition Grams
        # through one code path. Memmapped Grams stay out of core: the
        # fit streams row stripes and the transform rewrites tiles in
        # place; only per-fold train × train sub-matrices ever densify.
        conditioner = GramConditioner(ctx=ctx).fit(gram)
        if isinstance(gram, np.memmap):
            gram = conditioner.transform_inplace_tiled(gram)
        else:
            gram = conditioner.transform(gram)
    return cross_validate_kernel(gram, labels, **cv_kwargs)
