"""From-scratch k-means clustering (Lloyd's algorithm + k-means++ seeding).

scikit-learn is not available in the reproduction environment, so the
κ-means step of paper Eq. (13) is implemented here. The implementation is
deterministic for a fixed seed, re-seeds empty clusters on the farthest
points (which does not guarantee non-empty clusters when points repeat),
and supports warm starts (used to keep prototype indexings consistent
across DB-representation dimensions; see :mod:`repro.alignment.prototypes`).

The Lloyd loop is bound-pruned (Hamerly, "Making k-means even faster",
SDM 2010) and exact: per-point bounds on the true distances prove which
points keep their nearest center, only the rest get their distances
recomputed, and every fit returns the bits of the plain loop that
recomputes every distance (DESIGN.md, "Bound-pruned Lloyd").
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError, ValidationError
from repro.utils.rng import as_rng
from repro.utils.validation import check_in_range, check_positive_int

_EPS = float(np.finfo(float).eps)


class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centers:
        ``(n_clusters, dim)`` array of cluster means (paper's prototypes).
    assignments:
        Per-point cluster index.
    inertia:
        Sum of squared distances to assigned centers (Eq. 13 objective).
    n_iterations:
        Lloyd iterations actually performed.
    converged:
        True if assignments stabilised before the iteration cap.
    """

    __slots__ = ("centers", "assignments", "inertia", "n_iterations", "converged")

    def __init__(self, centers, assignments, inertia, n_iterations, converged):
        self.centers = centers
        self.assignments = assignments
        self.inertia = inertia
        self.n_iterations = n_iterations
        self.converged = converged

    def __repr__(self) -> str:
        return (
            f"KMeansResult(k={self.centers.shape[0]}, inertia={self.inertia:.4g}, "
            f"iters={self.n_iterations}, converged={self.converged})"
        )


def _pairwise_sq_dists(
    points: np.ndarray,
    centers: np.ndarray,
    points_sq: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
) -> np.ndarray:
    """Squared Euclidean distances, computed stably via the expansion trick.

    ``(p² + c²) − 2·(x·c)``, clipped at 0. Callers that reuse one point set
    pass its squared norms ``points_sq`` (``np.sum(points**2, axis=1)``)
    and an ``(n, k)`` buffer ``out``; the arithmetic is the same either way.
    """
    if points_sq is None:
        points_sq = np.sum(points**2, axis=1)
    centers_sq = np.sum(centers**2, axis=1)
    out = np.add(points_sq[:, None], centers_sq[None, :], out=out)
    cross = points @ centers.T
    cross *= 2.0
    out -= cross
    return np.clip(out, 0.0, None, out=out)


def cluster_means(
    points: np.ndarray, assignments: np.ndarray, initial: np.ndarray
) -> np.ndarray:
    """Per-cluster means of ``points``; empty clusters keep ``initial``'s row.

    Each mean equals ``points[assignments == c].mean(axis=0)`` bit for bit,
    without a boolean mask per cluster. On ``(n, d ≥ 2)`` points that mean
    adds the members to +0.0 row by row in index order, and so does a
    weighted ``bincount`` per coordinate; both sums are divided by the
    count. (Both start from +0.0, so members that are all −0.0 give +0.0.)

    1-D points (and one column) reduce pairwise, so those means keep one
    stable sort that lays each cluster's points out contiguously in their
    original order, then ``np.add.reduce`` over each slice divided by the
    count. The sort key is the narrowest unsigned type that holds the
    cluster indices, so that numpy can radix-sort it.
    """
    counts = np.bincount(assignments, minlength=len(initial))
    if points.ndim == 2 and points.shape[1] > 1:
        sums = np.stack(
            [np.bincount(assignments, weights=column, minlength=len(initial))
             for column in points.T],
            axis=1,
        )
        filled = counts > 0
        means = initial.copy()
        means[filled] = sums[filled] / counts[filled, None]
        return means
    ends = np.cumsum(counts)
    key = assignments.astype(np.min_scalar_type(len(initial)))
    grouped = np.take(points, np.argsort(key, kind="stable"), axis=0)
    means = initial.copy()
    for c in np.flatnonzero(counts):
        members = grouped[ends[c] - counts[c] : ends[c]]
        means[c] = np.add.reduce(members, axis=0) / counts[c]
    return means


def kmeans_plusplus_init(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: iteratively sample centers ∝ squared distance."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    points_sq = np.sum(points**2, axis=1)
    closest_sq = _pairwise_sq_dists(points, centers[:1], points_sq).ravel()
    for i in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 0:
            # All points coincide with chosen centers; fill uniformly.
            centers[i] = points[int(rng.integers(0, n))]
            continue
        probs = closest_sq / total
        chosen = int(rng.choice(n, p=probs))
        centers[i] = points[chosen]
        new_sq = _pairwise_sq_dists(points, centers[i : i + 1], points_sq).ravel()
        closest_sq = np.minimum(closest_sq, new_sq)
    return centers


def _rows_sq_dists(
    points: np.ndarray, points_sq: np.ndarray, centers: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """:func:`_pairwise_sq_dists` for ``points[rows]``, bit-equal to those
    rows of the full product.

    numpy sends a one-row product to its matrix-vector path, whose sums can
    round differently from the matrix-matrix product of the full pass, so
    a lone row is computed as two copies of itself.
    """
    picked = rows if rows.size > 1 else np.repeat(rows, 2)
    return _pairwise_sq_dists(points[picked], centers, points_sq[picked])[: rows.size]


def _half_gaps(centers: np.ndarray, rate: float) -> np.ndarray:
    """Half the distance from each center to its nearest other center,
    deflated by ``rate`` to bound the exact value from below (``inf`` for
    a lone center)."""
    gaps = np.zeros((len(centers), len(centers)))
    for column in centers.T:
        diff = np.subtract.outer(column, column)
        gaps += diff * diff
    np.fill_diagonal(gaps, np.inf)
    return np.sqrt(gaps.min(axis=1)) * (0.5 * (1.0 - rate))


class _Bounds:
    """Hamerly's bounds on exact Euclidean distances, one pair per point.

    ``upper[i]`` bounds the distance from point ``i`` to its own center from
    above; ``lower[i]`` bounds its distance to every other center from
    below and is never negative. ``rate = 4·(d + 4)·ε`` is the rounding
    allowance: ``rate·(p² + max c²)`` bounds how far a computed
    ``(p² + c²) − 2·(x·c)`` can lie from the exact squared distance, and
    every update inflates ``upper`` and deflates ``lower`` by ``rate``.
    """

    def __init__(self, points_sq: np.ndarray, dim: int) -> None:
        self.rate = 4.0 * (dim + 4) * _EPS
        self.points_sq = points_sq
        self.upper = np.empty_like(points_sq)
        self.lower = np.empty_like(points_sq)

    def _slack(self, centers: np.ndarray, rows=slice(None)) -> np.ndarray:
        """``E`` per point: ``rate·(p² + max c²)``."""
        largest = float(np.max(np.sum(centers**2, axis=1)))
        return self.rate * (self.points_sq[rows] + largest)

    def reset(self, rows, sq_dists: np.ndarray, nearest: np.ndarray, centers) -> None:
        """Tight bounds for ``rows`` from their computed distances to
        ``centers`` and their ``argmin`` ``nearest``. Overwrites each
        row's own entry of ``sq_dists``."""
        slack = self._slack(centers, rows)
        picked = np.arange(len(sq_dists))
        own = sq_dists[picked, nearest]
        sq_dists[picked, nearest] = np.inf
        second = sq_dists.min(axis=1)
        self.upper[rows] = np.sqrt(own + slack) * (1.0 + self.rate)
        self.lower[rows] = np.sqrt(np.maximum(second - slack, 0.0)) * (1.0 - self.rate)

    def assign(
        self, points: np.ndarray, centers: np.ndarray, assignments: np.ndarray
    ) -> "np.ndarray | None":
        """Lloyd's assignment step, recomputing only unproven points.

        A point provably keeps its center, and is skipped, when
        ``upper² + E < max(lower, s)² − E``: ``E`` bounds the rounding of
        each computed squared distance and ``s`` is half the gap from its
        center to the nearest other one (a lower bound on the other
        distances whenever ``upper < s``, which the test implies). Every
        other center then has a strictly larger computed distance, so
        ``argmin`` keeps the point where it is. The rest are recomputed
        with the full pass's arithmetic. Returns ``None`` when a cluster
        empties: the re-seed reads every point's distance, so the caller
        runs the full pass.
        """
        limit = np.maximum(self.lower, _half_gaps(centers, self.rate)[assignments])
        limit *= limit
        limit -= 2.0 * self._slack(centers)
        # A negated `<`: a NaN bound (non-finite warm-start centers) never
        # proves anything.
        rows = np.flatnonzero(~(self.upper * self.upper < limit))
        new_assignments = assignments.copy()
        if rows.size:
            dists = _rows_sq_dists(points, self.points_sq, centers, rows)
            new_assignments[rows] = np.argmin(dists, axis=1)
            self.reset(rows, dists, new_assignments[rows], centers)
        if np.bincount(new_assignments, minlength=len(centers)).min() == 0:
            return None
        return new_assignments

    def move(
        self, old_centers: np.ndarray, new_centers: np.ndarray, assignments: np.ndarray
    ) -> None:
        """Loosen the bounds by each center's drift (triangle inequality):
        ``upper`` grows by the own center's drift, ``lower`` shrinks by the
        largest drift among the other centers and is clamped at 0."""
        drift = np.sqrt(np.sum((new_centers - old_centers) ** 2, axis=1))
        drift *= 1.0 + self.rate
        self.upper += drift[assignments]
        self.upper *= 1.0 + self.rate
        farthest = int(np.argmax(drift))
        largest = drift[farthest]
        drift[farthest] = 0.0
        self.lower -= np.where(assignments == farthest, drift.max(), largest)
        self.lower *= 1.0 - self.rate
        np.maximum(self.lower, 0.0, out=self.lower)


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed=None,
    init_centers: "np.ndarray | None" = None,
) -> KMeansResult:
    """Cluster ``points`` into ``n_clusters`` groups (Lloyd's algorithm).

    Each iteration assigns every point to its nearest center (the lowest
    index on ties), re-seeds empty clusters on the farthest points and
    moves each center to its cluster's mean; the fit stops when the
    assignments repeat, when no center coordinate moves more than ``tol``,
    or after ``max_iter`` iterations. The assignment step is bound-pruned
    and exact: a point's distances are recomputed only when its bounds
    cannot prove it keeps its center, and the full distance pass runs on
    the first iteration, on any iteration in which a cluster empties, and
    for the final inertia. The result is bit-identical to recomputing
    every distance in every iteration.

    Parameters
    ----------
    points:
        ``(n, dim)`` array; ``n`` must be at least 1.
    n_clusters:
        Number of clusters; silently clamped to ``n`` when larger (the
        paper's hierarchy bottoms out when prototypes outnumber points).
    max_iter:
        Iteration cap, at least 1.
    tol:
        Largest center-coordinate move that still counts as converged;
        finite and non-negative.
    seed:
        Seeds the k-means++ initialisation.
    init_centers:
        Optional warm-start centers (``(n_clusters, dim)``). Missing rows
        are filled by k-means++.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"points must be 2-D, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise AlignmentError("kmeans needs at least one point")
    if not np.all(np.isfinite(arr)):
        raise AlignmentError("points contain non-finite values")
    n_clusters = check_positive_int(n_clusters, "n_clusters", minimum=1)
    n_clusters = min(n_clusters, n)
    max_iter = check_positive_int(max_iter, "max_iter", minimum=1)
    tol = check_in_range(tol, "tol", low=0.0)
    rng = as_rng(seed)

    if init_centers is not None:
        warm = np.asarray(init_centers, dtype=float)
        if warm.ndim != 2 or warm.shape[1] != arr.shape[1]:
            raise AlignmentError(
                f"init_centers must be (*, {arr.shape[1]}), got {warm.shape}"
            )
        if warm.shape[0] >= n_clusters:
            centers = warm[:n_clusters].copy()
        else:
            centers = np.vstack(
                [warm, kmeans_plusplus_init(arr, n_clusters - warm.shape[0], rng)]
            )
    else:
        centers = kmeans_plusplus_init(arr, n_clusters, rng)

    points_sq = np.sum(arr**2, axis=1)
    distances = np.empty((n, n_clusters))
    bounds = _Bounds(points_sq, arr.shape[1])
    bounded = False
    assignments = np.full(n, -1, dtype=int)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        new_assignments = bounds.assign(arr, centers, assignments) if bounded else None
        if new_assignments is None:
            _pairwise_sq_dists(arr, centers, points_sq, out=distances)
            new_assignments = np.argmin(distances, axis=1)

            # Re-seed empty clusters on the points farthest from their
            # centers. This does not guarantee that every cluster ends
            # non-empty: a victim may be the only member of its cluster,
            # which then empties, and repeated rows tie between centers
            # (argmin keeps the lowest index). With duplicate points a fit
            # can finish with clusters no point maps to. A re-seed moves
            # centers and points outside the bounds' reach, so the next
            # iteration runs the full pass again.
            counts = np.bincount(new_assignments, minlength=n_clusters)
            empties = np.flatnonzero(counts == 0)
            bounded = not empties.size
            if bounded:
                bounds.reset(slice(None), distances, new_assignments, centers)
            else:
                closest = distances[np.arange(n), new_assignments]
                order = np.argsort(-closest)
                for slot, empty in enumerate(empties):
                    if slot >= n:
                        break
                    victim = int(order[slot])
                    new_assignments[victim] = empty
                    centers[empty] = arr[victim]

        new_centers = cluster_means(arr, new_assignments, centers)
        moved = float(np.max(np.abs(new_centers - centers))) if centers.size else 0.0
        if bounded:
            bounds.move(centers, new_centers, new_assignments)

        stable = np.array_equal(new_assignments, assignments)
        centers = new_centers
        assignments = new_assignments
        if stable or moved <= tol:
            converged = True
            break

    final_dists = _pairwise_sq_dists(arr, centers, points_sq, out=distances)
    inertia = float(final_dists[np.arange(n), assignments].sum())
    return KMeansResult(centers, assignments, inertia, iteration, converged)


def assign_to_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center index for each point (ties go to the lowest index)."""
    arr = np.asarray(points, dtype=float)
    cen = np.asarray(centers, dtype=float)
    if arr.ndim != 2 or cen.ndim != 2 or arr.shape[1] != cen.shape[1]:
        raise AlignmentError(
            f"dimension mismatch: points {arr.shape} vs centers {cen.shape}"
        )
    if cen.shape[0] == 0:
        raise AlignmentError("no centers to assign to")
    return np.argmin(_pairwise_sq_dists(arr, cen), axis=1)
