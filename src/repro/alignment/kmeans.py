"""From-scratch k-means clustering (Lloyd's algorithm + k-means++ seeding).

scikit-learn is not available in the reproduction environment, so the
κ-means step of paper Eq. (13) is implemented here. The implementation is
deterministic for a fixed seed, re-seeds empty clusters on the farthest
points (which does not guarantee non-empty clusters when points repeat),
and supports warm starts (used to keep prototype indexings consistent
across DB-representation dimensions; see :mod:`repro.alignment.prototypes`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlignmentError, ValidationError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int


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

    One stable sort lays each cluster's points out contiguously in their
    original order, so each mean reduces the same values in the same order
    as ``points[assignments == c].mean(axis=0)``: bitwise the same result,
    without a boolean mask per cluster. The sort key is the narrowest
    unsigned type that holds the cluster indices, so that numpy can
    radix-sort it.
    """
    counts = np.bincount(assignments, minlength=len(initial))
    ends = np.cumsum(counts)
    key = assignments.astype(np.min_scalar_type(len(initial)))
    grouped = np.take(points, np.argsort(key, kind="stable"), axis=0)
    means = initial.copy()
    for c in np.flatnonzero(counts):
        means[c] = grouped[ends[c] - counts[c] : ends[c]].mean(axis=0)
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

    Parameters
    ----------
    points:
        ``(n, dim)`` array; ``n`` must be at least 1.
    n_clusters:
        Number of clusters; silently clamped to ``n`` when larger (the
        paper's hierarchy bottoms out when prototypes outnumber points).
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
    assignments = np.full(n, -1, dtype=int)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        _pairwise_sq_dists(arr, centers, points_sq, out=distances)
        new_assignments = np.argmin(distances, axis=1)

        # Re-seed empty clusters on the points farthest from their centers.
        # This does not guarantee that every cluster ends non-empty: a
        # victim may be the only member of its cluster, which then empties,
        # and repeated rows tie between centers (argmin keeps the lowest
        # index). With duplicate points a fit can finish with clusters no
        # point maps to.
        counts = np.bincount(new_assignments, minlength=n_clusters)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
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
