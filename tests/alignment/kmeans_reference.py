"""The Lloyd loop with per-cluster boolean masks, kept as the reference for
:func:`repro.alignment.kmeans.kmeans` and
:func:`repro.alignment.kmeans.cluster_means`.

The library computes the point norms once, reuses one distance buffer and
groups cluster members with one stable sort. The arithmetic is the same
operations in the same order, so every fit must match this reference
byte for byte: centers, assignments, inertia, iteration count and
convergence flag.
"""

from __future__ import annotations

import numpy as np

from repro.alignment.kmeans import KMeansResult
from repro.errors import AlignmentError, ValidationError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int


def reference_cluster_means(
    points: np.ndarray, assignments: np.ndarray, initial: np.ndarray
) -> np.ndarray:
    """Per-cluster means by one boolean mask per cluster; empty clusters
    keep ``initial``'s row."""
    means = initial.copy()
    for cluster in range(len(initial)):
        members = assignments == cluster
        if members.any():
            means[cluster] = points[members].mean(axis=0)
    return means


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, computed stably via the expansion trick."""
    p_sq = np.sum(points**2, axis=1)[:, None]
    c_sq = np.sum(centers**2, axis=1)[None, :]
    cross = points @ centers.T
    return np.clip(p_sq + c_sq - 2.0 * cross, 0.0, None)


def reference_kmeans_plusplus_init(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: iteratively sample centers ∝ squared distance."""
    n = points.shape[0]
    centers = np.empty((n_clusters, points.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    closest_sq = _pairwise_sq_dists(points, centers[:1]).ravel()
    for i in range(1, n_clusters):
        total = float(closest_sq.sum())
        if total <= 0:
            # All points coincide with chosen centers; fill uniformly.
            centers[i] = points[int(rng.integers(0, n))]
            continue
        probs = closest_sq / total
        chosen = int(rng.choice(n, p=probs))
        centers[i] = points[chosen]
        new_sq = _pairwise_sq_dists(points, centers[i : i + 1]).ravel()
        closest_sq = np.minimum(closest_sq, new_sq)
    return centers


def reference_kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-7,
    seed=None,
    init_centers: "np.ndarray | None" = None,
) -> KMeansResult:
    """Lloyd's algorithm with one boolean mask per cluster mean."""
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
                [warm, reference_kmeans_plusplus_init(arr, n_clusters - warm.shape[0], rng)]
            )
    else:
        centers = reference_kmeans_plusplus_init(arr, n_clusters, rng)

    assignments = np.full(n, -1, dtype=int)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        distances = _pairwise_sq_dists(arr, centers)
        new_assignments = np.argmin(distances, axis=1)

        # Re-seed empty clusters on the points farthest from their centers.
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
            counts = np.bincount(new_assignments, minlength=n_clusters)

        moved = float("inf")
        new_centers = centers.copy()
        for c in np.flatnonzero(counts > 0):
            new_centers[c] = arr[new_assignments == c].mean(axis=0)
        moved = float(np.max(np.abs(new_centers - centers))) if centers.size else 0.0

        stable = np.array_equal(new_assignments, assignments)
        centers = new_centers
        assignments = new_assignments
        if stable or moved <= tol:
            converged = True
            break

    final_dists = _pairwise_sq_dists(arr, centers)
    inertia = float(final_dists[np.arange(n), assignments].sum())
    return KMeansResult(centers, assignments, inertia, iteration, converged)
