"""Hamiltonian operators for continuous-time quantum walks.

The paper fixes the Hamiltonian to the combinatorial Laplacian ``L = D - A``
(Section II-A); the adjacency and normalised-Laplacian alternatives are
provided for the ablation benchmarks (DESIGN.md calls the Hamiltonian choice
out as a design-ablation axis).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.graphs.ops import normalized_laplacian
from repro.utils.validation import check_symmetric_matrix

HamiltonianFn = Callable[[np.ndarray], np.ndarray]

#: Registry of named Hamiltonian constructions over adjacency matrices.
_HAMILTONIANS: dict = {}


def register_hamiltonian(name: str):
    """Decorator registering a Hamiltonian construction under ``name``."""

    def decorator(fn: HamiltonianFn) -> HamiltonianFn:
        _HAMILTONIANS[name] = fn
        return fn

    return decorator


@register_hamiltonian("laplacian")
def laplacian_hamiltonian(adjacency: np.ndarray) -> np.ndarray:
    """``L = D - A`` with weighted degrees — the paper's Hamiltonian."""
    arr = check_symmetric_matrix(adjacency, "adjacency")
    return np.diag(arr.sum(axis=1)) - arr


@register_hamiltonian("adjacency")
def adjacency_hamiltonian(adjacency: np.ndarray) -> np.ndarray:
    """The adjacency matrix itself (Farhi–Gutmann convention)."""
    return check_symmetric_matrix(adjacency, "adjacency")


@register_hamiltonian("normalized_laplacian")
def normalized_laplacian_hamiltonian(adjacency: np.ndarray) -> np.ndarray:
    """``I - D^{-1/2} A D^{-1/2}``; isolated vertices get identity rows."""
    arr = check_symmetric_matrix(adjacency, "adjacency")
    return normalized_laplacian(Graph(arr))


def check_hamiltonian(kind: str) -> str:
    """Return ``kind`` when it names a registered Hamiltonian construction;
    raise :class:`~repro.errors.ValidationError` listing them otherwise."""
    if not isinstance(kind, str) or kind not in _HAMILTONIANS:
        known = ", ".join(sorted(_HAMILTONIANS))
        raise ValidationError(f"unknown Hamiltonian {kind!r}; known: {known}")
    return kind


def hamiltonian_from_adjacency(
    adjacency: np.ndarray, kind: str = "laplacian"
) -> np.ndarray:
    """Build the named Hamiltonian from a (possibly weighted) adjacency."""
    return _HAMILTONIANS[check_hamiltonian(kind)](adjacency)


def available_hamiltonians() -> list:
    """Names of all registered Hamiltonian constructions."""
    return sorted(_HAMILTONIANS)
