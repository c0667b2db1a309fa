"""Fixture: float64 reductions; float32 elsewhere is legal (REPRO006).

Compute may run float32 — the contract binds only the reduction
functions, which must accumulate and return float64.
"""

import numpy as np


def trace(matrix):
    return float(np.trace(matrix, dtype=np.float64))


def as_float32(array):
    return np.asarray(array, dtype=np.float32)
