"""Fixture: a float64 entropy reduction; float32 elsewhere is legal (REPRO006).

The contract binds only the reduction function, which must compute and
return float64.
"""

import numpy as np


def eig_entropies(stack):
    values = np.clip(np.linalg.eigvalsh(stack), 1e-300, None)
    return -(values * np.log(values)).sum(axis=-1)


def as_float32(array):
    return np.asarray(array, dtype=np.float32)
