"""Fixture: float32 accumulator inside a reduction (REPRO006 positive)."""

import numpy as np


def trace(matrix):
    return float(np.trace(matrix, dtype=np.float32))
