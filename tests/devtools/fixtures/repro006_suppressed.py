"""Fixture: float32 in a reduction, exempted (REPRO006 suppressed)."""

import numpy as np


def trace(matrix):
    # repro-lint: ignore[REPRO006]
    return float(np.trace(matrix, dtype=np.float32))
