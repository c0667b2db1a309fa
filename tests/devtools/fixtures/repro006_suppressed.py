"""Fixture: float32 in the entropy reduction, exempted (REPRO006 suppressed)."""

import numpy as np


def eig_entropies(stack):
    # repro-lint: ignore[REPRO006]
    values = np.clip(np.linalg.eigvalsh(stack.astype(np.float32)), 1e-300, None)
    return -(values * np.log(values)).sum(axis=-1)
