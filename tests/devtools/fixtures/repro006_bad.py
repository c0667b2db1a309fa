"""Fixture: float32 inside the entropy reduction (REPRO006 positive)."""

import numpy as np


def eig_entropies(stack):
    values = np.clip(np.linalg.eigvalsh(stack.astype(np.float32)), 1e-300, None)
    return -(values * np.log(values)).sum(axis=-1)
