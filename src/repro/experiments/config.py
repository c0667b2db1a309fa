"""Experiment scales and kernel/model rosters.

The paper-scale Table IV/V runs take hours; the default harness therefore
runs *scaled* dataset sizes that preserve every dataset's class structure.
Set ``REPRO_FULL_SCALE=1`` to run at the paper's sizes.

All scales live here so the benchmarks and the CLI runner agree on exactly
what was run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# One definition each of the shared switches: the execution context owns
# the store env var, the kernel registry owns the scale switch (its
# scale-aware defaults resolve through it); the harness re-exports both.
from repro.api.context import STORE_ENV_VAR  # noqa: F401
from repro.kernels.registry import FULL_SCALE_ENV_VAR, full_scale  # noqa: F401


def gram_engine() -> str:
    """The Gram-computation backend the harness runs with.

    Set ``REPRO_GRAM_ENGINE`` to ``serial``, ``batched`` or ``process``
    (see :mod:`repro.engine`); the default is the vectorized ``batched``
    backend. Every saved report records the active backend.
    """
    from repro.engine import default_engine_name

    return default_engine_name()


def gram_tile() -> str:
    """The tile size the harness schedules Gram plans with, for the
    report footer: the ``REPRO_GRAM_TILE`` override when set, else each
    backend's own default (batched 64, process 32, serial 128)."""
    from repro.engine import TILE_ENV_VAR

    return os.environ.get(TILE_ENV_VAR, "").strip() or "backend default"


def compute_backend() -> str:
    """The resolved compute policy, ``precision/entropy`` form.

    Resolved from ``REPRO_PRECISION`` / ``REPRO_ENTROPY`` (reference
    defaults when unset); every saved report
    records it so a float32 or Chebyshev run is distinguishable from the
    bit-stable reference in the footer.
    """
    from repro.backend import ComputePolicy

    return ComputePolicy.from_env().describe()


def store_root() -> "str | None":
    """The configured artifact-store address, or ``None`` when unset."""
    root = os.environ.get(STORE_ENV_VAR, "").strip()
    return root or None


def artifact_store(root: "str | None" = None):
    """The harness-wide :class:`repro.store.ArtifactStore`, if configured.

    ``root`` overrides the environment (a ``--store`` CLI flag); with
    neither set, returns ``None`` and the harness recomputes everything —
    the historical behaviour. ``REPRO_STORE`` takes a store *address*:
    a directory path (``dir:/path`` or bare — created if missing), or
    ``mem:name`` for an in-process store. Pointing it at a directory
    gives every experiment checkpoint/resume for free: each completed
    Gram matrix is persisted under its content key, and a killed run
    restarts from the last completed one.
    """
    root = root if root is not None else store_root()
    if not root:
        return None
    from repro.store import ArtifactStore

    return ArtifactStore(root)


def execution_context(store_root: "str | None" = None):
    """The harness-wide :class:`~repro.api.ExecutionContext`.

    Resolved from the ``REPRO_*`` environment; ``store_root`` (a
    ``--store`` CLI flag) overrides the ``REPRO_STORE`` store. This is
    the one place the experiment runners turn environment into context,
    so every table/figure records the same execution policy.
    """
    from repro.api import ExecutionContext

    ctx = ExecutionContext.from_env()
    if store_root:
        from repro.store import ArtifactStore

        ctx = ctx.replace(store=ArtifactStore(store_root))
    return ctx


@dataclass(frozen=True)
class DatasetScale:
    """How much of a dataset the scaled harness uses."""

    scale: float  # fraction of the paper's graph count
    size_scale: float = 1.0  # multiplier on vertex counts
    haqjsk_prototypes: int = 32  # |P^{1,k}| at this scale


#: Scaled-mode dataset settings (chosen so the full Table IV regenerates in
#: minutes on a laptop while every dataset keeps >= 2 graphs per class).
SCALED: dict = {
    "MUTAG": DatasetScale(0.50, 1.0, 32),
    "PPIs": DatasetScale(0.25, 0.6, 48),
    "CATH2": DatasetScale(0.15, 0.30, 48),
    "PTC": DatasetScale(0.30, 1.0, 32),
    "GatorBait": DatasetScale(1.0, 0.25, 48),
    "BAR31": DatasetScale(0.30, 0.55, 32),
    "BSPHERE31": DatasetScale(0.30, 0.55, 32),
    "GEOD31": DatasetScale(0.30, 0.80, 32),
    "IMDB-B": DatasetScale(0.06, 1.0, 32),
    "IMDB-M": DatasetScale(0.04, 1.0, 24),
    "RED-B": DatasetScale(0.03, 0.15, 40),
    "COLLAB": DatasetScale(0.012, 0.75, 40),
}

#: Paper-scale settings (Table IV protocol: H=5 levels, |P^1|=256).
FULL: dict = {
    name: DatasetScale(1.0, 1.0, 256) for name in SCALED
}


def dataset_scale(name: str) -> DatasetScale:
    """The active scale for ``name`` under the current mode."""
    table = FULL if full_scale() else SCALED
    return table[name]


def haqjsk_levels() -> int:
    """Hierarchy depth H (paper setting: 5, kept at both scales — the
    higher levels are tiny, so the extra cost is negligible)."""
    return 5


def cv_repeats() -> int:
    """Repetitions of the 10-fold CV (paper: 10; scaled mode: 3)."""
    return 10 if full_scale() else 3


#: Table IV kernel roster (rows of the paper's table, in order).
TABLE4_KERNELS = (
    "HAQJSK(A)",
    "HAQJSK(D)",
    "QJSK",
    "ASK",
    "JTQK",
    "GCGK",
    "WLSK",
    "CORE WL",
    "SPGK",
    "CORE SP",
    "PMGK",
    "SPEGK",
)

#: Table IV dataset columns, in paper order.
TABLE4_DATASETS = (
    "MUTAG",
    "PPIs",
    "CATH2",
    "PTC",
    "GatorBait",
    "BAR31",
    "BSPHERE31",
    "GEOD31",
    "IMDB-B",
    "IMDB-M",
    "RED-B",
    "COLLAB",
)

#: Table V roster: the two HAQJSK kernels vs the deep baselines.
TABLE5_MODELS = ("HAQJSK(A)", "HAQJSK(D)", "DGCNN", "PSGCNN", "DCNN", "DGK", "AWE")
TABLE5_DATASETS = ("MUTAG", "PTC", "IMDB-B", "IMDB-M", "RED-B", "COLLAB")
