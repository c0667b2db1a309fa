"""Experiment scales and kernel/model rosters.

The paper-scale Table IV/V runs take hours; the default harness therefore
runs *scaled* dataset sizes that preserve every dataset's class structure.
Set ``REPRO_FULL_SCALE=1`` to run at the paper's sizes.

All scales live here so the benchmarks and the CLI runner agree on exactly
what was run.
"""

from __future__ import annotations

from dataclasses import dataclass

# The kernel registry owns the scale switch (its scale-aware defaults
# resolve through it); the harness re-exports it.
from repro.kernels.registry import full_scale  # noqa: F401


def execution_context(store_root: "str | None" = None):
    """The harness-wide :class:`~repro.api.ExecutionContext`.

    The ``REPRO_*`` environment (:meth:`ExecutionContext.from_env
    <repro.api.ExecutionContext.from_env>`); ``store_root`` (a
    ``--store`` CLI flag) replaces the ``REPRO_STORE`` store. Every
    table and figure runs under this context, and its report footer
    describes it.
    """
    from repro.api import ExecutionContext

    ctx = ExecutionContext.from_env()
    return ctx.replace(store=store_root) if store_root else ctx


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
