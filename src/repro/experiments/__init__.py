"""Experiments: regenerate every table and figure of the paper.

* Table I / III — :mod:`repro.experiments.properties` (+ runner ``table3``)
* Table II      — :mod:`repro.experiments.table2`
* Table IV      — :mod:`repro.experiments.table4`
* Table V       — :mod:`repro.experiments.table5`
* Figure 2      — :mod:`repro.experiments.figure2`
* Section III-D — :mod:`repro.experiments.complexity`
"""

from repro.experiments.config import (
    TABLE4_DATASETS,
    TABLE4_KERNELS,
    TABLE5_DATASETS,
    TABLE5_MODELS,
    dataset_scale,
    full_scale,
)

__all__ = [
    "TABLE4_DATASETS",
    "TABLE4_KERNELS",
    "TABLE5_DATASETS",
    "TABLE5_MODELS",
    "dataset_scale",
    "full_scale",
]
