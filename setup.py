"""Packaging metadata for ``repro``.

The package lives under ``src/``. ``python setup.py develop`` links it
into the current environment, which needs only setuptools (no ``wheel``);
running from a checkout needs no install at all: ``export PYTHONPATH=src``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
