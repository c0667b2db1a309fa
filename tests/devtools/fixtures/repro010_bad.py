"""Fixture: an engine module reading the environment (REPRO010 positive)."""

import os


def default_tile() -> int:
    return int(os.environ.get("REPRO_GRAM_TILE", "64"))
