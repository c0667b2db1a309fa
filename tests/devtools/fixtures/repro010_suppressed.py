"""Fixture: an environment read, exempted (REPRO010 suppressed)."""

import os


def child_environment() -> dict:
    # Handed whole to a subprocess; nothing here is selected by it.
    # repro-lint: ignore[REPRO010]
    return {"PATH": os.environ["PATH"]}
