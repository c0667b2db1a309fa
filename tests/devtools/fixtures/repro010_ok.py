"""Fixture: writing the environment, reading a context (REPRO010 negative)."""

import os


def forward_store(address: str) -> None:
    os.environ["REPRO_STORE"] = address


def tile_size(ctx) -> int:
    return ctx.resolved_engine().tile_size
