"""Library logging configuration.

The library logs under the ``repro`` namespace and never configures the root
logger; applications opt in via :func:`enable_console_logging`.
"""

from __future__ import annotations

import logging
import sys

LOGGER_NAME = "repro"


def get_logger(suffix: str = "") -> logging.Logger:
    """Return the library logger, optionally a child (``repro.<suffix>``)."""
    name = f"{LOGGER_NAME}.{suffix}" if suffix else LOGGER_NAME
    return logging.getLogger(name)


def enable_console_logging(level: int = logging.INFO) -> logging.Logger:
    """Attach a stderr handler to the library logger (idempotent)."""
    logger = get_logger()
    logger.setLevel(level)
    has_console = any(
        isinstance(h, logging.StreamHandler) and getattr(h, "stream", None) is sys.stderr
        for h in logger.handlers
    )
    if not has_console:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
        )
        logger.addHandler(handler)
    return logger

