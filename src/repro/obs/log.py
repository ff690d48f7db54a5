"""Logging-based progress reporting for the CLIs and tools.

Replaces the ad-hoc ``print()`` progress output: every CLI surface gets
a reporter (a stdlib :class:`logging.Logger` under the ``repro``
hierarchy) writing bare messages to stdout at ``INFO``, which keeps the
historical stdout behaviour byte-for-byte while making verbosity a
``--log-level`` flag away (``debug`` adds diagnostics, ``warning``
silences progress).
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["configure", "get_reporter", "LEVELS"]

LEVELS = ("debug", "info", "warning", "error")

_ROOT = "repro"


def configure(level: str = "info") -> logging.Logger:
    """(Re)configure the ``repro`` logger tree: bare messages to stdout."""
    if level.lower() not in LEVELS:
        raise ValueError(f"log level must be one of {LEVELS}")
    root = logging.getLogger(_ROOT)
    root.setLevel(getattr(logging, level.upper()))
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    root.handlers[:] = [handler]
    root.propagate = False
    return root


def get_reporter(name: Optional[str] = None) -> logging.Logger:
    """A reporter under the ``repro`` logger tree, lazily configured."""
    if not logging.getLogger(_ROOT).handlers:
        configure()
    if not name:
        return logging.getLogger(_ROOT)
    if name == _ROOT or name.startswith(_ROOT + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT}.{name}")
