"""In-process endpoint: the execution adapter drives the core itself in virtual time."""

from __future__ import annotations

from .config import SimConfig
from .engine import SimCore


def serve(config: SimConfig) -> SimCore:
    """Start an in-process simulator endpoint (virtual time, no sockets)."""
    return SimCore(config)
