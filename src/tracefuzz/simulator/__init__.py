"""Deterministic fault-injectable serving-engine simulator."""

from .config import FaultFamily, FaultSpec, SimConfig
from .engine import SimCore
from .endpoint import serve

__all__ = [
    "FaultFamily",
    "FaultSpec",
    "SimConfig",
    "SimCore",
    "serve",
]
