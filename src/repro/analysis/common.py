"""Shared plumbing for the figure drivers.

The builders live in :mod:`repro.simulation.builders` (so the stream
engine can use them without loading the figure modules); this module
keeps their old import path.
"""

from repro.simulation.builders import (
    build_random_network,
    build_real_network,
    calibrated_online_cp,
    make_requests,
    make_sp_online,
    real_topologies,
)

__all__ = [
    "build_random_network",
    "build_real_network",
    "calibrated_online_cp",
    "make_requests",
    "make_sp_online",
    "real_topologies",
]
