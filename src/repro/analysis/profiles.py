"""Experiment profiles: how big a reproduction run should be.

The paper averages 1 000 requests per data point on networks up to 250 nodes
— hours of work for a pure-Python implementation of an ``O(|V|³·|V_S|^K)``
algorithm.  Profiles make the cost explicit and tunable:

- ``fast`` — seconds per figure; used by the benchmark suite and CI.
- ``paper`` — the paper's network sizes with a documented reduction of the
  per-point request count (the *averages* stabilize long before 1 000
  requests; EXPERIMENTS.md reports the counts used).

All randomness is derived from ``base_seed`` so runs are reproducible.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Tuple

from repro.exceptions import ExperimentError

# Re-exported: the calibration lives with the builders that apply it.
from repro.simulation.builders import ONLINE_ALPHA_BETA


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale parameters for the figure drivers.

    Attributes:
        name: profile identifier (``fast``/``paper``/custom).
        network_sizes: the ``|V|`` sweep for random-topology figures.
        ratios: the ``D_max/|V|`` sweep for Figs. 5 and 6.
        offline_requests: requests averaged per offline data point.
        online_requests: length of the arrival sequence for Figs. 8 and 9.
        request_counts: the x axis of Fig. 9 (requests sweep).
        max_servers: the paper's ``K``.
        base_seed: root of all derived seeds.
    """

    name: str
    network_sizes: Tuple[int, ...]
    ratios: Tuple[float, ...]
    offline_requests: int
    online_requests: int
    request_counts: Tuple[int, ...]
    max_servers: int = 3
    base_seed: int = 42

    def seed_for(self, *components: object) -> int:
        """Derive a deterministic sub-seed from labelled components.

        Uses CRC32 rather than ``hash`` so the derivation is stable across
        interpreter runs (``hash`` of strings is salted per process).
        """
        value = self.base_seed
        for component in components:
            digest = zlib.crc32(str(component).encode("utf-8"))
            value = (value * 1_000_003 + digest) % (2**31 - 1)
        return value


FAST_PROFILE = ExperimentProfile(
    name="fast",
    network_sizes=(50, 100, 150),
    ratios=(0.05, 0.2),
    offline_requests=8,
    online_requests=300,
    request_counts=(100, 200, 300),
)

PAPER_PROFILE = ExperimentProfile(
    name="paper",
    network_sizes=(50, 100, 150, 200, 250),
    ratios=(0.05, 0.1, 0.2),
    offline_requests=30,
    online_requests=300,
    request_counts=(50, 100, 150, 200, 250, 300),
)

_PROFILES = {"fast": FAST_PROFILE, "paper": PAPER_PROFILE}


def get_profile(name: str) -> ExperimentProfile:
    """Look up a named profile (``fast`` or ``paper``)."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None
