"""Simulation: workload replay engines and result metrics."""

from repro.simulation.engine import (
    run_offline,
    run_online,
    run_online_with_departures,
    run_online_with_failures,
    run_sequential_capacitated,
)
from repro.simulation.metrics import (
    OfflineRunStats,
    OnlineRunStats,
    ResilienceRunStats,
)
from repro.simulation.parallel import (
    default_workers,
    parallel_map,
    set_default_workers,
)

__all__ = [
    "run_offline",
    "run_online",
    "run_online_with_departures",
    "run_online_with_failures",
    "run_sequential_capacitated",
    "default_workers",
    "parallel_map",
    "set_default_workers",
    "OfflineRunStats",
    "OnlineRunStats",
    "ResilienceRunStats",
]
