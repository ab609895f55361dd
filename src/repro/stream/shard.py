"""Sharded stream runs: independent substreams across a process pool.

Online admission against *one shared capacitated network* is inherently
sequential — decision ``k`` depends on the residuals left by decisions
``1..k-1`` — so a single stream cannot be parallelized without changing
its answers.  What production deployments actually shard is the
*fleet*: each shard is an independent controller domain with its own
network replica and its own request substream.  This module models
exactly that:

- ``--shards S`` fixes the **workload structure**: the run is split into
  ``S`` independent substreams, shard ``i`` drawing from a seed derived
  arithmetically from the base seed (never ``hash()`` — string hashing
  is salted per process) over its own freshly provisioned network;
- ``--workers W`` fixes only the **process count** used to execute those
  substreams.  The determinism contract is *worker-count invariance*:
  for a fixed shard count, the merged result (stats, digests, telemetry
  registry) is bit-identical for every ``W`` — the shard count itself is
  a workload parameter, like a seed.

Results are merged **in shard order** (:func:`parallel_map` returns
submission order regardless of scheduling): counters and histograms add,
the merged digest chains the per-shard digests, so two merged runs are
equal iff every shard's full decision sequence was equal.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.core.online_base import OnlineAlgorithm
from repro.exceptions import SimulationError
from repro.network.controller import Controller
from repro.network.sdn import SDNetwork
from repro.obs.emitter import SnapshotEmitter
from repro.obs.window import FixedBucketHistogram
from repro.simulation.builders import (
    build_random_network,
    build_real_network,
    calibrated_online_cp,
    make_sp_online,
)
from repro.simulation.parallel import parallel_map
from repro.stream.engine import StreamEngine, StreamStats
from repro.stream.workloads import (
    WORKLOAD_FAMILIES,
    ArrivalStream,
    make_stream,
)

__all__ = [
    "ShardResult",
    "StreamRunConfig",
    "build_engine",
    "derive_shard_seed",
    "merge_stats_states",
    "run_sharded",
]

#: Real-topology names accepted by :attr:`StreamRunConfig.topology`
#: (anything else is parsed as ``gt_itm:<size>``).
_REAL_TOPOLOGIES = {"geant": "GEANT", "as1755": "AS1755", "as4755": "AS4755"}


@dataclass(frozen=True)
class StreamRunConfig:
    """A picklable, JSON-able recipe for one stream run.

    Everything a worker process (or a resumed run) needs to rebuild the
    exact engine: topology, provisioning seed, algorithm, workload
    family and its parameters.  Stored verbatim in checkpoint ``meta``.
    """

    topology: str = "geant"
    network_seed: int = 0
    algorithm: str = "online_cp"
    workload: str = "poisson"
    seed: int = 0
    requests: int = 10_000
    arrival_rate: float = 1.0
    mean_holding: float = 40.0
    controller: bool = False
    emit_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.requests < 0:
            raise SimulationError(
                f"requests must be >= 0, got {self.requests}"
            )
        if self.workload not in WORKLOAD_FAMILIES:
            raise SimulationError(
                f"unknown workload {self.workload!r}; "
                f"choose from {WORKLOAD_FAMILIES}"
            )
        if self.algorithm not in ("online_cp", "sp"):
            raise SimulationError(
                f"unknown algorithm {self.algorithm!r} "
                "(expected 'online_cp' or 'sp')"
            )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (checkpoint meta / bench reports)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamRunConfig":
        """Rebuild from :meth:`as_dict` (ignores unknown keys)."""
        fields = {name for name in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in fields})


def build_network(config: StreamRunConfig) -> SDNetwork:
    """Provision the configured topology at full capacity."""
    name = config.topology.lower()
    if name in _REAL_TOPOLOGIES:
        return build_real_network(_REAL_TOPOLOGIES[name], config.network_seed)
    if name.startswith("gt_itm:"):
        try:
            size = int(name.split(":", 1)[1])
        except ValueError:
            raise SimulationError(
                f"bad gt_itm topology spec {config.topology!r} "
                "(expected 'gt_itm:<size>')"
            ) from None
        return build_random_network(size, config.network_seed)
    raise SimulationError(
        f"unknown topology {config.topology!r} "
        f"(expected one of {sorted(_REAL_TOPOLOGIES)} or 'gt_itm:<size>')"
    )


def build_algorithm(
    config: StreamRunConfig, network: SDNetwork
) -> OnlineAlgorithm:
    """The configured online algorithm over ``network``."""
    if config.algorithm == "sp":
        return make_sp_online(network)
    return calibrated_online_cp(network)


def build_engine(
    config: StreamRunConfig,
    seed: Optional[int] = None,
    limit: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_sink: Optional[Any] = None,
    emitter: Optional[SnapshotEmitter] = None,
) -> StreamEngine:
    """Assemble a fresh engine from a run config.

    ``seed``/``limit`` override the config's workload seed and request
    count (the shard runner passes derived values); an ``emitter`` is
    created from ``config.emit_every`` when not supplied.
    """
    network = build_network(config)
    algorithm = build_algorithm(config, network)
    stream: ArrivalStream = make_stream(
        config.workload,
        network.graph,
        seed=config.seed if seed is None else seed,
        limit=config.requests if limit is None else limit,
        arrival_rate=config.arrival_rate,
        mean_holding=config.mean_holding,
    )
    if emitter is None and config.emit_every is not None:
        emitter = SnapshotEmitter(every_requests=config.emit_every)
    return StreamEngine(
        algorithm,
        stream,
        controller=Controller() if config.controller else None,
        emitter=emitter,
        checkpoint_every=checkpoint_every,
        checkpoint_sink=checkpoint_sink,
    )


def derive_shard_seed(base_seed: int, shard: int) -> int:
    """The workload seed of shard ``shard``.

    Pure arithmetic on purpose: ``hash()`` of strings is salted per
    process (``PYTHONHASHSEED``), which would make shard workloads differ
    between runs.  The multiplier separates base seeds; the ``+1`` keeps
    shard 0 of seed 0 distinct from the unsharded seed-0 stream.
    """
    return base_seed * 100_003 + shard * 97 + 1


def _shard_counts(total: int, shards: int) -> List[int]:
    """Split ``total`` requests across shards (earlier shards get +1)."""
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def _run_shard_point(
    config_data: Dict[str, Any], shard: int, count: int
) -> Dict[str, Any]:
    """Pool point function: run one shard to completion.

    Module-level and dict-argumented so it pickles under spawn.  Runs on
    a clean telemetry registry (``isolate_registry`` pooled semantics),
    so the per-shard emitter's payloads are a function of the shard
    alone.
    """
    config = StreamRunConfig.from_dict(config_data)
    engine = build_engine(
        config, seed=derive_shard_seed(config.seed, shard), limit=count
    )
    engine.run()
    final_payload = None
    if engine.emitter is not None:
        final_payload = engine.emitter.finish()
    return {
        "shard": shard,
        "requests": count,
        "stats": engine.stats.state(),
        "final_payload": final_payload,
    }


def merge_stats_states(states: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-shard :meth:`StreamStats.state` dicts, in shard order.

    Counters and rejection histograms add; cost histograms merge bucket-
    wise (integer counts — order-independent); ``last_time`` takes the
    max; ``peak_active`` sums (shards run concurrently, so the fleet-wide
    peak is at most the sum of per-shard peaks).  The merged ``digest``
    chains the shard digests in shard order, so it commits to every
    shard's full decision sequence.  Per-process serieses
    (``rss_samples``, ``recent``) stay per-shard and are dropped here.
    """
    merged = StreamStats()
    digest = ""
    for state in states:
        merged.processed += int(state["processed"])
        merged.admitted += int(state["admitted"])
        merged.rejected += int(state["rejected"])
        merged.departed += int(state["departed"])
        merged.peak_active += int(state["peak_active"])
        if float(state["last_time"]) > merged.last_time:
            merged.last_time = float(state["last_time"])
        for reason, count in state["rejections"].items():
            merged.rejections[reason] = (
                merged.rejections.get(reason, 0) + int(count)
            )
        merged.cost_histogram.merge(state["cost_histogram"])
        digest = hashlib.sha256(
            f"{digest}|{state['digest']}".encode("utf-8")
        ).hexdigest()
    result = merged.state()
    result["digest"] = digest
    del result["recent"]
    del result["rss_samples"]
    result["admission_ratio"] = merged.admission_ratio
    return result


@dataclass(frozen=True)
class ShardResult:
    """The outcome of a sharded run: per-shard detail + ordered merge."""

    config: StreamRunConfig
    shards: List[Dict[str, Any]]
    merged: Dict[str, Any]

    @property
    def digest(self) -> str:
        """The shard-order-chained merged decision digest."""
        return str(self.merged["digest"])


def run_sharded(
    config: StreamRunConfig,
    shards: int,
    workers: Optional[int] = None,
) -> ShardResult:
    """Run ``shards`` independent substreams and merge in shard order.

    ``config.requests`` is split as evenly as possible across the
    shards; each shard gets its own network replica and a seed derived
    by :func:`derive_shard_seed`.  ``workers`` only controls execution
    parallelism — the returned result is bit-identical for every worker
    count (including the serial fallback), which is the contract the
    stream acceptance test locks.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    counts = _shard_counts(config.requests, shards)
    grid = [
        (config.as_dict(), shard, counts[shard]) for shard in range(shards)
    ]
    results = parallel_map(
        _run_shard_point, grid, workers=workers, isolate_registry=True
    )
    return ShardResult(
        config=config,
        shards=results,
        merged=merge_stats_states([r["stats"] for r in results]),
    )
