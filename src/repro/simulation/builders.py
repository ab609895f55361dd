"""Network and algorithm builders shared by every driver.

The figure drivers (:mod:`repro.analysis`), the stream shards
(:mod:`repro.stream.shard`) and the bench harness
(:mod:`repro.obs.bench`) provision networks and calibrate ``Online_CP``
the same way.  The builders live here, below :mod:`repro.analysis`, so
importing :mod:`repro.stream` does not load the figure modules;
:mod:`repro.analysis.common` and :mod:`repro.analysis.profiles` re-export
them under their old names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import ExponentialCostModel, OnlineCP, SPOnline
from repro.graph.graph import Graph, Node
from repro.network.sdn import SDNetwork, build_sdn
from repro.topology.geant import geant_graph, geant_servers
from repro.topology.random_graphs import gt_itm_flat
from repro.topology.rocketfuel import rocketfuel_graph, rocketfuel_servers
from repro.workload.generator import DEFAULT_DMAX_RATIO, generate_workload
from repro.workload.request import MulticastRequest

#: Calibration used by the online figure drivers.  The paper's competitive
#: analysis sets α = β = 2|V|, but with the σ = |V|−1 thresholds that
#: setting rejects aggressively long before saturation (the worst-case
#: guarantee costs real throughput); a gentler base keeps the congestion
#: pricing while letting the thresholds act only near saturation.  The
#: ablation benchmark sweeps this choice.
ONLINE_ALPHA_BETA = 8.0


def build_random_network(size: int, seed: int) -> SDNetwork:
    """A GT-ITM-style network with the paper's default provisioning."""
    return build_sdn(gt_itm_flat(size, seed=seed), seed=seed)


def real_topologies() -> Dict[str, Tuple[Graph, List[Node]]]:
    """The paper's real networks: GÉANT, AS1755, and AS4755."""
    return {
        "GEANT": (geant_graph(), geant_servers()),
        "AS1755": (rocketfuel_graph(1755).copy(), rocketfuel_servers(1755)),
        "AS4755": (rocketfuel_graph(4755).copy(), rocketfuel_servers(4755)),
    }


def build_real_network(name: str, seed: int) -> SDNetwork:
    """Provision one of the real topologies with the paper's parameters."""
    graph, servers = real_topologies()[name]
    return build_sdn(graph, server_nodes=servers, seed=seed)


def make_requests(
    graph: Graph, count: int, ratio: object, seed: int
) -> List[MulticastRequest]:
    """Generate a request batch with a fixed or ranged ``D_max/|V|``.

    ``ratio=None`` selects the paper's per-request random ratio range.
    """
    if ratio is None:
        ratio = DEFAULT_DMAX_RATIO
    return generate_workload(graph, count=count, dmax_ratio=ratio, seed=seed)


def calibrated_online_cp(network: SDNetwork) -> OnlineCP:
    """``Online_CP`` with the documented experimental calibration.

    Uses the exponential cost model with base :data:`ONLINE_ALPHA_BETA`
    (see that constant's comment for the rationale) and the paper's
    ``σ = |V| − 1`` thresholds.
    """
    model = ExponentialCostModel(
        alpha=ONLINE_ALPHA_BETA, beta=ONLINE_ALPHA_BETA
    )
    return OnlineCP(network, cost_model=model)


def make_sp_online(network: SDNetwork) -> SPOnline:
    """The ``SP`` baseline (kept as a factory for symmetry)."""
    return SPOnline(network)
