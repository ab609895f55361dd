"""Unit tests for Online_CP (Algorithm 2)."""

import pytest

from repro.core import (
    AdmissionPolicy,
    ExponentialCostModel,
    LinearCostModel,
    OnlineCP,
    validate_pseudo_tree,
)
from repro.core.online_base import RejectReason
from repro.exceptions import SimulationError
from repro.graph import Graph
from repro.network import build_sdn
from repro.nfv import FunctionType, ServiceChain
from repro.workload import MulticastRequest, generate_workload


def simple_chain():
    return ServiceChain.of(FunctionType.NAT)


class TestDefaults:
    def test_paper_calibration(self, small_network):
        algorithm = OnlineCP(small_network)
        n = small_network.num_nodes
        assert algorithm.cost_model.alpha(small_network) == 2 * n
        assert algorithm.policy.sigma_v == n - 1
        assert algorithm.policy.sigma_e == n - 1

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(sigma_v=0.0, sigma_e=1.0)


class TestAdmission:
    def test_admits_and_validates(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        decision = algorithm.process(request_batch[0])
        assert decision.admitted
        validate_pseudo_tree(small_network, decision.tree)
        assert decision.tree.num_servers == 1  # K = 1 online
        assert decision.selection_weight is not None

    def test_resources_match_edge_usage(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        request = request_batch[0]
        decision = algorithm.process(request)
        used = sum(
            link.capacity - link.residual for link in small_network.links()
        )
        expected = sum(
            count * request.bandwidth
            for count in decision.tree.edge_usage().values()
        )
        assert used == pytest.approx(expected)
        server = decision.tree.servers[0]
        state = small_network.server(server)
        assert state.capacity - state.residual == pytest.approx(
            request.compute_demand
        )

    def test_departure_restores_everything(self, small_network, request_batch):
        algorithm = OnlineCP(small_network)
        request = request_batch[0]
        algorithm.process(request)
        algorithm.depart(request.request_id)
        for link in small_network.links():
            assert link.residual == pytest.approx(link.capacity)
        for server in small_network.servers():
            assert server.residual == pytest.approx(server.capacity)

    def test_depart_unknown_raises(self, small_network):
        algorithm = OnlineCP(small_network)
        with pytest.raises(SimulationError):
            algorithm.depart(404)

    def test_decided_count_covers_every_request(
        self, small_network, request_batch
    ):
        algorithm = OnlineCP(small_network)
        for request in request_batch[:4]:
            algorithm.process(request)
        assert algorithm.decided_count == 4
        assert (
            algorithm.admitted_count + algorithm.rejected_count == 4
        )


class TestRejection:
    def test_no_feasible_server(self, small_network, request_batch):
        for node in small_network.server_nodes:
            small_network.allocate_compute(
                node, small_network.server(node).residual
            )
        decision = OnlineCP(small_network).process(request_batch[0])
        assert not decision.admitted
        assert decision.reason is RejectReason.NO_FEASIBLE_SERVER

    def test_server_threshold(self, small_network, request_batch):
        # nearly fill every server: exponential weight exceeds σ_v
        for node in small_network.server_nodes:
            state = small_network.server(node)
            small_network.allocate_compute(node, 0.999 * state.capacity)
        request = request_batch[0]
        if any(
            small_network.server(n).can_allocate(request.compute_demand)
            for n in small_network.server_nodes
        ):
            decision = OnlineCP(small_network).process(request)
            assert not decision.admitted
            assert decision.reason in (
                RejectReason.SERVER_THRESHOLD,
                RejectReason.NO_FEASIBLE_SERVER,
            )

    def test_tree_threshold(self, small_network, request_batch):
        # load every link to 90%: each edge weight is huge under the 2|V| base
        for u, v, _ in small_network.graph.edges():
            link = small_network.link(u, v)
            small_network.allocate_bandwidth(u, v, 0.9 * link.capacity)
        decision = OnlineCP(small_network).process(request_batch[0])
        assert not decision.admitted
        assert decision.reason in (
            RejectReason.TREE_THRESHOLD,
            RejectReason.DISCONNECTED,
        )

    def test_disconnected(self):
        graph = Graph.from_edges([("s", "v", 1.0), ("v", "d", 1.0)])
        network = build_sdn(graph, server_nodes=["v"], seed=0)
        network.allocate_bandwidth(
            "v", "d", network.link("v", "d").residual - 1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 100.0, simple_chain())
        decision = OnlineCP(network).process(request)
        assert not decision.admitted
        assert decision.reason is RejectReason.DISCONNECTED


class TestPseudoTreeSemantics:
    def test_lca_detour_priced_and_reserved(self):
        """Server in a side branch: the processed stream pays the way back.

        Topology::

            s - u - d
                |
                v   (server)
        """
        graph = Graph.from_edges(
            [("s", "u", 1.0), ("u", "d", 1.0), ("u", "v", 1.0)]
        )
        network = build_sdn(
            graph, server_nodes=["v"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 10.0, simple_chain())
        decision = OnlineCP(network).process(request)
        assert decision.admitted
        tree = decision.tree
        assert tree.return_paths  # the v → u detour exists
        usage = tree.edge_usage()
        from repro.graph import edge_key

        assert usage[edge_key("u", "v")] == 2  # down to v, back up to u
        assert usage[edge_key("s", "u")] == 1
        assert usage[edge_key("u", "d")] == 1
        validate_pseudo_tree(network, tree)

    def test_server_on_destination_path_needs_no_detour(self):
        graph = Graph.from_edges([("s", "v", 1.0), ("v", "d", 1.0)])
        network = build_sdn(
            graph, server_nodes=["v"], seed=0, link_cost_scale=1.0
        )
        request = MulticastRequest.create(1, "s", ["d"], 10.0, simple_chain())
        decision = OnlineCP(network).process(request)
        assert decision.admitted
        assert decision.tree.return_paths == ()


class TestLoadBalancing:
    def test_congestion_pricing_shifts_servers(self):
        """Once one server's compute fills up, the other takes over even
        though it is farther away."""
        graph = Graph.from_edges(
            [("s", "v1", 1.0), ("s", "m", 1.0), ("m", "v2", 1.0),
             ("v1", "d", 1.0), ("v2", "d", 3.0)]
        )
        network = build_sdn(
            graph, server_nodes=["v1", "v2"], seed=0, link_cost_scale=1.0
        )
        algorithm = OnlineCP(
            network, cost_model=ExponentialCostModel(alpha=8.0, beta=8.0)
        )
        chain = simple_chain()
        servers_chosen = []
        for k in range(1, 120):
            request = MulticastRequest.create(k, "s", ["d"], 5.0, chain)
            decision = algorithm.process(request)
            if not decision.admitted:
                break
            servers_chosen.append(decision.tree.servers[0])
        assert "v1" in servers_chosen
        assert "v2" in servers_chosen  # pricing eventually diverts load

    def test_never_overcommits(self, medium_network):
        requests = generate_workload(
            medium_network.graph, 200, seed=77
        )
        algorithm = OnlineCP(
            medium_network,
            cost_model=ExponentialCostModel(alpha=8.0, beta=8.0),
        )
        for request in requests:
            algorithm.process(request)
        for link in medium_network.links():
            assert link.residual >= -1e-6
        for server in medium_network.servers():
            assert server.residual >= -1e-6

    def test_linear_model_variant_runs(self, small_network, request_batch):
        algorithm = OnlineCP(small_network, cost_model=LinearCostModel())
        decision = algorithm.process(request_batch[0])
        assert decision.admitted
