"""Regression tests for the atomic admission path (``try_allocate`` and
``install_or_release``)."""

import pytest

from repro.core import appro_multi_cap
from repro.core.admission import install_or_release, try_allocate
from repro.network import AllocationTransaction, Controller


def residual_snapshot(network):
    links = {
        (u, v): network.link(u, v).residual
        for u, v, _ in network.graph.edges()
    }
    servers = {
        node: network.server(node).residual
        for node in network.server_nodes
    }
    return links, servers


class TestExceptionSafety:
    def test_unexpected_error_rolls_back_and_propagates(
        self, small_network, request_batch, monkeypatch
    ):
        """RL011 regression: the pre-`with` manual pattern only rolled
        back on CapacityExceededError — any other exception raised after
        the bandwidth loop leaked the partial reservation forever."""
        tree = appro_multi_cap(
            small_network, request_batch[0], max_servers=2
        )
        before = residual_snapshot(small_network)

        def boom(self, server, demand):
            raise RuntimeError("solver bug mid-allocation")

        monkeypatch.setattr(AllocationTransaction, "allocate_compute", boom)
        with pytest.raises(RuntimeError, match="mid-allocation"):
            try_allocate(small_network, tree)
        # every bandwidth reservation made before the failure is returned
        assert residual_snapshot(small_network) == before

    def test_success_path_still_commits(self, small_network, request_batch):
        tree = appro_multi_cap(
            small_network, request_batch[0], max_servers=2
        )
        before = residual_snapshot(small_network)
        txn = try_allocate(small_network, tree)
        assert txn is not None
        assert residual_snapshot(small_network) != before
        txn.release_all()
        assert residual_snapshot(small_network) == before


class TestInstallOrRelease:
    def _allocated(self, network, request):
        tree = appro_multi_cap(network, request, max_servers=2)
        before = residual_snapshot(network)
        txn = try_allocate(network, tree)
        assert txn is not None
        return tree, txn, before

    def test_without_controller_keeps_the_reservation(
        self, small_network, request_batch
    ):
        tree, txn, before = self._allocated(small_network, request_batch[0])
        assert install_or_release(None, tree, txn)
        assert residual_snapshot(small_network) != before

    def test_installs_the_tree(self, small_network, request_batch):
        tree, txn, _ = self._allocated(small_network, request_batch[0])
        controller = Controller()
        assert install_or_release(controller, tree, txn)
        assert tree.request.request_id in controller.installed_requests

    def test_full_tables_release_the_reservation(
        self, small_network, request_batch
    ):
        controller = Controller(table_capacity=1)
        # one rule on every switch fills every table
        nodes = list(small_network.graph.nodes())
        controller.install_tree("filler", list(zip(nodes, nodes[1:])), [])
        tree, txn, before = self._allocated(small_network, request_batch[0])
        assert not install_or_release(controller, tree, txn)
        assert residual_snapshot(small_network) == before
        assert controller.installed_requests == ["filler"]
