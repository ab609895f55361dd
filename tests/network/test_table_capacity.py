"""Unit tests for flow-table capacity constraints."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.online_base import RejectReason
from repro.core import OnlineCP, SPOnline
from repro.network import Controller, TableCapacityExceededError, build_sdn
from repro.simulation import run_online, run_sequential_capacitated
from repro.stream import SequenceStream, StreamEngine
from repro.topology import gt_itm_flat
from repro.workload import generate_workload

HOPS = [("s", "a"), ("a", "d1"), ("a", "d2")]


class TestController:
    def test_unlimited_by_default(self):
        controller = Controller()
        assert controller.table_capacity is None
        assert controller.can_install(["s", "a"])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Controller(table_capacity=0)

    def test_rejects_at_capacity(self):
        controller = Controller(table_capacity=1)
        controller.install_tree(1, HOPS, servers=[])
        assert not controller.can_install(["a"])
        with pytest.raises(TableCapacityExceededError):
            controller.install_tree(2, [("a", "d1")], servers=[])

    def test_rejection_installs_nothing(self):
        controller = Controller(table_capacity=1)
        controller.install_tree(1, [("a", "d1")], servers=[])
        before = controller.total_rules()
        with pytest.raises(TableCapacityExceededError):
            # touches the full switch 'a' AND fresh switch 's'
            controller.install_tree(2, HOPS, servers=[])
        assert controller.total_rules() == before
        assert not controller.is_installed(2)
        assert controller.table_occupancy("s") == 0

    def test_uninstall_frees_capacity(self):
        controller = Controller(table_capacity=1)
        controller.install_tree(1, [("a", "d1")], servers=[])
        controller.uninstall(1)
        controller.install_tree(2, [("a", "d1")], servers=[])
        assert controller.is_installed(2)


class TestEngineIntegration:
    @pytest.fixture
    def setup(self):
        graph = gt_itm_flat(30, seed=17)
        network = build_sdn(graph, seed=17)
        requests = generate_workload(graph, 60, dmax_ratio=0.1, seed=18)
        return network, requests

    def test_tiny_tables_cause_evictions(self, setup):
        network, requests = setup
        controller = Controller(table_capacity=2)
        stats = run_online(SPOnline(network), requests, controller=controller)
        assert stats.reject_reasons.get(RejectReason.TABLE_CAPACITY, 0) > 0
        assert stats.admitted + stats.rejected == len(requests)
        # every installed request really has rules; every switch within cap
        assert len(controller.installed_requests) == stats.admitted

    def test_eviction_releases_resources(self, setup):
        network, requests = setup
        controller = Controller(table_capacity=1)
        stats = run_online(SPOnline(network), requests, controller=controller)
        # the sum of admitted trees' reservations equals what's allocated:
        # evicted admissions must have released theirs
        admitted_ids = set(controller.installed_requests)
        assert stats.admitted == len(admitted_ids)
        total_bw = network.total_bandwidth_allocated()
        if stats.admitted == 0:
            assert total_bw == pytest.approx(0.0)

    def test_unlimited_controller_never_evicts(self, setup):
        network, requests = setup
        controller = Controller()
        stats = run_online(SPOnline(network), requests, controller=controller)
        assert RejectReason.TABLE_CAPACITY not in stats.reject_reasons

    def test_sequential_capacitated_respects_tables(self, setup):
        from repro.core import appro_multi_cap

        network, requests = setup
        controller = Controller(table_capacity=3)
        stats = run_sequential_capacitated(
            lambda net, req: appro_multi_cap(net, req, max_servers=1),
            network,
            requests,
            controller=controller,
        )
        assert stats.solved == len(controller.installed_requests)
        assert stats.solved + stats.infeasible == len(requests)


ACCOUNTING_GRAPH = gt_itm_flat(30, seed=5)

accounting_cases = dict(
    algorithm_cls=st.sampled_from([SPOnline, OnlineCP]),
    capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    seed=st.integers(min_value=0, max_value=40),
)


def _setup_accounting(algorithm_cls, seed):
    network = build_sdn(ACCOUNTING_GRAPH, seed=seed)
    requests = generate_workload(
        ACCOUNTING_GRAPH, 25, dmax_ratio=0.2, seed=seed + 1
    )
    return algorithm_cls(network), requests


def _assert_tallies_agree(algorithm, admitted, rejected, evicted, counters):
    """Algorithm totals, run stats and ``online.*`` counters tell one story."""
    assert algorithm.admitted_count == admitted
    assert algorithm.rejected_count == rejected
    assert counters.get("online.admitted", 0.0) == admitted
    assert counters.get("online.rejected", 0.0) == rejected
    assert (
        counters.get("online.admitted", 0.0)
        + counters.get("online.rejected", 0.0)
        == counters["online.decisions"]
    )
    assert counters.get("online.rejected.table_capacity", 0.0) == evicted


class TestEvictionAccounting:
    """An evicted admission is counted once, as a TABLE_CAPACITY rejection."""

    @settings(max_examples=12, deadline=None)
    @given(**accounting_cases)
    def test_run_online(self, algorithm_cls, capacity, seed):
        obs.enable()
        algorithm, requests = _setup_accounting(algorithm_cls, seed)
        controller = Controller(table_capacity=capacity)
        stats = run_online(algorithm, requests, controller=controller)
        _assert_tallies_agree(
            algorithm,
            stats.admitted,
            stats.rejected,
            stats.reject_reasons.get(RejectReason.TABLE_CAPACITY, 0),
            stats.telemetry,
        )
        assert len(controller.installed_requests) == stats.admitted

    @settings(max_examples=12, deadline=None)
    @given(**accounting_cases)
    def test_stream_engine(self, algorithm_cls, capacity, seed):
        obs.enable()
        algorithm, requests = _setup_accounting(algorithm_cls, seed)
        controller = Controller(table_capacity=capacity)
        # Departures free table slots, so later arrivals fit again.
        engine = StreamEngine(
            algorithm,
            SequenceStream(requests, holding_time=3.0),
            controller=controller,
        )
        before = obs.counters()
        stats = engine.run()
        _assert_tallies_agree(
            algorithm,
            stats.admitted,
            stats.rejected,
            stats.rejections.get(RejectReason.TABLE_CAPACITY.value, 0),
            obs.counters_since(before),
        )
        assert len(controller.installed_requests) == engine.active_count
