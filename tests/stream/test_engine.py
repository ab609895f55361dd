"""StreamEngine: runner equivalence, bounded memory, rolling stats."""

import pytest

from repro.core import OnlineCP
from repro.exceptions import SimulationError
from repro.network import Controller, build_sdn
from repro.simulation import run_online_with_departures
from repro.stream import PoissonStream, StreamEngine, StreamStats, make_stream
from repro.topology import gt_itm_flat
from repro.workload import (
    RequestGenerator,
    WorkloadConfig,
    poisson_process,
)
from repro.workload.arrivals import EventKind

SEED = 31


@pytest.fixture(scope="module")
def graph():
    return gt_itm_flat(24, seed=SEED)


def fresh_engine(graph, limit=200, arrival_rate=3.0, controller=False):
    network = build_sdn(graph, seed=SEED)
    stream = make_stream(
        "poisson", graph, seed=SEED, limit=limit, arrival_rate=arrival_rate
    )
    return StreamEngine(
        OnlineCP(network),
        stream,
        controller=Controller() if controller else None,
    )


CONTROLLERS = {
    "no-controller": lambda: None,
    "controller": Controller,
    "table-capacity-2": lambda: Controller(table_capacity=2),
}


class TestRunnerEquivalence:
    """The engine replays the sorted-event-list semantics exactly."""

    @pytest.mark.parametrize("make_controller", CONTROLLERS.values(),
                             ids=CONTROLLERS.keys())
    def test_matches_run_online_with_departures(self, graph, make_controller):
        # Materialized side: the classic event list.
        bodies = list(
            RequestGenerator(graph, WorkloadConfig(seed=SEED)).generate(150)
        )
        events = poisson_process(
            bodies, arrival_rate=3.0, mean_holding_time=40.0, seed=SEED + 1
        )
        last_arrival = max(
            index for index, event in enumerate(events)
            if event.kind is EventKind.ARRIVAL
        )

        def reference(event_list):
            network = build_sdn(graph, seed=SEED)
            controller = make_controller()
            stats = run_online_with_departures(
                OnlineCP(network), event_list, controller=controller
            )
            return stats, network, controller

        # Streaming side: same draws, nothing materialized.  make_stream
        # seeds bodies with `seed` and timing with `seed + 1`, mirroring
        # the two RNGs above.
        network = build_sdn(graph, seed=SEED)
        controller = make_controller()
        engine = StreamEngine(
            OnlineCP(network),
            make_stream(
                "poisson", graph, seed=SEED, limit=150, arrival_rate=3.0
            ),
            controller=controller,
        )

        # After the last arrival: same decisions, residuals and rules.
        stats, ref_network, ref_controller = reference(
            events[: last_arrival + 1]
        )
        engine.run()
        assert engine.stats.admitted == stats.admitted
        assert engine.stats.rejected == stats.rejected
        assert engine.stats.rejections == {
            reason.value: count
            for reason, count in stats.reject_reasons.items()
        }
        assert network.snapshot() == ref_network.snapshot()
        if controller is not None:
            assert (
                controller.installed_requests
                == ref_controller.installed_requests
            )
            assert controller.total_rules() == ref_controller.total_rules()

        # After every departure: everything released on both sides.
        stats, ref_network, ref_controller = reference(events)
        engine.run(drain=True)
        assert engine.stats.departed == stats.admitted  # all drained
        assert network.snapshot() == ref_network.snapshot()
        if controller is not None:
            assert controller.installed_requests == []
            assert ref_controller.installed_requests == []

    def test_controller_tables_track_active_set(self, graph):
        engine = fresh_engine(graph, limit=120, controller=True)
        engine.run()
        assert len(engine.controller.installed_requests) == engine.active_count
        engine._drain_departures(float("inf"))
        assert engine.controller.installed_requests == []
        assert engine.active_count == 0


class TestBoundedMemory:
    def test_no_decision_history_is_retained(self, graph):
        engine = fresh_engine(graph, limit=100)
        engine.run()
        assert not hasattr(engine.algorithm, "decisions")
        assert engine.algorithm.decided_count == 100

    def test_active_set_tracks_churn_not_stream_length(self, graph):
        engine = fresh_engine(graph, limit=400, arrival_rate=2.0)
        engine.run()
        # Offered load is rate * mean_holding = 80 concurrent requests;
        # the active set must be of that order, not of the stream length.
        assert engine.stats.peak_active < 200
        assert engine.active_count <= engine.stats.peak_active
        assert engine.pending_departures == engine.active_count

    def test_recent_ring_is_bounded(self, graph):
        engine = fresh_engine(graph, limit=200)
        engine.run()
        assert len(engine.stats.recent) == StreamStats.RECENT_SIZE

    def test_checkpoint_window_samples_rss(self, graph):
        engine = fresh_engine(graph, limit=100)
        engine.checkpoint_every = 25
        engine.run()
        assert len(engine.stats.rss_samples) == 4
        assert all(rss > 0 for _, rss in engine.stats.rss_samples)


class TestStreamStats:
    def test_digest_is_deterministic(self, graph):
        a = fresh_engine(graph, limit=150).run().digest
        b = fresh_engine(graph, limit=150).run().digest
        assert a == b
        assert len(a) == 64

    def test_digest_commits_to_every_decision(self, graph):
        short = fresh_engine(graph, limit=149).run().digest
        full = fresh_engine(graph, limit=150).run().digest
        assert short != full

    def test_state_round_trip(self, graph):
        stats = fresh_engine(graph, limit=150).run()
        clone = StreamStats()
        clone.restore(stats.state())
        assert clone.state() == stats.state()
        assert clone.admission_ratio == stats.admission_ratio

    def test_counts_are_consistent(self, graph):
        stats = fresh_engine(graph, limit=200, arrival_rate=8.0).run()
        assert stats.processed == 200
        assert stats.admitted + stats.rejected == stats.processed
        assert sum(stats.rejections.values()) <= stats.rejected
        assert stats.cost_histogram.count == stats.admitted

    def test_run_can_be_resumed_in_chunks(self, graph):
        whole = fresh_engine(graph, limit=150).run()
        chunked = fresh_engine(graph, limit=150)
        chunked.run(max_events=50)
        chunked.run(max_events=50)
        chunked.run()
        assert chunked.stats.digest == whole.digest

    def test_checkpoint_every_validation(self, graph):
        network = build_sdn(graph, seed=SEED)
        stream = make_stream("poisson", graph, seed=SEED, limit=10)
        with pytest.raises(SimulationError):
            StreamEngine(OnlineCP(network), stream, checkpoint_every=0)


class TestCheckpointSink:
    def test_sink_fires_at_the_configured_cadence(self, graph):
        boundaries = []
        engine = fresh_engine(graph, limit=100)
        engine.checkpoint_every = 30
        engine.checkpoint_sink = lambda eng: boundaries.append(
            eng.stats.processed
        )
        engine.run()
        assert boundaries == [30, 60, 90]
