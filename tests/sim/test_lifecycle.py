"""Unit tests of the node lifecycle layer and the declarative detectors."""

import math

import pytest

from repro.sim.detectorspec import HeartbeatDetector, NoDetector
from repro.sim.engine import Simulator
from repro.sim.faults import BernoulliLoss, CompositeFaults, FaultSpec, NoFaults, NodeCrash
from repro.sim.lifecycle import NodeLifecycle
from repro.workload.params import WorkloadParams


PARAMS = WorkloadParams(num_processes=3, num_resources=4, phi=2)


class Probe:
    """Records the lifecycle callbacks it receives."""

    def __init__(self):
        self.events = []

    def on_crash(self, time):
        self.events.append(("crash", time))

    def on_recover(self, time):
        self.events.append(("recover", time))


class Listener:
    def __init__(self):
        self.events = []

    def node_crashed(self, node, time):
        self.events.append(("crash", node, time))

    def node_recovered(self, node, time):
        self.events.append(("recover", node, time))


class TestCrashWindows:
    def test_default_spec_has_no_windows(self):
        assert FaultSpec().crash_windows() == ()
        assert NoFaults().crash_windows() == ()
        assert BernoulliLoss(p=0.5).crash_windows() == ()

    def test_node_crash_window(self):
        spec = NodeCrash(node=3, at=5.0, recover_at=9.0)
        assert spec.crash_windows() == ((3, 5.0, 9.0),)

    def test_composite_windows_sorted_by_time(self):
        spec = CompositeFaults(
            (
                NodeCrash(node=1, at=7.0),
                NodeCrash(node=2, at=3.0, recover_at=5.0),
            )
        )
        assert spec.crash_windows() == ((2, 3.0, 5.0), (1, 7.0, math.inf))

    def test_bound_composite_declares_the_spec_windows(self):
        spec = CompositeFaults((BernoulliLoss(p=0.1), NodeCrash(node=0, at=2.0)))
        layer = spec.bind(PARAMS)
        assert layer.crash_windows() == spec.crash_windows() == ((0, 2.0, math.inf),)


class TestNodeLifecycle:
    def test_delivers_crash_and_recover_edges(self):
        sim = Simulator()
        probe = Probe()
        NodeLifecycle(sim, [(0, 2.0, 5.0)], {0: [probe]})
        sim.run()
        assert probe.events == [("crash", 2.0), ("recover", 5.0)]

    def test_permanent_crash_never_recovers(self):
        sim = Simulator()
        probe = Probe()
        NodeLifecycle(sim, [(0, 2.0, math.inf)], {0: [probe]})
        sim.run()
        assert probe.events == [("crash", 2.0)]

    def test_listeners_fire_before_participants(self):
        sim = Simulator()
        order = []
        listener = Listener()

        class OrderProbe(Probe):
            def on_crash(self, time):
                order.append("participant")

            def on_recover(self, time):
                order.append("participant")

        lifecycle = NodeLifecycle(sim, [(0, 1.0, 2.0)], {0: [OrderProbe()]})

        class OrderListener(Listener):
            def node_crashed(self, node, time):
                order.append("listener")

            def node_recovered(self, node, time):
                order.append("listener")

        lifecycle.add_listener(OrderListener())
        sim.run()
        assert order == ["listener", "participant", "listener", "participant"]

    def test_overlapping_windows_nest(self):
        sim = Simulator()
        probe = Probe()
        lifecycle = NodeLifecycle(
            sim, [(0, 1.0, 4.0), (0, 2.0, 6.0)], {0: [probe]}
        )
        sim.run()
        # One down edge at 1.0, one up edge at 6.0 — the inner window
        # produces no transitions.
        assert probe.events == [("crash", 1.0), ("recover", 6.0)]
        assert lifecycle.downtime_columns(10.0).as_dict() == {0: pytest.approx(5.0)}

    def test_is_down_tracks_the_window(self):
        sim = Simulator()
        lifecycle = NodeLifecycle(sim, [(1, 2.0, 4.0)], {})
        assert not lifecycle.is_down(1)
        sim.run(until=3.0)
        assert lifecycle.is_down(1)
        assert not lifecycle.is_down(0)
        sim.run()
        assert not lifecycle.is_down(1)

    def test_downtime_closes_open_windows_at_end(self):
        sim = Simulator()
        lifecycle = NodeLifecycle(sim, [(0, 2.0, math.inf)], {})
        sim.run()
        cols = lifecycle.downtime_columns(12.0)
        assert cols.as_dict() == {0: pytest.approx(10.0)}
        assert list(cols.crashes) == [1]
        assert cols.total == pytest.approx(10.0)

    def test_unfired_windows_report_no_downtime(self):
        sim = Simulator()
        lifecycle = NodeLifecycle(sim, [(0, 50.0, 60.0)], {})
        # Nothing ran: the window never fired.
        assert len(lifecycle.downtime_columns(10.0)) == 0

    def test_next_reboot_reports_future_outage_ends(self):
        sim = Simulator()
        lifecycle = NodeLifecycle(sim, [(0, 2.0, 5.0), (0, 8.0, 9.0)], {})
        assert lifecycle.next_reboot(0) == 5.0
        sim.run(until=6.0)
        assert lifecycle.next_reboot(0) == 9.0
        sim.run()
        assert lifecycle.next_reboot(0) is None

    def test_next_reboot_none_for_permanent_outage(self):
        sim = Simulator()
        lifecycle = NodeLifecycle(sim, [(0, 2.0, math.inf)], {})
        assert lifecycle.next_reboot(0) is None
        assert lifecycle.next_reboot(7) is None  # no windows at all

    def test_next_reboot_ignores_recover_nested_in_wider_window(self):
        # The [3, 6] window hides inside [2, inf): its recover event at
        # t=6 lowers the nesting depth but never raises the node, so it
        # must not look like a reboot worth waiting for.
        sim = Simulator()
        lifecycle = NodeLifecycle(
            sim, [(0, 2.0, math.inf), (0, 3.0, 6.0)], {}
        )
        assert lifecycle.next_reboot(0) is None
        sim.run(until=10.0)
        assert lifecycle.is_down(0)
        assert lifecycle.next_reboot(0) is None

    @pytest.mark.parametrize("built_at", [0.0, 0.7])
    def test_edges_land_exactly_at_their_instants(self, built_at):
        probe = Probe()
        # Neither sum is representable, and 0.7 + (at - 0.7) != at.
        at, recover_at = 1.1 + 2.2, 2.2 + 3.3
        sim = Simulator()
        # Built after the clock has moved, an edge must still land on its
        # instant, not on ``now`` plus a rounded delay.
        sim.schedule(built_at, lambda: None)
        sim.run()
        NodeLifecycle(sim, [(0, at, recover_at)], {0: [probe]})
        sim.run()
        assert probe.events == [("crash", at), ("recover", recover_at)]


class TestDetectorSpecs:
    def test_no_detector_binds_nothing(self):
        assert NoDetector().bind(PARAMS) is None

    def test_heartbeat_detection_delay(self):
        spec = HeartbeatDetector(interval=10.0, timeout=25.0)
        assert spec.detection_delay == 35.0
        assert spec.bind(PARAMS) is spec

    def test_heartbeat_validation(self):
        with pytest.raises(ValueError):
            HeartbeatDetector(interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatDetector(timeout=-1.0)

    def test_specs_are_hashable_values(self):
        assert HeartbeatDetector() == HeartbeatDetector()
        assert hash(HeartbeatDetector(interval=5.0)) == hash(HeartbeatDetector(interval=5.0))
        assert "heartbeat" in HeartbeatDetector().describe()

    def test_no_detector_describes_itself_by_its_repr(self):
        assert NoDetector().describe() == repr(NoDetector()) == "NoDetector()"
