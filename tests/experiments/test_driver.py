"""Tests of the workload client, in its closed and its open loop."""

import pytest

from repro.experiments.driver import Client
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.workload.generator import RequestSpec

from tests.helpers import assert_all_completed, build_system

BOTH_LOOPS = pytest.mark.parametrize("closed_loop", [True, False], ids=["closed", "open"])


def script(process, gaps, resources=frozenset({0}), cs_duration=2.0):
    """Scripted stream: ``think_time`` is the gap the loop under test waits
    before the arrival (since the last completion, or the last arrival)."""
    return [
        RequestSpec(
            process=process,
            index=i,
            resources=resources,
            cs_duration=cs_duration,
            think_time=gap,
        )
        for i, gap in enumerate(gaps)
    ]


def make_client(system, process, specs, metrics, closed_loop, stop=1_000.0, max_requests=None):
    return Client(
        sim=system.sim,
        process=process,
        allocator=system.allocators[process],
        requests=iter(specs),
        metrics=metrics,
        stop_issuing_at=stop,
        closed_loop=closed_loop,
        max_requests=max_requests,
    )


class TestClient:
    @BOTH_LOOPS
    def test_replays_scripted_requests(self, closed_loop):
        system = build_system("core", num_processes=2, num_resources=4, gamma=0.5)
        metrics = MetricsCollector(num_resources=4)
        client = make_client(system, 1, script(1, [1.0, 5.0, 5.0]), metrics, closed_loop)
        client.start()
        system.run()
        assert client.issued == 3
        assert client.completed == 3
        assert_all_completed(metrics)
        assert client.stopped

    @BOTH_LOOPS
    def test_max_requests_caps_issuance(self, closed_loop):
        system = build_system("core", num_processes=2, num_resources=2, gamma=0.5)
        metrics = MetricsCollector(num_resources=2)
        client = make_client(
            system, 1, script(1, [1.0] * 10), metrics, closed_loop, max_requests=4
        )
        client.start()
        system.run()
        assert client.issued == 4

    @BOTH_LOOPS
    def test_stop_time_prevents_new_requests(self, closed_loop):
        system = build_system("core", num_processes=2, num_resources=2, gamma=0.5)
        metrics = MetricsCollector(num_resources=2)
        client = make_client(system, 1, script(1, [8.0] * 10), metrics, closed_loop, stop=30.0)
        client.start()
        system.run()
        assert 0 < client.issued < 10
        assert_all_completed(metrics)

    @BOTH_LOOPS
    def test_exhausted_iterator_stops_client(self, closed_loop):
        system = build_system("core", num_processes=2, num_resources=2, gamma=0.5)
        metrics = MetricsCollector(num_resources=2)
        client = make_client(system, 1, [], metrics, closed_loop)
        client.start()
        system.run()
        assert client.stopped and client.issued == 0

    def test_release_precedes_next_grant_at_same_timestamp(self):
        """Two clients contending for one resource must never trip the
        collector's safety check even with zero network latency."""
        system = build_system("core", num_processes=2, num_resources=1, gamma=0.0)
        metrics = MetricsCollector(num_resources=1)
        clients = [
            make_client(system, p, script(p, [0.0] * 3, cs_duration=1.0), metrics, True)
            for p in (0, 1)
        ]
        for client in clients:
            client.start()
        system.run()
        assert_all_completed(metrics)

    def test_closed_loop_thinks_after_each_completion(self):
        system = build_system("core", num_processes=2, num_resources=4, gamma=0.5)
        metrics = MetricsCollector(num_resources=4)
        client = make_client(system, 1, script(1, [1.0, 1.0, 1.0], cs_duration=50.0), metrics, True)
        client.start()
        system.run()
        for i in (1, 2):
            previous = metrics.record_for(1, i - 1).release_time
            assert metrics.record_for(1, i).issue_time == previous + 1.0
        assert client.max_backlog == 1  # only ever the request about to be dispatched

    def test_arrivals_do_not_wait_for_completions(self):
        """The open loop: issue instants follow the gaps, however slow the CS."""
        system = build_system("core", num_processes=2, num_resources=4, gamma=0.5)
        metrics = MetricsCollector(num_resources=4)
        # 3 arrivals 1 ms apart, each needing a 50 ms critical section.
        client = make_client(system, 1, script(1, [1.0, 1.0, 1.0], cs_duration=50.0), metrics, False)
        client.start()
        system.run()
        issues = [metrics.record_for(1, i).issue_time for i in range(3)]
        assert issues == [1.0, 2.0, 3.0]
        assert client.completed == 3

    def test_backlog_builds_under_overload(self):
        system = build_system("core", num_processes=2, num_resources=4, gamma=0.5)
        metrics = MetricsCollector(num_resources=4)
        client = make_client(system, 1, script(1, [1.0] * 6, cs_duration=100.0), metrics, False)
        client.start()
        system.run()
        assert client.max_backlog >= 3
        assert client.waiting == 0  # fully drained by the end of the run
        assert_all_completed(metrics)

    def test_waiting_time_includes_queueing(self):
        """A backlogged request waits from *arrival*, not from dispatch."""
        system = build_system("core", num_processes=2, num_resources=4, gamma=0.5)
        metrics = MetricsCollector(num_resources=4)
        client = make_client(system, 1, script(1, [1.0, 1.0], cs_duration=50.0), metrics, False)
        client.start()
        system.run()
        first = metrics.record_for(1, 0).waiting_time
        second = metrics.record_for(1, 1).waiting_time
        assert second >= first + 49.0  # queued behind a 50 ms CS


class StubAllocator:
    """Grants when the test says so, and keeps its state across a crash —
    the allocator without a reboot handler the client has to cope with."""

    def __init__(self):
        self.requested = None
        self.held = None
        self.releases = 0
        self._callback = None

    @property
    def in_critical_section(self):
        return self.held is not None

    @property
    def is_idle(self):
        return self.requested is None and self.held is None

    def acquire(self, resources, callback):
        assert self.is_idle
        self.requested = resources
        self._callback = callback

    def grant(self):
        self.held, self.requested = self.requested, None
        self._callback()

    def release(self):
        assert self.held is not None
        self.held = None
        self.releases += 1

    def reboot(self):
        """What a protocol's own ``on_recover`` does: come back idle."""
        self.requested = self.held = None


class CrashRig:
    """One client (process 0) on a :class:`StubAllocator`, driven by hand.

    Arrival gaps are 1 ms and the critical section lasts 10 ms, so the
    first request arrives at t=1.
    """

    def __init__(self, closed_loop):
        self.sim = Simulator()
        self.allocator = StubAllocator()
        self.metrics = MetricsCollector(num_resources=2)
        self.client = Client(
            sim=self.sim,
            process=0,
            allocator=self.allocator,
            requests=iter(script(0, [1.0] * 4, cs_duration=10.0)),
            metrics=self.metrics,
            stop_issuing_at=1_000.0,
            closed_loop=closed_loop,
        )
        self.client.start()

    def run(self, until):
        # run(until=) leaves the clock at the last event it ran; a no-op
        # at `until` moves it there, so crash()/recover() act at `until`.
        self.sim.schedule_at(until, lambda: None)
        self.sim.run(until=until)

    def crash(self):
        self.client.on_crash(self.sim.now)

    def recover(self):
        self.client.on_recover(self.sim.now)


@BOTH_LOOPS
class TestCrash:
    def test_crash_while_thinking_drops_the_arrival(self, closed_loop):
        rig = CrashRig(closed_loop)
        rig.run(0.5)
        rig.crash()
        rig.run(5.0)
        assert rig.client.issued == 0  # the armed arrival was cancelled
        rig.recover()
        rig.run(6.5)
        # The stream moved on: index 0 died with the crash.
        assert rig.client.issued == 1
        assert rig.metrics.incomplete_requests() == [(0, 1)]

    def test_crash_while_waiting_abandons_the_request(self, closed_loop):
        rig = CrashRig(closed_loop)
        rig.run(1.0)
        assert rig.allocator.requested == frozenset({0})
        rig.crash()
        assert rig.metrics.aborted == 0  # nothing was held
        assert (rig.client.waiting, rig.client.abandoned) == (0, 1)
        assert rig.metrics.record_for(0, 0).grant_time is None
        rig.allocator.reboot()
        rig.recover()
        rig.run(5.0)
        assert rig.allocator.requested == frozenset({0})  # a fresh request is with the allocator
        assert rig.metrics.incomplete_requests()[0] == (0, 0)

    def test_crash_inside_the_cs_aborts_it(self, closed_loop):
        rig = CrashRig(closed_loop)
        rig.run(1.0)
        rig.allocator.grant()
        assert rig.metrics.currently_held() == {0: (0, 0)}
        rig.run(4.0)
        rig.crash()
        assert rig.metrics.aborted == 1
        # The open loop had queued arrivals behind the CS; they died too.
        assert (rig.client.waiting, rig.client.abandoned) == (0, rig.client.issued)
        assert rig.client.last_grant == 1.0
        assert rig.metrics.currently_held() == {}  # freed at the crash instant
        rig.run(50.0)
        # The CS timer died with the node: no completion, no release.
        assert rig.client.completed == 0
        assert rig.allocator.releases == 0
        assert rig.metrics.record_for(0, 0).release_time is None

    def test_late_grant_is_released_straight_back(self, closed_loop):
        rig = CrashRig(closed_loop)
        rig.run(1.0)
        rig.crash()
        rig.allocator.grant()  # the acquisition completed across the outage
        assert rig.allocator.releases == 1
        assert rig.allocator.is_idle
        assert rig.metrics.record_for(0, 0).grant_time is None  # never recorded
        assert rig.metrics.currently_held() == {}

    def test_recover_releases_a_parked_cs(self, closed_loop):
        rig = CrashRig(closed_loop)
        rig.run(1.0)
        rig.allocator.grant()
        rig.crash()
        assert rig.allocator.in_critical_section  # no reboot handler: still parked
        rig.recover()
        assert rig.allocator.releases == 1
        assert not rig.client.stopped
        rig.run(50.0)
        assert rig.allocator.requested == frozenset({0})  # issuing again

    def test_recover_with_a_busy_allocator_stops(self, closed_loop):
        rig = CrashRig(closed_loop)
        rig.run(1.0)
        rig.crash()
        issued = rig.client.issued
        rig.recover()  # the allocator still carries the abandoned acquisition
        assert rig.client.stopped
        rig.run(50.0)
        assert rig.client.issued == issued
        rig.recover()  # and a stopped client stays stopped
        assert rig.client.stopped


def test_a_crash_cancels_only_the_crashed_clients_timers():
    """Two clients on one simulator arm timers at the same instants."""
    rig = CrashRig(closed_loop=True)
    bystander = Client(
        sim=rig.sim,
        process=1,
        allocator=StubAllocator(),
        requests=iter(script(1, [1.0] * 4, cs_duration=10.0)),
        metrics=rig.metrics,
        stop_issuing_at=1_000.0,
        closed_loop=True,
    )
    bystander.start()
    rig.run(0.5)
    rig.crash()
    rig.run(5.0)
    assert (rig.client.issued, bystander.issued) == (0, 1)


def test_crash_with_a_backlog_drops_the_queued_arrivals():
    """Open loop: arrivals queued behind a busy allocator die with the node."""
    rig = CrashRig(closed_loop=False)
    rig.run(3.0)  # arrivals at 1, 2, 3; none granted
    assert rig.client.issued == 3 and rig.client.waiting == 3
    rig.crash()
    assert rig.client.waiting == 0 and rig.client.abandoned == 3
    rig.run(50.0)
    assert rig.client.issued == 3  # the armed fourth arrival was cancelled too
    assert rig.metrics.incomplete_requests() == [(0, 0), (0, 1), (0, 2)]
