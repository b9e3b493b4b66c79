"""Unit tests for the trace recorder."""

from repro.sim.trace import TraceEvent, TraceRecorder


class TestTraceRecorder:
    def test_record_and_iterate(self):
        trace = TraceRecorder()
        trace.record(1.0, 0, "cs_enter", resources=[1, 2])
        trace.record(2.0, 1, "cs_exit")
        assert len(trace.events()) == 2
        kinds = [e.kind for e in trace]
        assert kinds == ["cs_enter", "cs_exit"]

    def test_filter_by_kind_and_node(self):
        trace = TraceRecorder()
        trace.record(1.0, 0, "a")
        trace.record(2.0, 1, "a")
        trace.record(3.0, 0, "b")
        assert len(trace.events(kind="a")) == 2
        assert len(trace.events(node=0)) == 2
        assert len(trace.events(kind="a", node=0)) == 1

    def test_details_are_copied(self):
        trace = TraceRecorder()
        payload = {"k": 1}
        trace.record(1.0, 0, "x", **payload)
        payload["k"] = 2
        assert trace.events()[0].details == {"k": 1}

    def test_event_is_frozen_dataclass(self):
        event = TraceEvent(time=1.0, node=2, kind="k")
        assert event.time == 1.0 and event.node == 2 and event.kind == "k"
