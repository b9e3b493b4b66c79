#!/usr/bin/env python3
"""Walkthrough of the paper's Figure 3 execution example.

Three processes (s1, s2, s3) share two resources (r_red, r_blue):

* initially s1 holds the red token and s3 the blue one, both in critical
  section;
* s2 requests both resources: it first collects the two counter values
  (ReqCnt / Counter), then asks for the tokens (ReqRes) and enters its
  critical section once both arrive;
* at the end s2 is the root of both resource trees (Figure 3(c)).

The script prints every state transition and token movement so the message
flow of the figure can be followed step by step.

Unlike the experiment examples, this walkthrough deliberately wires the
simulator, network and ``CoreAllocatorNode`` endpoints by hand instead of
going through the declarative Scenario API (``run(Scenario(...))``, see
docs/scenarios.md): Figure 3 scripts three specific requests at specific
instants, not a generated workload, and the manual wiring is the point —
it exposes exactly the pieces a scenario assembles for you.

Run with::

    python examples/three_process_walkthrough.py
"""

from __future__ import annotations

from repro.core.config import CoreConfigSpec
from repro.core.node import CoreAllocatorNode
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatencySpec
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder

RESOURCE_NAMES = {0: "r_red", 1: "r_blue"}
PROCESS_NAMES = {0: "s1", 1: "s2", 2: "s3"}


def main() -> None:
    sim = Simulator()
    network = Network(sim, ConstantLatencySpec(gamma=1.0))
    trace = TraceRecorder()
    config = CoreConfigSpec(enable_loan=False)
    nodes = [
        CoreAllocatorNode(
            sim, network, p, num_resources=2, num_processes=3, config=config, trace=trace
        )
        for p in range(3)
    ]
    metrics = MetricsCollector(num_resources=2)

    def enter_cs(process: int, index: int, resources: frozenset, hold: float) -> None:
        metrics.on_issue(sim.now, process, index, resources)
        nodes[process].acquire(
            resources, lambda: _granted(process, index, hold)
        )

    def _granted(process: int, index: int, hold: float) -> None:
        metrics.on_grant(sim.now, process, index)
        sim.schedule(hold, lambda: _done(process, index))

    def _done(process: int, index: int) -> None:
        metrics.on_release(sim.now, process, index)
        nodes[process].release()

    # Initial configuration of Figure 3(a): s1 uses r_red, s3 uses r_blue.
    sim.schedule(0.0, enter_cs, 0, 0, frozenset({0}), 30.0)
    sim.schedule(0.0, enter_cs, 2, 0, frozenset({1}), 30.0)
    # s2 requests both resources while the other two are in CS.
    sim.schedule(5.0, enter_cs, 1, 0, frozenset({0, 1}), 10.0)
    sim.run()

    print("Timeline (state changes and token movements):")
    for event in trace:
        who = PROCESS_NAMES[event.node]
        if event.kind == "state":
            print(f"  t={event.time:6.1f}  {who}: {event.details['frm']} -> {event.details['to']}")
        elif event.kind == "token_sent":
            resource = RESOURCE_NAMES[event.details["resource"]]
            dest = PROCESS_NAMES[event.details["dest"]]
            print(f"  t={event.time:6.1f}  {who}: sends token {resource} to {dest}")
        elif event.kind == "cs_enter":
            resources = [RESOURCE_NAMES[r] for r in event.details["resources"]]
            print(f"  t={event.time:6.1f}  {who}: enters CS with {resources}")
    print()

    print("Final tree roots (Figure 3(c)): ")
    for r, name in RESOURCE_NAMES.items():
        owner = next(PROCESS_NAMES[n.node_id] for n in nodes if r in n.owned_tokens)
        print(f"  {name}: root/owner = {owner}")
    print()

    s2 = metrics.record_for(1, 0)
    print(f"s2 waited {s2.waiting_time:.1f} ms before entering its critical section "
          f"(both neighbours were in CS for 30 ms).")


if __name__ == "__main__":
    main()
