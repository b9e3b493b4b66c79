"""Pinned telemetry snapshots: every byte a telemetry-enabled run ships.

Each case stores the sha256 of the snapshot's pickle (what crosses the
``workers=N`` pool and lands in the disk cache) and of its Prometheus
exposition text.  Recorded while the snapshot was still assembled by a
general metrics registry and a pluggable health monitor, so any rewrite
of ``repro.obs`` must keep every sample, series order, float type,
health report and exposition line exactly as it was.

The grid covers each spec knob (node gauges, integer histogram bounds,
stall budget), every algorithm, a permanent crash with a detector, a
recovering blip, message loss with drops and resends, an open loop with
chunked records and the bundled SWF trace replay, and every
``grant_progress`` verdict: healthy (the defaults), degraded (the loss
run) and unhealthy (the tight stall budget).
"""

import hashlib
import os
import pickle

import pytest

from repro.experiments.registry import ALGORITHMS
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.obs import TelemetrySpec
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import BernoulliLoss, NodeCrash
from repro.workload.arrivals import PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

SAMPLE_TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
    "data",
    "sample.swf",
)

PARAMS = WorkloadParams(
    num_processes=8, num_resources=20, phi=4, seed=1,
    duration=1500.0, warmup=150.0, load=LoadLevel.HIGH,
)


def scenarios():
    """The pinned grid, ``name -> Scenario``."""
    spec = TelemetrySpec()
    grid = {
        f"{algorithm}-default": Scenario(algorithm, PARAMS, telemetry=spec)
        for algorithm in ALGORITHMS
    }
    loan = Scenario("with_loan", PARAMS)
    grid["with_loan-no-node-gauges"] = loan.replace(
        telemetry=TelemetrySpec(node_gauges=False)
    )
    grid["with_loan-int-buckets"] = loan.replace(
        telemetry=TelemetrySpec(wait_buckets=(1, 3, 10))
    )
    # The run's last grant lands 16.55 ms before its end: a 5 ms budget
    # makes ``grant_progress`` unhealthy.
    grid["with_loan-stall5"] = loan.replace(telemetry=TelemetrySpec(stall_after=5.0))
    for algorithm in ("with_loan", "incremental"):
        grid[f"{algorithm}-crash-hb"] = Scenario(
            algorithm, PARAMS, faults=NodeCrash(node=2, at=300.0),
            detector=HeartbeatDetector(10, 30), telemetry=spec,
            require_all_completed=False,
        )
    grid["with_loan-blip-hb"] = loan.replace(
        faults=NodeCrash(node=2, at=300.0, recover_at=500.0),
        detector=HeartbeatDetector(10, 30), telemetry=spec,
        require_all_completed=False,
    )
    # The run's last grant lands 8.42 ms before its end: a 5 ms budget
    # degrades ``grant_progress`` without making it unhealthy.
    grid["with_loan-loss"] = loan.replace(
        faults=BernoulliLoss(p=0.01, kinds=("RequestEnvelope",)),
        telemetry=TelemetrySpec(stall_after=5.0), require_all_completed=False,
    )
    grid["with_loan-open-chunk16"] = loan.replace(
        workload=OpenLoopSpec(arrival=PoissonArrivals(rate=0.03)),
        record_chunk_rows=16, telemetry=spec,
    )
    grid["with_loan-swf"] = Scenario(
        "with_loan",
        WorkloadParams(
            num_processes=8, num_resources=20, phi=4, seed=1, duration=4000.0, warmup=400.0
        ),
        workload=TraceReplaySpec(path=SAMPLE_TRACE),
        telemetry=spec,
    )
    return grid


def fingerprint(snapshot):
    """``(sha256 of the pickle, sha256 of the exposition text)``."""
    return (
        hashlib.sha256(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest(),
        hashlib.sha256(snapshot.render_text().encode("utf-8")).hexdigest(),
    )


PINNED = {
    'bouabdallah-default': (
        '4f753738ae6b49ff9761e579dea4829bada1fe7cc36ee3c774d7a40b736117c9',
        '687baa9425d73023cadf90c4addb8511af074379fa4ad6ea01c2b0bcd42747de',
    ),
    'incremental-crash-hb': (
        '22dd2bb3615508fef621773ac26f02f8739a020328a58511d052c2d05d2a1439',
        '7df53936204f6c6f33938b2d4b65bdf92eec30325131435e27c2d759cde511e1',
    ),
    'incremental-default': (
        'dc40034090f24e8530a0646bb1ae64916f06c2678156a09ca7463a31a547adb4',
        '9e5b81045ef607fe71682cdf20f76c838a5678d20f4518f8a3017b6592d569d2',
    ),
    'shared_memory-default': (
        'f445663d848e34d4453b962b546e7f0d150ad30e8ba41e5704543218799709ef',
        'ac321a4a0fbdcaab7c12b1cd0d35ead59e2a9ed281ee950cb0ea1187c8ff310c',
    ),
    'with_loan-blip-hb': (
        '9359c95bc89d0184118da604b2e4dd5177c6daea3b6ed0434a283fe656223d4f',
        '6c8991c931d040531c9f9d820e671a7c5227295585d6cceac2a40a2b8224516a',
    ),
    'with_loan-crash-hb': (
        'e56d4de668716de6b8f60453aa3ca2c08634e7de3f4bd002b1a62d5e913095c2',
        '69e757fe5b86b7ed4cc775874025e33af890e82945a83e098aa73992e4424ed6',
    ),
    'with_loan-default': (
        'acf041f9e2ad211e000c9c12c81b5b32e3c9591ec55651f3adf18760b8880935',
        '9bc645297db007c8ad105d7c465d6fb8f7b808ba037123781856ba5a9194d222',
    ),
    'with_loan-int-buckets': (
        'c4d2a49e17958d7d7156e7f8b5557c7d18b020d6925b347e674b0a2d766e1564',
        '450a1598dd200bc05a67921962a61598480a6d83f06c85f7c637c318e7f0c425',
    ),
    'with_loan-loss': (
        'e082cff37cc4544a6e296af12174ca3f24a092447fa74b16f34fd810f7ab32ab',
        '56b041cdc75b9214848816bde6d83fb1dc4d454a06459020d7bc333e4e6f1369',
    ),
    'with_loan-no-node-gauges': (
        'b7a2b0d70350e097925e55a6cacadca9e3632b6c2308c5263b7433b4916be820',
        '6cbb2ae533af9c72e1677a6ed24c4d6c0558f4233a405a5b0d1113e373d5f100',
    ),
    'with_loan-open-chunk16': (
        '472d936749a28de60ed0739591b9f1b6deaa35dd8b43082a305c4ea617b2115e',
        '454017de3ac32b7d6452c2111a5110bf5933cee4775fe0d4302df8605e12ff0b',
    ),
    'with_loan-stall5': (
        '6e3604849d06e7b4624c4e36b9cf4a37bc8ef50ac7132fc7d3f58f112743f5d8',
        'ac4dd6a909bb142a94c04b8f0bbc37fc2c050be2fcdbef6c86900a190da06a71',
    ),
    'with_loan-swf': (
        '96f1d0a1d41cbe1020b910e6c18a90d749890d886d83a47887fd925b6a14cac6',
        '7f6bab26f1ee6d0fb54eb26f438bc9bca24b01ade947df1811562477526230bc',
    ),
    'without_loan-default': (
        '610d9bbfa314e9b8c9b0593e764f49cffb2cb893c754cc9f44b06c036ef358f6',
        'd77b8b394e13b62e58110771e0e952eb07b832743312b8ec3f6a6523ff8582cc',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_snapshot_matches_pin(name):
    assert fingerprint(run(scenarios()[name]).telemetry) == PINNED[name]


def test_every_scenario_of_the_grid_is_pinned():
    assert sorted(scenarios()) == sorted(PINNED)
