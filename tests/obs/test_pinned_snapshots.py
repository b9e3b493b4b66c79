"""Pinned telemetry snapshots: every byte a telemetry-enabled run ships.

Each case stores the sha256 of the snapshot's pickle (what crosses the
``workers=N`` pool and lands in the disk cache) and of its Prometheus
exposition text.  Recorded while the snapshot was still assembled by a
general metrics registry and a pluggable health monitor, so any rewrite
of ``repro.obs`` must keep every sample, series order, float type,
health report and exposition line exactly as it was.

The grid covers each spec knob (node gauges, integer histogram bounds,
stall budget, sampling interval), every algorithm, a permanent crash
with a detector, a recovering blip, message loss with drops, resends and
a degraded ``grant_progress`` check, an open loop with chunked records
and the bundled SWF trace replay.
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
    grid["with_loan-stall50"] = loan.replace(telemetry=TelemetrySpec(stall_after=50.0))
    grid["with_loan-interval7.5"] = loan.replace(
        telemetry=TelemetrySpec(sample_interval=7.5)
    )
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
    # The run's last grant lands ~23 ms before its final sample: a 15 ms
    # budget degrades ``grant_progress`` without making it unhealthy.
    grid["with_loan-loss"] = loan.replace(
        faults=BernoulliLoss(p=0.01, kinds=("RequestEnvelope",)),
        telemetry=TelemetrySpec(stall_after=15.0), require_all_completed=False,
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
        '93f7ca24ccd04efb33e69e62b8ff290d3d25ec3afcfddc93ce205812913d0423',
        'f4a18428fb9f9e4413e60f34fd40458ade93aa1a4a2f5ab57021de454952926e',
    ),
    'incremental-crash-hb': (
        '122b7e38d9988af4f46d80348c2e9702af5ce366f2edfc8ae886b2aa4eac5bd9',
        '6cff3f0edcab72354678c187aa47d033c9dd16dcfe10435324274d5e67f4bdff',
    ),
    'incremental-default': (
        '608611baeff4ccbfd7f47f682d2d4e39ce84c611db887990b4dbd2a4eae3fc8c',
        'f4eac273a7f0e7ec8608a01f5bf879d82d9d923d3e2057631752a8e4f78a104a',
    ),
    'shared_memory-default': (
        'c223c23a1aafb4bebc9d0d6743fbedc99e5d24c7753555b04d431e673417939c',
        '616e83e656f99f51a830b3ece1e700a66822ccbe025e0042318dc29675e2c2e5',
    ),
    'with_loan-blip-hb': (
        '404e639aa8a6699db67119579c48e21f155fe5a18d0547b848a6e546469d4ccb',
        '7bc3d447aebd2fcd03191f1ee404406b9650f24f5ac82902f454aba4e3ecdf39',
    ),
    'with_loan-crash-hb': (
        'eb38eb945b8c3f79529aa1b40e6bd5cd85e8e6c8e00e17f43ebce1e870b8d7c7',
        '109d73218bd644d78d0d3fae030a32c76f3d9f95eb4537e9b59c110f796db19b',
    ),
    'with_loan-default': (
        'c15b7cf19857e4c1f40b0f97afd93f32d10767018c431a355fd4d0a3e59b0da5',
        '99332bbece38776dfdbe2f2c57e1db00f65e19b2fa939c12bedcf0e398dec500',
    ),
    'with_loan-int-buckets': (
        '9cc4838c96fdcc3e6d7936c81e784513cc694d662255477f9bdcda8f712c0c80',
        'beb8aac6f15a630842f42cf7e5ac39c21672874243292504eb4eb167ba2ef4f0',
    ),
    'with_loan-interval7.5': (
        'e165f64028c18ff4f559ba68847db914d840103b723b3119023e7a243da2a698',
        'a82668c22104ac27467ed00f9aa5882cabbe4b3c574a7f39250c862d959a0d8c',
    ),
    'with_loan-loss': (
        '6b4c2f9b2cbfaa51bb623d0f8f387b49b59796456cdf7ae1ccb7debd2ee33837',
        'aa635f897e71f5d6a038fe142c1e3c60b2439192eec0cba7fab48de8ae3f340b',
    ),
    'with_loan-no-node-gauges': (
        'ad306cffd6daa43f481feb748ec5a15c0ecb6fee8bd8591d28870bd794e3ba1a',
        'b0df0a4211b2c973045e19eb8103a9934e8dd233d2231f37c67574a378280301',
    ),
    'with_loan-open-chunk16': (
        '12385928bd62a5717d61d1f36d960cb46190412c0c774968c0b5f74d26ffb284',
        '10f9edb5d8cc8715ba13397dcfd6575ef1eae852281b4cb5a1be21692a796879',
    ),
    'with_loan-stall50': (
        'c15b7cf19857e4c1f40b0f97afd93f32d10767018c431a355fd4d0a3e59b0da5',
        '99332bbece38776dfdbe2f2c57e1db00f65e19b2fa939c12bedcf0e398dec500',
    ),
    'with_loan-swf': (
        '3c97211fa99349346db71a928d3b7e089a1b128c891cd371d714734d599bbf85',
        '5b5b56bdff91f541415c585ecd509260865bce31431bb98fe4d84609a1070b2c',
    ),
    'without_loan-default': (
        'ee3321c9fa73b9e3503482ecadda299dc4a30acf906eafbd3cb31aa23057850b',
        '869f6532d6de7ab5bfb217c328f6d1a5eb5fb365c44e0b2f52fc32ce43226566',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_snapshot_matches_pin(name):
    assert fingerprint(run(scenarios()[name]).telemetry) == PINNED[name]


def test_every_scenario_of_the_grid_is_pinned():
    assert sorted(scenarios()) == sorted(PINNED)
