"""Pinned whole runs of the latency and fault kinds the other pins do not reach.

``test_pinned_runs.py`` and ``tests/core/test_forwarding.py`` pin constant
latency and node crashes only, and the telemetry snapshots hold one
kinds-filtered loss.  This grid pins, end to end, every other kind a
scenario can name: jittered latency, hierarchical latency by cluster count
and by explicit map, a partition that heals and one that never does,
unfiltered Bernoulli loss, and a composite of loss, partition and crash
under a heartbeat detector — each under the loan algorithm and under
Bouabdallah–Laforest.  A run is pinned by ``test_pinned_runs.py``'s
fingerprint plus its dropped-message count and how it ended; several of
these runs wedge, and the pin records that as it is.
"""

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import BernoulliLoss, CompositeFaults, LinkPartition, NodeCrash
from repro.sim.latencyspec import HierarchicalLatencySpec, UniformJitterLatencySpec
from repro.workload.params import LoadLevel, WorkloadParams

from tests.integration.test_pinned_runs import fingerprint

AXES = {
    "jitter": dict(latency=UniformJitterLatencySpec(jitter=0.4, seed=3)),
    "hierarchical-clusters": dict(
        latency=HierarchicalLatencySpec(gamma_remote=4.0, num_clusters=3)
    ),
    "hierarchical-map": dict(
        latency=HierarchicalLatencySpec(
            gamma_local=0.3, gamma_remote=5.0, cluster_of=(0, 0, 1, 1, 2, 2, 0, 1)
        )
    ),
    "partition-heals": dict(
        faults=LinkPartition(pairs=((0, 3), (2, 5)), start=200.0, end=500.0)
    ),
    "partition-forever": dict(faults=LinkPartition(pairs=((1, 6),), start=300.0)),
    "loss": dict(faults=BernoulliLoss(p=0.002, seed=4)),
    "composite-hb": dict(
        faults=CompositeFaults(
            (
                BernoulliLoss(p=0.005, seed=2, kinds=("RequestEnvelope", "NTRequest")),
                LinkPartition(pairs=((0, 3),), start=200.0, end=450.0),
                NodeCrash(node=4, at=350.0),
            )
        ),
        detector=HeartbeatDetector(10, 30),
    ),
}


def scenarios():
    """The pinned grid, ``name -> Scenario``."""
    params = WorkloadParams(
        num_processes=8, num_resources=16, phi=4, seed=1,
        duration=1000.0, warmup=100.0, load=LoadLevel.HIGH,
    )
    return {
        f"{algorithm}-{name}": Scenario(
            algorithm, params, require_all_completed=False, **axes
        )
        for algorithm in ("with_loan", "bouabdallah")
        for name, axes in AXES.items()
    }


def pin_of(result):
    """The fingerprint, the messages lost, and how the run ended."""
    end = result.termination
    return (
        fingerprint(result),
        result.messages_dropped,
        (end.reason, end.last_grant, end.waiting, end.abandoned),
    )


PINNED = {
    'bouabdallah-composite-hb': (
        (
            936,
            (('BLInquire', 215), ('BLResourceToken', 211), ('NTRequest', 227), ('NTToken', 94)),
            '015a7ef307008f3c83505c6037f110d652add1c4b205a56eec8439c7333a5f4c',
            '429098d7123b9fa8b014fc79a7cd44c1511647cf9a87ae2ac4575d4caf4c1b62',
        ),
        8,
        ('drained', 516.3629311352878, ((0, 1), (1, 1), (2, 1), (3, 1), (5, 1), (6, 1), (7, 1)), 1),
    ),
    'bouabdallah-hierarchical-clusters': (
        (
            1804,
            (('BLInquire', 425), ('BLResourceToken', 425), ('NTRequest', 396), ('NTToken', 182)),
            '95fabf2da0e0e2ab6b9fb3a49f2adde0ee3639a1057e22bd5fb2ed39728b696b',
            '45f3b6783345d8af93c3a95043cd238befbd5ed6b33b90ab0d5bc1eca73cad8d',
        ),
        0,
        ('drained', 1054.5560255006867, (), 0),
    ),
    'bouabdallah-hierarchical-map': (
        (
            1477,
            (('BLInquire', 345), ('BLResourceToken', 345), ('NTRequest', 333), ('NTToken', 148)),
            '7bf1f673a8b14a889b4211905d3c6fe6f3d13ad0e5a0f1b5e773a844040c0f0b',
            'fd06c46bc5a4f39daca4bbed0a4a00f48a3f24701166bbfca04558ca3715c1b4',
        ),
        0,
        ('drained', 1049.4181827692414, (), 0),
    ),
    'bouabdallah-jitter': (
        (
            2516,
            (('BLInquire', 585), ('BLResourceToken', 585), ('NTRequest', 582), ('NTToken', 252)),
            '3bce393f1f402c81bddac54759cfecaa4d2f7f3a5bc698525118c8f799c7c975',
            'b820610eb2a738feb48fcec5f1a950a1985d01658e0e1790726757e4dc63e4b1',
        ),
        0,
        ('drained', 1030.5076968223873, (), 0),
    ),
    'bouabdallah-loss': (
        (
            2515,
            (('BLInquire', 582), ('BLResourceToken', 582), ('NTRequest', 581), ('NTToken', 254)),
            '3c946be2024126d679a6dad40393ab7af31b1992add3a2f2f4e3bc2f868de420',
            'ca57013bf6199f3b0f3ee69725478adc461276aede18eb0254e7bd38b69d9b18',
        ),
        3,
        ('drained', 1022.2415210039253, (), 0),
    ),
    'bouabdallah-partition-forever': (
        (
            1014,
            (('BLInquire', 223), ('BLResourceToken', 223), ('NTRequest', 255), ('NTToken', 103)),
            '470dbc837f9cf7bb666598ce69fa5fc0e2ab5c4d65aa3ab0e78f519f497d7a42',
            '372e83697c491f69e3075e873519ec07a1f372fff747473d885647b90903a832',
        ),
        2,
        ('drained', 388.1462736255522, ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)), 0),
    ),
    'bouabdallah-partition-heals': (
        (
            1932,
            (('BLInquire', 447), ('BLResourceToken', 447), ('NTRequest', 448), ('NTToken', 192)),
            '1d273374497c3b02e56a087caeeee606c20bf91670cfe837654274687c14b93d',
            'a19b44193bc1b3425c06e3865534892dc0203e3d38db1e651398e85de86dfd9f',
        ),
        0,
        ('drained', 1017.4314909330781, (), 0),
    ),
    'with_loan-composite-hb': (
        (
            2555,
            (('CounterEnvelope', 302), ('RequestEnvelope', 1330), ('TokenEnvelope', 494)),
            '02443d2420d0bd78901e78894282a89b1145cdb5fb14c1cd307c02ca9ab22b00',
            'd37da81958f7cbf488a0dd444b2c36cc36083723a48dccde994947a7427fb11d',
        ),
        6,
        ('drained', 1050.8550577504736, (), 1),
    ),
    'with_loan-hierarchical-clusters': (
        (
            2340,
            (('CounterEnvelope', 259), ('RequestEnvelope', 1289), ('TokenEnvelope', 434)),
            'cd66bace631bd6ceac20aa63e95b28cac35c197867adbf8826b70ec461bf12d0',
            'e6a57bf5d752fe3bf8b15717f86a334c1aec3aefc37c6a6817672dbf5c9bc3d7',
        ),
        0,
        ('drained', 1031.048569185858, (), 0),
    ),
    'with_loan-hierarchical-map': (
        (
            2516,
            (('CounterEnvelope', 271), ('RequestEnvelope', 1427), ('TokenEnvelope', 438)),
            'ab8d925a982a15c7442e4c41eaa540123260873e11694416389338e85f6b74ae',
            '738f36eeb764857d8aa4545e1117afc4520cdbde5b19873ff6cbedc9cd3aaa6c',
        ),
        0,
        ('drained', 1059.1535057324643, (), 0),
    ),
    'with_loan-jitter': (
        (
            3496,
            (('CounterEnvelope', 428), ('RequestEnvelope', 1881), ('TokenEnvelope', 657)),
            'd74dc328148cd77f76cf9883d64caad8c34d69c841e109b0d04dce99764c4c00',
            '449dd63feccd11e50db3ab354c92d52c7af4204bad2bcf9856cc5224420c06e2',
        ),
        0,
        ('drained', 1032.8289136169028, (), 0),
    ),
    'with_loan-loss': (
        (
            3331,
            (('CounterEnvelope', 402), ('RequestEnvelope', 1779), ('TokenEnvelope', 630)),
            '415c930730e20bd648da4dc8c3cb61c6ee55839d2e59b8566b57779cbed23050',
            '36262f073907ba7a91626b64cc57df6e93258692c6093802ab12f4b408449b7c',
        ),
        7,
        ('drained', 1023.8964025203223, (), 0),
    ),
    'with_loan-partition-forever': (
        (
            3014,
            (('CounterEnvelope', 355), ('RequestEnvelope', 1574), ('TokenEnvelope', 589)),
            '3f707ad2d0f884e74012106672b8045c799595325a3c95deecc556b1bf6343c0',
            '11b67ebda99bb99584886c5bd664c7575fa45d2250cf5c0dba6ff9f23118c896',
        ),
        2,
        ('drained', 1002.953063155836, ((1, 1), (6, 1)), 0),
    ),
    'with_loan-partition-heals': (
        (
            2727,
            (('CounterEnvelope', 331), ('RequestEnvelope', 1466), ('TokenEnvelope', 500)),
            '36e123b072252aa535605f9543e1511985302d9736eee16242d414340bc26a8d',
            'acd85f0378e6dcab883a6e53dc2cfeb12c25b40e4baffd7313617a6f3e006ef3',
        ),
        0,
        ('drained', 1044.2983151048456, (), 0),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_matches_pin(name):
    assert pin_of(run(scenarios()[name])) == PINNED[name]


def test_every_scenario_of_the_grid_is_pinned():
    assert sorted(scenarios()) == sorted(PINNED)
