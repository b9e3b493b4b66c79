"""Message-count identities of the two baselines built on Naimi–Tréhel.

Each identity follows from the protocol, not from a calibration, so it
must hold on every drained run:

* Bouabdallah–Laforest: an ``INQUIRE`` is answered by exactly one resource
  token (at once, or at the end of the holder's critical section), so
  ``BLInquire == BLResourceToken``; the control token moves at most once
  per request, and not at all when the requester already holds it, so
  ``NTToken <= completed``.
* incremental: a Naimi–Tréhel token only moves to answer a request, and a
  request may be forwarded before it is answered, so
  ``NTToken <= NTRequest``.

The grid is fixed (no drawing): N/M in {4/6, 8/20, 32/80}, phi in
{1, 4, 8, M} capped at M, both loads, seeds 1-3, duration 800.
"""

import pytest

from repro.experiments import Scenario, run
from repro.workload.params import LoadLevel, WorkloadParams

SIZES = ((4, 6), (8, 20), (32, 80))
SEEDS = (1, 2, 3)


def grid(num_processes, num_resources):
    """Every workload of the grid for one N/M."""
    for phi in sorted({min(p, num_resources) for p in (1, 4, 8, num_resources)}):
        for load in (LoadLevel.MEDIUM, LoadLevel.HIGH):
            for seed in SEEDS:
                yield WorkloadParams(
                    num_processes=num_processes,
                    num_resources=num_resources,
                    phi=phi,
                    duration=800.0,
                    warmup=100.0,
                    load=load,
                    seed=seed,
                )


def bouabdallah_violations(result):
    sent = result.metrics.messages_by_type
    problems = []
    if sent.get("BLInquire", 0) != sent.get("BLResourceToken", 0):
        problems.append(f"BLInquire {sent.get('BLInquire', 0)} != "
                        f"BLResourceToken {sent.get('BLResourceToken', 0)}")
    if sent.get("NTToken", 0) > result.metrics.completed:
        problems.append(f"NTToken {sent['NTToken']} > completed {result.metrics.completed}")
    return problems


def incremental_violations(result):
    sent = result.metrics.messages_by_type
    if sent.get("NTToken", 0) > sent.get("NTRequest", 0):
        return [f"NTToken {sent['NTToken']} > NTRequest {sent.get('NTRequest', 0)}"]
    return []


IDENTITIES = {"bouabdallah": bouabdallah_violations, "incremental": incremental_violations}


@pytest.mark.parametrize("size", SIZES, ids=[f"{n}x{m}" for n, m in SIZES])
@pytest.mark.parametrize("algorithm", sorted(IDENTITIES))
def test_message_count_identities(algorithm, size):
    failures = []
    for params in grid(*size):
        result = run(Scenario(algorithm=algorithm, params=params))
        termination = result.termination
        problems = IDENTITIES[algorithm](result)
        if termination.reason != "drained" or termination.waiting:
            problems.append(f"did not drain: {termination.progress()}")
        if problems:
            failures.append(f"phi={params.phi} load={params.load.value} "
                            f"seed={params.seed}: {'; '.join(problems)}")
    assert not failures, "\n".join(failures)
