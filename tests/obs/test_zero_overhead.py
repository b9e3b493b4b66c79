"""Differential zero-overhead pins: disabled telemetry is provably inert.

Three layers of the contract:

* a default run never even *imports* ``repro.obs`` (checked in a clean
  subprocess — the seam is a ``None`` attribute, not a lazy import that
  happens anyway), and no environment variable can change that: a run
  is a pure function of its scenario;
* the canonical no-telemetry run is bit-identical with the obs package
  importable vs. **stubbed out entirely** (a meta-path blocker makes
  ``import repro.obs`` raise), so a deployment could delete the package
  without changing a single default result;
* within one process, running with telemetry enabled leaves record
  columns and message accounting identical to the disabled run (the
  probe reads counters, it never perturbs the protocol).

The call-count pin (zero ``repro/obs`` frames on a default run) lives in
``tests/integration/test_call_contracts.py``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import WorkloadParams

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")

#: One small closed-loop scenario, shared by every differential below.
SCENARIO_SRC = (
    "Scenario(algorithm='with_loan', params=WorkloadParams("
    "num_processes=6, num_resources=12, phi=3, duration=400.0, "
    "warmup=50.0, seed=7))"
)

#: Subprocess body: run the scenario, print a digest of everything the
#: run produced that the cache/figures consume, whether ``repro.obs``
#: got imported, and the scheduler the run's simulator was built with.
#: ``{blocker}`` is replaced by the import-blocker preamble (or nothing).
RUN_AND_DIGEST = """
import hashlib, pickle, sys
{blocker}
from repro.experiments import runner
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.workload.params import WorkloadParams

schedulers = []
class _SpySimulator(runner.Simulator):
    def __init__(self, scheduler=None):
        super().__init__(scheduler)
        schedulers.append(self.scheduler_name)
runner.Simulator = _SpySimulator

result = run({scenario})
assert result.telemetry is None
payload = pickle.dumps((
    result.record_columns,
    result.metrics,
    result.simulated_time,
    result.events_processed,
    result.resend_count,
))
print(hashlib.sha256(payload).hexdigest())
print('obs-imported' if any(m == 'repro.obs' or m.startswith('repro.obs.')
                            for m in sys.modules) else 'obs-clean')
print(','.join(schedulers))
"""

BLOCKER = """
class _BlockObs:
    def find_module(self, fullname, path=None):
        if fullname == 'repro.obs' or fullname.startswith('repro.obs.'):
            return self
        return None
    def find_spec(self, fullname, path=None, target=None):
        if fullname == 'repro.obs' or fullname.startswith('repro.obs.'):
            raise ImportError('repro.obs is stubbed out in this process')
        return None
sys.meta_path.insert(0, _BlockObs())
"""


#: Environment variables named after a telemetry switch and a scheduler
#: choice.  A run must ignore them: only its scenario configures it.
HOSTILE_ENV = {"REPRO_TELEMETRY": "1", "REPRO_SCHEDULER": "calendar"}


def run_subprocess(blocker: str, hostile: bool = False) -> tuple:
    """Run the canonical scenario in a fresh interpreter.

    Returns ``(digest, imports, schedulers)``.  ``hostile`` sets
    :data:`HOSTILE_ENV`; otherwise those variables are removed.
    """
    code = RUN_AND_DIGEST.format(blocker=blocker, scenario=SCENARIO_SRC)
    env = {k: v for k, v in os.environ.items() if k not in HOSTILE_ENV}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if hostile:
        env.update(HOSTILE_ENV)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return tuple(out.stdout.split())


class TestObsStubbedOut:
    def test_default_run_bit_identical_with_obs_blocked(self):
        digest_normal, _, _ = run_subprocess(blocker="")
        digest_blocked, imports_blocked, _ = run_subprocess(blocker=BLOCKER)
        assert digest_normal == digest_blocked
        assert imports_blocked == "obs-clean"

    def test_default_run_never_imports_obs(self):
        _, imports, _ = run_subprocess(blocker="")
        assert imports == "obs-clean"

    def test_default_run_ignores_hostile_environment(self):
        # The subprocess itself asserts ``result.telemetry is None``.
        clean = run_subprocess(blocker="")
        hostile = run_subprocess(blocker="", hostile=True)
        assert hostile == clean
        assert hostile[1:] == ("obs-clean", "heap")


class TestInProcessInertness:
    @pytest.fixture()
    def scenario(self) -> Scenario:
        return Scenario(
            algorithm="with_loan",
            params=WorkloadParams(
                num_processes=6,
                num_resources=12,
                phi=3,
                duration=400.0,
                warmup=50.0,
                seed=7,
            ),
        )

    def test_disabled_run_has_no_snapshot(self, scenario):
        result = run(scenario)
        assert result.telemetry is None

    def test_enabled_run_matches_disabled_run(self, scenario):
        from repro.obs import TelemetrySpec

        off = run(scenario)
        on = run(scenario.replace(telemetry=TelemetrySpec(sample_interval=25.0)))
        assert on.telemetry is not None
        assert pickle.dumps(off.record_columns) == pickle.dumps(on.record_columns)
        assert off.metrics == on.metrics
        assert off.resend_count == on.resend_count
