"""Re-exports of :mod:`repro.sim.faults`, the module that defines the fault specs."""

from repro.sim.faults import *  # noqa: F401,F403
from repro.sim.faults import __all__  # noqa: F401
