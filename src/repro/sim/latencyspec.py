"""Re-exports of :mod:`repro.sim.latency`, the module that defines the latency specs."""

from repro.sim.latency import *  # noqa: F401,F403
from repro.sim.latency import __all__  # noqa: F401
