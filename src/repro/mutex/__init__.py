"""Single-resource distributed mutual-exclusion substrates.

The paper's evaluation uses the Naimi–Tréhel token algorithm twice:

* the *incremental* baseline runs ``M`` independent instances (one per
  resource) and locks resources in a global total order;
* the *Bouabdallah–Laforest* baseline uses one instance to circulate its
  global *control token*.

:class:`~repro.mutex.naimi_trehel.NaimiTrehelInstance` implements the
algorithm as an embeddable component: it is owned by a host
:class:`~repro.sim.node.Node` and sends/receives its messages through
callbacks provided by the host, so several instances can be multiplexed
over a single simulated process exactly as a real implementation would
multiplex them over one MPI rank.
"""

from repro.mutex.naimi_trehel import MutexError, NaimiTrehelInstance, NTRequest, NTToken

__all__ = [
    "MutexError",
    "NaimiTrehelInstance",
    "NTRequest",
    "NTToken",
]
