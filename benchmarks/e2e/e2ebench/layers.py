"""Fold a cProfile table into per-layer self time and call counts.

Every profiled call is a span; a function's ``tottime`` is its span minus
its children, so summing ``tottime`` over a layer's functions gives the
layer's self time.  The file a frame comes from decides its layer; C
builtins have no file and are charged to the layer of their direct
caller (``heappush`` called from ``engine.py`` is engine time).
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Tuple

from .spec import LAYERS

_SEP = os.sep
_REPRO = f"{_SEP}repro{_SEP}"

#: Path prefixes under ``repro/`` (first match wins) -> layer.
_RULES = (
    (f"core{_SEP}recovery.py", "core.recovery"),
    (f"core{_SEP}", "core"),
    (f"workload{_SEP}", "workload"),
    (f"sim{_SEP}network.py", "sim.network"),
    (f"sim{_SEP}latency", "sim.network"),
    (f"sim{_SEP}node.py", "sim.network"),
    (f"sim{_SEP}faults", "sim.faults"),
    (f"sim{_SEP}lifecycle.py", "sim.faults"),
    (f"sim{_SEP}detectorspec.py", "sim.faults"),
    (f"sim{_SEP}", "sim.engine"),
    ("allocator.py", "allocator"),
    (f"mutex{_SEP}", "mutex"),
    (f"baselines{_SEP}", "baselines"),
    (f"experiments{_SEP}driver.py", "experiments.driver"),
    (f"experiments{_SEP}", "experiments.runner"),
    (f"metrics{_SEP}", "metrics"),
    (f"parallel{_SEP}", "parallel"),
    (f"obs{_SEP}", "obs"),
)


def layer_of(filename: str) -> str:
    """Layer of a frame's source file; anything outside ``repro`` is ``stdlib``."""
    at = filename.rfind(_REPRO)
    if at < 0:
        return "stdlib"
    relative = filename[at + len(_REPRO):]
    for prefix, layer in _RULES:
        if relative.startswith(prefix):
            return layer
    return "experiments.runner"


def _is_builtin(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~"


def fold(stats: Mapping[Tuple[str, int, str], tuple]) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls, self_share}}``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping each calling function to the ``(cc, nc, tt,
    ct)`` it accounts for.  A builtin called from another builtin (or
    from outside the profile) lands in ``stdlib``.
    """
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if not _is_builtin(func):
            row = table[layer_of(func[0])]
            row["self_s"] += tt
            row["calls"] += nc
            continue
        charged_s, charged_calls = 0.0, 0
        for caller, (_ccc, caller_nc, caller_tt, _cct) in callers.items():
            row = table["stdlib" if _is_builtin(caller) else layer_of(caller[0])]
            row["self_s"] += caller_tt
            row["calls"] += caller_nc
            charged_s += caller_tt
            charged_calls += caller_nc
        table["stdlib"]["self_s"] += tt - charged_s
        table["stdlib"]["calls"] += nc - charged_calls
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["self_share"] = row["self_s"] / total if total > 0 else 0.0
    return table
