"""Deterministic random-number streams.

Experiments must be reproducible run-to-run; a single shared RNG would make
the workload of node 3 depend on how many random draws node 2 happened to
make.  :class:`RandomStreams` therefore derives one independent
:class:`random.Random` per named stream from a master seed, so changing one
component's consumption pattern never perturbs another's.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of named, independently seeded random streams.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> a = streams.stream("workload", 0)
    >>> b = streams.stream("workload", 1)
    >>> a is streams.stream("workload", 0)
    True
    >>> a is b
    False
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @staticmethod
    def _derive(master_seed: int, key: str) -> int:
        digest = hashlib.sha256(f"{master_seed}/{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str, index: int | None = None) -> random.Random:
        """Return (creating if needed) the stream identified by ``name``/``index``."""
        key = name if index is None else f"{name}#{index}"
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(self._derive(self.master_seed, key))
            self._streams[key] = rng
        return rng
