"""Base class for simulated processes (nodes).

The paper's model has one process per node; the two words are used
interchangeably (Section 3.1).  A :class:`Node` owns a reference to the
simulator and the network, can send messages, set timers, and dispatches
incoming messages to ``on_<MessageClassName>`` handler methods.

Nodes are also the unit of *failure*: when a scenario's fault spec
declares node outages (:meth:`repro.sim.faults.FaultSpec.crash_windows`),
the :class:`~repro.sim.lifecycle.NodeLifecycle` layer delivers
:meth:`Node.on_crash` at the start of each window and
:meth:`Node.on_recover` at its end.  The base implementations only flip
the :attr:`crashed` flag; protocol subclasses override them to suspend
and restore their local timers (e.g. the resend safety net of
:class:`repro.core.node.CoreAllocatorNode`) so a dead node does not keep
computing while its network is cut.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.network import Network


class Node:
    """A simulated process attached to a network.

    Subclasses implement message handlers named ``on_<ClassName>`` where
    ``<ClassName>`` is the class name of the message object, e.g. a
    ``ReqCnt`` message is handled by ``on_ReqCnt(self, src, msg)``.  A
    subclass may instead override :meth:`deliver` entirely.
    """

    def __init__(self, sim: Simulator, network: Network, node_id: int) -> None:
        self.sim = sim
        self.network = network
        self.node_id = int(node_id)
        self._crashed = False
        # message class -> bound on_<ClassName> handler, so dispatch pays
        # one dict hit per message instead of an f-string + getattr.
        self._handler_cache: dict = {}
        network.register(self)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def crashed(self) -> bool:
        """Whether the node is currently down (inside a crash window)."""
        return self._crashed

    def on_crash(self, time: float) -> None:
        """Lifecycle callback: the node halts at simulated ``time``.

        Delivered by :class:`~repro.sim.lifecycle.NodeLifecycle` at the
        start of a crash window.  Subclasses override this to cancel
        their local timers (and must call ``super().on_crash(time)``);
        the network side of the crash (no sends, no deliveries) is
        enforced independently by the fault layer.
        """
        self._crashed = True

    def on_recover(self, time: float) -> None:
        """Lifecycle callback: the node reboots at simulated ``time``.

        Delivered at the end of a finite crash window.  Subclasses
        override this to discard volatile protocol state and re-arm
        timers (and must call ``super().on_recover(time)``).
        """
        self._crashed = False

    # ------------------------------------------------------------------ #
    # communication helpers
    # ------------------------------------------------------------------ #
    def send(self, dst: int, message: Any) -> None:
        """Send a message to node ``dst`` over the network."""
        self.network.send(self.node_id, dst, message)

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule a local callback ``delay`` time units from now."""
        return self.sim.schedule(delay, callback, *args)

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _resolve_handler(self, cls: type) -> Callable[[int, Any], None]:
        """Resolve (and cache) the bound handler for a message class.

        Raises ``NotImplementedError`` when no handler exists, which makes
        protocol wiring errors fail loudly instead of silently dropping
        messages.  Also used by the network's constant send to skip
        per-message dispatch entirely.
        """
        handler: Optional[Callable[[int, Any], None]] = getattr(
            self, f"on_{cls.__name__}", None
        )
        if handler is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no handler for message {cls.__name__!r}"
            )
        self._handler_cache[cls] = handler
        return handler

    def deliver(self, src: int, message: Any) -> None:
        """Dispatch an incoming message to ``on_<ClassName>``."""
        cls = message.__class__
        handler = self._handler_cache.get(cls)
        if handler is None:
            handler = self._resolve_handler(cls)
        handler(src, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id}>"
