"""Base class for simulated processes (nodes), and of the messages they send.

The paper's model has one process per node; the two words are used
interchangeably (Section 3.1).  A :class:`Node` owns a reference to the
simulator and the network, can send messages, and dispatches incoming
messages to ``on_<MessageClassName>`` handler methods.  A node's timers
are the simulator's events: ``self.sim.schedule(delay, callback)``
returns the sequence number that ``self.sim.cancel`` takes back.

A node has one way to send: :attr:`Node.send` is
``functools.partial(network.send, node_id)``, bound once in
``Node.__init__``, so a handler's send enters the network's bound send
function directly, with no frame of the node's in between (see
:mod:`repro.sim.network`).

Dispatch is by message *class*, so every protocol's messages are
:class:`Record` subclasses: tuple-backed, immutable, built by one C call,
and equal only to records of their own class.

Nodes are also the unit of *failure*: when a scenario's fault spec
declares node outages (:meth:`repro.sim.faults.FaultSpec.crash_windows`),
the :class:`~repro.sim.lifecycle.NodeLifecycle` layer delivers
``on_crash(time)`` and ``on_recover(time)`` at the edges of each window
to every participant that defines them.  The base class defines neither,
and ``NodeLifecycle.is_down`` is the one place that knows whether a node
is down.  Participants define the hooks to suspend and restore their
local timers and to drop volatile state (e.g. the reboot of
:class:`repro.core.recovery.RecoverableCoreNode`); the network side of an
outage (sends lost, deliveries held until the reboot) is the fault
layer's (:mod:`repro.sim.faults`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.network import Network


class Record:
    """Base of every protocol message: a ``namedtuple`` with class-aware equality.

    A message class is ``class M(Record, namedtuple("M", "field ..."))``
    with ``__slots__ = ()``: its instances are tuples, so a send site can
    build one with ``tuple.__new__(M, (field, ...))`` (one C call, no
    Python frame) and a handler reads its fields through C-level tuple
    getters.  A plain tuple subclass would compare equal to any tuple with
    the same items; a record is equal only to a record of its own class,
    so ``message.__class__`` — the key of by-class dispatch, of the
    network's per-type counters and of the ``kinds=`` loss filters — is
    part of its value.  ``tests/core/test_messages.py`` pins the contract
    for every message class.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Node:
    """A simulated process attached to a network.

    Subclasses implement message handlers named ``on_<ClassName>`` where
    ``<ClassName>`` is the class name of the message object, e.g. a
    ``ReqCnt`` message is handled by ``on_ReqCnt(self, src, msg)``.  A
    subclass may instead override :meth:`deliver` entirely.

    ``send(dst, message)`` sends a message to node ``dst`` over the
    network and returns its delivery time; it is an instance attribute,
    ``partial(network.send, node_id)``, not a method.
    """

    def __init__(self, sim: Simulator, network: Network, node_id: int) -> None:
        self.sim = sim
        self.network = network
        self.node_id = int(node_id)
        # The network binds its send function once; a node binds its own
        # id to it once, so sending costs no frame of the node's.
        self.send: Callable[[int, Any], float] = partial(network.send, self.node_id)
        network.register(self)

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _resolve_handler(self, cls: type) -> Callable[[int, Any], None]:
        """The bound handler for a message class.

        Raises ``NotImplementedError`` when no handler exists, which makes
        protocol wiring errors fail loudly instead of silently dropping
        messages.  The network resolves each (destination, class) once
        through this and queues the handler itself, so the sends skip
        per-message dispatch entirely.
        """
        handler: Optional[Callable[[int, Any], None]] = getattr(
            self, f"on_{cls.__name__}", None
        )
        if handler is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no handler for message {cls.__name__!r}"
            )
        return handler

    def deliver(self, src: int, message: Any) -> None:
        """Dispatch an incoming message to ``on_<ClassName>``."""
        self._resolve_handler(message.__class__)(src, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.node_id}>"
