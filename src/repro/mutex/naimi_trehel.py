"""Naimi–Tréhel token-based mutual exclusion.

Reference: M. Naimi and M. Tréhel, "An improvement of the log(n)
distributed algorithm for mutual exclusion" (ICDCS 1987) — reference [18]
of the paper.  Each process keeps two pointers:

* ``owner`` — the *probable owner* (father in a dynamic logical tree); the
  process that is, as far as this node knows, the last requester and hence
  the one that will eventually hold the token.  ``None`` means this node is
  the root.
* ``next`` — the process to hand the token to after the local critical
  section, forming a distributed FIFO queue of pending requests.

Requests travel along ``owner`` pointers to the root; the token travels
directly along the ``next`` chain.  Message complexity is O(log N) on
average, which is why the paper picks it both for the incremental baseline
and for circulating Bouabdallah–Laforest's control token.

Crash-recovery support
----------------------
The instance exposes primitives consumed by the host allocator's
crash-recovery interface (see :mod:`repro.core.recovery`):
:meth:`NaimiTrehelInstance.reset_after_crash` (reboot of the host),
:meth:`~NaimiTrehelInstance.regenerate_token` (rebuild a token lost with
its crashed holder), :meth:`~NaimiTrehelInstance.repoint_after_loss`
(survivor-side rebuild of the waiting chain and probable-owner pointers)
and :meth:`~NaimiTrehelInstance.fence_token` (discard stale ownership on
a late reboot).  Because Naimi–Tréhel requests are *not* idempotent —
the waiting queue is a distributed ``next`` chain, not a set — recovery
rebuilds the chain globally from the surviving requesters instead of
re-sending requests; the message handlers below carry guards (never
overwrite an occupied ``next``, never hand out a token the node does not
hold) so that stale in-flight requests arriving after a rebuild degrade
to a dropped request rather than a duplicated token.  The guards are
unreachable in fault-free runs, which therefore stay bit-identical.

Messages
--------
The two message classes are tuple-backed records
(:class:`repro.sim.node.Record`), built at their three send sites with
``tuple.__new__`` — one C call, no constructor frame.  The network has
already dispatched a message by class when the host's ``on_NTRequest`` /
``on_NTToken`` handler runs, so the host hands it straight to
:meth:`NaimiTrehelInstance.receive_request` or
:meth:`~NaimiTrehelInstance.receive_token`; nothing dispatches it twice.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable, Hashable, Optional

from repro.sim.node import Record

_tuple_new = tuple.__new__


class MutexError(RuntimeError):
    """Raised on invalid use of a mutex instance (double request, etc.)."""


class NTRequest(Record, namedtuple("NTRequest", "instance requester")):
    """Request message: ``requester`` asks for the CS of ``instance``."""

    __slots__ = ()

    instance: Hashable
    requester: int


class NTToken(Record, namedtuple("NTToken", "instance payload epoch", defaults=(None, 0))):
    """The unique token of ``instance``; ``payload`` travels with it.

    ``epoch`` is the fencing epoch of this token incarnation, bumped by
    every regeneration (:mod:`repro.core.recovery`); receivers ignore
    tokens older than the epoch they last witnessed.  Always ``0`` in
    crash-free runs.  The payload object itself travels, not a copy
    (Bouabdallah–Laforest's control vector is a list, which also makes
    such a token unhashable).
    """

    __slots__ = ()

    instance: Hashable
    payload: Any
    epoch: int


class NaimiTrehelInstance:
    """One embeddable Naimi–Tréhel instance.

    The instance lives inside a host node and talks only through the
    host: it emits messages with ``send_fn(dst, message)``, and the host
    passes every incoming message for it to :meth:`receive_request` or
    :meth:`receive_token`, by the message's class.

    Parameters
    ----------
    instance_id:
        Identifier used to tag messages (e.g. the resource id).
    node_id:
        Id of the host process.
    send_fn:
        Callback ``send_fn(dst, message)`` used to emit protocol messages.
    initial_holder:
        Process that owns the token at time zero (the *elected node*).
    on_token_received:
        Optional hook invoked with the token payload whenever the token
        arrives, before the acquisition callback; used by the
        Bouabdallah–Laforest control token to read/update its vector.
    """

    def __init__(
        self,
        instance_id: Hashable,
        node_id: int,
        send_fn: Callable[[int, Any], None],
        initial_holder: int = 0,
        on_token_received: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.instance_id = instance_id
        self.node_id = int(node_id)
        self._send = send_fn
        self._has_token = node_id == initial_holder
        self.owner: Optional[int] = None if self._has_token else initial_holder
        self.next: Optional[int] = None
        self._requesting = False
        self._in_cs = False
        self._on_acquired: Optional[Callable[[], None]] = None
        self._on_token_received = on_token_received
        self.token_payload: Any = None
        # Highest token epoch witnessed (fencing against stale copies of
        # regenerated tokens; stays 0 in crash-free runs).
        self._token_epoch = 0

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def has_token(self) -> bool:
        """Whether this instance currently holds the token."""
        return self._has_token

    @property
    def in_critical_section(self) -> bool:
        """Whether the host process is inside this instance's CS."""
        return self._in_cs

    @property
    def requesting(self) -> bool:
        """Whether a request is outstanding (waiting for the token)."""
        return self._requesting

    # ------------------------------------------------------------------ #
    # public protocol
    # ------------------------------------------------------------------ #
    def request(self, on_acquired: Callable[[], None]) -> None:
        """Request the critical section; ``on_acquired`` fires exactly once."""
        if self._requesting or self._in_cs:
            raise MutexError(
                f"instance {self.instance_id!r} at node {self.node_id}: "
                "request while a request is already outstanding"
            )
        self._on_acquired = on_acquired
        if self.owner is None:
            # This node is the root: it holds the token and nobody else is
            # ahead of it, so it enters the CS immediately.
            if not self._has_token:
                # Root without token only happens while waiting for the
                # token to arrive, which implies _requesting — excluded
                # above.  Defensive guard.
                raise MutexError("root node without token outside of a request")
            self._enter_cs()
        else:
            self._requesting = True
            self._send(self.owner, _tuple_new(NTRequest, (self.instance_id, self.node_id)))
            self.owner = None

    def release(self) -> None:
        """Exit the critical section, handing the token to ``next`` if any."""
        if not self._in_cs:
            raise MutexError(
                f"instance {self.instance_id!r} at node {self.node_id}: release outside CS"
            )
        self._in_cs = False
        if self.next is not None:
            self._hand_token(self.next)
            self.next = None

    # ------------------------------------------------------------------ #
    # message handling (the host calls these from its on_NT* handlers)
    # ------------------------------------------------------------------ #
    def receive_request(self, requester: int) -> None:
        """An :class:`NTRequest` of ``requester`` arrived for this instance."""
        if requester == self.node_id:
            # Own request echoed back through stale post-recovery pointers;
            # unreachable in fault-free runs.
            return
        if self.owner is None:
            # This node is the root.
            if self._requesting or self._in_cs or not self._has_token:
                # The requester will receive the token right after us.  An
                # occupied ``next`` (or a root transiently without the
                # token) only happens for stale requests arriving after a
                # recovery chain rebuild, whose requester is already
                # queued: dropping beats corrupting the rebuilt chain.
                if self.next is None:
                    self.next = requester
            else:
                # Idle root: hand over the token directly.
                self._hand_token(requester)
        else:
            # Forward along the probable-owner chain.
            self._send(self.owner, _tuple_new(NTRequest, (self.instance_id, requester)))
        self.owner = requester

    def receive_token(self, token: NTToken) -> None:
        """The token of this instance arrived."""
        if token.epoch < self._token_epoch:
            # Stale copy of a lost-and-regenerated token: a newer
            # incarnation exists elsewhere; absorbing this one would
            # resurrect a second token.  Unreachable in crash-free runs.
            return
        self._token_epoch = token.epoch
        self._has_token = True
        self.token_payload = token.payload
        if self._on_token_received is not None:
            self._on_token_received(token.payload)
        if not self._requesting:
            # Fault-free, a token only ever arrives at a requester; after a
            # crash recovery it may chase a stale queue entry into a node
            # that no longer requests.  Pass it on to our successor if we
            # have one; otherwise absorb it as the idle *root* (owner
            # pointer cleared) so future requests find a grantable holder
            # instead of a parked token.
            if self.next is not None:
                self._hand_token(self.next)
                self.owner = self.next
                self.next = None
            else:
                self.owner = None
            return
        self._requesting = False
        self._enter_cs()

    # ------------------------------------------------------------------ #
    # crash-recovery primitives (see the module docstring)
    # ------------------------------------------------------------------ #
    def reset_after_crash(self) -> None:
        """Reboot handler: volatile request state died with the host.

        The token, its payload and the ``next`` queue entry are durable
        (stable storage); an interrupted critical section is abandoned,
        so a held token is handed straight to the queued successor, if
        any (which also becomes the probable owner — a node that gives
        its token away must never be left looking like a root).  Tokens
        regenerated elsewhere while the host was down have already been
        fenced away (:meth:`fence_token` runs first).
        """
        self._requesting = False
        self._on_acquired = None
        self._in_cs = False
        if self._has_token and self.next is not None:
            self._hand_token(self.next)
            self.owner = self.next
            self.next = None

    def regenerate_token(
        self,
        next_requester: Optional[int] = None,
        epoch: int = 0,
        probable_owner: Optional[int] = None,
    ) -> None:
        """Rebuild the lost token locally, becoming the root.

        ``next_requester`` is this node's successor in the waiting chain
        rebuilt by the recovery coordinator, ``probable_owner`` the
        chain's tail (who later requests must be forwarded to once the
        token moves on), and ``epoch`` the fresh fencing epoch of the new
        incarnation.  If the host was waiting for this token, the
        regeneration doubles as its arrival and the host enters the
        critical section.
        """
        self.owner = probable_owner if probable_owner != self.node_id else None
        self.next = next_requester
        self._has_token = True
        self._token_epoch = max(self._token_epoch, epoch)
        if self._requesting:
            self._requesting = False
            self._enter_cs()

    def note_epoch(self, epoch: int) -> None:
        """Advance the witnessed epoch (stale incarnations get ignored)."""
        self._token_epoch = max(self._token_epoch, epoch)

    def purge_requester(self, crashed: int) -> None:
        """Forget a dead node's queue entry so no token is sent into the void."""
        if self.next == crashed:
            self.next = None

    def repoint_after_loss(
        self, owner: Optional[int], next_requester: Optional[int]
    ) -> None:
        """Survivor-side rebuild of this node's slot in the waiting chain.

        A surviving *requester* re-enters the rebuilt chain with
        ``next_requester`` as its successor and ``owner`` as its probable
        owner (the chain's tail): in normal operation a waiting root that
        queued a successor saw later requests *forwarded* toward the last
        requester, never queued or dropped mid-chain.  The chain's tail
        itself gets ``owner=None``/``next=None`` and queues the next
        newcomer, exactly like a fault-free waiting root.  A surviving
        *non-requester* simply repoints its probable-owner pointer at
        ``owner`` (the chain's last requester, or the live holder when
        the chain is empty).
        """
        if self._has_token:  # pragma: no cover - defensive (holder never loses)
            return
        if self._requesting:
            self.owner = owner if owner != self.node_id else None
            self.next = next_requester
        else:
            self.owner = owner
            self.next = None

    def rebuild_as_holder(
        self, successor: Optional[int], probable_owner: Optional[int]
    ) -> None:
        """Recovery chain rebuild at the node actually holding the token.

        Used for *alive* tokens whose waiting chain crossed a crashed
        node: the coordinator rebuilds the chain from the surviving
        requesters, and the holder adopts its head as ``next`` — handing
        the token over immediately when idle — and its tail as probable
        owner, so later requests are forwarded to the chain's end just as
        if it had been built by normal requests.
        """
        if not self._has_token:  # pragma: no cover - defensive
            return
        self.owner = probable_owner if probable_owner != self.node_id else None
        if successor is None:
            return
        if self._in_cs or self._requesting:
            self.next = successor
        else:
            self.next = None
            self._hand_token(successor)

    def fence_token(self, owner: Optional[int], epoch: int = 0) -> None:
        """Discard stale ownership: the token was regenerated while down.

        Called on reboot, before :meth:`reset_after_crash`, so the reboot
        handler can never hand out a token that now lives elsewhere; the
        witnessed ``epoch`` is advanced so a stale in-flight copy
        arriving after the reboot is ignored too.
        """
        self._has_token = False
        self.next = None
        self.owner = owner
        self._token_epoch = max(self._token_epoch, epoch)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _hand_token(self, dest: int) -> None:
        """Give the token up and put it on the wire toward ``dest``.

        The single place the token leaves this node: disowning before
        sending and carrying the payload and the witnessed fencing epoch
        are invariants every hand-off shares (callers handle their own
        ``owner``/``next`` bookkeeping, which differs per site).
        """
        self._has_token = False
        self._send(
            dest, _tuple_new(NTToken, (self.instance_id, self.token_payload, self._token_epoch))
        )

    def _enter_cs(self) -> None:
        self._in_cs = True
        callback = self._on_acquired
        self._on_acquired = None
        if callback is not None:
            callback()
