"""Simulated network packets.

Packets carry a protocol *payload object* (a PGM or TCP message) plus
the addressing metadata the simulator needs to route and account for
them.  The ``size`` field — total bytes on the wire — is what links use
for serialisation delay and byte-limited queues, so protocol code must
set it to header + payload length.

Multicast fan-out hands the one ``Packet`` instance to every branch,
so nothing downstream of a router may mutate a packet except the
``hops`` loop guard (see :class:`~repro.simulator.node.Router`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

#: Addresses are plain strings ("s0", "r3", multicast groups "mc:...").
Address = str

#: Multicast group addresses use this prefix.
MULTICAST_PREFIX = "mc:"

_packet_ids = itertools.count(1)


def is_multicast(addr: Address) -> bool:
    """True if ``addr`` names a multicast group rather than a host."""
    return addr.startswith(MULTICAST_PREFIX)


class Packet:
    """A packet in flight.

    Attributes:
        src: originating host address.
        dst: destination host or multicast group address.
        size: total wire size in bytes (headers included).
        payload: the protocol message object.
        proto: short protocol tag ("pgm", "tcp", ...) used by routers
            and trace filters.
        created_at: simulation time the packet was created (set by the
            sender; used by trace analysis).
        hops: incremented by each router; a TTL-style safety net
            against forwarding loops.
        uid: unique id, fresh per construction.
    """

    __slots__ = ("src", "dst", "size", "payload", "proto", "created_at",
                 "hops", "uid")

    MAX_HOPS = 64

    def __init__(
        self,
        src: Address,
        dst: Address,
        size: int,
        payload: Any = None,
        proto: str = "raw",
        created_at: float = 0.0,
        hops: int = 0,
        uid: Optional[int] = None,
    ):
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.proto = proto
        self.created_at = created_at
        self.hops = hops
        self.uid = next(_packet_ids) if uid is None else uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.proto} {self.src}->{self.dst} "
            f"{self.size}B {self.payload!r}>"
        )


@dataclass
class DeliveryRecord:
    """Bookkeeping record emitted by links for tracing and assertions."""

    time: float
    packet: Packet
    event: str  # "enqueue", "drop-queue", "drop-loss", "deliver"
    link: Optional[str] = None
