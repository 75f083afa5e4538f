"""Coherence message kinds, byte costs, and bandwidth categories.

The paper's Figure 13 breaks total TM bandwidth into five categories:

* **Inv** — invalidations, dominated by commit packets in Lazy and Bulk
  (enumerated addresses vs a single RLE-compressed signature);
* **Coh** — other coherence traffic (upgrades, downgrades, nacks);
* **UB**  — accesses to the unbounded overflow area in memory;
* **WB**  — writebacks of dirty lines;
* **Fill** — line fills.

Message sizes follow conventional accounting: an 8-byte header on every
message, 4-byte addresses, 64-byte line payloads.  Commit packets are the
interesting case — Lazy enumerates one invalidation per written line while
Bulk sends one signature whose payload is its RLE-compressed size
(Section 6.1) — and are tagged so Figure 14 can report commit bandwidth
separately.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError
from repro.mem.address import BYTES_PER_LINE

#: Bytes of routing/command header on every message.
HEADER_BYTES = 8

#: Bytes of one address operand.
ADDRESS_BYTES = 4

#: Bytes of one cache line of data.
LINE_DATA_BYTES = BYTES_PER_LINE


class BandwidthCategory(enum.Enum):
    """Figure 13's five traffic categories."""

    INV = "Inv"
    COH = "Coh"
    UB = "UB"
    WB = "WB"
    FILL = "Fill"

    # Members are singletons, so identity hashing is exact; the default
    # Enum hash is a Python-level call and these values key the per-message
    # bandwidth dicts on the bus hot path.
    __hash__ = object.__hash__


class MessageKind(enum.Enum):
    """Every message type the systems put on the bus."""

    #: Individual invalidation (non-speculative store, or one line of a
    #: Lazy commit's enumerated address list).
    INVALIDATION = "invalidation"
    #: A Bulk commit broadcast: one RLE-compressed write signature.
    COMMIT_SIGNATURE = "commit-signature"
    #: Upgrade (gain write permission for a clean-shared line).
    UPGRADE = "upgrade"
    #: Downgrade (another cache sources a dirty line; loses exclusivity).
    DOWNGRADE = "downgrade"
    #: Negative acknowledgement (request hit speculative dirty data).
    NACK = "nack"
    #: Line fill from memory or a remote cache.
    FILL = "fill"
    #: Writeback of a dirty line to memory.
    WRITEBACK = "writeback"
    #: Overflow-area read or write (address + line of data).
    OVERFLOW_ACCESS = "overflow-access"
    #: TLS only: a parent passes its current W to its first child at spawn
    #: (Partial Overlap, Figure 9) — costs one signature packet.
    SPAWN_SIGNATURE = "spawn-signature"

    # Identity hashing (see BandwidthCategory): message kinds key the
    # bandwidth counters consulted on every bus message.
    __hash__ = object.__hash__


#: Message kind → bandwidth category.
CATEGORY_OF_KIND = {
    MessageKind.INVALIDATION: BandwidthCategory.INV,
    MessageKind.COMMIT_SIGNATURE: BandwidthCategory.INV,
    MessageKind.UPGRADE: BandwidthCategory.COH,
    MessageKind.DOWNGRADE: BandwidthCategory.COH,
    MessageKind.NACK: BandwidthCategory.COH,
    MessageKind.SPAWN_SIGNATURE: BandwidthCategory.COH,
    MessageKind.FILL: BandwidthCategory.FILL,
    MessageKind.WRITEBACK: BandwidthCategory.WB,
    MessageKind.OVERFLOW_ACCESS: BandwidthCategory.UB,
}


#: Total size of every fixed-size message kind.  The two signature-packet
#: kinds are absent: their payload (the RLE-compressed signature) varies.
FIXED_MESSAGE_BYTES: dict = {
    MessageKind.INVALIDATION: HEADER_BYTES + ADDRESS_BYTES,
    MessageKind.UPGRADE: HEADER_BYTES + ADDRESS_BYTES,
    MessageKind.DOWNGRADE: HEADER_BYTES + ADDRESS_BYTES,
    MessageKind.NACK: HEADER_BYTES + ADDRESS_BYTES,
    MessageKind.FILL: HEADER_BYTES + ADDRESS_BYTES + LINE_DATA_BYTES,
    MessageKind.WRITEBACK: HEADER_BYTES + ADDRESS_BYTES + LINE_DATA_BYTES,
    MessageKind.OVERFLOW_ACCESS: HEADER_BYTES + ADDRESS_BYTES + LINE_DATA_BYTES,
}


# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.COMMIT_SIGNATURE`` goes through the
# enum metaclass's ``__getattr__``, several times slower than a module
# global, and ``message_bytes`` compares them per signature packet.
_COMMIT_SIGNATURE = MessageKind.COMMIT_SIGNATURE
_SPAWN_SIGNATURE = MessageKind.SPAWN_SIGNATURE


def message_bytes(kind: MessageKind, payload_bytes: int = 0) -> int:
    """Total bytes of one message of a given kind.

    ``payload_bytes`` is required for the variable-size kinds (commit and
    spawn signature packets, whose payload is the RLE-compressed signature)
    and must be omitted for fixed-size kinds.
    """
    size = FIXED_MESSAGE_BYTES.get(kind)
    if size is not None:
        if payload_bytes:
            raise ConfigurationError(
                f"{kind.value} messages have a fixed size; got payload override"
            )
        return size
    if kind is _COMMIT_SIGNATURE or kind is _SPAWN_SIGNATURE:
        if payload_bytes <= 0:
            raise ConfigurationError(
                f"{kind.value} messages need an explicit payload size"
            )
        return HEADER_BYTES + payload_bytes
    raise ConfigurationError(f"unknown message kind {kind!r}")
