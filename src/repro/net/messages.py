"""Network message types.

Each message kind maps to a protocol step the paper describes, so the
communication accounting (Fig. 4b/4c) can attribute every delivery:

* ``TX`` / ``BLOCK`` — normal gossip (free in both systems' accounting);
* ``CROSS_SHARD_*`` — ChainSpace's S-BAC inter-shard consensus traffic;
* ``LEADER_*`` / ``STAT_REPORT`` — the two leader round-trips of the
  paper's parameter unification (the constant "2" of Fig. 4c).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

_msg_counter = itertools.count()


class MessageKind(enum.Enum):
    """What a message carries; drives the communication accounting.

    Each member carries two plain attributes set once at class creation,
    so the delivery path reads them without hashing the enum:
    ``is_cross_shard`` — whether the kind counts toward cross-shard
    communication — and ``ordinal``, its position in declaration order.
    """

    def __new__(cls, value: str, cross_shard: bool = False) -> "MessageKind":
        member = object.__new__(cls)
        member._value_ = value
        member.is_cross_shard = cross_shard
        member.ordinal = len(cls.__members__)
        return member

    TX = "tx"
    BLOCK = "block"
    CROSS_SHARD_PREPARE = "cross_shard_prepare", True
    CROSS_SHARD_VOTE = "cross_shard_vote", True
    CROSS_SHARD_COMMIT = "cross_shard_commit", True
    STAT_REPORT = "stat_report", True
    LEADER_BROADCAST = "leader_broadcast", True
    GAME_STATE = "game_state", True


@dataclass(frozen=True, slots=True)
class Message:
    """An addressed payload with a kind tag and optional shard context.

    Slotted: one message is allocated per scheduled delivery on the
    broadcast fast path, so the per-instance ``__dict__`` is dropped.
    """

    kind: MessageKind
    sender: str
    recipient: str
    payload: object = None
    shard_id: int | None = None
    msg_id: int = field(default_factory=lambda: next(_msg_counter))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.kind.value}, {self.sender[:8]}->{self.recipient[:8]}, "
            f"shard={self.shard_id})"
        )
