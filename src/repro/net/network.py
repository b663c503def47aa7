"""The broadcast network with latency and per-shard message accounting."""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigError, NetworkError
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultModel
    from repro.net.node import Node


@dataclass(frozen=True)
class LatencyModel:
    """Message delay: a base latency plus uniform jitter.

    The paper's testbed runs nine AWS c5.large instances in one region;
    the defaults approximate intra-region datacenter latency. Set both
    fields to zero for logical-time experiments where propagation is
    irrelevant (e.g. the large-scale game simulations of Sec. VI-E).

    Both fields are validated at construction: a negative base used to
    surface much later as a "cannot schedule in the past"
    ``SimulationError`` deep inside the event loop, and a negative
    jitter was silently ignored by :meth:`sample`.
    """

    base_seconds: float = 0.05
    jitter_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.base_seconds < 0:
            raise ConfigError(
                f"latency base_seconds must be non-negative: {self.base_seconds}"
            )
        if self.jitter_seconds < 0:
            raise ConfigError(
                f"latency jitter_seconds must be non-negative: {self.jitter_seconds}"
            )

    def sample(self, rng: random.Random | np.random.RandomState) -> float:
        """``base + jitter * u`` for one draw ``u`` (none at zero jitter)."""
        if self.jitter_seconds <= 0:
            return self.base_seconds
        return self.base_seconds + self.jitter_seconds * rng.random()


class Network:
    """Connects nodes, delivers latency-delayed messages, counts traffic.

    Accounting: every *cross-shard* delivery (see
    :attr:`MessageKind.is_cross_shard`) increments the counter of the
    shard(s) involved — the per-shard "communication times" the paper
    plots in Fig. 4(b) and 4(c).

    An optional :class:`~repro.faults.model.FaultModel` filters every
    send and delivery (drops, duplicates, delay spikes, partitions,
    crashed endpoints). The fault model owns its own RNG, so omitting it
    or installing a no-op plan leaves the latency stream — and therefore
    the whole run — bit-identical.

    **RNG draw-order contract.** The seeded ``random.Random(seed)`` state
    is copied once into a legacy ``numpy.random.RandomState``, the one
    latency generator: its ``random_sample`` builds each uniform from the
    same two MT19937 words as CPython's ``random()`` and NEP 19 freezes
    that stream, so every draw is the Python generator's. One draw per
    scheduled recipient, in recipient order (registration order for
    :meth:`broadcast`, list order for :meth:`multicast`), none at zero
    jitter: a fault-free fan-out is one ``random_sample(n)`` call and one
    :class:`~repro.net.events.DeliveryWave`, and :meth:`send` draws via
    :meth:`LatencyModel.sample`. The recorded seed digests pin this; a
    no-op :class:`~repro.faults.plan.FaultPlan` (every send through
    :meth:`send`) is the per-send reference the wave path is tested
    against.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        seed: int | None = None,
        faults: "FaultModel | None" = None,
    ) -> None:
        self._scheduler = scheduler
        self._latency = latency or LatencyModel()
        mt = random.Random(seed).getstate()[1]
        self._rng = np.random.RandomState()
        self._rng.set_state(("MT19937", np.array(mt[:624], np.uint32), mt[624]))
        self._faults = faults
        # The node table: nodes in registration order, their ids, and
        # each id's row — fan-outs address recipients by row.
        self._table: list["Node"] = []
        self._ids: tuple[str, ...] = ()
        self._row: dict[str, int] = {}
        self.messages_delivered = 0
        self.cross_shard_messages = 0
        self.per_shard_messages: dict[int, int] = defaultdict(int)
        self._kind_counts = [0] * len(MessageKind)

    @property
    def faults(self) -> "FaultModel | None":
        return self._faults

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.node_id in self._row:
            raise NetworkError(f"node {node.node_id} already registered")
        self._row[node.node_id] = len(self._table)
        self._table.append(node)
        self._ids += (node.node_id,)

    def node(self, node_id: str) -> "Node":
        try:
            return self._table[self._row[node_id]]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Registered node ids in registration order (shared, read-only)."""
        return self._ids

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Deliver one message after a sampled latency.

        Returns True when a delivery was scheduled, False when the fault
        layer swallowed the send (drop, partition, crashed sender).
        """
        target = self.node(message.recipient)
        delay = self._latency.sample(self._rng)
        if self._faults is not None:
            decision = self._faults.filter_send(message, self._scheduler.now)
            if decision.dropped:
                return False
            delay += decision.extra_delay
            if decision.duplicated:
                self._scheduler.schedule_in(
                    delay + decision.duplicate_delay,
                    self._deliver,
                    target,
                    message,
                )
        self._scheduler.schedule_in(delay, self._deliver, target, message)
        return True

    def broadcast(self, message_kind: MessageKind, sender: str, payload: object,
                  shard_id: int | None = None) -> int:
        """Send a payload to every node except the sender.

        Returns the number of sends actually scheduled (the fault layer
        may swallow some).
        """
        rows = np.arange(len(self._table))
        row = self._row.get(sender)
        if row is not None:
            rows = rows[rows != row]
        return self._fan_out(message_kind, sender, payload, rows, shard_id)

    def multicast(self, message_kind: MessageKind, sender: str, payload: object,
                  recipients: Sequence[str], shard_id: int | None = None) -> int:
        """Send a payload to an explicit recipient list; returns sends made.

        The sender is skipped and does not count toward the fan-out. The
        whole list is validated before anything is sent, so an unknown
        recipient schedules no delivery and draws no latency.
        """
        try:
            rows = [self._row[nid] for nid in recipients if nid != sender]
        except KeyError as unknown:
            raise NetworkError(
                f"unknown recipient {unknown.args[0]} in "
                f"{message_kind.name} multicast from {sender}"
            ) from None
        return self._fan_out(
            message_kind, sender, payload, np.array(rows, np.intp), shard_id
        )

    def _fan_out(self, message_kind: MessageKind, sender: str, payload: object,
                 rows: np.ndarray, shard_id: int | None) -> int:
        """Send to the node-table ``rows`` in order; returns sends scheduled.

        Fault-free fan-outs are one :class:`~repro.net.events.DeliveryWave`
        over the shared node table: the latency vector is one
        ``random_sample`` call and a multiply-add, and each ``Message``
        is built only when its delivery pops. Under a fault model every
        recipient goes through :meth:`send` so the model can filter it.
        """
        if self._faults is None:
            latency = self._latency
            times = np.full(rows.size, latency.base_seconds)
            if latency.jitter_seconds > 0:
                times += latency.jitter_seconds * self._rng.random_sample(rows.size)
            times += self._scheduler.now
            emit = self._wave_emit(message_kind, sender, payload, shard_id)
            self._scheduler.schedule_wave(times, self._table, emit, rows)
            return rows.size
        sent = 0
        for row in rows.tolist():
            message = Message(message_kind, sender, self._ids[row], payload, shard_id)
            sent += self.send(message)
        return sent

    def _wave_emit(self, message_kind: MessageKind, sender: str,
                   payload: object, shard_id: int | None):
        """The lazy per-recipient materializer for wave scheduling.

        One closure per fan-out (not per recipient); the Message is only
        built when the recipient's delivery actually pops.
        """
        deliver = self._deliver

        def emit(target: "Node"):
            return deliver, (
                target,
                Message(
                    kind=message_kind,
                    sender=sender,
                    recipient=target.node_id,
                    payload=payload,
                    shard_id=shard_id,
                ),
            )

        return emit

    def _deliver(self, target: "Node", message: Message) -> None:
        if self._faults is not None and not self._faults.filter_delivery(
            message, self._scheduler.now
        ):
            return
        self.messages_delivered += 1
        kind = message.kind
        self._kind_counts[kind.ordinal] += 1
        if kind.is_cross_shard:
            self.cross_shard_messages += 1
            if message.shard_id is not None:
                self.per_shard_messages[message.shard_id] += 1
        target.receive(message)

    # ------------------------------------------------------------------
    # accounting views
    # ------------------------------------------------------------------
    @property
    def per_kind_messages(self) -> Counter[MessageKind]:
        """Deliveries per message kind (kinds never delivered read 0)."""
        counts = zip(MessageKind, self._kind_counts)
        return Counter({kind: count for kind, count in counts if count})

    def mean_per_shard_messages(self, shard_count: int) -> float:
        """Average cross-shard communication times per shard (Fig. 4b/4c)."""
        if shard_count <= 0:
            raise NetworkError("shard_count must be positive")
        return self.cross_shard_messages / shard_count

    def reset_accounting(self) -> None:
        """Zero the counters (used between experiment repetitions)."""
        self.messages_delivered = 0
        self.cross_shard_messages = 0
        self.per_shard_messages.clear()
        self._kind_counts = [0] * len(MessageKind)
