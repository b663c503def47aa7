"""Tests for repro.net.network and repro.net.messages."""

import random

import pytest

from repro.errors import NetworkError
from repro.faults.model import FaultModel
from repro.faults.plan import FaultPlan
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind
from repro.net.network import LatencyModel, Network
from repro.net.node import Node


class Recorder(Node):
    def __init__(self, node_id):
        self._id = node_id
        self.received = []

    @property
    def node_id(self):
        return self._id

    def receive(self, message):
        self.received.append(message)


def make_net(n=3, latency=None, seed=0):
    scheduler = Scheduler()
    network = Network(scheduler, latency=latency or LatencyModel(), seed=seed)
    nodes = [Recorder(f"n{i}") for i in range(n)]
    for node in nodes:
        network.register(node)
    return scheduler, network, nodes


def rng_state(network):
    """The latency generator's full MT19937 state, comparable with ==."""
    __, key, pos, *__rest = network._rng.get_state()
    return key.tobytes(), pos


class TestMessageKinds:
    def test_gossip_is_not_cross_shard(self):
        assert not MessageKind.TX.is_cross_shard
        assert not MessageKind.BLOCK.is_cross_shard

    def test_consensus_kinds_are_cross_shard(self):
        assert MessageKind.CROSS_SHARD_PREPARE.is_cross_shard
        assert MessageKind.STAT_REPORT.is_cross_shard
        assert MessageKind.LEADER_BROADCAST.is_cross_shard

    def test_ordinals_and_values(self):
        # The delivery counters index a list by ``ordinal``.
        kinds = list(MessageKind)
        assert [kind.ordinal for kind in kinds] == list(range(len(kinds)))
        assert MessageKind("cross_shard_vote") is MessageKind.CROSS_SHARD_VOTE
        assert MessageKind.GAME_STATE.value == "game_state"

    def test_message_ids_unique(self):
        a = Message(MessageKind.TX, "a", "b")
        b = Message(MessageKind.TX, "a", "b")
        assert a.msg_id != b.msg_id


class TestDelivery:
    def test_send_delivers_after_latency(self):
        scheduler, network, nodes = make_net()
        network.send(Message(MessageKind.TX, "n0", "n1", payload="hi"))
        assert nodes[1].received == []  # not yet delivered
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert scheduler.now > 0

    def test_zero_latency_model(self):
        scheduler, network, nodes = make_net(
            latency=LatencyModel(base_seconds=0.0, jitter_seconds=0.0)
        )
        network.send(Message(MessageKind.TX, "n0", "n1"))
        scheduler.run()
        assert scheduler.now == 0.0
        assert len(nodes[1].received) == 1

    def test_broadcast_excludes_sender(self):
        scheduler, network, nodes = make_net(4)
        fanout = network.broadcast(MessageKind.BLOCK, "n0", payload="b")
        scheduler.run()
        assert fanout == 3
        assert nodes[0].received == []
        assert all(len(node.received) == 1 for node in nodes[1:])

    def test_multicast(self):
        scheduler, network, nodes = make_net(4)
        network.multicast(MessageKind.TX, "n0", "p", recipients=["n1", "n3"])
        scheduler.run()
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []
        assert len(nodes[3].received) == 1

    def test_multicast_fanout_excludes_skipped_sender(self):
        __, network, __nodes = make_net(4)
        # The sender appears in the recipient list but is skipped, so the
        # reported fan-out must count only the messages actually sent.
        sent = network.multicast(
            MessageKind.TX, "n0", "p", recipients=["n0", "n1", "n3"]
        )
        assert sent == 2

    def test_multicast_fanout_counts_all_when_sender_absent(self):
        __, network, __nodes = make_net(4)
        sent = network.multicast(MessageKind.TX, "n0", "p", recipients=["n1", "n2"])
        assert sent == 2

    def test_unknown_recipient(self):
        __, network, __nodes = make_net()
        with pytest.raises(NetworkError):
            network.send(Message(MessageKind.TX, "n0", "ghost"))

    def test_multicast_unknown_recipient(self):
        # The fan-out fast path must preserve the per-recipient lookup
        # error of the original per-send loop.
        __, network, __nodes = make_net()
        with pytest.raises(NetworkError):
            network.multicast(MessageKind.TX, "n0", "p", recipients=["ghost"])

    def test_multicast_unknown_recipient_names_sender_and_kind(self):
        scheduler, network, __nodes = make_net()
        rng_before = rng_state(network)
        with pytest.raises(NetworkError, match=r"ghost.*BLOCK.*n0"):
            network.multicast(
                MessageKind.BLOCK, "n0", "p", recipients=["n1", "ghost"]
            )
        assert scheduler.pending == 0
        assert rng_state(network) == rng_before

    def test_faulty_multicast_unknown_recipient_names_sender_and_kind(self):
        # The per-send path refuses the list before sending anything,
        # exactly like the wave path: no delivery scheduled, no latency
        # drawn for the known recipient ahead of the unknown one.
        for plan in (FaultPlan(), FaultPlan.lossy(0.5)):
            scheduler = Scheduler()
            network = Network(
                scheduler,
                latency=LatencyModel(),
                seed=0,
                faults=FaultModel(plan, seed=1),
            )
            for node in [Recorder("n0"), Recorder("n1")]:
                network.register(node)
            rng_before = rng_state(network)
            with pytest.raises(NetworkError, match=r"ghost.*TX.*n0"):
                network.multicast(
                    MessageKind.TX, "n0", "p", recipients=["n1", "ghost"]
                )
            assert scheduler.pending == 0
            assert rng_state(network) == rng_before

    def test_duplicate_registration(self):
        __, network, nodes = make_net()
        with pytest.raises(NetworkError):
            network.register(nodes[0])


class TestDeliveryWaves:
    """The wave fast path must be observationally identical to the
    per-send reference — a no-op fault model routes every recipient
    through ``Network.send`` — with the same recipients, delivery
    times, arrival order and accounting."""

    def _run(self, faults, n=6, seed=3):
        scheduler = Scheduler()
        network = Network(
            scheduler,
            latency=LatencyModel(base_seconds=0.05, jitter_seconds=0.1),
            seed=seed,
            faults=faults,
        )
        nodes = [Recorder(f"n{i}") for i in range(n)]
        for node in nodes:
            network.register(node)
        arrivals = []
        for node in nodes:
            node.receive = (
                lambda message, node=node: arrivals.append(
                    (scheduler.now, node.node_id, message.kind, message.payload)
                )
            )
        network.broadcast(MessageKind.BLOCK, "n0", payload="b1")
        network.multicast(
            MessageKind.TX, "n1", "t1", recipients=["n0", "n2", "n4"]
        )
        network.broadcast(MessageKind.BLOCK, "n2", payload="b2")
        scheduler.run()
        return arrivals, network.messages_delivered, scheduler.events_fired

    def test_wave_matches_per_event_oracle(self):
        wave_arrivals, wave_count, wave_fired = self._run(faults=None)
        oracle_arrivals, oracle_count, oracle_fired = self._run(
            faults=FaultModel(FaultPlan(), seed=1)
        )
        assert wave_arrivals == oracle_arrivals
        assert wave_count == oracle_count
        assert wave_fired == oracle_fired

    def test_wave_message_fields(self):
        scheduler, network, nodes = make_net(4)
        network.broadcast(MessageKind.BLOCK, "n0", payload="b", shard_id=2)
        scheduler.run()
        for node in nodes[1:]:
            (message,) = node.received
            assert message.kind is MessageKind.BLOCK
            assert message.sender == "n0"
            assert message.recipient == node.node_id
            assert message.payload == "b"
            assert message.shard_id == 2

    def test_broadcast_uses_single_heap_entry(self):
        scheduler, network, __nodes = make_net(8)
        network.broadcast(MessageKind.BLOCK, "n0", payload="b")
        assert scheduler.pending == 7
        assert scheduler.peak_pending == 1


class TestLatencyStream:
    """The draw-order contract: every delay the network schedules is
    ``base + jitter * u`` for the next draw ``u`` of the seeded Python
    generator ``random.Random(seed)``, in recipient order, across
    broadcasts, multicasts and single sends — on the wave path and on
    the per-send path a no-op fault plan forces."""

    def _run(self, seed, latency, faults):
        scheduler = Scheduler()
        network = Network(scheduler, latency=latency, seed=seed, faults=faults)
        nodes = [Recorder(f"n{i}") for i in range(5)]
        for node in nodes:
            network.register(node)
        arrivals = {}
        for node in nodes:
            node.receive = (
                lambda message, node=node: arrivals.__setitem__(
                    (message.payload, node.node_id), scheduler.now
                )
            )
        # Fan out from a non-zero clock so ``now + delay`` is covered.
        scheduler.schedule_at(1.25, lambda: None)
        scheduler.run()
        draw_order = []
        network.broadcast(MessageKind.BLOCK, "n0", payload="b1")
        draw_order += [("b1", f"n{i}") for i in (1, 2, 3, 4)]
        network.send(Message(MessageKind.TX, "n3", "n1", payload="s1"))
        draw_order += [("s1", "n1")]
        network.multicast(
            MessageKind.TX, "n2", "m1", recipients=["n4", "n2", "n0", "n1"]
        )
        draw_order += [("m1", "n4"), ("m1", "n0"), ("m1", "n1")]
        network.broadcast(MessageKind.BLOCK, "n4", payload="b2")
        draw_order += [("b2", f"n{i}") for i in (0, 1, 2, 3)]
        network.send(Message(MessageKind.TX, "n0", "n2", payload="s2"))
        draw_order += [("s2", "n2")]
        scheduler.run()
        return network, arrivals, draw_order

    @pytest.mark.parametrize("seed", [0, 7, 13])
    @pytest.mark.parametrize("noop_faults", [False, True])
    def test_delays_are_the_seeded_python_stream(self, seed, noop_faults):
        base, jitter = 0.05, 0.03
        faults = FaultModel(FaultPlan(), seed=1) if noop_faults else None
        network, arrivals, draw_order = self._run(
            seed, LatencyModel(base, jitter), faults
        )
        reference = random.Random(seed)
        expected = {
            key: 1.25 + (base + jitter * reference.random()) for key in draw_order
        }
        assert arrivals == expected  # exact float equality
        # Nothing else was drawn: the stream continues in step.
        assert network._rng.random_sample() == reference.random()

    @pytest.mark.parametrize("seed", [0, 7, 13])
    @pytest.mark.parametrize("noop_faults", [False, True])
    def test_zero_jitter_draws_nothing(self, seed, noop_faults):
        faults = FaultModel(FaultPlan(), seed=1) if noop_faults else None
        network, arrivals, draw_order = self._run(
            seed, LatencyModel(0.02, 0.0), faults
        )
        assert arrivals == {key: 1.25 + 0.02 for key in draw_order}
        assert network._rng.random_sample() == random.Random(seed).random()


class TestAccounting:
    def test_gossip_not_counted_cross_shard(self):
        scheduler, network, __ = make_net()
        network.send(Message(MessageKind.TX, "n0", "n1", shard_id=1))
        scheduler.run()
        assert network.messages_delivered == 1
        assert network.cross_shard_messages == 0

    def test_cross_shard_counted_per_shard(self):
        scheduler, network, __ = make_net()
        network.send(
            Message(MessageKind.CROSS_SHARD_PREPARE, "n0", "n1", shard_id=2)
        )
        network.send(
            Message(MessageKind.CROSS_SHARD_VOTE, "n1", "n0", shard_id=2)
        )
        scheduler.run()
        assert network.cross_shard_messages == 2
        assert network.per_shard_messages[2] == 2

    def test_mean_per_shard(self):
        scheduler, network, __ = make_net()
        network.send(Message(MessageKind.STAT_REPORT, "n0", "n1", shard_id=1))
        scheduler.run()
        assert network.mean_per_shard_messages(2) == 0.5

    def test_mean_per_shard_rejects_zero(self):
        __, network, __nodes = make_net()
        with pytest.raises(NetworkError):
            network.mean_per_shard_messages(0)

    def test_reset_accounting(self):
        scheduler, network, __ = make_net()
        network.send(Message(MessageKind.STAT_REPORT, "n0", "n1", shard_id=1))
        scheduler.run()
        network.reset_accounting()
        assert network.messages_delivered == 0
        assert network.per_shard_messages == {}
        assert network.per_kind_messages == {}

    def test_per_kind_accounting(self):
        scheduler, network, __ = make_net()
        network.send(Message(MessageKind.BLOCK, "n0", "n1"))
        network.send(Message(MessageKind.BLOCK, "n0", "n2"))
        scheduler.run()
        assert network.per_kind_messages[MessageKind.BLOCK] == 2
        assert network.per_kind_messages[MessageKind.TX] == 0


class TestLatencyModel:
    def test_sample_within_bounds(self):
        import random

        model = LatencyModel(base_seconds=0.05, jitter_seconds=0.05)
        rng = random.Random(1)
        for __ in range(100):
            delay = model.sample(rng)
            assert 0.05 <= delay <= 0.10

    def test_negative_base_rejected_at_construction(self):
        # Used to surface much later as a "cannot schedule in the past"
        # SimulationError deep inside the event loop.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LatencyModel(base_seconds=-0.01)

    def test_negative_jitter_rejected_at_construction(self):
        # Used to be silently ignored by sample().
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LatencyModel(jitter_seconds=-0.5)
