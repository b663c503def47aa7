"""Engine parity: the protocol engine against its recorded history.

The engine's optimizations (tuple-keyed heap, wave-scheduled fan-outs
with pre-sampled latency vectors, per-shard mining calendars,
incremental confirmed tracking, tip-delta reorgs, cached fee-ranked
mempool) must leave every seeded run **bit-identical**. These tests
hold that in three ways:

* same-seed equality against the *recorded* baselines in
  ``seed_digests.json``, for clean, faulty, unified and unified-faulty
  runs, each also with lineage tracing on (``tx.confirmed`` /
  ``tx.reverted`` ordering);
* the wave path against the per-send reference (a no-op fault plan
  routes every recipient through ``Network.send``);
* targeted regressions for the RNG draw-order contract, scheduler
  compaction, and the tip-delta world-state against the
  replay-from-genesis oracle.
"""

import itertools
import json
import pathlib
import random

import pytest

from repro.chain import transaction
from repro.consensus.miner import MinerIdentity
from repro.faults.plan import FaultPlan
from repro.net.events import Scheduler
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

SEED = 7
MINERS = 6
TXS = 40

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)

PROFILES = {
    "clean": {},
    "faulty": {"faulty": True},
    "unified": {"unified": True},
    "unified-faulty": {"unified": True, "faulty": True},
}
#: Every recorded baseline: the profiles above, each also with
#: per-transaction lineage events in the trace.
RECORDED_PROFILES = {
    **PROFILES,
    **{
        f"{name}-lineage": {**kwargs, "lineage": True}
        for name, kwargs in PROFILES.items()
    },
}


def _simulate(
    unified: bool = False,
    faulty: bool = False,
    workload=None,
    per_send: bool = False,
    lineage: bool = False,
):
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    if workload is None:
        # Note: tx ids embed a process-global serial, so two separately
        # generated same-seed workloads get *different* ids (while still
        # producing identical trace digests, which never embed ids).
        # Tests that compare confirmed-id sets must share one workload.
        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    if faulty:
        plan = FaultPlan.lossy(0.08, duplicate_probability=0.05)
    else:
        plan = FaultPlan() if per_send else None
    config = ProtocolConfig(
        seed=SEED,
        trace=Tracer(lineage=True) if lineage else True,
        max_duration=5000.0,
        fault_plan=plan,
        retransmit_interval=60.0 if faulty else None,
    )
    sim = ProtocolSimulation(identities, workload, config=config, unified=unified)
    result = sim.run()
    return sim, result


@pytest.fixture
def fresh_tx_serial(monkeypatch):
    """Restart the process-global tx serial, as a fresh process would.

    Lineage events name packed transactions, and equal-fee ties in the
    mempool break on ``tx_id`` (which embeds the serial), so a lineage
    digest is only reproducible from a known serial.
    """
    monkeypatch.setattr(transaction, "_tx_counter", itertools.count())


class TestEngineDigestParity:
    @pytest.mark.usefixtures("fresh_tx_serial")
    @pytest.mark.parametrize("profile", sorted(RECORDED_PROFILES))
    def test_fast_engine_matches_recorded_baseline(self, profile):
        """The committed digest pins the draw order across PR history."""
        __, result = _simulate(**RECORDED_PROFILES[profile])
        assert result.trace.digest() == BASELINES[profile]

    def test_engines_fire_identical_event_counts(self):
        """Wave scheduling and the per-send reference deliver the same
        events and confirm the same transactions."""
        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
        sim_wave, wave = _simulate(workload=workload)
        sim_send, send = _simulate(workload=workload, per_send=True)
        assert sim_wave.scheduler.events_fired == sim_send.scheduler.events_fired
        assert wave.confirmed_tx_ids == send.confirmed_tx_ids

    def test_unknown_engine_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=r"engine.*expected 'fast'"):
            ProtocolConfig(engine="turbo")


class TestMiningPrefetchContract:
    """The prefetched uniform buffer must reproduce ``expovariate``'s
    exact draw values, including across a mid-stream retarget."""

    def test_prefetch_bit_equal_to_expovariate(self):
        from repro.consensus.pow import MiningProcess, PoWParameters

        params = PoWParameters.fast_confirmation()
        process = MiningProcess(params, hashrate_fraction=0.5, seed=21)
        reference = random.Random(21)
        interval = params.expected_interval(0.5)
        # Span several refills of the prefetch buffer.
        for __ in range(3 * MiningProcess.PREFETCH + 5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / interval
            )

    def test_retarget_applies_from_next_draw(self):
        from repro.consensus.pow import MiningProcess, PoWParameters

        params = PoWParameters.one_block_per_minute()
        process = MiningProcess(params, hashrate_fraction=1.0, seed=3)
        reference = random.Random(3)
        for __ in range(5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / params.expected_interval(1.0)
            )
        # Retarget mid-buffer: already-prefetched uniforms must be
        # re-scaled by the new interval, not served at the old one.
        process.retarget(0.25)
        for __ in range(5):
            assert process.next_block_time() == reference.expovariate(
                1.0 / params.expected_interval(0.25)
            )


class TestSchedulerCompaction:
    def test_mass_cancellation_triggers_compaction(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_in(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        assert scheduler.compactions >= 1
        assert scheduler.pending == 50
        # The surviving events still fire in order.
        assert scheduler.run() == 200.0

    def test_small_heaps_never_compact(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_in(float(i + 1), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        assert scheduler.compactions == 0
        assert scheduler.pending == 0


class TestStateOracle:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_tip_delta_state_matches_replay_oracle(self, profile):
        """After a full run (reorgs included), every node's journaled
        world state must fingerprint identically to a from-scratch
        canonical replay."""
        sim, __ = _simulate(**PROFILES[profile])
        for public in sorted(sim.assignment.shard_of):
            node = sim.node(public)
            assert (
                node.state.fingerprint() == node.state_oracle_fingerprint()
            ), f"state drift on node {public[:10]} in profile {profile}"

    def test_ledger_incremental_matches_scan(self):
        """Per-node incremental views and the run-wide tally folded from
        the nodes' canonical-chain deltas both match full chain walks."""
        sim, result = _simulate(faulty=True)
        union: set[str] = set()
        for public in sorted(sim.assignment.shard_of):
            ledger = sim.node(public).ledger
            assert ledger.confirmed_tx_ids() == ledger.confirmed_tx_ids_scan()
            union |= ledger.confirmed_tx_ids_scan()
        assert result.confirmed_tx_ids == union


class TestConfirmedTally:
    """The run-wide tally folded from the nodes' canonical-chain deltas,
    and the lineage probe that reads its union-membership flips."""

    def test_probe_reports_net_flips_first_confirmation_only(self):
        from repro.chain.block import Block

        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
        identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
        sim = ProtocolSimulation(
            identities,
            workload,
            config=ProtocolConfig(seed=SEED, trace=Tracer(lineage=True)),
        )
        idx, tx = 0, workload[0]
        shard = sim._classifier()(tx)
        node = next(
            sim.node(public)
            for public in sorted(sim.assignment.shard_of)
            if sim.node(public).shard_id == shard
        )
        probe = sim._make_lineage_probe()
        branches = {"a": node.ledger.genesis_hash, "b": node.ledger.genesis_hash}

        def extend(branch: str, height: int, txs=()) -> None:
            block = Block.build(
                branches[branch], "pk-" + branch, node.shard_id, height,
                float(height), list(txs),
            )
            node.adopt_block(block)
            branches[branch] = block.block_hash

        def lineage() -> list[tuple[str, int]]:
            return [
                (r.name, r.attrs["tx"])
                for r in sim.tracer.records
                if r.name in ("tx.confirmed", "tx.reverted")
            ]

        extend("a", 1, [tx])  # tx joins the union ...
        extend("b", 1)
        extend("b", 2)  # ... and leaves it again before the probe runs
        assert tx.tx_id not in sim._confirmed_ids()
        probe()
        assert lineage() == []
        extend("a", 2)
        extend("a", 3)  # branch a wins back: tx joins
        assert sim._confirmed_ids() == {tx.tx_id}
        probe()
        assert lineage() == [("tx.confirmed", idx)]
        assert sim.tracer.records_named("tx.confirmed")[0].shard == node.shard_id
        extend("b", 3)
        extend("b", 4)  # tx leaves the union: reverted
        probe()
        extend("a", 4)
        extend("a", 5)  # rejoins: tx.confirmed stays first-only
        probe()
        assert lineage() == [("tx.confirmed", idx), ("tx.reverted", idx)]
        assert sim._confirmed_ids() == node.ledger.confirmed_tx_ids_scan()
