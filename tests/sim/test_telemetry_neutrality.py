"""Telemetry must never move a digest.

Heartbeats sample scheduler and mempool state without emitting trace
records or consuming RNG draws; shard-load accounting reads counters
the run maintains anyway. These tests hold the whole telemetry layer
against the *recorded* ``seed_digests.json`` baselines on both delivery
paths — wave-scheduled fan-outs and the per-send reference a no-op
fault plan selects — so an instrumentation site that accidentally
perturbs event order or draw order cannot land.
"""

import json
import pathlib

import pytest

from repro.consensus.miner import MinerIdentity
from repro.faults.plan import FaultPlan
from repro.observe import Telemetry
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)

SEED = 7
MINERS = 6
TXS = 40

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)

#: Delivery paths by fault plan: wave-scheduled fan-outs ("fast") and
#: the per-send reference, where a no-op plan sends per recipient.
PATHS = {"fast": None, "per-send": FaultPlan()}


def _run(path: str, telemetry, stream=False, seed=SEED):
    miners = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    if stream:
        workload = streaming_uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=seed
        )
    else:
        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=seed
        )
    config = ProtocolConfig(
        seed=seed,
        trace=True,
        max_duration=5000.0,
        fault_plan=PATHS[path],
        telemetry=telemetry,
    )
    return ProtocolSimulation(miners, workload, config=config).run()


class TestDigestNeutrality:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_heartbeats_leave_recorded_baseline_untouched(self, path):
        telemetry = Telemetry(heartbeat_interval=25.0)
        result = _run(path, telemetry)
        assert result.trace.digest() == BASELINES["clean"]
        assert telemetry.samples, "heartbeats should have fired"

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_on_off_digests_identical(self, path):
        for seed in (SEED, 23):
            on = _run(path, Telemetry(heartbeat_interval=10.0), seed=seed)
            off = _run(path, False, seed=seed)
            assert on.trace.digest() == off.trace.digest(), seed
            assert on.confirmed_count() == off.confirmed_count()
            assert on.shard_stats is not None
            assert off.shard_stats is None

    def test_streamed_injection_stays_neutral(self):
        """Traffic accounting at injection time must not disturb the
        stream-vs-list digest equality contract."""
        on = _run("fast", Telemetry(heartbeat_interval=25.0), stream=True)
        off = _run("fast", False, stream=True)
        assert on.trace.digest() == off.trace.digest() == BASELINES["clean"]

    def test_final_heartbeat_only_when_interval_none(self):
        """``heartbeat_interval=None`` keeps the periodic sampler off
        but still takes the end-of-run snapshot for the load report."""
        telemetry = Telemetry(heartbeat_interval=None)
        result = _run("fast", telemetry)
        assert result.trace.digest() == BASELINES["clean"]
        assert len(telemetry.samples) == 1
