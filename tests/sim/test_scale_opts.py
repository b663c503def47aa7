"""Scale optimizations (delivery waves + mining calendar) parity.

Fault-free fan-outs are wave-scheduled and every shard mines from one
:class:`~repro.consensus.pow.MiningCalendar`. A no-op
:class:`~repro.faults.plan.FaultPlan` routes every send through
``Network.send`` instead: that is the per-send reference (``ORACLE``).
These tests hold the reference to the *recorded* ``seed_digests.json``
baselines, the wave path to the reference on list and paced-stream
workloads, and pin the heap-footprint claim (``scheduler.peak_pending``
collapses under waves + calendar).
"""

import json
import pathlib

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.faults.plan import FaultPlan
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import (
    streaming_uniform_contract_workload,
    uniform_contract_workload,
)
from tests.sim.test_engine_parity import PROFILES

SEED = 7
MINERS = 6
TXS = 40

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "seed_digests.json").read_text()
)

#: The per-send reference: a no-op plan takes the fault layer's
#: per-recipient path without injecting anything.
ORACLE = {"fault_plan": FaultPlan()}

#: ``peak_pending`` of the wide run below with waves and calendars both
#: off, recorded before those per-event paths were deleted.
PER_EVENT_PEAK_PENDING = 63


def _simulate(
    engine,
    unified=False,
    faulty=False,
    stream=False,
    paced=False,
    **options,
):
    identities = [MinerIdentity.create(f"m{i}") for i in range(MINERS)]
    if stream or paced:
        workload = streaming_uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    else:
        workload = uniform_contract_workload(
            total_txs=TXS, contract_shards=3, seed=SEED
        )
    if faulty:
        # An active plan already sends per recipient, so it replaces
        # the no-op reference plan.
        options["fault_plan"] = FaultPlan.lossy(
            0.08, duplicate_probability=0.05
        )
    tracer = Tracer()
    config = ProtocolConfig(
        seed=SEED,
        engine=engine,
        trace=tracer,
        max_duration=5000.0,
        retransmit_interval=60.0 if faulty else None,
        pow_params=(
            PoWParameters.fast_confirmation()
            if paced
            else PoWParameters.one_block_per_minute()
        ),
        inject_batch=10 if paced else None,
        **options,
    )
    sim = ProtocolSimulation(identities, workload, config=config, unified=unified)
    result = sim.run()
    return sim, result, tracer.digest()


class TestOracleBaselineParity:
    """The per-send reference reproduces the recorded stream."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_fast_oracle_matches_recorded_baseline(self, profile):
        __, __result, digest = _simulate("fast", **PROFILES[profile], **ORACLE)
        assert digest == BASELINES[profile]


class TestOptimizedVsOracle:
    """Wave scheduling changes nothing against the per-send reference."""

    @pytest.mark.parametrize("engine", ["fast"])
    def test_digest_matches_oracle(self, engine):
        __, __r, oracle = _simulate(engine, **ORACLE)
        __, __r, optimized = _simulate(engine)
        assert optimized == oracle == BASELINES["clean"]

    @pytest.mark.parametrize("engine", ["fast"])
    def test_paced_stream_digest_matches_oracle(self, engine):
        __, __r, oracle = _simulate(engine, paced=True, **ORACLE)
        __, __r, optimized = _simulate(engine, paced=True)
        assert optimized == oracle


class TestHeapFootprint:
    def _simulate_wide(self, **options):
        # The footprint win scales with miner count (waves collapse the
        # N-1 broadcast fan-out, the calendar the N standing mining
        # events), so measure it on a wider shard than the parity runs.
        identities = [MinerIdentity.create(f"w{i}") for i in range(32)]
        workload = uniform_contract_workload(
            total_txs=60, contract_shards=3, seed=SEED
        )
        tracer = Tracer()
        config = ProtocolConfig(
            seed=SEED, trace=tracer, max_duration=2000.0, **options
        )
        sim = ProtocolSimulation(identities, workload, config=config)
        result = sim.run()
        return sim, result

    def test_peak_pending_collapses_under_optimizations(self):
        """The physical heap high-water mark is an order of magnitude
        under the recorded per-event one, the digest matches the
        per-send reference, and the gauge and wall sidecar record it."""
        __, result_ref = self._simulate_wide(**ORACLE)
        sim_opt, result_opt = self._simulate_wide()
        assert (
            result_opt.trace.digest()
            == result_ref.trace.digest()
            == BASELINES["wide-32"]
        )
        assert sim_opt.scheduler.peak_pending * 10 <= PER_EVENT_PEAK_PENDING

        record = result_opt.trace.records_named("run.complete")[0]
        assert record.wall["peak_pending"] == sim_opt.scheduler.peak_pending
        gauge = result_opt.trace.metrics.gauge("scheduler.peak_pending")
        assert gauge.value == sim_opt.scheduler.peak_pending


class TestHorizonProfile:
    """64 miners run to a 60 s horizon with one-second blocks: the
    broadcast-heavy shape where waves and calendars carry the most
    load. The recorded digests equal the ones the deleted per-event
    paths produced for the same runs."""

    @pytest.mark.parametrize("seed", [7, 23])
    def test_digest_matches_recorded_baseline(self, seed):
        workload = uniform_contract_workload(
            total_txs=60, contract_shards=3, seed=seed
        )
        tracer = Tracer()
        config = ProtocolConfig(
            seed=seed,
            trace=tracer,
            max_duration=60.0,
            run_to_horizon=True,
            pow_params=PoWParameters.fast_confirmation(),
        )
        identities = [MinerIdentity.create(f"m{i}") for i in range(64)]
        ProtocolSimulation(identities, workload, config=config).run()
        assert tracer.digest() == BASELINES[f"horizon-64-seed{seed}"]
