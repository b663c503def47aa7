"""The four benchmark workloads and the outcome each run must reproduce.

Three drive the node-level engine (``sim.protocol``, fast engine, no
fork backend); ``figures`` drives the lane-level experiment suite under
``SerialExecutor``. ``--seed`` seeds the generated transactions (fees,
sender names) and, for ``figures``, every experiment. The protocol's own
randomness -- PoW draws, latency, miner assignment -- stays at each
profile's recorded seed, so every workload seed asks the engine for the
same amount of work and run-to-run spread measures the host, not the
draw. At the recorded seed each profile is exactly the run its source
record measured.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, replace
from typing import Callable

from repro.chain import transaction
from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import REFERENCE_HASHRATE, PoWParameters
from repro.experiments import experiment_ids, run_experiment
from repro.experiments.common import clear_experiment_caches
from repro.net.network import LatencyModel
from repro.runtime import SerialExecutor, use_executor
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads import generators


def digest_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def restart_tx_serial() -> None:
    """Make this run's transactions byte-identical to a fresh process's.

    Transaction ids embed a process-global serial, and the bounded
    mempool breaks fee ties by id, so without this the second run of
    ``stream-evict`` in one process confirms a different set of
    transactions than the first.
    """
    transaction._tx_counter = itertools.count()


@dataclass(frozen=True)
class ProtocolProfile:
    """One ``ProtocolSimulation`` shape."""

    name: str
    miners: int
    workload: Callable[[int], object]
    #: Its ``seed`` pins the protocol's randomness (see module docstring).
    config: ProtocolConfig

    def build(self, seed: int, trace: bool = False):
        """Input generation plus construction: the timed set-up."""
        restart_tx_serial()
        identities = [MinerIdentity.create(f"m{i}") for i in range(self.miners)]
        transactions = self.workload(seed)
        config = replace(self.config, trace=True) if trace else self.config
        return ProtocolSimulation(identities, transactions, config=config), transactions

    def outcome(self, sim, result, transactions) -> tuple[dict, dict]:
        """The checked outcome and the unchecked work counters of one run.

        Transactions are named by ``sender:nonce``: ids embed a
        process-global serial and differ between processes.
        """
        nodes = [sim.node(node_id) for node_id in sim.network.node_ids]
        names: dict[str, str] = {}
        heights: dict[int, int] = {}
        pooled: set[str] = set()
        for node in nodes:
            for tx in node.ledger.confirmed_transactions():
                names[tx.tx_id] = f"{tx.sender}:{tx.nonce}"
            heights[node.shard_id] = max(heights.get(node.shard_id, 0), node.ledger.height)
            pooled.update(tx.tx_id for tx in node.mempool.pending())
        if set(names) != result.confirmed_tx_ids:
            raise AssertionError(
                f"{self.name}: canonical chains hold {len(names)} txs but the "
                f"result reports {len(result.confirmed_tx_ids)} confirmed"
            )
        pooled -= result.confirmed_tx_ids
        if isinstance(transactions, generators.TxStream):
            injected = transactions.total
        else:
            injected = len(transactions)
        outcome = {
            "duration": result.duration,
            "injected": injected,
            "confirmed": len(result.confirmed_tx_ids),
            "evicted": result.evicted,
            "pooled": len(pooled),
            "per_shard_confirmed": {
                str(shard): count for shard, count in sorted(result.per_shard_confirmed.items())
            },
            "confirmed_hash": digest_lines(sorted(names.values())),
        }
        counters = {
            "deliveries": sim.network.messages_delivered,
            "canonical_blocks": sum(heights.values()),
            "evictions": result.evicted,
        }
        return outcome, counters


def conservation_error(outcome: dict) -> str | None:
    """Every injected tx is confirmed, evicted or still pooled -- once."""
    accounted = outcome["confirmed"] + outcome["evicted"] + outcome["pooled"]
    if accounted != outcome["injected"]:
        return (
            f"confirmed {outcome['confirmed']} + evicted {outcome['evicted']} + "
            f"pooled {outcome['pooled']} = {accounted} != injected {outcome['injected']}"
        )
    if sum(outcome["per_shard_confirmed"].values()) != outcome["confirmed"]:
        return (
            f"per-shard confirmed {outcome['per_shard_confirmed']} does not sum "
            f"to {outcome['confirmed']}"
        )
    return None


# ----------------------------------------------------------------------
# the protocol profiles
# ----------------------------------------------------------------------
PROTOCOL_PROFILES = {
    # The broadcast-heavy row of benchmarks/results/BENCH_protocol.json.
    "broadcast-heavy": ProtocolProfile(
        "broadcast-heavy",
        miners=32,
        workload=lambda seed: generators.uniform_contract_workload(
            total_txs=1200, contract_shards=4, seed=seed
        ),
        config=ProtocolConfig(seed=11, engine="fast", trace=False, max_duration=500_000.0),
    ),
    # The speedup profile of benchmarks/bench_scale.py.
    "wan-1024": ProtocolProfile(
        "wan-1024",
        miners=1024,
        workload=lambda seed: generators.uniform_contract_workload(
            total_txs=50, contract_shards=3, seed=seed
        ),
        config=ProtocolConfig(
            seed=13,
            engine="fast",
            trace=False,
            max_duration=80.0,
            run_to_horizon=True,
            # 40 s expected interval per miner: ~25 blocks/s network-wide.
            pow_params=PoWParameters(difficulty=max(1, round(40.0 * REFERENCE_HASHRATE))),
            latency=LatencyModel(base_seconds=60.0, jitter_seconds=90.0),
        ),
    ),
    # The 10^5-tx run of benchmarks/bench_huge.py.
    "stream-evict": ProtocolProfile(
        "stream-evict",
        miners=4,
        workload=lambda seed: generators.streaming_uniform_contract_workload(
            total_txs=100_000, contract_shards=3, seed=seed
        ),
        config=ProtocolConfig(
            seed=11,
            engine="fast",
            trace=False,
            max_duration=5_000_000.0,
            pow_params=PoWParameters.fast_confirmation(76.0, block_capacity=100),
            block_capacity=100,
            inject_batch=500,
            inject_interval=1.0,
            mempool_limit=2000,
        ),
    ),
}


def broadcast_heavy_digest() -> tuple[str, int]:
    """Trace digest and fired events of the recorded seed-11 run."""
    profile = PROTOCOL_PROFILES["broadcast-heavy"]
    sim, __ = profile.build(profile.config.seed, trace=True)
    result = sim.run()
    return result.trace.digest(), sim.scheduler.events_fired


# ----------------------------------------------------------------------
# the figure suite
# ----------------------------------------------------------------------
def figures_pass(seed: int, run=run_experiment) -> dict:
    """One quick pass of every figure/table id, caches cleared first.

    Returns the checked outcome: one hash per ``to_table()`` and one
    over all of them.
    """
    restart_tx_serial()
    clear_experiment_caches()
    tables = {}
    with use_executor(SerialExecutor()):
        for experiment_id in experiment_ids():
            tables[experiment_id] = run(experiment_id, quick=True, seed=seed).to_table()
    return {
        "tables": digest_lines(tables.values()),
        "per_experiment": {
            key: digest_lines([table])[:16] for key, table in tables.items()
        },
    }
