"""Per-layer metrics of one traced run.

Every ``*_s`` figure is self time -- a span's time minus its wrapped
children's -- summed over the layer's spans, so the figures of one run
add up without double counting. The exception is ``experiments.<id>_s``,
the inclusive time of one figure or table. ``share.<category>`` is the
fraction of the run's wall time each category holds (see
``SpanRecorder.breakdown``). Counts come from the same
call boundaries (``calls``), from the hooks' counters, or from the
program's own counters read after the run.
"""

from __future__ import annotations

from repro.experiments import experiment_ids


def layer_metrics(recorder, wall_s: float, counters: dict) -> dict:
    """All per-layer metrics except the two that need the untraced base
    (``net.events.events_per_s`` and ``trace.overhead_ratio``)."""
    spans = recorder.by_name()

    def calls(*names: str) -> int:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def own(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    schedulers = list(recorder.seen["scheduler"].values())
    caches = list(recorder.seen["cache"].values())
    hits = sum(cache.hits for cache in caches)
    lookups = hits + sum(cache.misses for cache in caches)
    admit = calls("net.node.on_transaction")
    blocks = calls("net.node.on_block")
    metrics = {
        "sim.protocol.build_s": own("sim.protocol.build"),
        "sim.protocol.run_self_s": own("sim.protocol.run"),
        "sim.protocol.stop_checks": calls("sim.protocol.stop"),
        "sim.protocol.stop_s": own("sim.protocol.stop"),
        "net.node.admit_calls": admit,
        "net.node.admit_s": own("net.node.on_transaction"),
        "net.node.admit_useful_ratio": ratio(recorder.counters.get("admit_useful", 0), admit),
        "net.node.block_calls": blocks,
        "net.node.block_s": own("net.node.on_block"),
        "net.node.block_reject_ratio": ratio(recorder.counters.get("block_rejected", 0), blocks),
        "net.node.forge_calls": calls("net.node.forge_block"),
        "net.node.forge_s": own("net.node.forge_block"),
        "chain.callgraph.observe_calls": calls("chain.callgraph.observe"),
        "chain.callgraph.observe_s": own("chain.callgraph.observe"),
        "chain.mempool.add_calls": calls("chain.mempool.add"),
        "chain.mempool.add_s": own("chain.mempool.add"),
        "chain.mempool.evictions": counters.get("evictions", 0),
        "chain.mempool.select_s": own("chain.mempool.select_by_fee"),
        "chain.state.accounts_created": calls("chain.state.create_account"),
        "chain.state.create_s": own("chain.state.create_account"),
        "chain.state.snapshot_s": own("chain.state.snapshot"),
        "chain.state.apply_s": own("chain.state.apply_block_body"),
        "chain.state.reverts": calls("chain.state.revert_block_body"),
        "chain.ledger.add_block_s": own("chain.ledger.add_block"),
        "net.events.events_fired": sum(s.events_fired for s in schedulers),
        "net.events.peak_pending": max((s.peak_pending for s in schedulers), default=0),
        "net.events.self_s": own("net.events.run", "net.events.stop"),
        "net.network.broadcasts": calls("net.network.broadcast", "net.network.multicast"),
        "net.network.broadcast_s": own("net.network.broadcast", "net.network.multicast"),
        "net.network.deliveries": counters.get("deliveries", 0),
        "consensus.pow.draws": calls("consensus.pow.next_block_time"),
        "consensus.pow.blocks": counters.get("canonical_blocks", 0),
        "consensus.pow.s": own("consensus.pow.next_block_time"),
        "workloads.generate_s": own("workloads.generate"),
        "sim.simulator.run_s": own("sim.simulator.run", "sim.simulator.stop"),
        "core.merging.run_s": own("core.merging.run"),
        "core.selection.run_s": own("core.selection.run"),
        "runtime.cache.lookups": lookups,
        "runtime.cache.hit_ratio": ratio(hits, lookups),
        "python.gc_collections": calls("python.gc"),
        "python.gc_s": own("python.gc"),
        "trace.spans": len(recorder.start),
        "trace.unattributed_s": wall_s - recorder.top_level_s(),
    }
    for category, share in recorder.breakdown(wall_s).items():
        metrics[f"share.{category}"] = share
    for experiment_id in experiment_ids():
        name = f"experiments.{experiment_id}"
        metrics[f"{name}_s"] = spans[name]["total_s"] if name in spans else 0.0
    return metrics
