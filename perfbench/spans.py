"""Span recording from outside the program.

:class:`SpanRecorder` keeps one span per wrapped call -- name, start,
end and the span that was open when it began -- in flat arrays, so a
pass with a million calls stays a few tens of megabytes. Nothing is
written while the pass runs; :meth:`SpanRecorder.dump` writes the
arrays once the run ends.

:func:`instrument` installs the wrappers on the public entry points of
``sim``, ``net``, ``chain``, ``consensus``, ``core``, ``workloads`` and
``runtime`` and restores the originals on exit. The program's own
files are never edited: every span is taken at a call boundary the
program already has.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import json
import pathlib
import sys
import time
from array import array
from typing import Callable, Iterator

import numpy as np

#: Span names whose descendants inherit their category (see
#: :meth:`SpanRecorder.breakdown`). Containers -- the event loop, the
#: protocol and lane runs, one experiment -- only claim the time their
#: children do not.
CATEGORY = {
    "sim.protocol.build": "construction",
    "chain.state.snapshot": "construction",
    "chain.state.create_account": "construction",
    "net.node.on_transaction": "admission",
    "chain.callgraph.observe": "admission",
    "chain.mempool.add": "admission",
    "net.node.on_block": "block",
    "chain.ledger.add_block": "block",
    "chain.state.apply_block_body": "block",
    "chain.state.revert_block_body": "block",
    "net.node.forge_block": "mining",
    "chain.mempool.select_by_fee": "mining",
    "consensus.pow.next_block_time": "mining",
    "sim.protocol.stop": "stop",
    "net.network.broadcast": "network",
    "net.network.multicast": "network",
    "workloads.generate": "workloads",
    "core.merging.run": "games",
    "core.selection.run": "games",
}
#: Collector pauses land inside whatever call allocated; they keep
#: their own category wherever they nest.
GC_SPAN = "python.gc"
CONTAINERS = {
    "net.events.run": "scheduler",
    "sim.protocol.run": "protocol_run",
    "sim.simulator.run": "lane",
    "sim.simulator.stop": "lane",
}


#: Every category :meth:`SpanRecorder.breakdown` can report.
CATEGORIES = sorted(
    {*CATEGORY.values(), *CONTAINERS.values(), "experiments", "gc", "other", "unattributed"}
)


def _container(name: str) -> str | None:
    if name.startswith("experiments."):
        return "experiments"
    return CONTAINERS.get(name)


class SpanRecorder:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        #: Objects the hooks saw during the pass (schedulers, named
        #: caches) by id, held until the pass's counters are read.
        self.seen: dict[str, dict[int, object]] = {"scheduler": {}, "cache": {}}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)``
        runs outside the span, so counting adds no self time."""
        nid = self._id(name)
        stack = self._stack
        start, end = self.start, self.end
        add_name, add_parent = self.name_id.append, self.parent.append
        add_start, add_end = start.append, end.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return spanned

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self) -> None:
        self.end[self._stack.pop()] = time.perf_counter()

    def gc_callback(self) -> Callable[[str, dict], None]:
        """A ``gc.callbacks`` hook recording each collection as a span."""
        nid = self._id(GC_SPAN)

        def collecting(phase: str, info: dict) -> None:
            if phase == "start":
                self._open(nid)
            else:
                self._close()

        return collecting

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        self._open(self._id(name))
        try:
            yield
        finally:
            self._close()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def _arrays(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return names, parent, duration

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        names, parent, duration = self._arrays()
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return duration - children

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name."""
        names, parent, duration = self._arrays()
        own = self.self_times()
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def top_level_s(self) -> float:
        names, parent, duration = self._arrays()
        return float(duration[parent < 0].sum())

    def breakdown(self, wall_s: float) -> dict[str, float]:
        """Share of ``wall_s`` per category.

        A span's self time goes to the category of its outermost
        categorised ancestor (or itself); spans under containers only
        keep the container's category when they have none of their own.
        So ``CallGraph.observe`` inside ``on_transaction`` is admission,
        inside node construction it is construction, and the event
        loop's share is only what no wrapped callee accounts for.
        """
        own = self.self_times()
        cats: list[str] = []
        fixed: list[bool] = []
        totals = dict.fromkeys(CATEGORIES, 0.0)
        for index, (nid, parent) in enumerate(zip(self.name_id, self.parent)):
            name = self.names[nid]
            if name == GC_SPAN:
                cat, pinned = "gc", True
            elif parent >= 0 and fixed[parent]:
                cat, pinned = cats[parent], True
            elif name in CATEGORY:
                cat, pinned = CATEGORY[name], True
            elif _container(name) is not None:
                cat, pinned = _container(name), False
            else:
                cat, pinned = (cats[parent] if parent >= 0 else "other"), False
            cats.append(cat)
            fixed.append(pinned)
            totals[cat] += float(own[index])
        totals["unattributed"] = wall_s - self.top_level_s()
        return {cat: value / wall_s for cat, value in totals.items()}

    def dump(self, path: pathlib.Path, meta: dict) -> None:
        """Write every span once the run is over (``.npz`` + JSON meta)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, parent, duration = self._arrays()
        np.savez(
            path,
            name_id=names,
            parent=parent,
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
        meta = {**meta, "names": self.names, "spans": len(duration)}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
class _Patches:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _replace_everywhere(patches: _Patches, original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapped``
    (experiments import the generators by name)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, wrapped)


class _TimedIterator:
    """Times each lazily generated transaction of a ``TxStream``."""

    __slots__ = ("_next",)

    def __init__(self, iterator: Iterator, recorder: SpanRecorder) -> None:
        self._next = recorder.wrap(iterator.__next__, "workloads.generate")

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap the layer entry points for the duration of the block."""
    import repro.workloads.distributions as distributions
    import repro.workloads.generators as generators
    from repro.chain.callgraph import CallGraph
    from repro.chain.ledger import Ledger
    from repro.chain.mempool import Mempool
    from repro.chain.state import WorldState
    from repro.consensus.pow import MiningProcess
    from repro.core.merging.algorithm import IterativeMerging, OneTimeMerge
    from repro.core.selection.best_reply import BestReplyDynamics
    from repro.core.selection.weighted import WeightedBestReply
    from repro.net.events import Scheduler
    from repro.net.network import Network
    from repro.net.node import FullNode
    from repro.runtime.cache import MemoCache
    from repro.sim.protocol import ProtocolSimulation
    from repro.sim.simulator import ShardedSimulation

    rec = recorder
    patches = _Patches()

    def method(cls, attr: str, name: str, after=None) -> None:
        patches.set(cls, attr, rec.wrap(cls.__dict__[attr], name, after))

    def admitted(args, pooled) -> None:
        rec.count("admit_useful", bool(pooled))

    def inspected(args, verdict) -> None:
        rec.count("block_rejected", not verdict.accepted)

    method(FullNode, "on_transaction", "net.node.on_transaction", admitted)
    method(FullNode, "on_block", "net.node.on_block", inspected)
    method(FullNode, "forge_block", "net.node.forge_block")
    method(Network, "broadcast", "net.network.broadcast")
    method(Network, "multicast", "net.network.multicast")
    method(Mempool, "add", "chain.mempool.add")
    method(Mempool, "select_by_fee", "chain.mempool.select_by_fee")
    method(CallGraph, "observe", "chain.callgraph.observe")
    method(WorldState, "create_account", "chain.state.create_account")
    method(WorldState, "snapshot", "chain.state.snapshot")
    method(WorldState, "apply_block_body", "chain.state.apply_block_body")
    method(WorldState, "revert_block_body", "chain.state.revert_block_body")
    method(Ledger, "add_block", "chain.ledger.add_block")
    method(MiningProcess, "next_block_time", "consensus.pow.next_block_time")
    method(ProtocolSimulation, "__init__", "sim.protocol.build")
    method(ProtocolSimulation, "run", "sim.protocol.run")
    method(ShardedSimulation, "run", "sim.simulator.run")
    method(IterativeMerging, "run", "core.merging.run")
    method(OneTimeMerge, "run", "core.merging.run")
    method(BestReplyDynamics, "run", "core.selection.run")
    method(WeightedBestReply, "run", "core.selection.run")

    # The event loop: its stop condition is a closure handed in per
    # run, so the loop's wrapper wraps it, named after the class that
    # built it. Schedulers are kept so their event counts can be read
    # after the run.
    loop = Scheduler.__dict__["run"]
    loop_signature = inspect.signature(loop)
    stop_names = {
        "ProtocolSimulation": "sim.protocol.stop",
        "ShardedSimulation": "sim.simulator.stop",
    }

    def run_loop(*args, **kwargs):
        call = loop_signature.bind(*args, **kwargs)
        stop = call.arguments.get("stop_condition")
        if stop is not None:
            owner = stop.__qualname__.split(".", 1)[0]
            call.arguments["stop_condition"] = rec.wrap(
                stop, stop_names.get(owner, "net.events.stop")
            )
        scheduler = call.arguments["self"]
        rec.seen["scheduler"][id(scheduler)] = scheduler
        return loop(*call.args, **call.kwargs)

    patches.set(Scheduler, "run", rec.wrap(run_loop, "net.events.run"))

    # Named memo caches: held for the pass so their hit counts survive
    # until they are read.
    cache_init = MemoCache.__dict__["__init__"]

    def hold_cache(cache, *args, **kwargs):
        cache_init(cache, *args, **kwargs)
        if cache.name is not None:
            rec.seen["cache"][id(cache)] = cache

    patches.set(MemoCache, "__init__", hold_cache)

    # Workload generation: every public generator, wherever imported,
    # plus the lazy production of streamed transactions.
    for module in (generators, distributions):
        for attr, value in list(vars(module).items()):
            if (
                callable(value)
                and not attr.startswith("_")
                and getattr(value, "__module__", None) == module.__name__
                and not isinstance(value, type)
            ):
                _replace_everywhere(
                    patches, value, rec.wrap(value, "workloads.generate")
                )
    stream_iter = generators.TxStream.__dict__["__iter__"]
    patches.set(
        generators.TxStream,
        "__iter__",
        lambda stream: _TimedIterator(stream_iter(stream), rec),
    )
    collecting = rec.gc_callback()
    gc.callbacks.append(collecting)
    try:
        yield rec
    finally:
        gc.callbacks.remove(collecting)
        patches.restore()
