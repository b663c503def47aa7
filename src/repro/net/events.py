"""The discrete-event engine.

A classic calendar queue: events carry a firing time and a callback;
:class:`Scheduler` pops them in time order and advances the simulation
clock. Ties break on a monotone sequence number so simultaneous events
fire in scheduling order, keeping runs deterministic.

This is the hot loop of every protocol simulation, so the engine is
built for throughput:

* heap entries are ``(time, sequence, event)`` **tuples** — tuple
  comparison short-circuits on the floats and never allocates, unlike
  ``@dataclass(order=True)`` whose ``__lt__`` builds two tuples per
  heap sift;
* events are **slotted** records dispatched as ``callback(*args)``, so
  callers schedule bound methods with arguments instead of allocating a
  closure per send;
* the live-event count is maintained **incrementally** (push/pop/cancel
  each adjust an integer), so ``len(queue)`` / ``Scheduler.pending`` is
  O(1) — callers polling it in loops used to be accidentally quadratic;
* cancelled entries are **lazily compacted**: once more than half of a
  non-trivial heap is dead weight the heap is rebuilt in one O(n)
  filter + heapify pass instead of dribbling tombstones through every
  subsequent sift;
* fan-outs are **wave-scheduled**: a broadcast to N recipients is one
  self-re-arming :class:`DeliveryWave` heap entry instead of N pushes.
  The wave holds its delivery times as one sorted float64 array, the
  argsort that produced it (stable on exact ties), the first of the N
  contiguous sequence numbers the individual events would have used,
  and the recipients as a shared table (optionally with an index array
  into it) — no Python float, int or list slot per pending delivery.
  It reinserts itself keyed on the next delivery after each pop, so
  interleaving with every other event, including exact-time ties, is
  bit-identical to N separate entries while the standing heap footprint
  per in-flight broadcast is O(1).

The recorded ``tests/sim/seed_digests.json`` digests pin the resulting
event order.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from repro.errors import SimulationError

EventCallback = Callable[..., None]

#: Compaction trigger: heaps smaller than this are never compacted.
_COMPACT_MIN_SIZE = 64
#: Compaction trigger: cancelled fraction of the heap that forces a rebuild.
_COMPACT_FRACTION = 0.5


class Event:
    """A scheduled callback with arguments; a cancellable handle.

    Ordering lives in the queue's ``(time, sequence)`` tuple keys, not
    on the event itself.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: EventCallback,
        args: tuple = (),
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped.

        Idempotent; the owning queue's live count drops immediately and
        the tombstone is swept out by the next lazy compaction.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancel()

    def fire(self) -> None:
        self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.sequence}, {state})"


class DeliveryWave:
    """One heap entry standing in for a whole fan-out of deliveries.

    Holds, with no Python float, int or list slot per pending delivery:
    ``times`` (the delivery times sorted ascending, a float64 array),
    ``order`` (the argsort that sorted them, stable on exact ties: slot
    ``pos`` is item ``order[pos]``), ``seq0`` (the first of the
    contiguous sequence numbers reserved in item order at push time, so
    slot ``pos`` is sequence ``seq0 + order[pos]``) and the recipients:
    ``items``, shared with the caller, read through ``slots`` — the
    caller's ``index`` array into ``items`` permuted into delivery order.
    ``Network`` always passes ``index``; without one, item ``i`` is
    ``items[i]`` and ``slots`` is ``order`` itself, a form only the
    list-based scheduler tests use. ``emit(item)`` is called lazily at
    pop time and returns that delivery's ``(callback, args)``.

    Ordering contract: the wave's heap key is always the ``(time,
    sequence)`` key of its earliest undelivered item, so it interleaves
    with every other heap entry — ties included — exactly as the
    individual events would have. Each pop delivers one recipient and
    re-keys the wave on the next (``heapreplace``, one sift).

    ``cancelled`` is always False: waves are never cancelled as a unit
    (the fault layer bypasses wave scheduling entirely), which lets the
    queue's tombstone sweeps treat them as ordinary live entries.
    """

    __slots__ = ("times", "order", "seq0", "items", "slots", "emit", "pos",
                 "cancelled", "_event")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        items: Sequence,
        emit: Callable[[object], tuple[EventCallback, tuple]],
        index: np.ndarray | None = None,
    ) -> None:
        times = np.asarray(times, dtype=np.float64)
        order = times.argsort(kind="stable")
        self.times = times[order]
        self.order = order
        self.seq0 = 0
        self.items = items
        self.slots = order if index is None else index[order]
        self.emit = emit
        self.pos = 0
        self.cancelled = False
        # One mutable Event reused for every delivery of this wave: pops
        # are consumed immediately by the run loops and never retained.
        self._event = Event(0.0, 0, _unemitted, (), queue=None)


def _unemitted() -> None:  # pragma: no cover - placeholder callback
    raise SimulationError("DeliveryWave event fired before emit")


class EventQueue:
    """A heap of pending events with an O(1) live count."""

    def __init__(self) -> None:
        # Entries are (time, sequence, event): sequence is unique, so
        # tuple comparison never reaches the (incomparable) event.
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._live = 0
        self._cancelled_in_heap = 0
        self.compactions = 0
        #: High-water mark of *physical* heap entries (a wave counts as
        #: one). The digest-excluded ``wall`` sidecars report this as
        #: ``peak_pending`` — the footprint the wave scheduling shrinks.
        self.peak_entries = 0

    def __len__(self) -> int:
        """Live (non-cancelled) events — maintained incrementally."""
        return self._live

    def push(self, time: float, callback: EventCallback, args: tuple = ()) -> Event:
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, args, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        if len(self._heap) > self.peak_entries:
            self.peak_entries = len(self._heap)
        return event

    def push_wave(self, wave: DeliveryWave) -> DeliveryWave:
        """Schedule a fan-out as one :class:`DeliveryWave` heap entry.

        Reserves the wave's sequence block — exactly what one push per
        item, in item order, would have drawn — and keys the wave on its
        earliest delivery.
        """
        n = wave.times.size
        seq0 = self._next_seq
        self._next_seq = seq0 + n
        wave.seq0 = seq0
        heapq.heappush(
            self._heap, (wave.times.item(0), seq0 + wave.order.item(0), wave)
        )
        self._live += n
        if len(self._heap) > self.peak_entries:
            self.peak_entries = len(self._heap)
        return wave

    def pop(self) -> Event | None:
        """Pop the earliest live event, or None when drained.

        A :class:`DeliveryWave` at the top releases exactly one delivery
        (materialized via its ``emit`` hook into the wave's reusable
        event record) and re-keys itself on the next one in place.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.__class__ is DeliveryWave:
                wave = event
                pos = wave.pos
                callback, args = wave.emit(wave.items[wave.slots.item(pos)])
                out = wave._event
                out.time = entry[0]
                out.sequence = entry[1]
                out.callback = callback
                out.args = args
                out.cancelled = False
                pos += 1
                wave.pos = pos
                if pos < wave.times.size:
                    key = wave.seq0 + wave.order.item(pos)
                    heapq.heapreplace(heap, (wave.times.item(pos), key, wave))
                else:
                    heapq.heappop(heap)
                self._live -= 1
                return out
            heapq.heappop(heap)
            if not event.cancelled:
                self._live -= 1
                # Detach: a cancel() after the pop must not touch the
                # live/tombstone counters — the event already left.
                event._queue = None
                return event
            self._cancelled_in_heap -= 1
        return None

    def peek_time(self) -> float | None:
        """The firing time of the earliest live event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= _COMPACT_MIN_SIZE
            and self._cancelled_in_heap > len(self._heap) * _COMPACT_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone in one filter + heapify pass."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1


class Scheduler:
    """Owns the clock and runs the event loop."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending(self) -> int:
        """Live scheduled events — O(1)."""
        return len(self._queue)

    @property
    def compactions(self) -> int:
        """How many times the queue swept out cancelled tombstones."""
        return self._queue.compactions

    @property
    def peak_pending(self) -> int:
        """High-water mark of physical heap entries (a wave counts as 1).

        The heap-footprint gauge the scale bench tracks: wave scheduling
        and the mining calendar shrink this from O(miners + in-flight
        deliveries) to O(shards + in-flight broadcasts).
        """
        return self._queue.peak_entries

    @property
    def next_time(self) -> float | None:
        """Firing time of the earliest live event, or None when drained."""
        return self._queue.peek_time()

    def schedule_at(self, time: float, callback: EventCallback, *args) -> Event:
        """Schedule an absolute-time event; it must not be in the past.

        Extra positional ``args`` are passed to ``callback`` when the
        event fires — schedule bound methods directly instead of
        wrapping them in closures.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.3f}s: clock is already at {self._now:.3f}s"
            )
        return self._queue.push(time, callback, args)

    def schedule_in(self, delay: float, callback: EventCallback, *args) -> Event:
        """Schedule an event ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_wave(
        self,
        times: Sequence[float] | np.ndarray,
        items: Sequence,
        emit: Callable[[object], tuple[EventCallback, tuple]],
        index: np.ndarray | None = None,
    ) -> DeliveryWave | None:
        """Schedule a fan-out as one self-re-arming heap entry.

        ``times`` are absolute delivery times (one per item, any order;
        a float64 array or a sequence of floats). Item ``i`` is
        ``items[i]``, or ``items[index[i]]`` when an ``index`` array into
        a shared table is given. ``emit(item)`` materializes the
        ``(callback, args)`` pair lazily when that item's delivery pops.
        Equivalent to ``len(times)`` :meth:`schedule_at` calls in item
        order — same sequence-number block, same tie-breaking — at O(1)
        standing heap footprint.
        """
        if len(times) == 0:
            return None
        wave = DeliveryWave(times, items, emit, index)
        earliest = wave.times.item(0)
        if earliest < self._now:
            raise SimulationError(
                f"cannot schedule wave at {earliest:.3f}s: "
                f"clock is already at {self._now:.3f}s"
            )
        return self._queue.push_wave(wave)

    def run(
        self,
        until: float | None = None,
        stop_condition: Callable[[], bool] | None = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Drain the queue; returns the final clock value.

        ``until`` caps simulated time (the clock is advanced to it when
        the queue drains without the stop condition firing);
        ``stop_condition`` is re-evaluated after every event — when it
        fires the clock stays at the stopping event's time, so callers
        can read ``now`` as the actual completion time;
        ``max_events`` is a runaway-loop guard.
        """
        queue = self._queue
        fired = 0
        while True:
            if stop_condition is not None and stop_condition():
                return self._now
            next_time = queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                return self._now
            # Checked before the pop, not after the fire: a run that
            # finishes in exactly ``max_events`` events is within budget.
            if fired >= max_events:
                raise SimulationError(
                    f"event budget exhausted after {max_events} events"
                )
            event = queue.pop()
            assert event is not None
            self._now = event.time
            event.callback(*event.args)
            self._events_fired += 1
            fired += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now
