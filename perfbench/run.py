"""Benchmark of the simulator over its four canonical profiles.

Usage, from the repository root::

    python3 perfbench/run.py --workload broadcast-heavy --seed 11 --seconds 20 --trace 0

``--trace 0`` times closed-loop runs (one caller; the next simulation
starts when the previous one returns) for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json`` as medians, in reference
seconds of a host-speed probe sampled during every timed run (see
``hostspeed.py``). ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics,
measured by spans around the program's public entry points (see
``spans.py``). Every run's simulated outcome is checked: conservation
always, the values in ``expected.json`` on a recorded seed, and
identity with the invocation's first run. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--outcome`` prints one run's checked outcome instead, the values
``expected.json`` records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Minimum closed-loop runs per invocation, even past ``--seconds``.
MIN_RUNS = 3
#: Fresh interpreters per ``figures`` invocation, each paying imports
#: and lazy caches once; their median is ``setup_s``.
FIGURE_COLD_PASSES = 5


class Checker:
    """Counts attempted and failed runs and says why each failure failed."""

    def __init__(self, workload: str, seed: int, expected: dict) -> None:
        self.workload = workload
        self.recorded = expected["workloads"][workload]["outcomes"].get(str(seed))
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"[perfbench] {self.workload}: FAIL {reason}", file=sys.stderr)

    def check(self, outcome: dict, conservation=None) -> None:
        self.attempted += 1
        if conservation is not None and (error := conservation(outcome)):
            self.fail(error)
        elif self.recorded is not None and outcome != self.recorded:
            self.fail(f"outcome {outcome} differs from recorded {self.recorded}")
        elif self.first is not None and outcome != self.first:
            self.fail(f"outcome {outcome} differs from this invocation's first {self.first}")
        if self.first is None:
            self.first = outcome


def closed_loop(seconds: float, step, min_runs: int = MIN_RUNS) -> list:
    """Call ``step()`` back to back until another call would overrun."""
    samples, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        samples.append(step())
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(samples) >= min_runs and elapsed + statistics.median(durations) > seconds:
            return samples


def median(values) -> float:
    return float(statistics.median(values))


def report_host(factors: list[float]) -> None:
    print(
        f"[perfbench] host speed: median {median(factors):.3f} reference s per "
        f"measured s (range {min(factors):.3f}-{max(factors):.3f}, {len(factors)} runs)",
        file=sys.stderr,
    )


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# protocol workloads
# ----------------------------------------------------------------------
def protocol_run(profile, seed: int, checker: Checker, recorder=None, sampled=False) -> dict:
    """One closed-loop step: set-up, run, outcome check.

    Times are reference seconds when ``sampled``, else measured seconds.
    """
    from profiles import conservation_error

    gc.collect()
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            from spans import instrument

            stack.enter_context(instrument(recorder))
        clock = stack.enter_context(hostspeed.Clock(sampling=sampled))
        sim, transactions = profile.build(seed)
        clock.lap()
        result = sim.run()
    setup_s, run_s = clock.laps
    outcome, counters = profile.outcome(sim, result, transactions)
    checker.check(outcome, conservation_error)
    resolved = outcome["confirmed"] + outcome["evicted"]
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "total_s": setup_s + run_s,
        "tx_per_s": resolved / (setup_s + run_s),
        "factor": clock.factor,
        "counters": counters,
    }


def check_broadcast_digest(checker: Checker, expected: dict) -> None:
    """The seed-11 traced run must be the program the old record timed."""
    from profiles import broadcast_heavy_digest

    record = expected["broadcast_heavy_trace"]
    digest, events = broadcast_heavy_digest()
    checker.attempted += 1
    if digest != record["trace_digest"] or events != record["events_fired"]:
        checker.fail(
            f"seed-{record['seed']} trace digest {digest} / {events} events, "
            f"recorded {record['trace_digest']} / {record['events_fired']}"
        )


def measure_protocol(name: str, seed: int, seconds: float, checker, expected) -> dict:
    from profiles import PROTOCOL_PROFILES

    profile = PROTOCOL_PROFILES[name]
    runs = closed_loop(seconds, lambda: protocol_run(profile, seed, checker, sampled=True))
    report_host([run["factor"] for run in runs])
    metrics = {
        key: median(run[key] for run in runs)
        for key in ("setup_s", "run_s", "total_s", "tx_per_s")
    }
    metrics["peak_rss_mb"] = peak_rss_mb()
    if name == "broadcast-heavy":
        check_broadcast_digest(checker, expected)
    return metrics


def trace_protocol(name: str, seed: int, seconds: float, checker, expected) -> dict:
    from profiles import PROTOCOL_PROFILES

    profile = PROTOCOL_PROFILES[name]
    metrics = trace_loop(
        name, seed, seconds, lambda recorder: protocol_run(profile, seed, checker, recorder)
    )
    if name == "broadcast-heavy":
        check_broadcast_digest(checker, expected)
    return metrics


def trace_loop(name: str, seed: int, seconds: float, step) -> dict:
    """Alternate untraced and traced runs; median per-layer metrics.

    The untraced runs are the base of ``trace.overhead_ratio`` and of
    ``events_per_s``. Only the last run's spans are kept and written.
    """
    from layers import layer_metrics
    from spans import SpanRecorder

    untraced: list[dict] = []
    traced: list[float] = []
    per_run: list[dict] = []
    last: dict = {}

    def pair() -> None:
        untraced.append(step(None))
        recorder = SpanRecorder()
        run = step(recorder)
        per_run.append(layer_metrics(recorder, run["total_s"], run["counters"]))
        recorder.seen.clear()  # release the run's schedulers and caches
        traced.append(run["total_s"])
        last.update(run=run, recorder=recorder)

    closed_loop(seconds, pair, min_runs=1)
    metrics = {key: median(m[key] for m in per_run) for key in per_run[0]}
    metrics["net.events.events_per_s"] = metrics["net.events.events_fired"] / median(
        run["run_s"] for run in untraced
    )
    base_total = median(run["total_s"] for run in untraced)
    metrics["trace.overhead_ratio"] = median(traced) / base_total

    recorder, wall_s = last["recorder"], last["run"]["total_s"]
    path = OUT / f"{name}-seed{seed}.npz"
    recorder.dump(
        path,
        {
            "workload": name,
            "seed": seed,
            "wall_s": wall_s,
            "untraced_total_s": base_total,
            "by_name": recorder.by_name(),
            "metrics": metrics,
        },
    )
    print(f"[perfbench] spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics


# ----------------------------------------------------------------------
# the figure suite
# ----------------------------------------------------------------------
def figures_cold(seed: int) -> dict:
    """One cold pass in this (fresh) interpreter, imports included, in
    reference seconds."""
    with hostspeed.Clock() as clock:
        from profiles import figures_pass

        outcome = figures_pass(seed)
    return {
        "setup_s": clock.laps[0],
        "factor": clock.factor,
        "outcome": outcome,
        "peak_rss_mb": peak_rss_mb(),
    }


def spawn_cold(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "figures",
         "--seed", str(seed), "--cold-pass"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold pass exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def lane_transactions(seed: int, checker: Checker) -> int:
    """Warm-up pass (untimed) that also counts lane-confirmed transactions."""
    from profiles import figures_pass
    from repro.sim.simulator import ShardedSimulation

    original = ShardedSimulation.__dict__["run"]
    confirmed = 0

    def counting(sim):
        nonlocal confirmed
        result = original(sim)
        confirmed += result.confirmed_transactions
        return result

    ShardedSimulation.run = counting
    try:
        checker.check(figures_pass(seed))
    finally:
        ShardedSimulation.run = original
    return confirmed


def measure_figures(seed: int, seconds: float, checker: Checker) -> dict:
    """Cold passes in fresh interpreters, then warm passes in this one,
    all within ``seconds``."""
    from profiles import figures_pass

    start = time.perf_counter()
    cold = [spawn_cold(seed) for __ in range(FIGURE_COLD_PASSES)]
    for sample in cold:
        checker.check(sample["outcome"])
    lane_txs = lane_transactions(seed, checker)

    def warm() -> hostspeed.Clock:
        gc.collect()
        with hostspeed.Clock() as clock:
            outcome = figures_pass(seed)
        checker.check(outcome)
        return clock

    runs = closed_loop(seconds - (time.perf_counter() - start), warm)
    report_host([sample["factor"] for sample in cold] + [clock.factor for clock in runs])
    setup_s = median(sample["setup_s"] for sample in cold)
    run_s = median(clock.laps[0] for clock in runs)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "total_s": setup_s + run_s,
        "tx_per_s": lane_txs / (setup_s + run_s),
        "peak_rss_mb": median(sample["peak_rss_mb"] for sample in cold),
    }


def trace_figures(seed: int, seconds: float, checker: Checker) -> dict:
    from profiles import figures_pass, run_experiment
    from spans import instrument

    checker.check(figures_pass(seed))  # warm-up: imports and lazy caches

    def step(recorder) -> dict:
        gc.collect()
        if recorder is None:
            t0 = time.perf_counter()
            outcome = figures_pass(seed)
        else:
            def spanned(experiment_id, **kwargs):
                with recorder.span(f"experiments.{experiment_id}"):
                    return run_experiment(experiment_id, **kwargs)

            with instrument(recorder):
                t0 = time.perf_counter()
                outcome = figures_pass(seed, spanned)
        elapsed = time.perf_counter() - t0
        checker.check(outcome)
        return {"run_s": elapsed, "total_s": elapsed, "counters": {}}

    return trace_loop("figures", seed, seconds, step)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outcome", action="store_true",
                        help="print one run's checked outcome and exit")
    parser.add_argument("--cold-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    if args.workload not in expected["workloads"]:
        parser.error(f"unknown workload {args.workload!r}")

    if args.cold_pass:
        print(json.dumps(figures_cold(args.seed)))
        return 0
    if args.outcome:
        print(json.dumps(one_outcome(args.workload, args.seed), indent=1))
        return 0

    seconds = args.seconds or spec["run_seconds"]
    checker = Checker(args.workload, args.seed, expected)
    if args.workload == "figures":
        measure = trace_figures if args.trace else measure_figures
        metrics = measure(args.seed, seconds, checker)
    else:
        measure = trace_protocol if args.trace else measure_protocol
        metrics = measure(args.workload, args.seed, seconds, checker, expected)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    for m in declared:
        print(f"{args.workload:>16} {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


def one_outcome(workload: str, seed: int) -> dict:
    from profiles import PROTOCOL_PROFILES, figures_pass

    if workload == "figures":
        return figures_pass(seed)
    profile = PROTOCOL_PROFILES[workload]
    sim, transactions = profile.build(seed)
    return profile.outcome(sim, sim.run(), transactions)[0]


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash must not look like a result
        traceback.print_exc()
        sys.exit(1)
