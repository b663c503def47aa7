"""Adversarial scenario suite: seeded attacks through the full engine.

The library (:mod:`repro.scenarios.library`) ships five attacks —
shard takeover, cross-shard double spend, fee griefing, eclipse-lite,
and adaptive identity grinding — each compiling to miners + workload +
adversary behaviors + (optionally) a fault plan, executed by the
unmodified protocol engine, and reduced to a schema-stable
:class:`DetectionReport`.

:mod:`repro.scenarios.overlay` closes the loop with the paper's math:
it measures Eq. 3's shard-corruption probability from live takeover
runs and overlays it on the Fig. 1d closed forms.

Quickstart::

    from repro.scenarios import get_scenario, run_scenario

    outcome = run_scenario(get_scenario("takeover"), seed=0)
    print(outcome.report.as_dict())
"""

from repro.scenarios.adversary import (
    CensorshipForkBehavior,
    ForkTracker,
    WithholdingBehavior,
)
from repro.scenarios.base import (
    ProbeSample,
    Scenario,
    ScenarioOutcome,
    ScenarioRun,
    run_scenario,
)
from repro.scenarios.detection import (
    DetectionReport,
    count_events,
    first_event_time,
    reverted_tx_indexes,
)
from repro.scenarios.library import (
    SCENARIOS,
    AdaptiveConcentrationScenario,
    CrossShardDoubleSpendScenario,
    EclipseScenario,
    FeeGriefingScenario,
    ShardTakeoverScenario,
    get_scenario,
    scenario_names,
)
from repro.scenarios.overlay import (
    DEFAULT_POINTS,
    SweepPoint,
    render_sweep,
    takeover_corruption_sweep,
)

__all__ = [
    "AdaptiveConcentrationScenario",
    "CensorshipForkBehavior",
    "CrossShardDoubleSpendScenario",
    "DEFAULT_POINTS",
    "DetectionReport",
    "EclipseScenario",
    "FeeGriefingScenario",
    "ForkTracker",
    "ProbeSample",
    "SCENARIOS",
    "Scenario",
    "ScenarioOutcome",
    "ScenarioRun",
    "ShardTakeoverScenario",
    "SweepPoint",
    "WithholdingBehavior",
    "count_events",
    "first_event_time",
    "get_scenario",
    "render_sweep",
    "reverted_tx_indexes",
    "run_scenario",
    "scenario_names",
    "takeover_corruption_sweep",
]
