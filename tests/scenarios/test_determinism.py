"""Scenario determinism: (scenario, seed) pins the trace.

Same (scenario, seed) must yield bit-identical trace digests in-process
and against the recorded ``tests/sim/seed_digests.json`` baselines;
different seeds must vary the metrics while the report schema stays
fixed.
"""

import json
import pathlib

import pytest

from repro.scenarios import DetectionReport, get_scenario, run_scenario, scenario_names

BASELINES = json.loads(
    (
        pathlib.Path(__file__).parent.parent / "sim" / "seed_digests.json"
    ).read_text()
)

#: Cheap-but-representative subset with recorded seed-0 digests.
#: ("takeover" exercises behaviors + run_to_horizon, "double-spend" the
#: vanilla path, "eclipse" fault plans + probes.)
PARITY_SCENARIOS = ["takeover", "double-spend", "eclipse"]


@pytest.mark.parametrize("name", scenario_names())
def test_same_seed_same_digest_fast(name):
    first = run_scenario(get_scenario(name), seed=1)
    second = run_scenario(get_scenario(name), seed=1)
    assert first.digest == second.digest
    assert first.report == second.report


@pytest.mark.parametrize("name", PARITY_SCENARIOS)
def test_seed_zero_digest_matches_recorded_baseline(name):
    outcome = run_scenario(get_scenario(name), seed=0)
    assert outcome.digest == BASELINES[f"scenario-{name}"]
    assert outcome.report.as_dict()["engine"] == "fast"


@pytest.mark.parametrize("name", scenario_names())
def test_different_seeds_vary_metrics_not_schema(name):
    a = run_scenario(get_scenario(name), seed=0)
    b = run_scenario(get_scenario(name), seed=2)
    assert a.digest != b.digest
    # Schema stability: same core keys, same extras keys, per scenario.
    a_dict, b_dict = a.report.as_dict(), b.report.as_dict()
    assert set(a_dict) == set(b_dict) == set(DetectionReport.core_keys()) | {"extras"}
    assert set(a_dict["extras"]) == set(b_dict["extras"])


def test_takeover_seeds_change_time_to_detect():
    a = run_scenario(get_scenario("takeover"), seed=0)
    b = run_scenario(get_scenario("takeover"), seed=2)
    assert a.report.time_to_detect != b.report.time_to_detect
    # Both seeds still reach the same verdict at the default coalition.
    assert a.report.safety_violated and b.report.safety_violated
