"""Golden traces: seeded single-node replays stay bit-identical.

The digests were computed from the two-loop implementation that
preceded the shared 1-node-fleet replay, so they pin that
``run_scenario`` kept its behaviour through the refactor.  Each digest
covers the trace's times, counter rows (NaN-aware), concurrency and
records; ``decided_s`` is excluded (direct placements now stamp their
arrival instant where they used to carry ``None``).
"""

from repro.cluster.scenario import ScenarioConfig, run_scenario
from repro.faults.runtime import active_plan
from repro.orchestrator.policies import RandomPolicy
from tests.faults.test_checkpoint import CONFIG, faulty_plan
from tests.helpers import trace_digest

CONGESTED = ScenarioConfig(duration_s=1800.0, spawn_interval=(5.0, 20.0), seed=3)

UNSCHEDULED = "4b1f01346a11d6e66da1cdc3dd61f801d76c6d7699b46bed353c280aceea2e55"
RANDOM_UNDER_FAULTS = (
    "7cbe7d51cb8e3be8bd4bad333f34cb072016d5f970d03db87b3d2f07d8bbf9e7"
)


def test_unscheduled_replay_matches_golden_digest():
    trace = run_scenario(CONGESTED)
    assert len(trace.records) == 154
    assert trace_digest(trace) == UNSCHEDULED


def test_random_policy_under_faults_matches_golden_digest():
    with active_plan(faulty_plan()):
        trace = run_scenario(CONFIG, scheduler=RandomPolicy(seed=5))
    assert len(trace.records) == 16
    assert trace_digest(trace) == RANDOM_UNDER_FAULTS


def test_direct_placements_stamp_their_decision_instant():
    trace = run_scenario(CONGESTED)
    assert all(r.decided_s == r.arrival_time for r in trace.records)
