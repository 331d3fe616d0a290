"""Checkpoint/resume: the resumed trace is bit-identical to uninterrupted."""

import json

import pytest

from repro.cluster.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    scenario_section,
)
from repro.cluster.fleet import ClusterFleet
from repro.cluster.scenario import ScenarioConfig, resume_scenario, run_scenario
from repro.faults.errors import CheckpointError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.runtime import active_plan
from repro.orchestrator.policies import RandomPolicy
from tests.helpers import assert_traces_identical

CONFIG = ScenarioConfig(duration_s=400.0, spawn_interval=(15.0, 30.0), seed=3)


def faulty_plan():
    return FaultPlan(
        faults=(
            FaultSpec(
                kind="telemetry_corrupt", start_s=40.0, duration_s=60.0,
                params={"probability": 0.4},
            ),
            FaultSpec(kind="link_outage", start_s=150.0, duration_s=60.0),
        ),
        seed=21,
    )


class TestRoundTrip:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        full = run_scenario(
            CONFIG,
            scheduler=RandomPolicy(seed=5),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        assert ckpt.exists()
        resumed = resume_scenario(ckpt, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(full, resumed)

    def test_resume_under_faults_matches(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        with active_plan(faulty_plan()):
            full = run_scenario(
                CONFIG,
                scheduler=RandomPolicy(seed=5),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        # The checkpoint embeds the fault plan; no armed plan is needed
        # (or consulted) on the resume path.
        resumed = resume_scenario(ckpt, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(full, resumed)

    def test_checkpoint_restores_injector_and_policy_state(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        with active_plan(faulty_plan()):
            run_scenario(
                CONFIG,
                scheduler=RandomPolicy(seed=5),
                checkpoint_path=ckpt,
                checkpoint_every_s=100.0,
            )
        data = load_checkpoint(ckpt, "scenario")
        [injector] = data["scenario"]["injectors"]
        assert injector["plan"]["seed"] == 21
        assert data["policy"] is not None
        assert "rng_state" in data["policy"]
        assert data["scenario"]["arrivals_done"] > 0
        assert data["scenario"]["n_nodes"] == 1


class TestValidation:
    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope.json", "scenario")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path, "scenario")

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, "scenario")

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(
            {"version": 2, "fleet": {}, "policy": None, "scenario": {}}
        ))
        with pytest.raises(CheckpointError, match="missing fields"):
            load_checkpoint(path, "scenario")

    def test_missing_section_raises(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"version": 2, "fleet": {}, "policy": None}))
        with pytest.raises(CheckpointError, match="missing sections.*scenario"):
            load_checkpoint(path, "scenario")

    def test_v1_run_payload_rejected(self, tmp_path):
        """A pre-v2 single-engine run checkpoint names its version."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "version": 1, "scenario": CONFIG.to_dict(), "arrivals_done": 3,
            "engine": {}, "injector": None, "policy": None,
        }))
        with pytest.raises(CheckpointError, match="version 1 "):
            resume_scenario(path, scheduler=RandomPolicy(seed=5))

    def test_fleet_checkpoint_needs_the_fleet_resume(self, tmp_path):
        from repro.cluster.fleet_scenario import (
            FleetScenarioConfig,
            run_fleet_scenario,
        )

        ckpt = tmp_path / "fleet.json"
        run_fleet_scenario(
            FleetScenarioConfig(scenario=CONFIG, n_nodes=2),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        with pytest.raises(CheckpointError, match="2-node fleet"):
            resume_scenario(ckpt)

    def test_unknown_workload_raises(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        run_scenario(
            CONFIG,
            scheduler=RandomPolicy(seed=5),
            checkpoint_path=ckpt,
            checkpoint_every_s=120.0,
        )
        with pytest.raises(CheckpointError, match="unknown workload"):
            resume_scenario(ckpt, scheduler=RandomPolicy(seed=5), pool=[])


class TestStalePayloads:
    """Old/hand-edited payloads raise CheckpointError, not KeyError."""

    @pytest.fixture()
    def ckpt(self, tmp_path):
        from repro.cluster.scenario import default_pool
        from repro.hardware import TestbedConfig
        from repro.workloads.base import MemoryMode, WorkloadKind

        pool = default_pool()
        fleet = ClusterFleet(
            n_nodes=1, testbed_config=TestbedConfig(seed=CONFIG.seed)
        )
        engine = fleet.engines[0]
        ibench = next(
            p for p in pool if p.kind is WorkloadKind.INTERFERENCE
        )
        engine.deploy(ibench, MemoryMode.LOCAL, duration_s=5.0)
        fleet.run_for(10.0)  # -> one finished record
        engine.deploy(ibench, MemoryMode.LOCAL, duration_s=1000.0)
        path = save_checkpoint(
            tmp_path / "stale.json",
            "scenario",
            scenario_section(CONFIG, fleet, arrivals_done=0),
            fleet=fleet,
        )
        data = json.loads(path.read_text())
        [saved] = data["fleet"]["engines"]
        assert saved["deployments"], "fixture needs a live deployment"
        assert saved["trace"]["records"], "fixture needs a record"
        return path, data

    def mutate(self, ckpt, strip):
        path, data = ckpt
        strip(data)
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="missing\\s+field"):
            resume_scenario(path, scheduler=RandomPolicy(seed=5))

    def test_scenario_field_missing(self, ckpt):
        self.mutate(ckpt, lambda d: d["scenario"]["config"].pop("seed"))

    def test_engine_field_missing(self, ckpt):
        self.mutate(ckpt, lambda d: d["fleet"]["engines"][0].pop("counter_rng"))

    def test_deployment_field_missing(self, ckpt):
        self.mutate(
            ckpt,
            lambda d: d["fleet"]["engines"][0]["deployments"][0].pop("app_id"),
        )

    def test_record_field_missing(self, ckpt):
        self.mutate(
            ckpt,
            lambda d: d["fleet"]["engines"][0]["trace"]["records"][0].pop(
                "finish_time"
            ),
        )

    def test_trace_field_missing(self, ckpt):
        self.mutate(
            ckpt, lambda d: d["fleet"]["engines"][0]["trace"].pop("times")
        )


class TestManualSave:
    def test_save_mid_run_and_resume(self, tmp_path):
        """save_checkpoint is usable outside the scenario loop too."""
        from repro.hardware import TestbedConfig

        fleet = ClusterFleet(
            n_nodes=1, testbed_config=TestbedConfig(seed=CONFIG.seed)
        )
        fleet.run_for(10.0)
        path = save_checkpoint(
            tmp_path / "manual.json",
            "scenario",
            scenario_section(CONFIG, fleet, arrivals_done=0),
            fleet=fleet,
        )
        data = load_checkpoint(path, "scenario")
        assert data["fleet"]["clock"] == 10.0
        assert data["fleet"]["engines"][0]["now"] == 10.0
        assert data["scenario"]["injectors"] is None
        assert data["policy"] is None
        resumed = resume_scenario(path)
        assert resumed.times[-1] >= CONFIG.duration_s
