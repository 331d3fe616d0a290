import numpy as np
import pytest

from repro.cluster import (
    ScenarioConfig,
    default_pool,
    generate_arrivals,
    run_scenario,
)
from repro.workloads import MemoryMode, WorkloadKind, spark_profile


class TestConfigValidation:
    def test_bad_spawn_interval(self):
        with pytest.raises(ValueError):
            ScenarioConfig(spawn_interval=(40.0, 5.0))
        with pytest.raises(ValueError):
            ScenarioConfig(spawn_interval=(0.0, 5.0))

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration_s=0.0)


class TestDefaultPool:
    def test_composition(self):
        pool = default_pool()
        names = {p.name for p in pool}
        assert len(pool) == 23
        assert "redis" in names and "memcached" in names
        assert "ibench-memBw" in names


class TestGenerateArrivals:
    def test_deterministic_for_seed(self):
        config = ScenarioConfig(duration_s=600, seed=5)
        a = generate_arrivals(config)
        b = generate_arrivals(config)
        assert [(x.time, x.profile.name, x.mode) for x in a] == [
            (x.time, x.profile.name, x.mode) for x in b
        ]

    def test_different_seeds_differ(self):
        a = generate_arrivals(ScenarioConfig(duration_s=600, seed=1))
        b = generate_arrivals(ScenarioConfig(duration_s=600, seed=2))
        assert [x.profile.name for x in a] != [x.profile.name for x in b]

    def test_interarrival_within_bounds(self):
        config = ScenarioConfig(duration_s=2000, spawn_interval=(5, 20), seed=3)
        arrivals = generate_arrivals(config)
        times = [a.time for a in arrivals]
        gaps = np.diff(times)
        assert np.all(gaps >= 5.0 - 1e-9) and np.all(gaps <= 20.0 + 1e-9)
        assert times[-1] < 2000

    def test_heavier_interval_means_more_arrivals(self):
        heavy = generate_arrivals(ScenarioConfig(duration_s=1800, spawn_interval=(5, 20), seed=4))
        light = generate_arrivals(ScenarioConfig(duration_s=1800, spawn_interval=(5, 60), seed=4))
        assert len(heavy) > len(light)

    def test_interference_gets_durations(self):
        arrivals = generate_arrivals(ScenarioConfig(duration_s=3000, seed=6))
        for arrival in arrivals:
            if arrival.profile.kind is WorkloadKind.INTERFERENCE:
                assert arrival.duration_s is not None
            else:
                assert arrival.duration_s is None

    def test_scheduler_mode_deferred(self):
        arrivals = generate_arrivals(
            ScenarioConfig(duration_s=600, seed=7), random_modes=False
        )
        assert all(a.mode is None for a in arrivals)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            generate_arrivals(ScenarioConfig(), pool=[])


class TestRunScenario:
    def test_all_arrivals_complete_with_drain(self):
        config = ScenarioConfig(duration_s=400, spawn_interval=(10, 30), seed=8)
        trace = run_scenario(config)
        arrivals = generate_arrivals(config)
        assert len(trace.records) == len(arrivals)

    def test_scheduler_overrides_modes(self):
        config = ScenarioConfig(duration_s=400, spawn_interval=(10, 30), seed=9)

        def all_local(profile, engine):
            return MemoryMode.LOCAL

        trace = run_scenario(config, scheduler=all_local)
        assert all(r.mode is MemoryMode.LOCAL for r in trace.records)

    def test_same_seed_same_arrival_sequence_across_policies(self):
        config = ScenarioConfig(duration_s=400, spawn_interval=(10, 30), seed=10)
        t1 = run_scenario(config, scheduler=lambda p, e: MemoryMode.LOCAL)
        t2 = run_scenario(config, scheduler=lambda p, e: MemoryMode.REMOTE)
        assert [r.name for r in sorted(t1.records, key=lambda r: r.arrival_time)] == [
            r.name for r in sorted(t2.records, key=lambda r: r.arrival_time)
        ]

    def test_restricted_pool(self):
        config = ScenarioConfig(duration_s=300, spawn_interval=(10, 30), seed=11)
        trace = run_scenario(config, pool=[spark_profile("scan")])
        assert all(r.name == "scan" for r in trace.records)

    def test_caller_engine_keeps_its_tick_and_clock(self):
        from repro.cluster.engine import ClusterEngine
        from repro.hardware import Testbed, TestbedConfig

        engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=13)), dt=0.5)
        engine.run_for(10.0)
        config = ScenarioConfig(duration_s=200, spawn_interval=(10, 30), seed=13)
        trace = run_scenario(config, engine=engine)
        assert trace is engine.trace
        assert trace.times[:2] == [0.5, 1.0]
        assert len(trace.records) == len(generate_arrivals(config))

    def test_no_drain_leaves_trace_at_duration(self):
        config = ScenarioConfig(
            duration_s=300, spawn_interval=(10, 30), seed=12, drain=False
        )
        trace = run_scenario(config)
        assert trace.times[-1] == pytest.approx(300.0, abs=1.5)


class TestFleetFaultKindsOnOneNode:
    """A single-node replay is a 1-node fleet, so node faults apply."""

    CONFIG = ScenarioConfig(duration_s=400, spawn_interval=(15, 30), seed=3)

    @staticmethod
    def crash_plan(node="n0"):
        from repro.faults.plan import FaultPlan, FaultSpec

        return FaultPlan(
            faults=(
                FaultSpec(kind="node_crash", start_s=100.0, duration_s=600.0,
                          params={"node": node}),
                # Explicit early reboot: n0 is down from 100 s to 160 s.
                FaultSpec(kind="node_rejoin", start_s=160.0,
                          duration_s=540.0, params={"node": node}),
            ),
            seed=4,
        )

    def test_crash_parks_and_rejoin_replays(self):
        from repro.cluster.fleet_scenario import (
            FleetScenarioConfig,
            run_fleet_scenario,
        )
        from repro.cluster.scenario import _PinnedNode
        from repro.faults.runtime import active_plan
        from repro.orchestrator.policies import RandomPolicy
        from tests.helpers import assert_traces_identical

        with active_plan(self.crash_plan()):
            fleet = run_fleet_scenario(
                FleetScenarioConfig(scenario=self.CONFIG, n_nodes=1),
                scheduler=_PinnedNode(RandomPolicy(seed=5)),
            )
        health = fleet.health
        assert health.counters["drained"] > 0
        assert health.counters["replayed"] == health.counters["drained"]
        assert health.pending == 0
        assert health.status("n0").value == "up"
        accounting = fleet.accounting()
        assert accounting["submitted"] == accounting["total"]
        assert accounting["running"] == accounting["parked"] == 0
        # The dead interval is an all-NaN telemetry gap.
        trace = fleet.engines[0].trace
        dead = [t for t, row in zip(trace.times, trace._counter_rows)
                if np.isnan(row).all()]
        assert dead and 100.0 < dead[0] < dead[-1] <= 161.0
        # run_scenario replays exactly that 1-node fleet.
        with active_plan(self.crash_plan()):
            single = run_scenario(self.CONFIG, scheduler=RandomPolicy(seed=5))
        assert_traces_identical(single, trace)

    def test_plan_targeting_another_node_is_rejected(self):
        from repro.faults.errors import FaultPlanError
        from repro.faults.runtime import active_plan
        from repro.orchestrator.policies import RandomPolicy

        with active_plan(self.crash_plan(node="n1")):
            with pytest.raises(FaultPlanError, match="unknown node 'n1'"):
                run_scenario(self.CONFIG, scheduler=RandomPolicy(seed=5))

    def test_device_loss_without_a_rack_pool_is_rejected(self):
        from repro.faults.errors import FaultPlanError
        from repro.faults.plan import FaultPlan, FaultSpec
        from repro.faults.runtime import active_plan
        from repro.orchestrator.policies import RandomPolicy

        plan = FaultPlan(
            faults=(FaultSpec(kind="pool_device_fail", start_s=50.0,
                              duration_s=50.0, params={"fraction": 0.5}),),
            seed=4,
        )
        with active_plan(plan):
            with pytest.raises(FaultPlanError, match="rack pool"):
                run_scenario(self.CONFIG, scheduler=RandomPolicy(seed=5))
