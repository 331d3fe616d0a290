"""Daemon node-health surface and crash survival under fleet faults."""

import json

import pytest

from repro.faults.plan import FaultPlan, FaultPlanError, FaultSpec
from repro.serve.daemon import DaemonConfig, OrchestratorDaemon

CRASH = FaultPlan(
    faults=(
        FaultSpec(kind="node_crash", start_s=3.0, duration_s=6.0,
                  params={"node": "n1"}),
    ),
    seed=5,
)


def make_daemon(clock, *, plan=None, **config):
    config.setdefault("tick_interval_s", 0.5)
    return OrchestratorDaemon(DaemonConfig(**config), plan=plan, clock=clock)


def op(daemon, **payload):
    return daemon.handle_line(json.dumps(payload))


def tick(daemon, n):
    response = op(daemon, op="tick", n=n)
    assert response["ok"] is True
    return response


class TestHealthAttachment:
    def test_fleet_kind_plan_attaches_manager(self, clock):
        daemon = make_daemon(clock, plan=CRASH)
        assert daemon.health is not None
        assert daemon.fleet.health is daemon.health

    def test_daemon_only_plan_does_not(self, clock):
        plan = FaultPlan(
            faults=(FaultSpec(kind="wedged_tick", start_s=5.0,
                              duration_s=2.0),),
            seed=1,
        )
        daemon = make_daemon(clock, plan=plan)
        assert daemon.health is None

    def test_plan_validated_against_fleet_shape(self, clock):
        plan = FaultPlan(
            faults=(FaultSpec(kind="node_crash", start_s=3.0, duration_s=2.0,
                              params={"node": "n9"}),),
            seed=1,
        )
        with pytest.raises(FaultPlanError, match="n9"):
            make_daemon(clock, plan=plan, n_nodes=2)


class TestHealthSurface:
    def test_health_op_reports_per_node_status(self, clock):
        daemon = make_daemon(clock, plan=CRASH)
        health = op(daemon, op="health")
        assert health["node_health"] == {"n0": "up", "n1": "up"}
        assert health["failovers"] == {}
        assert health["failover_queue"] == 0
        tick(daemon, 6)  # into the window: three beats missed by now=5
        health = op(daemon, op="health")
        assert health["node_health"]["n0"] == "up"
        assert health["node_health"]["n1"] == "down"
        tick(daemon, 6)  # window closes at sim 9: n1 rejoins
        health = op(daemon, op="health")
        assert health["node_health"]["n1"] == "up"

    def test_health_op_without_plan_omits_node_health(self, clock):
        daemon = make_daemon(clock)
        assert "node_health" not in op(daemon, op="health")

    def test_query_carries_node_health(self, clock):
        daemon = make_daemon(clock, plan=CRASH)
        deployed = op(daemon, op="deploy", app="redis")
        assert deployed["ok"] is True
        queried = op(daemon, op="query", id=deployed["id"])
        assert queried["node_health"] == "up"


class TestCrashSurvival:
    def _deploy_on(self, daemon, node):
        """Deploy until the scheduler lands one on ``node``."""
        for _ in range(8):
            response = op(daemon, op="deploy", app="pagerank")
            assert response["ok"] is True
            if response["node"] == node:
                return response
        raise AssertionError(f"scheduler never placed on {node}")

    def test_deployments_survive_node_crash(self, clock):
        daemon = make_daemon(clock, plan=CRASH)
        entry = self._deploy_on(daemon, "n1")
        tick(daemon, 6)
        manager = daemon.health
        assert manager.counters["drained"] >= 1
        assert manager.counters["replayed"] == manager.counters["drained"]
        assert manager.pending == 0
        # Everything drained off n1 is running on the survivor.
        assert not daemon.fleet.engines[1].running
        assert daemon.fleet.engines[0].running
        acc = daemon.fleet.accounting()
        assert acc["submitted"] == acc["total"]
        queried = op(daemon, op="query", id=entry["id"])
        assert queried["node_health"] == "down"

    def test_failovers_counted_per_node(self, clock):
        daemon = make_daemon(clock, plan=CRASH)
        self._deploy_on(daemon, "n1")
        tick(daemon, 6)
        health = op(daemon, op="health")
        assert health["failovers"].get("n1")


class TestCheckpointWithHealth:
    def test_save_restore_save_is_byte_identical(self, clock, tmp_path):
        daemon = make_daemon(
            clock, plan=CRASH,
            checkpoint_path=str(tmp_path / "d.ckpt"),
        )
        op(daemon, op="deploy", app="redis")
        tick(daemon, 6)  # checkpoint lands inside the crash window
        first = daemon.save(tmp_path / "first.ckpt")
        restored = OrchestratorDaemon.restore(first, clock=clock)
        second = restored.save(tmp_path / "second.ckpt")
        assert first.read_bytes() == second.read_bytes()
        assert restored.health is not None
        assert restored.health.status("n1").value == "down"
        assert restored.fleet.submitted == daemon.fleet.submitted

    def test_restored_daemon_recovers_after_window(self, clock, tmp_path):
        daemon = make_daemon(clock, plan=CRASH)
        op(daemon, op="deploy", app="redis")
        tick(daemon, 6)
        path = daemon.save(tmp_path / "mid.ckpt")
        restored = OrchestratorDaemon.restore(path, clock=clock)
        response = restored.handle_line(
            json.dumps({"op": "tick", "n": 8})
        )
        assert response["ok"] is True
        health = restored.handle_line(json.dumps({"op": "health"}))
        assert health["node_health"]["n1"] == "up"
        acc = restored.fleet.accounting()
        assert acc["submitted"] == acc["total"]
