"""Crash-safe checkpoints: one versioned schema for every resumable run.

A checkpoint captures everything a resumed process needs to continue
*bit-identically*.  Every payload is a rack — a single-node scenario is
a 1-node fleet — so one fleet-state section serves all three users:

* ``fleet`` — clock, ``pool_throttled_ticks``, ``submitted`` (the
  conservation ledger), the health manager and one engine per node
  (clock, deployments, trace, outage retry queue, counter-noise RNG);
* ``policy`` — the scheduler's ``state_dict`` (breaker, RNG, captured
  signatures), or ``null``;
* exactly one of
  ``scenario`` (config, ``n_nodes``, pool, ``arrivals_done``, fault
  injectors) for :mod:`repro.cluster.scenario` replays, or
  ``daemon`` (config, envelope, plan, breaker, safety, ledger,
  ``next_id``, counters, ``cleared_wedges``) for
  :class:`repro.serve.OrchestratorDaemon`.

Arrivals are NOT stored — a replay regenerates them from the scenario
config's seed and records only the index of the next one.  Checkpoints
are JSON written through :func:`repro.obs.fsio.atomic_write_text`, so a
crash mid-write leaves the previous checkpoint intact.  Floats survive
exactly (``repr``-based JSON round-trips IEEE doubles, including the
NaNs that telemetry faults plant in counter rows).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.cluster.deployment import Deployment, DeploymentRecord, DeploymentState
from repro.cluster.engine import ClusterEngine
from repro.faults.errors import CheckpointError
from repro.hardware.config import TestbedConfig
from repro.hardware.pool import RemotePoolConfig
from repro.hardware.testbed import Testbed
from repro.obs.fsio import atomic_write_text
from repro.workloads.base import MemoryMode, WorkloadKind

__all__ = [
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "restore_fleet",
    "scenario_section",
    "pool_config_from_dict",
]

CHECKPOINT_VERSION = 2

#: Required keys of every section; ``scenario`` and ``daemon`` are the
#: mutually exclusive run kinds.
_SECTIONS = {
    "fleet": ("clock", "pool_throttled_ticks", "submitted", "health", "engines"),
    "scenario": ("config", "n_nodes", "pool", "arrivals_done", "injectors"),
    "daemon": (
        "config", "envelope", "plan", "breaker", "safety", "ledger",
        "next_id", "counters", "cleared_wedges",
    ),
}


# -- serialization helpers ----------------------------------------------------
def _require(data: dict, key: str, where: str):
    """Index a required checkpoint field with a diagnosable failure.

    Payloads from an older format (or hand-edited ones) surface as a
    clear :class:`CheckpointError` naming the missing field instead of
    an opaque ``KeyError`` from deep inside the deserializers.
    """
    try:
        return data[key]
    except KeyError:
        raise CheckpointError(
            f"stale or truncated checkpoint: {where} payload is missing "
            f"field {key!r} — re-create the checkpoint with this version"
        ) from None


def _deployment_to_dict(d: Deployment) -> dict:
    return {
        "app_id": d.app_id,
        "profile": d.profile.name,
        "mode": d.mode.value,
        "arrival_time": d.arrival_time,
        "duration_s": d.duration_s,
        "decided_s": d.decided_s,
        "state": d.state.value,
        "finish_time": d.finish_time,
        "progress_s": d.progress_s,
        "served_ops": d.served_ops,
        "slowdown_sum": d._slowdown_sum,
        "slowdown_ticks": d._slowdown_ticks,
        "p99_samples": list(d.p99_samples),
        "p999_samples": list(d.p999_samples),
        "link_traffic_gb": d.link_traffic_gb,
    }


def _deployment_from_dict(data: dict, profiles: dict) -> Deployment:
    name = _require(data, "profile", "deployment")
    try:
        profile = profiles[name]
    except KeyError:
        raise CheckpointError(
            f"checkpoint references unknown workload {name!r}; "
            "resume with the pool the original run used"
        ) from None
    deployment = Deployment(
        app_id=_require(data, "app_id", "deployment"),
        profile=profile,
        mode=MemoryMode(_require(data, "mode", "deployment")),
        arrival_time=_require(data, "arrival_time", "deployment"),
        duration_s=_require(data, "duration_s", "deployment"),
        decided_s=data.get("decided_s"),
    )
    deployment.state = DeploymentState(_require(data, "state", "deployment"))
    deployment.finish_time = _require(data, "finish_time", "deployment")
    deployment.progress_s = _require(data, "progress_s", "deployment")
    deployment.served_ops = _require(data, "served_ops", "deployment")
    deployment._slowdown_sum = _require(data, "slowdown_sum", "deployment")
    deployment._slowdown_ticks = _require(data, "slowdown_ticks", "deployment")
    deployment.p99_samples = list(_require(data, "p99_samples", "deployment"))
    deployment.p999_samples = list(_require(data, "p999_samples", "deployment"))
    deployment.link_traffic_gb = _require(data, "link_traffic_gb", "deployment")
    return deployment


def _record_to_dict(r: DeploymentRecord) -> dict:
    return {
        "app_id": r.app_id,
        "name": r.name,
        "kind": r.kind.value,
        "mode": r.mode.value,
        "arrival_time": r.arrival_time,
        "finish_time": r.finish_time,
        "runtime_s": r.runtime_s,
        "p99_ms": r.p99_ms,
        "p999_ms": r.p999_ms,
        "mean_slowdown": r.mean_slowdown,
        "link_traffic_gb": r.link_traffic_gb,
        "decided_s": r.decided_s,
    }


def _record_from_dict(data: dict) -> DeploymentRecord:
    return DeploymentRecord(
        app_id=_require(data, "app_id", "record"),
        name=_require(data, "name", "record"),
        kind=WorkloadKind(_require(data, "kind", "record")),
        mode=MemoryMode(_require(data, "mode", "record")),
        arrival_time=_require(data, "arrival_time", "record"),
        finish_time=_require(data, "finish_time", "record"),
        runtime_s=_require(data, "runtime_s", "record"),
        p99_ms=_require(data, "p99_ms", "record"),
        p999_ms=_require(data, "p999_ms", "record"),
        mean_slowdown=_require(data, "mean_slowdown", "record"),
        link_traffic_gb=_require(data, "link_traffic_gb", "record"),
        decided_s=data.get("decided_s"),
    )


def _engine_to_dict(engine: ClusterEngine) -> dict:
    return {
        "now": engine.now,
        "dt": engine.dt,
        "next_app_id": engine._next_app_id,
        "remote_blocked": engine.remote_blocked,
        "retry_queue": [
            {**entry, "profile": entry["profile"].name}
            for entry in engine._retry_queue
        ],
        "counter_rng": engine.testbed.counters._rng.bit_generator.state,
        "retry_rng": engine._retry_rng.bit_generator.state,
        "dropped_retries": engine.dropped_retries,
        "dead": engine.dead,
        "deployments": [_deployment_to_dict(d) for d in engine.deployments],
        "trace": {
            "times": list(engine.trace.times),
            "rows": [row.tolist() for row in engine.trace._counter_rows],
            "concurrency": list(engine.trace.concurrency),
            "records": [_record_to_dict(r) for r in engine.trace.records],
        },
    }


def _engine_from_dict(
    data: dict, testbed_config: TestbedConfig, profiles: dict
) -> ClusterEngine:
    engine = ClusterEngine(
        testbed=Testbed(testbed_config), dt=_require(data, "dt", "engine")
    )
    engine.now = _require(data, "now", "engine")
    engine._next_app_id = _require(data, "next_app_id", "engine")
    engine.remote_blocked = _require(data, "remote_blocked", "engine")
    for entry in _require(data, "retry_queue", "engine"):
        name = _require(entry, "profile", "retry-queue")
        if name not in profiles:
            raise CheckpointError(
                f"retry queue references unknown workload {name!r}"
            )
        engine._retry_queue.append({**entry, "profile": profiles[name]})
    engine.testbed.counters._rng.bit_generator.state = _require(
        data, "counter_rng", "engine"
    )
    # Added after v1 checkpoints shipped; absent fields keep defaults so
    # older payloads still resume.
    if data.get("retry_rng") is not None:
        engine._retry_rng.bit_generator.state = data["retry_rng"]
    engine.dropped_retries = int(data.get("dropped_retries", 0))
    engine.dead = bool(data.get("dead", False))
    engine.deployments = [
        _deployment_from_dict(d, profiles)
        for d in _require(data, "deployments", "engine")
    ]
    trace = _require(data, "trace", "engine")
    engine.trace.times = list(_require(trace, "times", "trace"))
    engine.trace._counter_rows = [
        np.asarray(row, dtype=np.float64)
        for row in _require(trace, "rows", "trace")
    ]
    engine.trace.concurrency = list(_require(trace, "concurrency", "trace"))
    engine.trace.records = [
        _record_from_dict(r) for r in _require(trace, "records", "trace")
    ]
    return engine


# -- fleet state --------------------------------------------------------------
def _fleet_state(fleet) -> dict:
    """The ``fleet`` section: clock, ledger, health and every engine."""
    return {
        "clock": fleet.now,
        "pool_throttled_ticks": fleet.pool_throttled_ticks,
        "submitted": fleet.submitted,
        "health": fleet.health.state_dict() if fleet.health is not None else None,
        "engines": [_engine_to_dict(engine) for engine in fleet.engines],
    }


def restore_fleet(fleet, state: dict, profiles: dict) -> None:
    """Restore a ``fleet`` section into a freshly built fleet skeleton.

    The skeleton's per-node testbed configs (seed, pool-derived remote
    ceiling) are reused; each restored engine is adopted so the fleet
    wiring (fits hook, node label, journey) is re-applied.  The health
    manager's state is loaded when one is attached.
    """
    engines = state["engines"]
    if len(engines) != fleet.n_nodes:
        raise CheckpointError(
            f"checkpoint has {len(engines)} engines for a "
            f"{fleet.n_nodes}-node fleet"
        )
    for index, saved in enumerate(engines):
        testbed_config = fleet.engines[index].testbed.config
        fleet.adopt_engine(index, _engine_from_dict(saved, testbed_config, profiles))
    fleet._now = state["clock"]
    fleet.pool_throttled_ticks = state["pool_throttled_ticks"]
    fleet.submitted = int(state["submitted"])
    if fleet.health is not None and state["health"] is not None:
        fleet.health.load_state_dict(state["health"], profiles)


def scenario_section(config, fleet, arrivals_done: int, injectors=None) -> dict:
    """The ``scenario`` section: what a replay needs beyond fleet state.

    ``config`` is the :class:`~repro.cluster.scenario.ScenarioConfig`;
    ``arrivals_done`` is the index of the next arrival to process.
    """
    pool = fleet.pool.config if fleet.pool is not None else None
    return {
        "config": config.to_dict(),
        "n_nodes": fleet.n_nodes,
        "pool": None if pool is None else {
            "capacity_gb": pool.capacity_gb,
            "aggregate_bw_gbps": pool.aggregate_bw_gbps,
            "regime": pool.regime.value,
        },
        "arrivals_done": arrivals_done,
        "injectors": (
            [injector.state_dict() for injector in injectors] if injectors else None
        ),
    }


def pool_config_from_dict(data: dict | None) -> RemotePoolConfig | None:
    if data is None:
        return None
    return RemotePoolConfig(
        capacity_gb=_require(data, "capacity_gb", "pool"),
        aggregate_bw_gbps=_require(data, "aggregate_bw_gbps", "pool"),
        regime=_require(data, "regime", "pool"),
    )


# -- reader / writer ------------------------------------------------------------
def save_checkpoint(path, kind: str, section: dict, *, fleet, policy=None) -> Path:
    """Atomically write a checkpoint: fleet state, policy and the ``kind``
    (``"scenario"`` or ``"daemon"``) section."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "fleet": _fleet_state(fleet),
        "policy": (
            policy.state_dict()
            if policy is not None and hasattr(policy, "state_dict")
            else None
        ),
        kind: section,
    }
    return atomic_write_text(path, json.dumps(payload) + "\n")


def load_checkpoint(path, kind: str) -> dict:
    """Read and structurally validate a checkpoint of ``kind``.

    Raises :class:`CheckpointError` when the file is missing, the JSON
    is corrupt, the version is not :data:`CHECKPOINT_VERSION`, or a
    required section (or a required key of one) is missing.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"corrupt checkpoint {path}: {error}") from None
    version = data.get("version") if isinstance(data, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION}); re-create the checkpoint "
            "with this version"
        )
    missing = [name for name in ("fleet", "policy", kind) if name not in data]
    if missing:
        raise CheckpointError(f"checkpoint missing sections {missing}")
    for name in ("fleet", kind):
        absent = [key for key in _SECTIONS[name] if key not in data[name]]
        if absent:
            raise CheckpointError(
                f"checkpoint {name} section missing fields {absent}"
            )
    return data
