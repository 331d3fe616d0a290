"""Fleet-level scenario replay: §V-B1 arrivals against a rack.

The replay loop, fault arming and checkpoint/resume are shared with the
single-node :func:`repro.cluster.scenario.run_scenario` (which replays
a 1-node fleet); this module adds the rack shape — node count and the
optional shared :class:`~repro.hardware.pool.RemotePoolConfig` — and
the two-level ``(profile, fleet) -> FleetDecision`` scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.fleet import ClusterFleet, FleetDecision
from repro.cluster.scenario import (
    ScenarioConfig,
    _arm_faults,
    _fleet_replay,
    _new_fleet,
    _resume,
    generate_arrivals,
)
from repro.hardware.config import TestbedConfig
from repro.hardware.pool import RemotePoolConfig
from repro.workloads.base import WorkloadProfile

__all__ = [
    "FleetScenarioConfig",
    "run_fleet_scenario",
    "resume_fleet_scenario",
]

#: A fleet scheduler maps (profile, fleet) -> FleetDecision at arrival time.
FleetScheduler = Callable[[WorkloadProfile, ClusterFleet], FleetDecision]


@dataclass(frozen=True)
class FleetScenarioConfig:
    """One randomized deployment scenario against an N-node rack."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    n_nodes: int = 2
    #: Rack pool configuration; ``None`` keeps per-node private remote
    #: memory (the pre-pool fleet semantics).
    pool: RemotePoolConfig | None = None

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")


def run_fleet_scenario(
    config: FleetScenarioConfig,
    scheduler: FleetScheduler | None = None,
    workload_pool: Sequence[WorkloadProfile] | None = None,
    testbed_config: TestbedConfig | None = None,
    fleet: ClusterFleet | None = None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> ClusterFleet:
    """Simulate one fleet scenario end to end; returns the fleet.

    With ``scheduler=None`` (trace collection) arrivals keep their
    generator-chosen memory mode and are assigned round-robin across
    nodes — a deterministic, policy-free baseline.  With a scheduler,
    each arrival is placed by the two-level decision (node + mode); a
    :class:`~repro.cluster.engine.RemoteUnavailableError` from the
    chosen node parks the arrival in that node's retry queue, and
    arrivals that fit nowhere are dropped, exactly as in
    :func:`repro.cluster.scenario.run_scenario`.
    """
    if fleet is None:
        fleet = _new_fleet(
            config.n_nodes, config.scenario.seed, testbed_config, pool=config.pool
        )
    arrivals = generate_arrivals(
        config.scenario, pool=workload_pool, random_modes=scheduler is None
    )
    return _fleet_replay(
        config.scenario,
        scheduler,
        fleet,
        arrivals,
        injectors=_arm_faults(config.scenario, fleet, scheduler),
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
    )


def resume_fleet_scenario(
    path,
    scheduler: FleetScheduler | None = None,
    workload_pool: Sequence[WorkloadProfile] | None = None,
    testbed_config: TestbedConfig | None = None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> ClusterFleet:
    """Resume a fleet replay from a checkpoint; the completed run is
    bit-identical to the uninterrupted one."""
    return _resume(
        path,
        scheduler,
        workload_pool,
        testbed_config,
        checkpoint_path,
        checkpoint_every_s,
        single_node=False,
    )
