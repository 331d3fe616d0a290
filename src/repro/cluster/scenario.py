"""Random deployment scenarios (§V-B1) and the one replay loop.

The trace-collection procedure of the paper: within each random
inter-arrival interval, pick a random benchmark from the examined
applications or the iBench pool and deploy it randomly on local or
remote memory.  Spawn-interval sets range from {5, 20} (congested) to
{5, 60} (relaxed); 72 diverse one-hour scenarios form the training
corpus.

Every scenario — single node or rack — is replayed by one loop over a
:class:`~repro.cluster.fleet.ClusterFleet`: a single-node scenario is a
1-node fleet whose scheduler is pinned to its only node (the paper's
§VII scale-out runs the same per-node pieces under a central
orchestrator).  Only :meth:`ClusterFleet.tick` advances time, fault
plans armed via ``repro.faults.runtime`` apply to every node (each with
its own deterministic RNG stream), and checkpoints written at arrival
boundaries (:mod:`repro.cluster.checkpoint`) resume bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.cluster.checkpoint import (
    _require,
    load_checkpoint,
    pool_config_from_dict,
    restore_fleet,
    save_checkpoint,
    scenario_section,
)
from repro.cluster.engine import (
    CapacityError,
    ClusterEngine,
    NodeDownError,
    RemoteUnavailableError,
)
from repro.cluster.failover import arm_health
from repro.cluster.fleet import ClusterFleet, FleetDecision
from repro.cluster.trace import Trace
from repro.faults import runtime as faults_runtime
from repro.faults.errors import CheckpointError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hardware.config import TestbedConfig
from repro.workloads.base import MemoryMode, WorkloadProfile
from repro.workloads.ibench import IBENCH
from repro.workloads.memcached import MEMCACHED
from repro.workloads.redis import REDIS
from repro.workloads.spark import SPARK_BENCHMARKS

__all__ = [
    "ScenarioConfig",
    "Arrival",
    "generate_arrivals",
    "run_scenario",
    "resume_scenario",
    "default_pool",
]

#: A scheduler maps (profile, engine) -> memory mode at arrival time.
Scheduler = Callable[[WorkloadProfile, ClusterEngine], MemoryMode]


def default_pool() -> list[WorkloadProfile]:
    """The paper's deployment pool: Spark + Redis + Memcached + iBench.

    iBench kinds appear once each; the scenario generator draws
    uniformly, which gives interference microbenchmarks the same
    per-draw probability as any one application — replicating the
    "supplementary interference scenarios" role they play in §V-B1.
    """
    pool: list[WorkloadProfile] = list(SPARK_BENCHMARKS.values())
    pool.append(REDIS)
    pool.append(MEMCACHED)
    pool.extend(IBENCH.values())
    return pool


@dataclass(frozen=True)
class ScenarioConfig:
    """One randomized deployment scenario."""

    #: Total scenario duration in seconds (1 hour in the paper).
    duration_s: float = 3600.0
    #: Inter-arrival interval bounds in seconds, e.g. (5, 40) means each
    #: new application arrives after a Uniform(5, 40) delay.
    spawn_interval: tuple[float, float] = (5.0, 40.0)
    seed: int = 0
    #: Wall-clock duration bounds for iBench trashers.  Long-lived
    #: trashers create the sustained interference phases visible in the
    #: paper's Fig. 8 traces.
    interference_duration: tuple[float, float] = (120.0, 600.0)
    #: Drain the cluster after the last arrival so every record is
    #: complete (adds simulated time but no new arrivals).
    drain: bool = True

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        low, high = self.spawn_interval
        if not 0 < low <= high:
            raise ValueError("spawn_interval must satisfy 0 < low <= high")
        ilow, ihigh = self.interference_duration
        if not 0 < ilow <= ihigh:
            raise ValueError("interference_duration must satisfy 0 < low <= high")

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "spawn_interval": list(self.spawn_interval),
            "seed": self.seed,
            "interference_duration": list(self.interference_duration),
            "drain": self.drain,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return cls(
            duration_s=_require(data, "duration_s", "scenario"),
            spawn_interval=tuple(_require(data, "spawn_interval", "scenario")),
            seed=_require(data, "seed", "scenario"),
            interference_duration=tuple(
                _require(data, "interference_duration", "scenario")
            ),
            drain=_require(data, "drain", "scenario"),
        )


@dataclass(frozen=True)
class Arrival:
    """One scheduled arrival of the scenario."""

    time: float
    profile: WorkloadProfile
    #: Mode chosen by the generator; ``None`` defers to the scheduler.
    mode: MemoryMode | None = None
    duration_s: float | None = None


def generate_arrivals(
    config: ScenarioConfig,
    pool: Sequence[WorkloadProfile] | None = None,
    random_modes: bool = True,
) -> list[Arrival]:
    """Draw the arrival sequence for one scenario."""
    pool = list(pool) if pool is not None else default_pool()
    if not pool:
        raise ValueError("workload pool is empty")
    rng = np.random.default_rng(config.seed)
    low, high = config.spawn_interval
    arrivals: list[Arrival] = []
    t = float(rng.uniform(low, high))
    while t < config.duration_s:
        profile = pool[int(rng.integers(len(pool)))]
        mode = (
            MemoryMode.REMOTE if rng.random() < 0.5 else MemoryMode.LOCAL
        ) if random_modes else None
        duration = None
        if profile.kind.value == "ibench":
            ilow, ihigh = config.interference_duration
            duration = float(rng.uniform(ilow, ihigh))
        arrivals.append(Arrival(time=t, profile=profile, mode=mode, duration_s=duration))
        t += float(rng.uniform(low, high))
    return arrivals


class _PinnedNode:
    """A single-node ``(profile, engine) -> mode`` scheduler on fleet lane 0.

    Calls the wrapped scheduler exactly as a lone engine would.  It
    exposes ``mode_policy`` (so the predictor chaos shim finds the
    policy's predictor) and forwards checkpoint state to it.
    """

    def __init__(self, mode_policy: Scheduler) -> None:
        self.mode_policy = mode_policy

    @property
    def name(self) -> str:
        return getattr(self.mode_policy, "name", None) or (
            self.mode_policy.__class__.__name__
        )

    def state_dict(self) -> dict | None:
        if hasattr(self.mode_policy, "state_dict"):
            return self.mode_policy.state_dict()
        return None

    def load_state_dict(self, data: dict | None) -> None:
        if data is not None and hasattr(self.mode_policy, "load_state_dict"):
            self.mode_policy.load_state_dict(data)

    def __call__(self, profile: WorkloadProfile, fleet: ClusterFleet) -> FleetDecision:
        engine = fleet.engines[0]
        if engine.dead:
            raise NodeDownError(f"{profile.name}: the only node is down")
        return FleetDecision(0, self.mode_policy(profile, engine))


def _new_fleet(
    n_nodes: int,
    seed: int,
    testbed_config: TestbedConfig | None,
    pool=None,
    dt: float = 1.0,
) -> ClusterFleet:
    base = testbed_config if testbed_config is not None else TestbedConfig(seed=seed)
    return ClusterFleet(n_nodes=n_nodes, testbed_config=base, dt=dt, pool=pool)


def _lone_node(fleet: ClusterFleet) -> None:
    """Give a 1-node fleet its single-node observability identity.

    Node labels and the journey journal are rack artifacts; a lone node
    has neither, so its metrics, live stream and obs dumps stay
    single-node shaped.
    """
    fleet.journal = None
    fleet.engines[0].node_label = None
    fleet.engines[0].journey = None


def _fleet_predictor(scheduler) -> object | None:
    """Locate the Predictor behind a two-level scheduler, if any."""
    if scheduler is None:
        return None
    direct = getattr(scheduler, "predictor", None)
    if direct is not None:
        return direct
    return getattr(getattr(scheduler, "mode_policy", None), "predictor", None)


def _attach_injectors(fleet: ClusterFleet, injectors: list, scheduler) -> list:
    """Attach one injector per node; the shared predictor shim goes on node 0."""
    predictor = _fleet_predictor(scheduler)
    for index, injector in enumerate(injectors):
        injector.attach(fleet.engines[index], predictor=predictor if index == 0 else None)
    return injectors


def _arm_faults(config: ScenarioConfig, fleet: ClusterFleet, scheduler) -> list | None:
    """Arm the process-wide fault plan on every node (scheduled replays only).

    Offline trace collection (``scheduler=None``) stays pristine.
    """
    plan = faults_runtime.current_plan() if scheduler is not None else None
    if plan is None:
        return None
    arm_health(fleet, plan, scheduler)
    return _attach_injectors(
        fleet,
        [
            FaultInjector(plan, scenario_seed=config.seed + index)
            for index in range(fleet.n_nodes)
        ],
        scheduler,
    )


def _admit(fleet: ClusterFleet, arrival: Arrival, decision: FleetDecision) -> bool:
    """Place ``arrival`` on the decided node; ``False`` when it is dropped.

    A remote placement blocked by a link outage is parked in that node's
    retry queue (the outage is transient); a pool without capacity falls
    back to the other pool on the same node; if neither fits the arrival
    is dropped (real orchestrators would queue, but the paper's
    scenarios never exhaust 1.2 TB).
    """
    engine = fleet.engines[decision.node_index]
    for mode in (decision.mode, decision.mode.other):
        try:
            fleet.deploy(
                arrival.profile,
                FleetDecision(decision.node_index, mode),
                duration_s=arrival.duration_s,
                decided_s=fleet.now,
            )
        except RemoteUnavailableError:
            engine.queue_remote(
                arrival.profile, duration_s=arrival.duration_s, decided_s=fleet.now
            )
        except CapacityError:
            continue
        return True
    return False


def _fleet_replay(
    config: ScenarioConfig,
    scheduler,
    fleet: ClusterFleet,
    arrivals: list[Arrival],
    start_index: int = 0,
    injectors=None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
    span: str = "fleet_scenario",
) -> ClusterFleet:
    """Drive ``arrivals[start_index:]`` through the fleet (resumable).

    With ``scheduler=None`` (trace collection) arrivals keep their
    generator-chosen memory mode and are assigned round-robin across
    nodes; otherwise each arrival is placed by the scheduler's
    ``(profile, fleet) -> FleetDecision``.  Arrivals the scheduler
    cannot place anywhere are dropped.
    """
    try:
        with obs.tracer().span(
            span,
            seed=config.seed,
            n_nodes=fleet.n_nodes,
            duration_s=config.duration_s,
            arrivals=len(arrivals),
            regime=fleet.pool.config.regime.value if fleet.pool else "none",
            scheduler=getattr(scheduler, "name", None)
            or (scheduler.__class__.__name__ if scheduler is not None else "round-robin"),
        ) if obs.enabled() else obs.NULL_SPAN:
            last_checkpoint_s = fleet.now
            for index in range(start_index, len(arrivals)):
                arrival = arrivals[index]
                gap = arrival.time - fleet.now
                if gap > 0:
                    fleet.run_for(gap)
                if (
                    checkpoint_path is not None
                    and checkpoint_every_s is not None
                    and fleet.now - last_checkpoint_s >= checkpoint_every_s
                ):
                    save_checkpoint(
                        checkpoint_path,
                        "scenario",
                        scenario_section(config, fleet, index, injectors),
                        fleet=fleet,
                        policy=scheduler,
                    )
                    last_checkpoint_s = fleet.now
                if fleet.journal is not None:
                    # Journey hop 1: the arrival enters the fleet queue
                    # (no node yet — placement picks one next).
                    fleet.journal.hop(
                        arrival.profile.name, fleet.now, "queued", fleet.now
                    )
                if scheduler is not None:
                    try:
                        decision = scheduler(arrival.profile, fleet)
                    except CapacityError:
                        continue  # fits nowhere in the fleet: dropped
                else:
                    mode = arrival.mode if arrival.mode is not None else MemoryMode.LOCAL
                    decision = FleetDecision(index % fleet.n_nodes, mode)
                if _admit(fleet, arrival, decision):
                    # Deployed or parked: either way the arrival is now
                    # the fleet's responsibility (conservation ledger).
                    fleet.note_submitted()

            remaining = config.duration_s - fleet.now
            if remaining > 0:
                fleet.run_for(remaining)
            if config.drain:
                fleet.run_until_idle()
    finally:
        for injector in injectors or ():
            injector.detach()
    return fleet


def _resume(
    path,
    scheduler,
    workload_pool: Sequence[WorkloadProfile] | None,
    testbed_config: TestbedConfig | None,
    checkpoint_path,
    checkpoint_every_s: float | None,
    single_node: bool,
) -> ClusterFleet:
    """Rebuild a fleet from a scenario checkpoint and finish its replay.

    The fleet skeleton (per-node testbed configs, pool wiring, fits
    hooks) is rebuilt exactly as the original run built it, then each
    node's engine state is restored in place — so counter-noise RNGs,
    retry queues and traces resume mid-stream.
    """
    data = load_checkpoint(path, "scenario")
    section = data["scenario"]
    config = ScenarioConfig.from_dict(section["config"])
    if single_node and section["n_nodes"] != 1:
        raise CheckpointError(
            f"{path} holds a {section['n_nodes']}-node fleet; "
            "resume it with resume_fleet_scenario"
        )
    pool_profiles = list(workload_pool) if workload_pool is not None else default_pool()
    profiles = {p.name: p for p in pool_profiles}
    fleet = _new_fleet(
        section["n_nodes"],
        config.seed,
        testbed_config,
        pool=pool_config_from_dict(section["pool"]),
    )
    saved = section["injectors"] or []
    if saved:
        # The health manager must exist before its state is restored.
        arm_health(fleet, FaultPlan.from_dict(saved[0]["plan"]), scheduler)
    restore_fleet(fleet, data["fleet"], profiles)
    if single_node:
        _lone_node(fleet)
    injectors = _attach_injectors(
        fleet,
        [
            FaultInjector(
                FaultPlan.from_dict(state["plan"]),
                scenario_seed=state["scenario_seed"],
            )
            for state in saved
        ],
        scheduler,
    )
    for injector, state in zip(injectors, saved):
        injector.load_state_dict(state)
    if data["policy"] is not None and hasattr(scheduler, "load_state_dict"):
        scheduler.load_state_dict(data["policy"])
    arrivals = generate_arrivals(
        config, pool=workload_pool, random_modes=scheduler is None
    )
    return _fleet_replay(
        config,
        scheduler,
        fleet,
        arrivals,
        start_index=section["arrivals_done"],
        injectors=injectors,
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
        span="scenario" if single_node else "fleet_scenario",
    )


def run_scenario(
    config: ScenarioConfig,
    scheduler: Scheduler | None = None,
    pool: Sequence[WorkloadProfile] | None = None,
    testbed_config: TestbedConfig | None = None,
    engine: ClusterEngine | None = None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> Trace:
    """Simulate one scenario end to end and return its trace.

    When ``scheduler`` is given it overrides the generator's random mode
    choice — this is how the orchestration evaluation replays identical
    arrival sequences under different scheduling policies (§VI-B).
    Deployments that do not fit the chosen pool fall back to the other
    pool; if neither fits the arrival is dropped.  Remote arrivals that
    hit a link outage *are* queued (with exponential-backoff retry
    inside the engine) because the outage is transient, unlike capacity
    exhaustion.

    The replay runs on a 1-node :class:`ClusterFleet`; a caller-supplied
    ``engine`` becomes its only lane.  When a fault plan is armed
    (``repro.faults.runtime.activate``) and ``scheduler`` is not
    ``None``, the plan is validated against that 1-node fleet and
    injected for the duration of the replay — including ``node_crash``
    / ``node_rejoin`` windows on ``n0``, whose stranded work is parked
    and replayed once the node rejoins.  Injection is deliberately
    scoped to policy-driven replays so offline trace collection
    (``scheduler=None``) stays pristine.

    ``checkpoint_path`` + ``checkpoint_every_s`` write a crash-safe
    resume point at arrival boundaries (see :func:`resume_scenario`).
    """
    if engine is None:
        fleet = _new_fleet(1, config.seed, testbed_config)
    else:
        # The caller's engine sets the fleet's tick and clock.
        fleet = _new_fleet(1, config.seed, engine.testbed.config, dt=engine.dt)
        fleet.adopt_engine(0, engine)
        fleet._now = engine.now
    _lone_node(fleet)
    pinned = _PinnedNode(scheduler) if scheduler is not None else None
    arrivals = generate_arrivals(config, pool=pool, random_modes=scheduler is None)
    fleet = _fleet_replay(
        config,
        pinned,
        fleet,
        arrivals,
        injectors=_arm_faults(config, fleet, pinned),
        checkpoint_path=checkpoint_path,
        checkpoint_every_s=checkpoint_every_s,
        span="scenario",
    )
    return fleet.engines[0].trace


def resume_scenario(
    path,
    scheduler: Scheduler | None = None,
    pool: Sequence[WorkloadProfile] | None = None,
    testbed_config: TestbedConfig | None = None,
    checkpoint_path=None,
    checkpoint_every_s: float | None = None,
) -> Trace:
    """Resume a single-node replay from a checkpoint; returns its trace.

    The caller supplies the same ``scheduler`` (policy object) and
    ``pool`` the original run used; the policy's saved state (breaker,
    RNG, captured signatures) is restored via ``load_state_dict`` when
    the policy exposes one.  The resumed run's final trace is
    bit-identical to the uninterrupted run's.
    """
    fleet = _resume(
        path,
        _PinnedNode(scheduler) if scheduler is not None else None,
        pool,
        testbed_config,
        checkpoint_path,
        checkpoint_every_s,
        single_node=True,
    )
    return fleet.engines[0].trace
