"""rack-observed: a 16-node pooled rack with observability on.

Per-tick pool water-fill, 16-lane engine ticks, 16-way placement
ranking and obs export (metrics + live stream) dominate here; there is
no LSTM and no socket.  Arrival rate scales with N and the fabric is
provisioned at 0.6x the summed links, as in the fleet-scaling
experiment.  The obs dump goes to a scratch directory inside the
checkout and is removed afterwards.
"""

from __future__ import annotations

import json
import shutil
import time

import params
from common import WORK, AdmissionClock, Digest, digest_records, median


def _pool(seed: int):
    from repro.hardware.config import TestbedConfig
    from repro.hardware.pool import PoolRegime, RemotePoolConfig

    base = TestbedConfig(seed=seed)
    n = params.RACK_NODES
    return RemotePoolConfig(
        capacity_gb=base.node.remote_gb * n,
        aggregate_bw_gbps=base.link.capacity_gbps * n
        * params.RACK_FABRIC_OVERSUB,
        regime=PoolRegime.POOLED,
    )


def setup(seed: int, out_dir, observed: bool):
    """Switch observability on (into ``out_dir``) and build the rack."""
    from repro import obs
    from repro.cluster.fleet import ClusterFleet, PoolAwarePlacement
    from repro.hardware.config import TestbedConfig
    from repro.orchestrator.policies import InterferenceThresholdPolicy

    if observed:
        obs.enable_live(out_dir)
    fleet = ClusterFleet(
        n_nodes=params.RACK_NODES,
        testbed_config=TestbedConfig(seed=seed),
        pool=_pool(seed),
    )
    return fleet, PoolAwarePlacement(InterferenceThresholdPolicy())


def scenario(seed: int, seconds: float):
    from repro.cluster.fleet_scenario import FleetScenarioConfig
    from repro.cluster.scenario import ScenarioConfig

    low, high = params.RACK_SPAWN_INTERVAL
    n = params.RACK_NODES
    return FleetScenarioConfig(
        scenario=ScenarioConfig(
            duration_s=params.RACK_SIM_PER_RUN_S * seconds,
            spawn_interval=(low / n, high / n),
            seed=seed,
        ),
        n_nodes=n,
        pool=_pool(seed),
    )


def _stream_ok(path) -> tuple[bool, int]:
    try:
        data = path.read_bytes()
    except OSError:
        return False, 0
    lines = data.splitlines()
    if not lines:
        return False, 0
    first = json.loads(lines[0]).get("t")
    last = json.loads(lines[-1]).get("t")
    return first == "meta" and last == "end", len(data)


def replay(seed: int, seconds: float, observed: bool = True,
           tracer=None) -> dict:
    from repro import obs
    from repro.cluster.fleet_scenario import run_fleet_scenario

    out_dir = WORK / f"rack-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        # Before the build: the live session re-binds each engine's
        # ``tick`` per instance at construction.
        from tracer import install

        install(tracer)
    fleet, placement = setup(seed, out_dir, observed)
    clock = AdmissionClock()
    fleet.deploy = clock.admitter(fleet.deploy)
    scheduler = clock.scheduler(placement)
    start = time.perf_counter()
    try:
        run_fleet_scenario(scenario(seed, seconds), scheduler=scheduler,
                           fleet=fleet)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
        if observed:
            obs.disable()  # closes the live stream with its ``end`` record
    admissions = clock.finish()

    ledger = fleet.accounting()
    checks = {
        "ledger balances": ledger["submitted"] == ledger["total"],
        "dropped == running == parked == 0": (
            ledger["dropped"] == ledger["running"] == ledger["parked"] == 0
        ),
    }
    stream_bytes = 0
    if observed:
        ok, stream_bytes = _stream_ok(out_dir / "stream.jsonl")
        checks["stream.jsonl starts with meta, ends with end"] = ok
    shutil.rmtree(out_dir, ignore_errors=True)
    records = fleet.records()
    digest = Digest()
    digest.float(fleet.now)
    digest.text(fleet.pool_throttled_ticks)
    digest_records(digest, records)
    return {
        "wall_s": wall,
        "sim_s": fleet.now,
        "admissions": admissions,
        "arrivals": len(admissions),
        "held_end": sum(len(e.deployments) for e in fleet.engines),
        "resident_mean": sum(
            sum(e.trace.concurrency) / max(len(e.trace.concurrency), 1)
            for e in fleet.engines
        ),
        "stream_bytes": stream_bytes,
        "checks": checks,
        "digest": digest.hexdigest(),
    }


def run(seed: int, seconds: float) -> dict:
    """Untraced run: set-up timing (median of several) + one replay."""
    from repro import obs

    setups = []
    for index in range(params.RACK_SETUPS):
        out_dir = WORK / f"rack-setup-{seed}-{index}"
        start = time.perf_counter()
        setup(seed, out_dir, observed=True)
        setups.append(time.perf_counter() - start)
        obs.disable()
        shutil.rmtree(out_dir, ignore_errors=True)
    out = replay(seed, seconds)
    out["setup_s"] = median(setups)
    return out


def traced(seed: int, seconds: float) -> dict:
    """Obs off, obs on, then obs on under the span tracer (same seed)."""
    from tracer import Tracer, layer_metrics

    dark = replay(seed, seconds, observed=False)
    plain = replay(seed, seconds)
    tracer = Tracer(corr_span="cluster.fleet_tick")
    spanned = replay(seed, seconds, tracer=tracer)
    layers = layer_metrics(
        tracer,
        decisions=tracer.calls("cluster.placement"),
        deploys=spanned["arrivals"],
        sim_s=spanned["sim_s"],
        stream_bytes=spanned["stream_bytes"],
    )
    layers["cluster.deployments.held_end"] = spanned["held_end"]
    layers["cluster.deployments.resident_mean"] = spanned["resident_mean"]
    layers["obs.overhead.ratio"] = plain["wall_s"] / dark["wall_s"]
    layers["bench.trace_overhead.ratio"] = spanned["wall_s"] / plain["wall_s"]
    spanned["checks"]["digest identical with obs off, on and traced"] = (
        dark["digest"] == plain["digest"] == spanned["digest"]
    )
    spanned["layers"] = layers
    spanned["tracer"] = tracer
    return spanned
