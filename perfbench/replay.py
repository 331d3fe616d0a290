"""replay-adrias: a long, congested single-node replay scheduled by Adrias.

The paper's decision path (history window -> S-hat -> batched two-mode
forward -> beta/QoS rule) and the engine tick dominate here; there is no
socket, no fleet, no pool and no observability.  The predictor is
fabricated (random weights), its signatures pre-captured, and its scalers
calibrated on a warm-up trace, so every decision takes the predictor
path rather than the fallback ladder (``degraded == 0`` is checked).
"""

from __future__ import annotations

import math
import time

import params
from common import AdmissionClock, Digest, digest_records, median


def setup(seed: int):
    """Fabricate + calibrate the predictor and build the engine."""
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.scenario import ScenarioConfig, default_pool, run_scenario
    from repro.hardware.config import TestbedConfig
    from repro.hardware.testbed import Testbed
    from repro.models.features import FeatureConfig, impute_gaps, subsample
    from repro.obs.perf.bench import fabricate_predictor
    from repro.orchestrator.policies import AdriasPolicy
    from repro.workloads.base import WorkloadKind

    config = FeatureConfig()
    predictor = fabricate_predictor(
        config, lstm_hidden=params.REPLAY_HIDDEN, seed=seed
    )
    for profile in default_pool():
        if profile.kind is not WorkloadKind.INTERFERENCE:
            predictor.signatures.capture(profile)
    warm = run_scenario(ScenarioConfig(
        duration_s=params.REPLAY_WARMUP_S,
        spawn_interval=params.REPLAY_SPAWN_INTERVAL,
        seed=seed + params.WARMUP_SALT,
    ))
    filled, _ = impute_gaps(warm.metrics)
    rows = subsample(filled, config.sample_period_s, config.dt)
    predictor.system_state.input_scaler.fit(rows)
    predictor.system_state.target_scaler.fit(rows)
    for model in (predictor.be_performance, predictor.lc_performance):
        model.metric_scaler.fit(rows)
    engine = ClusterEngine(testbed=Testbed(TestbedConfig(seed=seed)))
    return AdriasPolicy(predictor), engine


def scenario(seed: int, seconds: float):
    from repro.cluster.scenario import ScenarioConfig

    return ScenarioConfig(
        duration_s=params.REPLAY_SIM_PER_RUN_S * seconds,
        spawn_interval=params.REPLAY_SPAWN_INTERVAL,
        seed=seed,
    )


def replay(seed: int, seconds: float, tracer=None) -> dict:
    """One measured replay; returns its timings, checks and digest."""
    from repro.cluster.scenario import generate_arrivals, run_scenario

    policy, engine = setup(seed)
    config = scenario(seed, seconds)
    if tracer is not None:
        from tracer import install

        install(tracer)
    clock = AdmissionClock()
    engine.deploy = clock.admitter(engine.deploy)
    scheduler = clock.scheduler(policy)
    start = time.perf_counter()
    try:
        trace = run_scenario(config, scheduler=scheduler, engine=engine)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    admissions = clock.finish()

    arrivals = generate_arrivals(config, random_modes=False)
    checks = {
        "degraded == 0": policy.degraded_decisions == 0,
        "every arrival placed": len(trace.records) == len(arrivals),
        "record metrics finite": all(
            math.isfinite(r.runtime_s) and math.isfinite(r.performance)
            for r in trace.records
        ),
        "one admission per arrival": len(admissions) == len(arrivals),
    }
    digest = Digest()
    digest.float(engine.now)
    for t in trace.times:
        digest.float(t)
    digest.bytes(trace.metrics.tobytes())
    digest.text(trace.concurrency)
    digest_records(digest, trace.records)
    return {
        "wall_s": wall,
        "sim_s": engine.now,
        "admissions": admissions,
        "arrivals": len(arrivals),
        "degraded": policy.degraded_decisions,
        "held_end": len(engine.deployments),
        "resident_mean": sum(trace.concurrency) / max(len(trace.concurrency), 1),
        "checks": checks,
        "digest": digest.hexdigest(),
    }


def run(seed: int, seconds: float) -> dict:
    """Untraced run: set-up timing (median of several) + one replay."""
    setups = []
    for _ in range(params.REPLAY_SETUPS):
        start = time.perf_counter()
        setup(seed)
        setups.append(time.perf_counter() - start)
    out = replay(seed, seconds)
    out["setup_s"] = median(setups)
    return out


def traced(seed: int, seconds: float) -> dict:
    """Untraced replay, then the same replay under the span tracer."""
    from tracer import Tracer, layer_metrics

    plain = replay(seed, seconds)
    tracer = Tracer(corr_span="orchestrator.decide")
    spanned = replay(seed, seconds, tracer=tracer)
    layers = layer_metrics(
        tracer,
        decisions=tracer.calls("orchestrator.decide"),
        deploys=spanned["arrivals"],
        sim_s=spanned["sim_s"],
    )
    layers["orchestrator.decide.degraded"] = spanned["degraded"]
    layers["cluster.deployments.held_end"] = spanned["held_end"]
    layers["cluster.deployments.resident_mean"] = spanned["resident_mean"]
    layers["bench.trace_overhead.ratio"] = spanned["wall_s"] / plain["wall_s"]
    spanned["checks"]["traced digest == untraced digest"] = (
        spanned["digest"] == plain["digest"]
    )
    spanned["layers"] = layers
    spanned["tracer"] = tracer
    return spanned
