"""Span tracer that wraps the program's public functions from outside.

Nothing in ``src/`` knows about it: :meth:`Tracer.wrap` replaces a class
attribute with a timing wrapper for the duration of a traced pass, and
:meth:`Tracer.count` with a counting-only wrapper (for calls too hot to
time, such as ``ResourceDemand.__add__``).  Each span records its name,
start, end, parent span and a correlation id (serve request ordinal,
arrival index or fleet tick index, set by the workload module).  Spans
stay in memory and are written out once at the end.

Counts are split by context: a call made while an engine tick span is
open is a *tick* call, any other call is a *deploy* call (admission
path) — this is what the ``calls_per_tick`` / ``calls_per_deploy``
metrics divide.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from common import late_over_early, median, percentile

#: Span names that mark the tick context for context-split counts.
TICK_SPANS = frozenset({"cluster.engine_tick", "cluster.fleet_tick"})


class Tracer:
    def __init__(self, corr_span: str | None = None) -> None:
        #: Span whose every call advances the correlation id (arrival
        #: index, fleet tick index); ``None`` leaves it to the caller.
        self.corr_span = corr_span
        # Parallel columns keep per-span overhead to a few appends.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.corrs: list[int] = []
        self.tags: list[str | None] = []
        self.stack: list[int] = []
        self.tick_depth = 0
        self.corr = -1
        self.tag: str | None = None
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.extra: dict[str, list[float]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []
        self._self_cache: list[float] | None = None

    # -- patching ------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``probe(args, kwargs)`` may return a number recorded under
        ``extra[name]`` per call (rows, batch size, ...).
        """
        original = owner.__dict__[attr]
        tick = name in TICK_SPANS
        steps = name == self.corr_span
        tracer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if steps:
                tracer.corr += 1
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.corrs.append(tracer.corr)
            tracer.tags.append(tracer.tag)
            tracer.ends.append(0.0)
            if probe is not None:
                tracer.extra[name].append(probe(args, kwargs))
            tracer.stack.append(index)
            if tick:
                tracer.tick_depth += 1
            tracer.starts.append(time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer.stack.pop()
                if tick:
                    tracer.tick_depth -= 1

        self._patch(owner, attr, timed)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr``, split into tick/deploy context."""
        original = owner.__dict__[attr]
        counts = self.counts[name]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[0 if tracer.tick_depth else 1] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- queries -------------------------------------------------------------
    def durations(self, name: str, self_time: bool = False) -> list[float]:
        """Per-call durations (seconds) of span ``name``, in call order."""
        own = self._self_times() if self_time else None
        return [
            own[index] if own is not None
            else self.ends[index] - self.starts[index]
            for index, span in enumerate(self.names) if span == name
        ]

    def _self_times(self) -> list[float]:
        if self._self_cache is None or (
            len(self._self_cache) != len(self.names)
        ):
            own = [e - s for s, e in zip(self.starts, self.ends)]
            for index, parent in enumerate(self.parents):
                if parent >= 0:
                    own[parent] -= self.ends[index] - self.starts[index]
            self._self_cache = own
        return self._self_cache

    def calls(self, name: str) -> int:
        return sum(1 for span in self.names if span == name)

    def spans_within(self, child: str, parent: str) -> int:
        """Calls of ``child`` whose nearest ``parent``-named ancestor exists."""
        total = 0
        for index, span in enumerate(self.names):
            if span != child:
                continue
            up = self.parents[index]
            while up >= 0 and self.names[up] != parent:
                up = self.parents[up]
            total += up >= 0
        return total

    def tick_context_calls(self, name: str) -> tuple[int, int]:
        """(tick-context, deploy-context) calls of a timed span."""
        tick = deploy = 0
        for index, span in enumerate(self.names):
            if span != name:
                continue
            up = self.parents[index]
            while up >= 0 and self.names[up] not in TICK_SPANS:
                up = self.parents[up]
            if up >= 0:
                tick += 1
            else:
                deploy += 1
        return tick, deploy

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, corr)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(json.dumps({
                    "name": name,
                    "start": self.starts[index],
                    "end": self.ends[index],
                    "parent": self.parents[index],
                    "corr": self.corrs[index],
                    "tag": self.tags[index],
                }, separators=(",", ":")) + "\n")


def p50_us(values) -> float:
    return median(values) * 1e6


def p99_us(values) -> float:
    return percentile(values, 99.0) * 1e6


# -- the per-layer catalogue -------------------------------------------------
#: (metric name, unit) of every per-layer metric, in BENCHMARK.json order.
#: Every workload reports all of them; a layer the workload never calls
#: reports 0 (that *is* the finding: the layer is bypassed).
PER_LAYER = [
    ("serve.transport.p50_ms", "ms"),
    ("serve.handle_line.calls", "count"),
    ("serve.handle_line.self_p50_us", "us"),
    ("serve.handle_line.self_p99_us", "us"),
    ("serve.safety_review.calls", "count"),
    ("serve.safety_review.p50_us", "us"),
    ("serve.ledger.entries_end", "count"),
    ("cluster.placement.self_p50_us", "us"),
    ("cluster.placement.node_load_calls_per_call", "count"),
    ("cluster.fleet_deploy.p50_us", "us"),
    ("cluster.fleet_tick.p50_us", "us"),
    ("cluster.fleet_tick.p99_us", "us"),
    ("cluster.fleet_tick.self_p50_us", "us"),
    ("cluster.engine_tick.p50_us", "us"),
    ("cluster.engine_tick.late_over_early", "ratio"),
    ("cluster.current_pressure.calls_per_tick", "count"),
    ("cluster.current_pressure.calls_per_deploy", "count"),
    ("cluster.current_pressure.p50_us", "us"),
    ("cluster.deployments.held_end", "count"),
    ("cluster.deployments.resident_mean", "count"),
    ("cluster.trace_window.calls", "count"),
    ("cluster.trace_window.p50_us", "us"),
    ("cluster.trace_window.rows_mean", "count"),
    ("cluster.trace_window.late_over_early", "ratio"),
    ("hardware.resolve.calls_per_tick", "count"),
    ("hardware.resolve.calls_per_deploy", "count"),
    ("hardware.resolve.p50_us", "us"),
    ("hardware.demand_add.per_tick", "count"),
    ("hardware.demand_add.per_deploy", "count"),
    ("hardware.pool_arbitrate.p50_us", "us"),
    ("hardware.sample_counters.p50_us", "us"),
    ("orchestrator.decide.self_p50_us", "us"),
    ("orchestrator.decide.late_over_early", "ratio"),
    ("orchestrator.decide.degraded", "count"),
    ("orchestrator.threshold_decide.p50_us", "us"),
    ("models.predict_both_modes.self_p50_us", "us"),
    ("models.system_state.forwards_per_decision", "count"),
    ("models.system_state.p50_us", "us"),
    ("models.performance.p50_us", "us"),
    ("nn.lstm_forward.calls_per_decision", "count"),
    ("nn.lstm_forward.timesteps_per_decision", "count"),
    ("nn.lstm_forward.batch_mean", "count"),
    ("nn.lstm_forward.p50_us", "us"),
    ("obs.registry.lookups_per_tick", "count"),
    ("obs.stream.emits_per_tick", "count"),
    ("obs.stream.emit_p50_us", "us"),
    ("obs.stream.flush_p50_us", "us"),
    ("obs.stream.bytes_per_sim_s", "B/s"),
    ("obs.overhead.ratio", "ratio"),
    ("bench.trace_overhead.ratio", "ratio"),
    ("bench.gen_late.p99_ms", "ms"),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the catalogue (import-time safe)."""
    from repro.cluster.engine import ClusterEngine
    from repro.cluster.fleet import ClusterFleet, LeastLoadedPlacement
    from repro.cluster.trace import Trace
    from repro.hardware.pool import RemotePool
    from repro.hardware.testbed import ResourceDemand, Testbed
    from repro.models.performance import PerformancePredictor
    from repro.models.predictor import Predictor
    from repro.models.system_state import SystemStatePredictor
    from repro.nn.recurrent import LSTM
    from repro.obs.live.stream import StreamExporter
    from repro.obs.metrics import MetricsRegistry
    from repro.orchestrator.policies import (
        AdriasPolicy,
        InterferenceThresholdPolicy,
    )
    from repro.serve.daemon import OrchestratorDaemon
    from repro.serve.safety import SafetyMonitor

    wrap = tracer.wrap
    wrap(OrchestratorDaemon, "handle_line", "serve.handle_line")
    wrap(SafetyMonitor, "review", "serve.safety_review")
    wrap(LeastLoadedPlacement, "__call__", "cluster.placement")
    wrap(ClusterFleet, "node_load", "cluster.node_load")
    wrap(ClusterFleet, "deploy", "cluster.fleet_deploy")
    wrap(ClusterFleet, "tick", "cluster.fleet_tick")
    wrap(ClusterEngine, "tick", "cluster.engine_tick")
    wrap(ClusterEngine, "current_pressure", "cluster.current_pressure")
    wrap(Trace, "window", "cluster.trace_window",
         probe=lambda args, kwargs: len(args[0]))
    wrap(Testbed, "resolve", "hardware.resolve")
    tracer.count(ResourceDemand, "__add__", "hardware.demand_add")
    wrap(RemotePool, "arbitrate", "hardware.pool_arbitrate")
    wrap(Testbed, "sample_counters", "hardware.sample_counters")
    wrap(AdriasPolicy, "decide", "orchestrator.decide")
    wrap(InterferenceThresholdPolicy, "decide",
         "orchestrator.threshold_decide")
    wrap(Predictor, "predict_both_modes", "models.predict_both_modes")
    wrap(SystemStatePredictor, "predict", "models.system_state")
    wrap(PerformancePredictor, "predict", "models.performance")
    wrap(LSTM, "forward", "nn.lstm_forward",
         probe=lambda args, kwargs: args[1].shape[:2])
    for attr in ("counter", "gauge", "histogram"):
        tracer.count(MetricsRegistry, attr, "obs.registry")
    wrap(StreamExporter, "emit", "obs.stream.emit")
    wrap(StreamExporter, "flush", "obs.stream.flush")


def layer_metrics(tracer: Tracer, *, decisions: int, deploys: int,
                  sim_s: float, stream_bytes: int = 0) -> dict[str, float]:
    """Every catalogue metric the spans and counts determine.

    ``decisions`` divides the per-decision model/nn counts and
    ``deploys`` the admission-context counts; metrics that need the
    workload module (transport, ledger, deployments, overheads,
    generator lateness) are filled in by it.
    """
    d = tracer.durations
    m: dict[str, float] = {}
    engine_ticks = tracer.calls("cluster.engine_tick")
    fleet_ticks = tracer.calls("cluster.fleet_tick")
    ticks = engine_ticks or 1

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    handle = d("serve.handle_line", self_time=True)
    m["serve.handle_line.calls"] = len(handle)
    m["serve.handle_line.self_p50_us"] = p50_us(handle)
    m["serve.handle_line.self_p99_us"] = p99_us(handle)
    review = d("serve.safety_review")
    m["serve.safety_review.calls"] = len(review)
    m["serve.safety_review.p50_us"] = p50_us(review)

    placement = d("cluster.placement", self_time=True)
    m["cluster.placement.self_p50_us"] = p50_us(placement)
    m["cluster.placement.node_load_calls_per_call"] = per(
        tracer.spans_within("cluster.node_load", "cluster.placement"),
        len(placement),
    )
    m["cluster.fleet_deploy.p50_us"] = p50_us(d("cluster.fleet_deploy"))
    fleet_tick = d("cluster.fleet_tick")
    m["cluster.fleet_tick.p50_us"] = p50_us(fleet_tick)
    m["cluster.fleet_tick.p99_us"] = p99_us(fleet_tick)
    m["cluster.fleet_tick.self_p50_us"] = p50_us(
        d("cluster.fleet_tick", self_time=True))
    engine_tick = d("cluster.engine_tick")
    m["cluster.engine_tick.p50_us"] = p50_us(engine_tick)
    m["cluster.engine_tick.late_over_early"] = late_over_early(engine_tick)

    tick_calls, deploy_calls = tracer.tick_context_calls(
        "cluster.current_pressure")
    m["cluster.current_pressure.calls_per_tick"] = per(tick_calls, ticks)
    m["cluster.current_pressure.calls_per_deploy"] = per(deploy_calls, deploys)
    m["cluster.current_pressure.p50_us"] = p50_us(
        d("cluster.current_pressure"))

    window = d("cluster.trace_window")
    rows = tracer.extra.get("cluster.trace_window", [])
    m["cluster.trace_window.calls"] = len(window)
    m["cluster.trace_window.p50_us"] = p50_us(window)
    m["cluster.trace_window.rows_mean"] = per(sum(rows), len(rows))
    m["cluster.trace_window.late_over_early"] = late_over_early(window)

    tick_calls, deploy_calls = tracer.tick_context_calls("hardware.resolve")
    m["hardware.resolve.calls_per_tick"] = per(tick_calls, ticks)
    m["hardware.resolve.calls_per_deploy"] = per(deploy_calls, deploys)
    m["hardware.resolve.p50_us"] = p50_us(d("hardware.resolve"))
    adds_tick, adds_deploy = tracer.counts["hardware.demand_add"]
    m["hardware.demand_add.per_tick"] = per(adds_tick, ticks)
    m["hardware.demand_add.per_deploy"] = per(adds_deploy, deploys)
    m["hardware.pool_arbitrate.p50_us"] = p50_us(d("hardware.pool_arbitrate"))
    m["hardware.sample_counters.p50_us"] = p50_us(
        d("hardware.sample_counters"))

    decide = d("orchestrator.decide", self_time=True)
    m["orchestrator.decide.self_p50_us"] = p50_us(decide)
    m["orchestrator.decide.late_over_early"] = late_over_early(d("orchestrator.decide"))
    m["orchestrator.threshold_decide.p50_us"] = p50_us(
        d("orchestrator.threshold_decide"))
    m["models.predict_both_modes.self_p50_us"] = p50_us(
        d("models.predict_both_modes", self_time=True))
    system_state = d("models.system_state")
    m["models.system_state.forwards_per_decision"] = per(
        len(system_state), decisions)
    m["models.system_state.p50_us"] = p50_us(system_state)
    m["models.performance.p50_us"] = p50_us(d("models.performance"))
    lstm = d("nn.lstm_forward")
    shapes = tracer.extra.get("nn.lstm_forward", [])
    m["nn.lstm_forward.calls_per_decision"] = per(len(lstm), decisions)
    m["nn.lstm_forward.timesteps_per_decision"] = per(
        sum(t for _, t in shapes), decisions)
    m["nn.lstm_forward.batch_mean"] = per(sum(n for n, _ in shapes),
                                          len(shapes))
    m["nn.lstm_forward.p50_us"] = p50_us(lstm)

    tick_lookups = tracer.counts["obs.registry"][0]
    m["obs.registry.lookups_per_tick"] = per(tick_lookups, fleet_ticks or ticks)
    emits = d("obs.stream.emit", self_time=True)
    m["obs.stream.emits_per_tick"] = per(len(emits), fleet_ticks or ticks)
    m["obs.stream.emit_p50_us"] = p50_us(emits)
    m["obs.stream.flush_p50_us"] = p50_us(d("obs.stream.flush"))
    m["obs.stream.bytes_per_sim_s"] = per(stream_bytes, sim_s)
    return m
