"""serve-mix: the real socket daemon under an open-loop request stream.

The only workload that exercises transport, JSON parsing, safety review
and admission-time node ranking; it never touches the LSTM.

The whole request stream is precomputed from the seed: simulated time
advances only through ``tick`` ops on a fixed schedule inside the
stream, and every ``deploy`` mints exactly one ledger id ``d<k>``, so
ids (for ``complete`` and ``query``) are known in advance and the
daemon's responses are a pure function of the stream.  Two daemons
serve it: one paced open loop (latency from each request's *due* time,
generator lateness reported), one saturated with a fixed window of
outstanding requests (throughput).  Their response bytes must be equal.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import params
from common import ROOT, WORK, Digest, median, percentile, pinned_env, vm_hwm_mb

#: Every constraint kind, at limits the stream never reaches; downgrade
#: rather than veto, so each deploy runs the full review.
ENVELOPE = {
    "version": 1,
    "description": "benchmark envelope: all six kinds, never binding",
    "constraints": [
        {"kind": "breaker_closed", "action": "downgrade"},
        {"kind": "max_link_utilization", "limit": 1.0, "action": "downgrade"},
        {"kind": "max_pool_bandwidth", "limit": 1.0, "action": "downgrade"},
        {"kind": "max_pool_capacity", "limit": 1.0, "action": "downgrade"},
        {"kind": "max_qos_burn_rate", "limit": 1e9, "action": "downgrade"},
        {"kind": "max_concurrent_remote", "limit": 1_000_000,
         "action": "downgrade"},
    ],
}


@dataclass(frozen=True)
class Op:
    due: float
    kind: str
    line: bytes
    #: The ledger id the response must carry (deploy/complete/query).
    expect_id: str | None = None
    #: Ticks sent up to and including this op.
    ticks: int = 0


def make_stream(seed: int, duration_s: float, broken: bool = False) -> list[Op]:
    """The seeded request stream: Poisson users x per-user rate per window.

    ``broken`` swaps one deploy's app for an unknown one (self-test input
    that must land in the failure count).
    """
    rng = np.random.default_rng([seed, 0x5E7])
    arrivals: list[float] = []
    windows = int(np.ceil(duration_s / params.SERVE_WINDOW_S))
    for w in range(windows):
        start = w * params.SERVE_WINDOW_S
        end = min(start + params.SERVE_WINDOW_S, duration_s)
        rate = rng.poisson(params.SERVE_MEAN_USERS) * params.SERVE_USER_RATE
        t = start
        while rate > 0:
            t += rng.exponential(1.0 / rate)
            if t >= end:
                break
            arrivals.append(t)
    n_ticks = int(duration_s / params.SERVE_TICK_PERIOD_S)
    ticks = [(k + 1) * params.SERVE_TICK_PERIOD_S for k in range(n_ticks)]

    ops: list[Op] = []
    deploys = sent_ticks = 0
    events = sorted([(t, 1) for t in arrivals] + [(t, 0) for t in ticks])

    def add(due, kind, payload, expect=None):
        ops.append(Op(due, kind, json.dumps(payload).encode() + b"\n",
                      expect, sent_ticks))

    for due, is_arrival in events:
        if not is_arrival:
            sent_ticks += 1
            add(due, "tick", {"op": "tick", "n": 1})
            continue
        u = rng.random()
        if u < params.SERVE_P_DEPLOY or deploys == 0:
            app = params.SERVE_APPS[int(rng.integers(len(params.SERVE_APPS)))]
            if broken and deploys == 10:
                app = "no-such-app"
            add(due, "deploy", {"op": "deploy", "app": app}, f"d{deploys}")
            deploys += 1
            old = deploys - 1 - params.SERVE_RESIDENCY
            if old >= 0:
                add(due, "complete", {"op": "complete", "id": f"d{old}"},
                    f"d{old}")
        elif u < 1.0 - params.SERVE_P_HEALTH:
            low = max(0, deploys - params.SERVE_RESIDENCY)
            target = f"d{int(rng.integers(low, deploys))}"
            add(due, "query", {"op": "query", "id": target}, target)
        else:
            add(due, "health", {"op": "health"})
    add(duration_s, "health", {"op": "health"})
    return ops


# -- outcome rules -------------------------------------------------------------
def judge(ops: list[Op], responses: list[bytes | None]) -> dict:
    """Failures per the outcome rules, order checks, final health checks."""
    failed = 0
    in_order = True
    last = None
    for op, raw in zip(ops, responses):
        if raw is None:
            failed += 1  # lost: transport error or timeout
            in_order = False
            continue
        resp = json.loads(raw)
        last = resp
        if not resp.get("ok") and not (
            op.kind == "complete" and "not running" in resp.get("error", "")
        ):
            failed += 1  # malformed, unknown op/app/id, handler error, refusal
        if op.expect_id is not None and "id" in resp:
            in_order &= resp["id"] == op.expect_id
        if op.kind == "tick" and resp.get("ok"):
            in_order &= resp.get("clock") == float(op.ticks)
    checks = {"one in-order response per request": in_order}
    counters = (last or {}).get("counters", {})
    checks["submitted == finished + running + parked"] = bool(counters) and (
        counters["submitted"]
        == counters["finished"] + last["running"] + last["parked"]
    )
    checks["double_finished == 0"] = counters.get("double_finished", 1) == 0
    checks["daemon clock == ticks sent"] = (last or {}).get("clock") == float(
        ops[-1].ticks
    )
    return {"failed": failed, "checks": checks, "counters": counters}


def digest_of(responses) -> str:
    digest = Digest()
    for raw in responses:
        digest.bytes(b"<lost>\n" if raw is None else raw + b"\n")
    return digest.hexdigest()


# -- the daemon subprocess -------------------------------------------------------
class Daemon:
    """``python -m repro serve --paused`` on a 4-node pooled rack."""

    def __init__(self, seed: int) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        envelope = WORK / "envelope.json"
        envelope.write_text(json.dumps(ENVELOPE))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--paused",
             "--nodes", str(params.SERVE_NODES), "--pool-regime", "pooled",
             "--safety", str(envelope), "--seed", str(seed), "--port", "0"],
            cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if "listening on" not in line:
            raise RuntimeError(f"daemon did not start: {line!r} "
                               f"{self.stop()!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def drain(self) -> int:
        """Ask for a drain over a fresh connection; returns the exit code."""
        with socket.create_connection(("127.0.0.1", self.port), 10) as sock:
            sock.sendall(b'{"op": "drain", "reason": "benchmark done"}\n')
            sock.settimeout(10)
            sock.recv(4096)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.stop()
        return self.proc.returncode

    def stop(self) -> str:
        """Kill the daemon if it still runs; returns what it wrote to stderr."""
        if self.proc.poll() is None:
            self.proc.kill()
        if self.proc.stdout.closed:
            return ""
        return self.proc.communicate()[1]


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), 10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def _drive(port: int, ops: list[Op], window: int | None) -> dict:
    """Send ``ops`` over one persistent connection, reading as we go.

    ``window=None`` paces the stream open loop by due time; an integer
    keeps that many requests outstanding (saturation).  Returns the raw
    response lines and per-request send/receive times.
    """
    n = len(ops)
    sock = _connect(port)
    sel = selectors.SelectSelector()  # microsecond timeouts (epoll: ms)
    sel.register(sock, selectors.EVENT_READ)
    responses: list[bytes | None] = [None] * n
    sent = [0.0] * n
    received = [0.0] * n
    out = bytearray()
    buf = b""
    i = j = 0
    t0 = time.perf_counter() + 0.05
    last_progress = time.perf_counter()
    try:
        while j < n:
            now = time.perf_counter()
            if window is None:
                while i < n and t0 + ops[i].due <= now:
                    out += ops[i].line
                    sent[i] = now
                    i += 1
            else:
                while i < n and i - j < window:
                    out += ops[i].line
                    sent[i] = now
                    i += 1
            if out:
                try:
                    del out[:sock.send(out)]
                except BlockingIOError:
                    pass
            if out:
                timeout = 0.0005
            elif window is None and i < n:
                timeout = max(0.0, t0 + ops[i].due - time.perf_counter())
            else:
                timeout = 0.5
            if sel.select(timeout):
                try:
                    data = sock.recv(1 << 20)
                except BlockingIOError:
                    data = None
                if data == b"":
                    break  # daemon closed the connection
                if data:
                    now = time.perf_counter()
                    lines = (buf + data).split(b"\n")
                    buf = lines.pop()
                    for line in lines:
                        if j < n:
                            responses[j] = line
                            received[j] = now
                            j += 1
                    last_progress = now
            if time.perf_counter() - last_progress > params.SERVE_RESPONSE_TIMEOUT_S:
                break
    finally:
        sel.close()
        sock.close()
    return {"responses": responses, "sent": sent, "received": received,
            "t0": t0}


def open_loop(port: int, ops: list[Op]) -> dict:
    run = _drive(port, ops, window=None)
    t0 = run["t0"]
    deploy_ms, query_ms, late_ms = [], [], []
    for index, op in enumerate(ops):
        due = t0 + op.due
        late_ms.append((run["sent"][index] - due) * 1e3)
        if run["responses"][index] is None:
            continue
        latency = (run["received"][index] - due) * 1e3
        if op.kind == "deploy":
            deploy_ms.append(latency)
        elif op.kind == "query":
            query_ms.append(latency)
    run.update(deploy_ms=deploy_ms, query_ms=query_ms, late_ms=late_ms)
    return run


def saturate(port: int, ops: list[Op]) -> dict:
    start = time.perf_counter()
    run = _drive(port, ops, window=params.SERVE_SAT_WINDOW)
    run["wall_s"] = time.perf_counter() - start
    return run


def lateness_check(p99_ms: float) -> dict:
    """A generator that fell behind its schedule makes the run invalid."""
    limit = params.SERVE_GEN_LATE_LIMIT_MS
    return {f"generator late p99 <= {limit:g} ms": p99_ms <= limit}


def open_loop_seconds(seconds: float) -> float:
    return params.SERVE_OPEN_LOOP_SHARE * seconds


def run(seed: int, seconds: float, broken: bool = False) -> dict:
    """Spawn daemons (timed): one paced pass, saturated passes, checks."""
    ops = make_stream(seed, open_loop_seconds(seconds), broken=broken)
    # One daemon alive at a time; every spawn is a set-up sample.
    setups, codes, sats = [], [], []
    daemon = None
    try:
        daemon = Daemon(seed)
        setups.append(daemon.setup_s)
        paced = open_loop(daemon.port, ops)
        rss_mb = vm_hwm_mb(daemon.proc.pid)
        codes.append(daemon.drain())
        # Each saturated pass needs a fresh daemon (same starting state).
        for _ in range(params.SERVE_SAT_PASSES):
            daemon = Daemon(seed)
            setups.append(daemon.setup_s)
            sats.append(saturate(daemon.port, ops))
            codes.append(daemon.drain())
    finally:
        if daemon is not None:
            daemon.stop()
    verdict = judge(ops, paced["responses"])
    digest = digest_of(paced["responses"])
    checks = dict(verdict["checks"])
    checks["saturated passes: same response bytes"] = all(
        digest_of(sat["responses"]) == digest for sat in sats
    )
    sat_wall = min(sat["wall_s"] for sat in sats)
    checks["clean drain, exit code 0"] = codes == [0] * len(codes)
    gen_late_p99 = percentile(paced["late_ms"], 99.0)
    checks.update(lateness_check(gen_late_p99))
    n_ticks = ops[-1].ticks
    return {
        "setup_s": median(setups),
        "deploy_ms": paced["deploy_ms"],
        "query_ms": paced["query_ms"],
        "gen_late_p99_ms": gen_late_p99,
        "sat_ops_s": len(ops) / sat_wall,
        "sim_s_per_s": n_ticks / sat_wall,
        "rss_mb": rss_mb,
        "attempted": len(ops) * (1 + len(sats)),
        "failed": verdict["failed"] + sum(
            judge(ops, sat["responses"])["failed"] for sat in sats
        ),
        "checks": checks,
        "digest": digest,
    }


# -- traced pass -------------------------------------------------------------
def in_process(seed: int, ops: list[Op], tracer=None) -> dict:
    """Serve the same lines through ``OrchestratorDaemon.handle_line``."""
    from repro.serve import DaemonConfig, OrchestratorDaemon, SafetyEnvelope

    daemon = OrchestratorDaemon(
        DaemonConfig(n_nodes=params.SERVE_NODES, pool_regime="pooled",
                     seed=seed),
        envelope=SafetyEnvelope.from_dict(ENVELOPE),
    )
    daemon.paused = True
    lines = [op.line.decode()[:-1] for op in ops]
    responses: list[bytes] = []
    deploy_s: list[float] = []
    if tracer is not None:
        from tracer import install

        install(tracer)
    start = time.perf_counter()
    try:
        for index, line in enumerate(lines):
            kind = ops[index].kind
            if tracer is not None:
                tracer.corr = index
                tracer.tag = kind
            t = time.perf_counter()
            response = daemon.handle_line(line)
            if kind == "deploy":
                deploy_s.append(time.perf_counter() - t)
            responses.append(json.dumps(response).encode("utf-8"))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    engines = daemon.fleet.engines
    return {
        "wall_s": wall,
        "digest": digest_of(responses),
        "deploy_s": deploy_s,
        "ledger": len(daemon.ledger),
        "held_end": sum(len(e.deployments) for e in engines),
        "resident_mean": sum(
            sum(e.trace.concurrency) / max(len(e.trace.concurrency), 1)
            for e in engines
        ),
        "sim_s": daemon.fleet.now,
    }


def traced(seed: int, seconds: float) -> dict:
    """Socket pass, then the same lines in-process: untraced, traced."""
    from tracer import Tracer, layer_metrics

    ops = make_stream(seed, open_loop_seconds(seconds))
    daemon = Daemon(seed)
    try:
        paced = open_loop(daemon.port, ops)
        code = daemon.drain()
    finally:
        daemon.stop()
    verdict = judge(ops, paced["responses"])
    socket_digest = digest_of(paced["responses"])
    plain = in_process(seed, ops)
    tracer = Tracer()
    spanned = in_process(seed, ops, tracer=tracer)
    deploys = sum(1 for op in ops if op.kind == "deploy")
    layers = layer_metrics(tracer, decisions=tracer.calls("cluster.placement"),
                           deploys=deploys, sim_s=spanned["sim_s"])
    layers["serve.transport.p50_ms"] = (
        median(paced["deploy_ms"]) - median(plain["deploy_s"]) * 1e3
    )
    layers["serve.ledger.entries_end"] = spanned["ledger"]
    layers["cluster.deployments.held_end"] = spanned["held_end"]
    layers["cluster.deployments.resident_mean"] = spanned["resident_mean"]
    layers["bench.trace_overhead.ratio"] = spanned["wall_s"] / plain["wall_s"]
    layers["bench.gen_late.p99_ms"] = percentile(paced["late_ms"], 99.0)
    checks = dict(verdict["checks"])
    checks.update(lateness_check(layers["bench.gen_late.p99_ms"]))
    checks["clean drain, exit code 0"] = code == 0
    checks["in-process digest == socket digest"] = (
        plain["digest"] == socket_digest == spanned["digest"]
    )
    return {
        "layers": layers,
        "checks": checks,
        "digest": socket_digest,
        "attempted": len(ops),
        "failed": verdict["failed"],
        "tracer": tracer,
    }
