"""Subprocess SIGTERM drain soak: graceful exit, crash-safe warm restart.

Satellite regression for the daemon's headline robustness claims: a
SIGTERM'd ``repro serve`` exits 0, parks every in-flight deployment in
its checkpoint (nothing lost, nothing double-finished) and a warm
restart from that checkpoint is bit-identical.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster.checkpoint import load_checkpoint
from repro.serve.client import DaemonClient
from repro.serve.daemon import OrchestratorDaemon

SRC = Path(__file__).resolve().parents[2] / "src"
START_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 30.0


def spawn_daemon(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    deadline = time.monotonic() + START_TIMEOUT_S
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("serve: listening on "):
            port = int(line.rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise AssertionError(f"daemon never came up; output: {lines!r}")


def stop(process):
    process.send_signal(signal.SIGTERM)
    output = process.stdout.read()
    code = process.wait(timeout=EXIT_TIMEOUT_S)
    return code, output


@pytest.mark.slow
def test_sigterm_drain_parks_everything_and_restarts_warm(tmp_path):
    ckpt = tmp_path / "daemon.ckpt"
    process, port = spawn_daemon(tmp_path, "--checkpoint", str(ckpt))
    client = DaemonClient(host="127.0.0.1", port=port)
    try:
        ids = []
        for index in range(8):
            app = ("redis", "memcached")[index % 2]
            response = client.deploy(app)
            assert response["ok"] is True, response
            ids.append(response["id"])
        # Finish one through the natural path so the soak covers both
        # in-flight and completed entries in the checkpoint.
        assert client.complete(ids[0])["ok"] is True
        assert client.tick(3)["ok"] is True
        health = client.health()
        assert health["ok"] is True
        assert health["counters"]["submitted"] == 8
    finally:
        code, output = stop(process)
    assert code == 0, output
    assert "serve: drained" in output

    # -- nothing lost, nothing double-finished ------------------------------
    data = load_checkpoint(ckpt, "daemon")["daemon"]
    statuses = [e["status"] for e in data["ledger"].values()]
    open_or_done = sum(
        statuses.count(s) for s in ("running", "parked", "finished")
    )
    assert open_or_done == data["counters"]["submitted"] == 8
    assert statuses.count("finished") == data["counters"]["finished"] == 1
    assert data["counters"]["double_finished"] == 0
    for req_id in ids[1:]:
        assert data["ledger"][req_id]["status"] in ("running", "parked")

    # -- warm restart is bit-identical --------------------------------------
    restored = OrchestratorDaemon.restore(ckpt)
    resaved = restored.save(tmp_path / "resaved.ckpt")
    assert resaved.read_bytes() == ckpt.read_bytes()

    # -- and the restarted daemon actually serves ---------------------------
    process, port = spawn_daemon(tmp_path, "--resume", str(ckpt))
    client = DaemonClient(host="127.0.0.1", port=port)
    try:
        health = client.health()
        assert health["counters"]["submitted"] == 8
        assert health["running"] + health["parked"] == 7
        response = client.deploy("redis")
        assert response["ok"] is True
    finally:
        code, output = stop(process)
    assert code == 0, output


@pytest.mark.slow
def test_sigint_also_drains_cleanly(tmp_path):
    process, port = spawn_daemon(tmp_path)
    client = DaemonClient(host="127.0.0.1", port=port)
    assert client.deploy("redis")["ok"] is True
    process.send_signal(signal.SIGINT)
    output = process.stdout.read()
    assert process.wait(timeout=EXIT_TIMEOUT_S) == 0, output
    assert "serve: drained" in output


@pytest.mark.slow
def test_malformed_socket_traffic_never_kills_the_daemon(tmp_path):
    import socket as socket_module

    process, port = spawn_daemon(tmp_path)
    try:
        for payload in (b"{nope\n", b"[]\n", b'{"op": "wat"}\n'):
            with socket_module.create_connection(
                ("127.0.0.1", port), timeout=5.0
            ) as sock:
                sock.sendall(payload)
                response = json.loads(sock.makefile().readline())
            assert response["ok"] is False
        client = DaemonClient(host="127.0.0.1", port=port)
        health = client.health()
        assert health["ok"] is True
        assert health["counters"]["malformed"] == 3
    finally:
        code, output = stop(process)
    assert code == 0, output
