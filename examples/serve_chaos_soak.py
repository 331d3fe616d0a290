#!/usr/bin/env python
"""Client-driven chaos soak: the daemon serving through a node crash.

Boots ``repro serve`` as a real subprocess with a fault plan that
crashes ``n1`` early in the run and keeps it down, then fires a batch of
long-lived deployments at it through :class:`repro.serve.DaemonClient`.
Asserts the failure-domain claims end to end:

* every request is accounted for (admitted + vetoed + rejected adds up)
  even while a node is dying under live traffic;
* the detector actually fires: the health op reports ``n1`` DOWN and a
  nonzero failover tally — work drained off the crashed node was
  replayed onto the survivor, none of it lost;
* a client-requested drain still shuts down cleanly (exit 0) and the
  crash-window checkpoint warm-restores bit-identically.

Usage::

    python examples/serve_chaos_soak.py                  # 30 deployments
    python examples/serve_chaos_soak.py --deployments 10 # quicker
    python examples/serve_chaos_soak.py --out out/chaos  # artifact dir

Exit status 0 iff every assertion holds.  The ``--out`` directory keeps
the observability dump (stream + metrics) for upload from CI.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faults.plan import FaultPlan, FaultSpec  # noqa: E402
from repro.serve.client import DaemonClient  # noqa: E402
from repro.serve.daemon import OrchestratorDaemon  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
APPS = ("pagerank", "lda", "redis", "kmeans")

#: The crash opens after the first deployments land and never closes:
#: the run ends with n1 still dark, so the drain checkpoint straddles
#: the window.
CRASH_ONSET_SIM_S = 30.0


def spawn(out: Path, plan_path: Path, ckpt: Path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--faults", str(plan_path), "--checkpoint", str(ckpt),
         "--obs-out", str(out / "obs"), "--obs-stream"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=ENV, cwd=REPO,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        print(f"  [serve] {line.rstrip()}")
        if line.startswith("serve: listening on "):
            return process, int(line.rsplit(":", 1)[1])
    process.kill()
    raise RuntimeError("daemon never reported a listening port")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--deployments", type=int, default=30)
    parser.add_argument("--out", type=Path, default=Path("out/chaos-soak"))
    args = parser.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    plan_path = FaultPlan(
        faults=(
            FaultSpec("node_crash", CRASH_ONSET_SIM_S, 10_000_000.0,
                      {"node": "n1"}),
        ),
        seed=7,
        description="chaos plan: n1 dies mid-serve and stays down",
    ).to_file(out / "faults.json")
    ckpt = out / "daemon.ckpt"

    process, port = spawn(out, plan_path, ckpt)
    statuses: dict[str, int] = {}
    try:
        client = DaemonClient(host="127.0.0.1", port=port, retries=10,
                              jitter_seed=7)
        for index in range(args.deployments):
            response = client.deploy(APPS[index % len(APPS)])
            status = response.get("status", "error")
            statuses[status] = statuses.get(status, 0) + 1
        # Let the detector pass the crash onset before reading health.
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            health = client.health()
            if health.get("node_health", {}).get("n1") == "down":
                break
            time.sleep(0.1)
        client.request({"op": "drain", "reason": "chaos soak complete"})
    finally:
        if process.poll() is None and not process.stdout.closed:
            for line in process.stdout:
                print(f"  [serve] {line.rstrip()}")
        code = process.wait(timeout=30.0)

    print(f"statuses: {statuses}")
    counters = health["counters"]
    print(f"counters: {counters}")
    print(f"node health: {health.get('node_health')}")
    print(f"failovers: {health.get('failovers')}")
    failures = []
    if code != 0:
        failures.append(f"daemon exited {code}, wanted 0")
    accounted = sum(statuses.values())
    if accounted != args.deployments:
        failures.append(
            f"{accounted}/{args.deployments} requests accounted for"
        )
    booked = (
        counters["submitted"] + counters["vetoed"] + counters["rejected"]
    )
    if booked != args.deployments:
        failures.append(
            f"ledger booked {booked} requests, client sent "
            f"{args.deployments} (lost or double-counted work)"
        )
    if health.get("node_health", {}).get("n1") != "down":
        failures.append("detector never marked n1 down")
    drained = sum(health.get("failovers", {}).values())
    if drained < 1:
        failures.append("no deployment was failed over off the dead node")
    if health.get("failover_queue", 0) != 0:
        failures.append(
            f"{health['failover_queue']} failover entries still parked"
        )
    if not ckpt.exists():
        failures.append("no drain checkpoint written")
    else:
        restored = OrchestratorDaemon.restore(ckpt)
        resaved = restored.save(out / "resaved.ckpt")
        if resaved.read_bytes() != ckpt.read_bytes():
            failures.append("warm restore is not bit-identical")
        elif restored.health is None:
            failures.append("restored daemon lost its health manager")
        else:
            print("warm restore: bit-identical through the crash window")
    stream = out / "obs" / "stream.jsonl"
    if not stream.exists():
        failures.append("no observability stream dumped")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"PASS: {counters['submitted']} admitted, {drained} failed over "
        "off n1, clean drain through an open crash window"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
