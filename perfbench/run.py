"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Workloads: ``serve-mix``, ``replay-adrias``, ``rack-observed`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics
of an untraced run; ``--trace 1`` runs the separate traced pass and
prints the per-layer metrics.  Every metric is printed by name with its
unit, then the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when an output check fails, 2 when the program is
missing.  ``--self-test`` runs every workload at a tiny size twice and
asserts the output contract, exact counters and digests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402 — pins BLAS threads before numpy loads
from common import (  # noqa: E402
    WORK,
    emit_result,
    fingerprint,
    median,
    percentile,
    pinned_env,
)

WORKLOADS = ("serve-mix", "replay-adrias", "rack-observed")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("deploy_mean_ms", "ms"),
    ("deploy_p98_ms", "ms"),
    ("sim_s_per_s", "sim_s/s"),
    ("rss_mb", "MB"),
]

#: Per-layer counts that are exact functions of the seed (self-test).
EXACT_LAYERS = (
    "serve.handle_line.calls",
    "serve.safety_review.calls",
    "serve.ledger.entries_end",
    "cluster.placement.node_load_calls_per_call",
    "cluster.current_pressure.calls_per_tick",
    "cluster.current_pressure.calls_per_deploy",
    "cluster.deployments.held_end",
    "cluster.deployments.resident_mean",
    "cluster.trace_window.calls",
    "cluster.trace_window.rows_mean",
    "hardware.resolve.calls_per_tick",
    "hardware.resolve.calls_per_deploy",
    "hardware.demand_add.per_tick",
    "hardware.demand_add.per_deploy",
    "orchestrator.decide.degraded",
    "models.system_state.forwards_per_decision",
    "nn.lstm_forward.calls_per_decision",
    "nn.lstm_forward.timesteps_per_decision",
    "nn.lstm_forward.batch_mean",
    "obs.registry.lookups_per_tick",
)


def admission_metrics(ms: list[float]) -> dict:
    """Mean and p98 admission wait, plus the p50 and sample count shown."""
    return {
        "deploy_mean_ms": sum(ms) / len(ms),
        "deploy_p98_ms": percentile(ms, 98.0),
        "deploy_p50_ms": median(ms),
        "deploy samples": len(ms),
    }


def measure_in_process(workload: str, seed: int, seconds: float,
                       trace: bool) -> dict:
    """Replay or rack, run in this (fresh) process; JSON-able result."""
    common.import_program()
    import rack
    import replay

    module = replay if workload == "replay-adrias" else rack
    if trace:
        out = module.traced(seed, seconds)
        tracer = out.pop("tracer")
        tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")
        return {
            "layers": out["layers"],
            "checks": out["checks"],
            "digest": out["digest"],
            "attempted": out["arrivals"],
            "failed": 0,
        }
    out = module.run(seed, seconds)
    admission = admission_metrics([s * 1e3 for s in out["admissions"]])
    return {
        "e2e": {
            "setup_s": out["setup_s"],
            "deploy_mean_ms": admission.pop("deploy_mean_ms"),
            "deploy_p98_ms": admission.pop("deploy_p98_ms"),
            "sim_s_per_s": out["sim_s"] / out["wall_s"],
            "rss_mb": common.peak_rss_mb(),
        },
        "info": {**admission, "sim_s": out["sim_s"], "wall_s": out["wall_s"],
                 "error_frac": 0.0},
        "checks": out["checks"],
        "digest": out["digest"],
        "attempted": out["arrivals"],
        "failed": 0,
    }


def measure_serve(seed: int, seconds: float, trace: bool,
                  broken: bool = False) -> dict:
    common.import_program()
    import serve_mix

    if trace:
        out = serve_mix.traced(seed, seconds)
        out.pop("tracer").write(WORK / f"spans-serve-mix-{seed}.jsonl")
        return out
    out = serve_mix.run(seed, seconds, broken=broken)
    admission = admission_metrics(out["deploy_ms"])
    return {
        "e2e": {
            "setup_s": out["setup_s"],
            "deploy_mean_ms": admission.pop("deploy_mean_ms"),
            "deploy_p98_ms": admission.pop("deploy_p98_ms"),
            "sim_s_per_s": out["sim_s_per_s"],
            "rss_mb": out["rss_mb"],
        },
        "info": {
            **admission,
            "deploy_p99_ms": percentile(out["deploy_ms"], 99.0),
            "query_p99_ms": percentile(out["query_ms"], 99.0),
            "query samples": len(out["query_ms"]),
            "sat_ops_s": out["sat_ops_s"],
            "gen_late_p99_ms": out["gen_late_p99_ms"],
            "error_frac": out["failed"] / out["attempted"],
        },
        "checks": out["checks"],
        "digest": out["digest"],
        "attempted": out["attempted"],
        "failed": out["failed"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mix":
        return measure_serve(seed, seconds, trace)
    # A fresh process per in-process workload: its peak RSS is the run's.
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--in-process",
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(int(trace))],
        env=pinned_env(), capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, result: dict, trace: bool) -> bool:
    """Print the run's stamp, checks and metrics; returns correctness."""
    from tracer import PER_LAYER

    print(f"perfbench {workload}  digest {result['digest']}")
    print("  machine: " + json.dumps(fingerprint(), sort_keys=True))
    for name, value in result.get("info", {}).items():
        print(f"  {name}: {value:.6g}" if isinstance(value, float)
              else f"  {name}: {value}")
    correct = all(result["checks"].values())
    for name, ok in result["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    if trace:
        layers = result["layers"]
        metrics = {name: (float(layers.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: (float(result["e2e"][name]), unit)
                   for name, unit in END_TO_END}
    emit_result(correct, result["attempted"], result["failed"], metrics)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not common.have_program():
        print(f"perfbench: program sources not found at {common.SRC}",
              file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    WORK.mkdir(parents=True, exist_ok=True)
    if args.in_process:
        result = measure_in_process(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
        print(json.dumps(result))
        return 0
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    return 0 if report(args.workload, result, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
