"""Self-test: every workload at a tiny size, twice, through the real CLI.

    python3 perfbench/run.py --self-test

Asserts that BENCHMARK.json lists exactly the metrics the runs print,
that each run prints every metric of its pass by name with its unit,
that digests and exact work counters repeat bit-for-bit across the two
runs, and that a deliberately broken serve stream (one deploy of an
unknown app) lands in the failure count instead of passing silently.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
TINY_SECONDS = {"serve-mix": 2.0, "replay-adrias": 1.0, "rack-observed": 1.0}


def _cli(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(TINY_SECONDS[workload]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def _digest(stdout: str) -> str:
    return stdout.split("digest ", 1)[1].split()[0]


def main() -> int:
    from run import END_TO_END, EXACT_LAYERS, WORKLOADS, measure_serve
    from tracer import PER_LAYER

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the workloads")
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        check([(m["name"], m["unit"]) for m in spec[key]] == list(catalogue),
              f"BENCHMARK.json {key} matches the printed metrics")

    for workload in WORKLOADS:
        for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
            print(f"{workload} trace={trace}", flush=True)
            (a, out_a), (b, out_b) = (_cli(workload, 7, trace),
                                      _cli(workload, 7, trace))
            for result, stdout in ((a, out_a), (b, out_b)):
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"}, "result keys")
                check(result["correct"] and result["failed"] == 0,
                      "correct, no failed ops")
                check(all(result["metrics"].get(name, {}).get("unit") == unit
                          and f"{name} " in stdout
                          for name, unit in catalogue),
                      "every metric printed with its unit")
            check(_digest(out_a) == _digest(out_b), "digests repeat")
            check(a["attempted"] == b["attempted"], "attempted repeats")
            if trace:
                same = [name for name in EXACT_LAYERS
                        if a["metrics"][name] != b["metrics"][name]]
                check(not same, f"exact counters repeat {same or ''}")
            else:
                check(all(a["metrics"][name]["value"] > 0
                          for name, _ in END_TO_END),
                      "end-to-end metrics are positive")

    print("serve-mix with a broken stream (unknown app)", flush=True)
    broken = measure_serve(7, TINY_SECONDS["serve-mix"], trace=False,
                           broken=True)
    check(broken["failed"] > 0, "unknown app lands in the failure count")
    check(not all(broken["checks"].values()), "broken run is not correct")

    print("self-test " + ("FAILED: " + "; ".join(failures) if failures
                          else "passed"))
    return 1 if failures else 0
