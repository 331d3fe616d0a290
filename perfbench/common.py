"""Shared helpers: BLAS pinning, fingerprint, statistics, digests, output.

Importing this module pins the BLAS thread pools *before* numpy loads,
so every process the benchmark runs (run.py itself, the fresh worker
processes and the daemon subprocess, which inherits ``pinned_env()``)
measures single-threaded small GEMMs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import struct
import sys
import time
from pathlib import Path

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

#: The checkout root: the benchmark runs from it and writes only in it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for spans, obs dumps and worker output (gitignored).
WORK = ROOT / ".perfbench_work"


def have_program() -> bool:
    """Whether the program under test is present next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pinned_env() -> dict:
    """Environment for child processes: pinned BLAS, program on the path."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


# -- statistics --------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a sample."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def late_over_early(durations) -> float:
    """p50 of the last tenth of calls over p50 of the first tenth."""
    n = len(durations) // 10
    if n < 1:
        return 0.0
    early = median(durations[:n])
    return median(durations[-n:]) / early if early > 0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux ``ru_maxrss`` is KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- digests -----------------------------------------------------------------
class Digest:
    """Incremental sha256 over simulated outputs; floats hashed exactly."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def bytes(self, data: bytes) -> None:
        self._h.update(data)

    def text(self, value) -> None:
        self._h.update(str(value).encode("utf-8"))
        self._h.update(b"\x00")

    def float(self, value) -> None:
        self._h.update(struct.pack("<d", float(value)))

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def digest_records(digest: Digest, records) -> None:
    for r in records:
        digest.text(f"{r.app_id}|{r.name}|{r.kind.value}|{r.mode.value}")
        for value in (r.arrival_time, r.finish_time, r.runtime_s, r.p99_ms,
                      r.p999_ms, r.mean_slowdown, r.link_traffic_gb,
                      -1.0 if r.decided_s is None else r.decided_s):
            digest.float(value)


# -- machine fingerprint -----------------------------------------------------
def fingerprint() -> dict:
    """CPU, core count, Python, numpy and BLAS with its thread settings."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }
    try:
        import numpy as np

        info["numpy"] = np.__version__
        blas = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = blas.get("blas", {})
        info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception as error:  # noqa: BLE001 — the stamp is best effort
        info["blas"] = f"unknown ({type(error).__name__})"
    return info


# -- output ------------------------------------------------------------------
def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> None:
    """Print the human-readable table, then the one-line JSON result."""
    width = max((len(name) for name in metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


# -- admission timing --------------------------------------------------------
class AdmissionClock:
    """Wall time from a scheduler call to the end of that arrival's admission.

    The replay drivers call the scheduler, then deploy (retrying the
    other pool, or parking, on failure).  :meth:`scheduler` wraps the
    scheduler and opens a sample; :meth:`admitter` wraps the deploy
    entry point and moves the sample's end; the sample closes when the
    next arrival opens (or at :meth:`finish`).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._start: float | None = None
        self._end = 0.0

    def _close(self) -> None:
        if self._start is not None:
            self.samples.append(max(self._end, self._start) - self._start)
            self._start = None

    def scheduler(self, inner):
        clock = self

        class Timed:
            """The scheduler, timed; other attributes pass through."""

            def __getattr__(self, attr):
                return getattr(inner, attr)

            def __call__(self, *args, **kwargs):
                clock._close()
                clock._start = time.perf_counter()
                try:
                    return inner(*args, **kwargs)
                finally:
                    clock._end = time.perf_counter()

        return Timed()

    def admitter(self, deploy):
        clock = self

        def timed(*args, **kwargs):
            try:
                return deploy(*args, **kwargs)
            finally:
                if clock._start is not None:
                    clock._end = time.perf_counter()

        return timed

    def finish(self) -> list[float]:
        self._close()
        return self.samples
