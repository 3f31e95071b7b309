"""Shared plumbing: paths, pinned environment, ops, passes and statistics.

Importing this module pins BLAS/OpenMP pools to one thread (before numpy
loads) and puts the checkout's ``src`` on ``sys.path``, so every other
benchmark module imports ``baslg`` from source.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def missing_sources() -> list[str]:
    """Checkout files the benchmark needs and cannot find."""
    need = ("src/baslg/__init__.py", "scripts/moment_bounds.py", "scripts/reproduce_tables.py",
            "data/galaxies.txt")
    return [rel for rel in need if not (ROOT / rel).is_file()]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], timeout: float = 150.0):
    """Run a fresh interpreter from the checkout root; time spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, proc


@dataclass
class Op:
    """One public call in a workload's fixed op list.

    ``kind`` groups ops into an end-to-end metric, ``size`` is the points or
    draws the call produces, and ``check`` returns a failure message or None.
    """

    name: str
    layer: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]] = lambda out: None
    size: int = 1


@dataclass
class OpResult:
    op: Op
    seconds: float
    error: Optional[str]
    mid: float = 0.0  # perf_counter half way through the call
    # PROBE_REF_S / the host probe's time around the op: seconds * speed is
    # the op's time at the reference host speed
    speed: float = 1.0


# A shared host's speed drifts by 30% and more for tens of seconds at a time,
# and CPU time drifts with it.  A fixed pure-Python loop that calls no baslg
# code, timed between ops, measures that drift so that setup_s and wall_s can
# divide it out.
PROBE_REF_S = 1.6e-3  # median probe time on the reference host (README)
PROBE_EVERY_S = 0.5  # op time between two probes
PROBE_WINDOW_S = 1.5  # an op's speed is the median probe within this of its middle


def probe_once() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(12_000):
        acc += (i * 0.5) % 3.0
    return time.perf_counter() - start


class HostProbe:
    """Samples of the probe's time, each the fastest of three back-to-back
    runs: slow drift shows, interrupts do not."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            seconds = min(probe_once() for _ in range(3))
            self.samples.append((time.perf_counter(), seconds))

    def speed_at(self, mid: float, seconds: float) -> float:
        """PROBE_REF_S over the median probe near a call of ``seconds`` whose
        middle is at ``mid``: within PROBE_WINDOW_S of the middle, or of the
        ends and a little past them for a call longer than the window."""
        half = max(PROBE_WINDOW_S, 0.5 * seconds + PROBE_EVERY_S)
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, mid - half)
        hi = bisect.bisect_right(times, mid + half)
        near = [s for _, s in self.samples[lo:hi]]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return PROBE_REF_S / statistics.median(near)

    def assign_speeds(self, results) -> None:
        for r in results:
            r.speed = self.speed_at(r.mid, r.seconds)


def run_pass(ops: list[Op], tracer=None, probe: Optional[HostProbe] = None
             ) -> tuple[float, list[OpResult]]:
    """Run every op once; wall time is the sum of the op calls.

    Each output is checked right after its call, outside the timed region,
    and then dropped, so large arrays never pile up.  With a ``probe`` it
    samples the host before the first op and about once per PROBE_EVERY_S
    of op time after it, outside the timed calls.
    """
    results = []
    since_probe = 0.0
    if probe is not None:
        probe.sample()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op.name, op.layer)
        start = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        seconds = end - start
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # noqa: BLE001 - a broken output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append(OpResult(op, seconds, error, 0.5 * (start + end)))
        del out
        since_probe += seconds
        if probe is not None and (since_probe >= PROBE_EVERY_S or i == len(ops) - 1):
            # one sample per PROBE_EVERY_S of op time, so a long op's window
            # holds as many samples as a run of short ones
            probe.sample(max(1, round(since_probe / PROBE_EVERY_S)))
            since_probe = 0.0
    return sum(r.seconds for r in results), results


def run_timed(ops_for_pass: Callable[[int], list[Op]], seconds: float, min_passes: int,
              probe: HostProbe) -> list[tuple[float, list[OpResult]]]:
    """Run pass k of the op list for k = 0, 1, ..., sampling the host probe,
    until ``seconds`` have passed and ``min_passes`` ran; then give every op
    its speed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops_for_pass(len(passes)), probe=probe))
    for _, results in passes:
        probe.assign_speeds(results)
    return passes


def median(values):
    return statistics.median(values) if values else None


def quantile_or_none(values, q: float):
    """Empirical q-quantile, or None unless >= 10 samples lie above it."""
    n = len(values)
    if n == 0 or (1.0 - q) * n < 10:
        return None
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_setup(argv: list[str], reps: int, probe: HostProbe) -> list[OpResult]:
    """Spawn-to-exit times of ``reps`` fresh set-up processes, probed like ops."""
    def check(proc):
        return f"exited {proc.returncode}: {proc.stderr[-400:]}" if proc.returncode else None

    setup = Op("setup", "setup", "setup", lambda: run_process(argv)[1], check)
    _, results = run_pass([setup] * reps, probe=probe)
    probe.assign_speeds(results)
    return results
