"""Self-test of the benchmark (not part of the library's test suite).

1. ``BENCHMARK.json`` and ``metrics.json`` name the same metrics with the
   same units and directions.
2. Every exact count (``"exact": true`` in ``metrics.json``) repeats
   identically across two traced runs with the same seed.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits nonzero without printing a result.

Usage (from the repository root; about three minutes for all workloads):
    python3 perfbench/selftest.py [closed_forms] [fit] [cli]
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness

SEED = 7


def check_spec() -> list[str]:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((harness.BENCH_DIR / "metrics.json").read_text(encoding="utf-8"))

    def triples(rows):
        return [(r["name"], r["unit"], r["better"]) for r in rows]

    errors = []
    gated = [r for r in spec["end_to_end"] if r["gated"]]
    if triples(bench["end_to_end"]) != triples(gated):
        errors.append("BENCHMARK.json end_to_end differs from the gated metrics.json rows")
    if triples(bench["per_layer"]) != triples(spec["per_layer"]):
        errors.append("BENCHMARK.json per_layer differs from metrics.json")
    if bench["workloads"] != spec["workloads"]:
        errors.append("BENCHMARK.json workloads differ from metrics.json")
    return errors


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} traced run exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def check_repeat(workloads) -> list[str]:
    spec = json.loads((harness.BENCH_DIR / "metrics.json").read_text(encoding="utf-8"))
    exact = [r["name"] for r in spec["per_layer"] if r.get("exact")]
    errors = []
    for workload in workloads:
        first, second = traced_counts(workload), traced_counts(workload)
        for name in exact:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                errors.append(f"{workload}: {name} gave {a!r} then {b!r}")
        print(f"{workload}: {len(exact)} exact counts compared")
    return errors


def check_bare_directory() -> list[str]:
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark printed a result or exited 0 without the library sources"]
    return []


def main(argv) -> int:
    workloads = argv or ["closed_forms", "fit", "cli"]
    errors = check_spec() + check_bare_directory() + check_repeat(workloads)
    for message in errors:
        print(f"FAIL {message}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
