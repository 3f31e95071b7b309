"""Benchmark of the baslg library and CLI: one workload, one seed, one run.

Usage (from the repository root):
    python3 perfbench/run.py --workload {closed_forms,fit,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run measures set-up in fresh interpreters, then
repeats the workload's fixed op list for S seconds with tracing off and
reports end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer metrics from the spans.  Every op's
output is checked; a raising op, a nonzero exit status or a failed check
counts as failed.  The second-to-last stdout line is a full JSON report
(environment, every metric with its unit and sample count, failures); the
last line is the summary ``{"correct", "attempted", "failed", "metrics"}``
holding exactly the metrics ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from collections import defaultdict

import harness
from harness import median, quantile_or_none

WORKLOADS = ("closed_forms", "fit", "cli")
SETUP_REPS = 3
IMPORT_REPS = 3
MIN_PASSES = {"closed_forms": 3, "fit": 2, "cli": 2}
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import {module}; "
    "print(time.perf_counter() - t, sum(1 for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.')))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def load_spec() -> dict:
    return json.loads((harness.BENCH_DIR / "metrics.json").read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "threads": {var: os.environ[var] for var in harness.THREAD_VARS},
    }


class Tally:
    """Attempted and failed ops of the whole run, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, error) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{name}: {error}")

    def add_pass(self, results) -> None:
        for r in results:
            self.add(r.op.name, r.error)


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------

def end_to_end(workload, passes, setup, tally) -> dict:
    by_kind = defaultdict(list)
    for _, results in passes:
        for r in results:
            by_kind[r.op.kind].append((r.seconds, r.op.size))

    def rate(kind):
        rows = by_kind[kind]
        return sum(n for _, n in rows) / sum(s for s, _ in rows), len(rows)

    def pct(kind, q, scale=1.0):
        vals = [s * scale for s, _ in by_kind[kind]]
        return quantile_or_none(vals, q), len(vals)

    # wall_s sums each op's median over the passes, so a burst of machine
    # noise that slows a few ops in one pass does not move it.  setup_s and
    # wall_s rescale each time to the reference host speed; the _raw_ forms
    # are the times as measured.
    def ref_times(results):
        return [r.seconds * r.speed for r in results]

    per_op = list(zip(*(ref_times(results) for _, results in passes)))
    per_op_raw = list(zip(*([r.seconds for r in results] for _, results in passes)))
    speeds = [r.speed for _, results in passes for r in results]
    m = {
        "setup_s": (median(ref_times(setup)), len(setup)),
        "wall_s": (sum(median(times) for times in per_op), len(passes)),
        "setup_raw_s": (median([r.seconds for r in setup]), len(setup)),
        "wall_raw_s": (sum(median(times) for times in per_op_raw), len(passes)),
        "host_speed": (median(speeds), len(speeds)),
        "failed_frac": (len(tally.failures) / tally.attempted, tally.attempted),
    }
    if workload == "closed_forms":
        m["cdf_points_per_s"] = rate("cdf_vector")
        m["scalar_cdf_us.p50"] = pct("cdf_scalar", 0.5, 1e6)
        m["scalar_cdf_us.p90"] = pct("cdf_scalar", 0.9, 1e6)
        m["draws_per_s.inverse"] = rate("sample_inverse_cdf")
        m["draws_per_s.rejection"] = rate("sample_rejection")
    elif workload == "fit":
        m["fit_s.p50"] = pct("fit", 0.5)
        m["fit_s.p90"] = pct("fit", 0.9)
        m["lrtest_s.p50"] = pct("lrtest", 0.5)
    else:
        m["cli_s.p50"] = pct("cli", 0.5)
    return m


def build_ops(workload, seed, traced):
    """(ops_for_pass, cleanup) for the workload; cli builds its script and files.

    ``ops_for_pass(k)`` is the op list of pass k.  ``fit`` and ``cli`` vary
    it: each ``fit`` pass fits fresh pool members, and ``cli`` passes
    alternate between two seeded scripts, so a run covers more inputs and
    one costly pick moves wall_s less.  The traced run repeats pass 0.
    """
    if workload == "closed_forms":
        import wl_closed_forms
        ops = wl_closed_forms.build(seed)
        return (lambda k: ops), None
    if workload == "fit":
        import wl_fit
        return (lambda k: wl_fit.build(seed, k)), None
    import wl_cli
    if traced:
        script = wl_cli.Script(seed)
        ops = script.replay_ops()
        return (lambda k: ops), script.close
    scripts = [wl_cli.Script(seed, variant) for variant in (0, 1)]
    op_lists = [script.process_ops() for script in scripts]

    def close():
        for script in scripts:
            script.close()

    return (lambda k: op_lists[k % 2]), close


# ---------------------------------------------------------------------------
# traced run (per-layer)
# ---------------------------------------------------------------------------

def probe_imports(tally) -> dict:
    """Fresh-interpreter import times, the scipy modules import pulls in, and the floor."""
    out = {}
    for module, prefix in (("baslg", "baslg"), ("baslg.cli", "cli")):
        times, mods = [], []
        for _ in range(IMPORT_REPS):
            _, proc = harness.run_process(["-c", IMPORT_PROBE.format(module=module)])
            tally.add(f"import.{module}", None if proc.returncode == 0 else proc.stderr[-300:])
            if proc.returncode == 0:
                seconds, count = proc.stdout.split()
                times.append(float(seconds))
                mods.append(int(count))
        out[f"{prefix}.import_s"] = median(times)
        if prefix == "baslg":
            out["baslg.scipy_modules"] = mods[0] if mods else None
            if len(set(mods)) > 1:
                tally.add("import.baslg", f"scipy module count varies: {mods}")
    floor = []
    for _ in range(IMPORT_REPS):
        seconds, proc = harness.run_process(["-c", "pass"])
        tally.add("interp_floor", None if proc.returncode == 0 else proc.stderr[-300:])
        floor.append(seconds)
    out["cli.interp_floor_s"] = median(floor)
    return out


def write_spans(tracer, workload, seed) -> None:
    import tracer as tr

    harness.WORK.mkdir(parents=True, exist_ok=True)
    path = harness.WORK / f"spans-{workload}.tsv"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# first traced pass of {workload}, seed {seed}\n")
        handle.write("index\tname\tlayer\tstart\tend\tparent\top\tsize\n")
        for i, s in enumerate(tracer.spans):
            op = tracer.ops[s[tr.OP]] if s[tr.OP] >= 0 else "-"
            handle.write(f"{i}\t{s[tr.NAME]}\t{s[tr.LAYER]}\t{s[tr.START]!r}\t{s[tr.END]!r}\t"
                         f"{s[tr.PARENT]}\t{op}\t{s[tr.SIZE]}\n")


def per_layer(workload, ops, seconds, seed, spec, tally) -> dict:
    import tracer as tr
    import wl_cli
    import wl_fit

    exact = {row["name"] for row in spec["per_layer"] if row.get("exact")}
    untraced, traced, first = [], [], None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, results = harness.run_pass(ops)
        tally.add_pass(results)
        untraced.append(wall)
        tracer = tr.Tracer()
        with tr.installed(tracer):
            wall, results = harness.run_pass(ops, tracer)
        tally.add_pass(results)
        traced.append(tr.analyse(tracer, wall, wl_fit.FAMILIES, wl_cli.COMMANDS))
        first = first or tracer
    write_spans(first, workload, seed)

    m = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name in exact:
            if len(set(values)) > 1:
                tally.add(name, f"exact count differs between traced passes: {values}")
            m[name] = values[0]
        else:
            m[name] = median(values)
    m["trace.untraced_wall_s"] = median(untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    missing = harness.missing_sources()
    if missing:
        print(f"error: not a baslg checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    import warm

    spec = load_spec()
    units = {row["name"]: row["unit"] for row in spec["end_to_end"] + spec["per_layer"]}
    tally = Tally()
    started = time.perf_counter()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed)}

    if args.trace:
        values = {k: (v, None) for k, v in probe_imports(tally).items()}
    else:
        probe = harness.HostProbe()
        setup = harness.timed_setup(["perfbench/warm.py", args.workload], SETUP_REPS, probe)
        tally.add_pass(setup)
    ops_for_pass, cleanup = build_ops(args.workload, args.seed, bool(args.trace))
    try:
        warm.warm(args.workload)
        if args.trace:
            layer = per_layer(args.workload, ops_for_pass(0), args.seconds, args.seed, spec, tally)
            values.update({k: (v, None) for k, v in layer.items()})
            wanted = [row["name"] for row in spec["per_layer"]]
        else:
            passes = harness.run_timed(ops_for_pass, args.seconds, MIN_PASSES[args.workload],
                                       probe)
            for _, results in passes:
                tally.add_pass(results)
            values = end_to_end(args.workload, passes, setup, tally)
            report["pass_walls"] = [wall for wall, _ in passes]
            report["setup_times"] = [r.seconds for r in setup]
            report["probe_s"] = [seconds for _, seconds in probe.samples]
            wanted = [row["name"] for row in spec["end_to_end"] if row["gated"]]
    finally:
        if cleanup:
            cleanup()

    metrics = {}
    for name, (value, count) in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if count is not None:
            metrics[name]["n"] = count
    report.update(metrics=metrics, attempted=tally.attempted, failed=len(tally.failures),
                  failures=tally.failures[:20], run_s=time.perf_counter() - started)
    for message in tally.failures[:20]:
        print(f"failed: {message}", file=sys.stderr)
    summary = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
