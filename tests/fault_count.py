"""Minor page faults and seconds of the ``fit`` benchmark's ops, by op group.

Not collected by pytest.  It warms the ``fit`` workload as the benchmark
does (``perfbench/warm.py``), then runs passes 0 to 3 of
``perfbench/wl_fit.build(seed, k)``, checks every op's output, and prints
one JSON object: for each op group, and for all ops together, the minor
faults and the seconds its calls took, summed over the passes.  An op's
faults are those of this process and of its reaped children
(``ru_minflt``), plus those of the kept fit worker (``baslg.fit._worker``)
while it lives, which ``RUSAGE_CHILDREN`` counts only once it is reaped:
field 10 of ``/proc/<pid>/stat``, read before and after the op.  A
checkout without a kept worker forks one per call and reaps it, so
``ru_minflt`` alone counts them all.  A group is one
family on one kind of data (``sn.large``: the n = 2500 skew-normal fits;
``baslg2.galaxies``), or ``lr_test`` or ``load``.  It measures the
checkout it sits in: the ops come from the ``perfbench`` directory next
to this file, whose ``harness`` puts that checkout's ``src`` first on
``sys.path``.  To compare two checkouts, copy it into the other one and
run each copy, alternating:

    PYTHONPATH=src python tests/fault_count.py --seed 5201 > after.json
    (cd <other checkout> && PYTHONPATH=src python tests/fault_count.py --seed 5201) > before.json

A run takes about 5 seconds on a 2-CPU host.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import warm  # noqa: E402
import wl_fit  # noqa: E402

import baslg.fit  # noqa: E402


def minor_faults() -> int:
    """Minor faults so far of this process, of its reaped children and of
    the live kept fit worker.  A worker forked since the last reading
    counts from 0, and one reaped since then in ``RUSAGE_CHILDREN``."""
    total = sum(resource.getrusage(who).ru_minflt
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    kept = getattr(baslg.fit, "_worker", None)
    if kept is not None:
        with open(f"/proc/{kept[0]}/stat", encoding="utf-8") as stat:
            # the fields after the parenthesised command name start at field 3
            total += int(stat.read().rpartition(")")[2].split()[10 - 3])
    return total


def group(name: str) -> str:
    """``fit_mle.sn.large3`` -> ``sn.large``; ``lr_test.null7`` -> ``lr_test``."""
    kind, _, rest = name.partition(".")
    if kind == "fit_mle":
        family, _, data = rest.partition(".")
        return f"{family}.{data.rstrip('0123456789')}"
    return "load" if kind == "load_dataset" else kind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5201)
    parser.add_argument("--passes", type=int, default=4)
    args = parser.parse_args(argv)

    warm.warm("fit")
    faults: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    failed = []
    for k in range(args.passes):
        for op in wl_fit.build(args.seed, k):
            before, start = minor_faults(), time.perf_counter()
            out = op.call()
            took, after = time.perf_counter() - start, minor_faults()
            for key in (group(op.name), "all"):
                faults[key] += after - before
                seconds[key] += took
            error = op.check(out)
            if error:
                failed.append(f"{op.name}: {error}")
    groups = {key: {"minor_faults": faults[key], "seconds": round(seconds[key], 4)}
              for key in sorted(faults)}
    print(json.dumps({"seed": args.seed, "passes": args.passes, "failed": failed,
                      "groups": groups}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
