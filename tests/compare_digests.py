"""Compare two ``fit_digest.py`` outputs, the report a change to fit paths gives.

Not collected by pytest.  Usage:

    python tests/compare_digests.py before.txt after.txt

Both files must list the same fits in the same order.  It prints:

- how many lines are identical, in all and by family, and how many fits
  are identical in every field but ``nfev``;
- the largest logL drop and the largest rise, each with its fit;
- every ``restarts_used`` change and every ``converged`` flip;
- ``nfev`` by family and in total, before and after;
- the largest parameter move, over every fit and over the fits whose
  |delta logL| is at most 1e-6 (the fits that land in the same optimum).

It exits 0 when every line is the same in both files and 1 when any line
differs, so the bits check of a change that should keep every fit is this
one command.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

SAME_OPTIMUM = 1e-6


def parse(line: str) -> dict:
    """One digest line as {name, family, line, logL, params, nfev,
    restarts_used, converged}."""
    name, family, *fields = line.split()
    pairs = dict(field.split("=", 1) for field in fields)
    return {
        "name": name,
        "family": family,
        "line": line,
        "logL": float(pairs.pop("logL")),
        "nfev": int(pairs.pop("nfev")),
        "restarts_used": int(pairs.pop("restarts_used")),
        "converged": pairs.pop("converged") == "True",
        "params": {key: float(val) for key, val in pairs.items()},
    }


def without_nfev(line: str) -> list[str]:
    """The fields of a digest line, its ``nfev`` left out."""
    return [field for field in line.split() if not field.startswith("nfev=")]


def read(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [parse(line.rstrip("\n")) for line in fh if line.strip()]


def largest_move(pairs) -> tuple[float, str]:
    """The largest |delta| of one parameter over ``pairs``, with its fit."""
    best, where = 0.0, "none"
    for old, new in pairs:
        for key, val in old["params"].items():
            move = abs(new["params"][key] - val)
            if move > best:
                best = move
                where = f"{old['name']} {old['family']} {key}: {val!r} -> {new['params'][key]!r}"
    return best, where


def report(before: list[dict], after: list[dict]) -> list[str]:
    if [(r["name"], r["family"]) for r in before] != [(r["name"], r["family"]) for r in after]:
        raise ValueError("the two digests do not list the same fits in the same order")
    pairs = list(zip(before, after))
    out = []

    same = defaultdict(int)
    total = defaultdict(int)
    for old, new in pairs:
        total[old["family"]] += 1
        same[old["family"]] += old["line"] == new["line"]
    out.append(f"identical lines: {sum(same.values())} of {len(pairs)}")
    for family in total:
        out.append(f"  {family}: {same[family]} of {total[family]}")
    same_but_nfev = sum(without_nfev(old["line"]) == without_nfev(new["line"])
                        for old, new in pairs)
    out.append(f"identical but for nfev: {same_but_nfev} of {len(pairs)}")

    deltas = [(new["logL"] - old["logL"], old) for old, new in pairs]
    for label, sign in (("drop", -1.0), ("rise", 1.0)):
        delta, old = max(deltas, key=lambda item: sign * item[0])
        where = f"{old['name']} {old['family']}" if sign * delta > 0.0 else "none"
        out.append(f"largest logL {label}: {max(0.0, sign * delta):.3g} ({where})")

    changed = [(old, new) for old, new in pairs if old["restarts_used"] != new["restarts_used"]]
    out.append(f"restarts_used: {sum(r['restarts_used'] for r in before)} -> "
               f"{sum(r['restarts_used'] for r in after)}; {len(changed)} fits changed")
    for old, new in changed:
        out.append(f"  {old['name']} {old['family']}: {old['restarts_used']} -> "
                   f"{new['restarts_used']} (delta logL {new['logL'] - old['logL']:.3g})")
    flips = [(old, new) for old, new in pairs if old["converged"] != new["converged"]]
    out.append(f"converged flips: {len(flips)}")
    for old, new in flips:
        out.append(f"  {old['name']} {old['family']}: {old['converged']} -> {new['converged']} "
                   f"(delta logL {new['logL'] - old['logL']:.3g})")

    nfev = defaultdict(lambda: [0, 0])
    for old, new in pairs:
        nfev[old["family"]][0] += old["nfev"]
        nfev[old["family"]][1] += new["nfev"]
    nfev["total"] = [sum(r["nfev"] for r in before), sum(r["nfev"] for r in after)]
    out.append("nfev:")
    for family, (old, new) in nfev.items():
        change = f"{100.0 * (new - old) / old:+.1f}%" if old else "n/a"
        out.append(f"  {family}: {old:,} -> {new:,} ({change})")

    move, where = largest_move(pairs)
    out.append(f"largest parameter move: {move:.3g} ({where})")
    near = [(old, new) for old, new in pairs if abs(new["logL"] - old["logL"]) <= SAME_OPTIMUM]
    move, where = largest_move(near)
    out.append(f"largest parameter move where |delta logL| <= {SAME_OPTIMUM:g}: "
               f"{move:.3g} ({where})")
    return out


def main(argv=None) -> int:
    """Print the report; 1 if any line differs, else 0."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = read(args.before), read(args.after)
    print("\n".join(report(before, after)))
    return int(any(old["line"] != new["line"] for old, new in zip(before, after)))


if __name__ == "__main__":
    sys.exit(main())
