"""Refit every family on the bundled/fetched datasets and print the
comparison tables plus likelihood-ratio tests.

Runs on whichever of galaxies.txt, lakes.txt, exchange.txt exist under
--data-dir (see data/README.md for how to fetch the two unbundled ones)
and prints, per dataset, one row per family sorted by AIC, followed by
the LR test of the logistic null against baslg2.

Usage:
    python3 scripts/reproduce_tables.py [--data-dir data] [--seed 7] [--restarts N]
"""

from __future__ import annotations

import argparse
import gc
from pathlib import Path

from baslg import OptimizerConfig, compare_models, load_dataset, lr_test
from baslg.models import FAMILIES

DATASETS = ("galaxies.txt", "lakes.txt", "exchange.txt")


def print_table(rows) -> None:
    header = f"{'family':8s} {'shape':>10s} {'mu':>10s} {'scale':>10s} {'logL':>10s} {'AIC':>9s} {'BIC':>9s}"
    print(header)
    print("-" * len(header))
    for row in rows:
        if not row.ok:
            print(f"{row.family:8s} failed: {row.error}")
            continue
        names = FAMILIES[row.family].param_names
        shape = f"{row.params[names[0]]:10.4f}" if len(names) == 3 else f"{'-':>10s}"
        print(
            f"{row.family:8s} {shape} {row.params['mu']:10.4f} "
            f"{row.params[names[-1]]:10.4f} {row.log_l:10.3f} {row.aic:9.3f} {row.bic:9.3f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default="data", help="directory holding the datasets")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--restarts", type=int, default=None)
    args = parser.parse_args()

    kwargs = {"seed": args.seed}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    config = OptimizerConfig(**kwargs)

    data_dir = Path(args.data_dir)
    found_any = False
    for name in DATASETS:
        path = data_dir / name
        if not path.is_file():
            print(f"== {name}: not found, skipped (see data/README.md) ==\n")
            continue
        found_any = True
        dataset = load_dataset(path)
        print(f"== {dataset.label} (n = {dataset.n}) ==")
        rows = compare_models(dataset.values, config=config)
        print_table(rows)
        fits = {row.family: row for row in rows if row.ok}
        test = lr_test(
            dataset.values, config, null_fit=fits.get("lg"), full_fit=fits.get("baslg2")
        )
        verdict = "reject" if test.reject_null else "fail to reject"
        print(
            f"LR test lg vs baslg2: statistic {test.statistic:.4f} "
            f"critical {test.critical_value} -> {verdict} the logistic null\n"
        )
    if not found_any:
        print("no datasets found; nothing to do")
        return 1
    return 0


if __name__ == "__main__":
    # the import-time heap lives until exit; as baslg.cli.run does, keep the
    # collector, the interpreter's own at exit included, off it
    gc.freeze()
    raise SystemExit(main())
