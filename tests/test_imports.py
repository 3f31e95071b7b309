"""Import floor: the package loads numpy and no scipy module at all.

Nothing in the package reaches scipy: the skew-normal's log Phi is numpy on
a table of erfcx pieces, the mgf is numpy-only, and fits polish with their
own Newton step.  Fresh subprocesses check what each entry point pulls in,
fits of every family included; the in-process tests check that fitting
never reaches ``fit.minimize``, a name kept only for the benchmark's
tracer to wrap, and that ``extensions`` resolves no other unknown name.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

import baslg.extensions
import baslg.fit
from baslg import OptimizerConfig, fit_mle, lr_test

from conftest import DATA_DIR, command

GALAXIES = str(DATA_DIR / "galaxies.txt")
MOMENT_BOUNDS = str(DATA_DIR.parent / "scripts" / "moment_bounds.py")

HEAVY = {"scipy.stats", "scipy.integrate", "scipy.optimize"}

REPORT = (
    "import sys; print('scipy:' + ','.join("
    "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
)


def scipy_modules_after(code: str) -> set[str]:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", code + "\n" + REPORT],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    last = res.stdout.splitlines()[-1]
    assert last.startswith("scipy:"), res.stdout
    return set(last[len("scipy:"):].split(",")) - {""}


class TestImportFloor:
    def test_import_cli(self):
        assert scipy_modules_after("import baslg.cli") == set()

    def test_import_cli_loads_no_numpy_polynomial(self):
        # polynomials in alpha belong to scripts/moment_bounds.py alone
        code = "import sys, baslg.cli\nassert 'numpy.polynomial' not in sys.modules"
        assert scipy_modules_after(code) == set()

    def test_eval_command(self):
        code = command("baslg", "eval", "--alpha", "1", "--at", "-2,0,0.5,3")
        assert scipy_modules_after(code) == set()

    @pytest.mark.parametrize("argv", [
        pytest.param(["sample", "--alpha", "1", "--n", "20", "--method", "inverse"],
                     id="sample-inverse"),
        pytest.param(["sample", "--alpha", "1", "--n", "20", "--method", "rejection"],
                     id="sample-rejection"),
        pytest.param(["fit", "--dist", "baslg2", "--data", GALAXIES, "--restarts", "8"],
                     id="fit-baslg2"),
        pytest.param(["fit", "--dist", "lg", "--data", GALAXIES, "--restarts", "8"], id="fit-lg"),
        pytest.param(["fit", "--dist", "sn", "--data", GALAXIES], id="fit-sn"),
        pytest.param(["compare", "--data", GALAXIES], id="compare"),
        pytest.param(["lrtest", "--data", GALAXIES, "--restarts", "8"], id="lrtest"),
        pytest.param(["plotdata", "--curves", "--alphas", "0,2", "--range", "-5:5",
                      "--points", "11"], id="plotdata-curves"),
    ])
    def test_command_loads_no_scipy(self, argv):
        assert scipy_modules_after(command("baslg", *argv)) == set()

    def test_import_loads_no_process_pool(self):
        # fits fork their one worker with os.fork and a pipe
        code = (
            "import sys, baslg\n"
            "assert not {'multiprocessing', 'concurrent.futures'} & set(sys.modules)"
        )
        assert scipy_modules_after(code) == set()

    def test_moment_bounds_loads_no_scipy(self):
        code = command(MOMENT_BOUNDS, "--grid", "41", "--alpha-max", "5")
        assert scipy_modules_after(code) == set()

    def test_fit_loads_no_heavy_module(self):
        code = (
            "from baslg import OptimizerConfig, fit_mle, lr_test\n"
            "data = [0.1, 0.5, 1.3, 2.0, 2.2, 2.9]\n"
            "fit_mle('lg', data, OptimizerConfig(restarts=1))\n"
            "lr_test(data, OptimizerConfig(restarts=2))"
        )
        assert scipy_modules_after(code) & HEAVY == set()

    def test_laplace_fit_loads_no_numpy_ma(self):
        # np.median's NaN check imports numpy.ma; the Laplace start avoids it
        code = (
            "import sys\n"
            "from baslg import fit_mle\n"
            "assert fit_mle('la', [0.1, 0.5, 1.3, 2.0, 2.2, 2.9]).ok\n"
            "assert 'numpy.ma' not in sys.modules"
        )
        assert scipy_modules_after(code) == set()

    def test_mgf_loads_no_scipy(self):
        code = (
            "import math\n"
            "from baslg import StandardBaslg, blg4_mgf\n"
            "assert math.isfinite(StandardBaslg(1.5).mgf(0.3))\n"
            "assert math.isfinite(blg4_mgf(0.1))"
        )
        assert scipy_modules_after(code) == set()

    def test_skew_normal_loads_no_scipy(self):
        code = (
            "from baslg import OptimizerConfig, fit_mle\n"
            "data = [0.1, 0.5, 1.3, 2.0, 2.2, 2.9]\n"
            "assert fit_mle('sn', data, OptimizerConfig(restarts=2)).ok"
        )
        assert scipy_modules_after(code) == set()


class TestPatchableNames:
    def test_fitting_never_calls_minimize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit called scipy.optimize.minimize")

        monkeypatch.setattr(baslg.fit, "minimize", refuse)
        data = np.random.default_rng(3).logistic(size=40)
        assert fit_mle("lg", data, OptimizerConfig(restarts=3, seed=1)).ok
        res = lr_test(data, OptimizerConfig(restarts=9, seed=2))
        assert res.null_fit.ok and res.full_fit.ok

    def test_unknown_attribute_still_raises(self):
        assert not hasattr(baslg.extensions, "tplquad")
