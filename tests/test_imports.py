"""Import floor: the package loads numpy and scipy.special, nothing heavier.

scipy.stats, scipy.integrate and scipy.optimize cost most of a cold
``import scipy.*``, and no command needs one of them: fits polish with
their own Nelder-Mead.  Fresh subprocesses check what each entry point
pulls in; the in-process tests check that the lazily bound names still
resolve and that fitting never reaches scipy.optimize.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import scipy.integrate

import baslg.extensions
import baslg.fit
from baslg import OptimizerConfig, fit_mle, lr_test

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize")

REPORT = "import sys; print('heavy:' + ','.join(m for m in {heavy} if m in sys.modules))"


def heavy_modules_after(code: str) -> set[str]:
    """Heavy scipy submodules loaded once ``code`` has run in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", code + "\n" + REPORT.format(heavy=HEAVY)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    last = res.stdout.splitlines()[-1]
    assert last.startswith("heavy:"), res.stdout
    return set(last[len("heavy:"):].split(",")) - {""}


class TestImportFloor:
    def test_import_cli(self):
        assert heavy_modules_after("import baslg.cli") == set()

    def test_eval_command(self):
        code = (
            "import runpy, sys\n"
            "sys.argv = ['baslg', 'eval', '--alpha', '1', '--at', '0']\n"
            "try:\n"
            "    runpy.run_module('baslg', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code"
        )
        assert heavy_modules_after(code) == set()

    def test_fit_loads_no_heavy_module(self):
        code = (
            "from baslg import OptimizerConfig, fit_mle, lr_test\n"
            "data = [0.1, 0.5, 1.3, 2.0, 2.2, 2.9]\n"
            "fit_mle('lg', data, OptimizerConfig(restarts=1))\n"
            "lr_test(data, OptimizerConfig(restarts=2))"
        )
        assert heavy_modules_after(code) == set()


class TestPatchableNames:
    def test_fitting_never_calls_minimize(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit called scipy.optimize.minimize")

        monkeypatch.setattr(baslg.fit, "minimize", refuse)
        data = np.random.default_rng(3).logistic(size=40)
        assert fit_mle("lg", data, OptimizerConfig(restarts=3, seed=1)).ok
        res = lr_test(data, OptimizerConfig(restarts=9, seed=2))
        assert res.null_fit.ok and res.full_fit.ok

    def test_integrators_resolve_to_scipy(self):
        assert baslg.extensions.quad is scipy.integrate.quad
        assert baslg.extensions.dblquad is scipy.integrate.dblquad
        # cached in the module dict, where patch-and-restore code reads them
        assert vars(baslg.extensions)["quad"] is scipy.integrate.quad
        assert vars(baslg.extensions)["dblquad"] is scipy.integrate.dblquad

    def test_unknown_attribute_still_raises(self):
        assert not hasattr(baslg.extensions, "tplquad")
