"""The public name lists: every exported name resolves, once; and importing
the package loads no scipy submodule until a call needs one."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["mfsde", "mfsde.norms", "mfsde.solver", "mfsde.models"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(mod, name)]
    assert missing == []
    star = {}
    exec(f"from {module} import *", star)
    assert set(names) <= set(star)


_SUBMODULES = ("scipy.signal", "scipy.stats", "scipy.integrate", "scipy.linalg",
               "scipy.special", "scipy.fft")

_IMPORT_PROBE = f"""
import sys
import mfsde, mfsde.cli
from mfsde import analysis, fractional, models, noise

def loaded():
    return [m for m in {_SUBMODULES!r} if m in sys.modules]

assert loaded() == [], ("import", loaded())
ens = analysis.simulate_ensemble(
    models.build_model("trigonometric", b0=0.25, c0=0.25), 1.0, noise.GridSpec(1.0, 16),
    noise.FracParams(hurst=0.75), noise.Seed(7), analysis.TAIL_MIN_REPLICAS, rate=3.0,
    marks=noise.UniformMarks(-0.5, 0.5))
analysis.estimate_moments(ens, (1.0, 2.0))
analysis.tail_diagnostic(ens, 2.0)
assert loaded() == [], ("ensemble, moments and tail", loaded())
xs = fractional.GridFunction(0.0, 1.0, [0.0, 0.3, 0.1, 0.6, 1.0])
fractional.gls_integral(xs, xs, 0.45, refine=4)
fractional.rl_left_derivative(xs, 0.45)
fractional.rl_right_derivative(xs, 0.45)
assert loaded() == [], ("the pathwise integral and both derivatives", loaded())
analysis.verify_self_similarity(0.75, 0.3, [(0.0, 0.5)], analysis.SELFSIM_MIN_REPLICAS,
                                noise.Seed(3), steps=16)
assert loaded() == [], ("the self-similarity suite", loaded())
"""


def test_scipy_submodules_load_on_first_use():
    # a fresh interpreter: this one has scipy loaded by the other tests
    src = str(Path(importlib.import_module("mfsde").__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
