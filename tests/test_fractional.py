"""Fractional derivative kernels and the compensated pairing integral.

Closed forms and adaptive-quadrature oracles are computed independently in
each test; the implementation under test never feeds its own oracle.
"""

import importlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft, integrate, special
from scipy.signal import fftconvolve

from mfsde import _kernels, fractional
from mfsde._kernels import (
    _DOT_BLOCK,
    _SCRATCH,
    _blocked_dot,
    _fft_scratch,
    _kernel_spectra,
    _next_fast_len,
    _power_tables,
    increment_kernel_sums,
)
from mfsde.errors import GridMismatchError, ParameterError
from mfsde.fractional import (
    GridFunction,
    _gamma,
    _integrand_side,
    forward_sum_integral,
    gls_integral,
    rl_left_derivative,
    rl_right_derivative,
)
from mfsde.noise import _MAX_NODES, GridSpec, Seed, gen_fbm


def _grid_fn(fn, n, a=0.0, b=1.0):
    xs = np.linspace(a, b, n + 1)
    return GridFunction(a, b, fn(xs))


def _hold(x):
    """The c02 integrand: smooth but for a cusp at 0.4."""
    return 2.0 * x + np.abs(x - 0.4) ** 0.6


def _halves(f):
    """f on [0, 1] with an even cell count, as its pieces on [0, 1/2] and
    [1/2, 1], which share the middle node."""
    mid = f.cells // 2
    return GridFunction(0.0, 0.5, f.values[: mid + 1]), GridFunction(0.5, 1.0, f.values[mid:])


def test_left_derivative_of_constant():
    f = _grid_fn(lambda x: 3.0 + 0.0 * x, 256)
    d = rl_left_derivative(f, 0.3).values
    xs = f.nodes[1:]
    exact = 3.0 * xs ** -0.3 / special.gamma(0.7)
    assert np.isnan(d[0])
    np.testing.assert_allclose(d[1:], exact, rtol=1e-10)


def test_left_derivative_power_closed_form():
    # D^alpha of x^p is Gamma(p+1)/Gamma(p+1-alpha) x^(p-alpha); the
    # comparison skips the first n/16 nodes where the fixed grid cannot
    # resolve the endpoint singularity of the closed form
    n = 4096
    f = _grid_fn(lambda x: x ** 0.9, n)
    d = rl_left_derivative(f, 0.3).values
    xs = f.nodes
    exact = special.gamma(1.9) / special.gamma(1.6) * xs ** 0.6
    lo = n // 16
    rel = np.abs(d[lo:] - exact[lo:]) / np.abs(exact[lo:])
    assert rel.max() < 1e-3


def test_left_derivative_identity_vs_quadrature():
    n = 4096
    alpha = 0.25
    f = _grid_fn(lambda x: x, n)
    d = rl_left_derivative(f, alpha).values
    for k in (256, 1024, 2048, 3072, 4096):
        x = f.nodes[k]
        inner, _ = integrate.quad(lambda u: (x - u) ** -alpha, 0.0, x)
        oracle = (x * x ** -alpha + alpha * inner) / special.gamma(1 - alpha)
        assert abs(d[k] - oracle) / abs(oracle) < 1e-4


def test_right_derivative_of_constant_is_zero():
    g = _grid_fn(lambda x: 7.0 + 0.0 * x, 128)
    d = rl_right_derivative(g, 0.4).values
    assert np.isnan(d[-1])
    np.testing.assert_allclose(d[:-1], 0.0, atol=1e-12)


def test_right_derivative_linear_vs_quadrature():
    # g = b - x: the shifted kernel integrand simplifies to (u-x)^(alpha-1)
    n = 4096
    alpha = 0.4
    g = _grid_fn(lambda x: 1.0 - x, n)
    d = rl_right_derivative(g, alpha).values
    for k in (0, 512, 2048, 3584):
        x = g.nodes[k]
        inner, _ = integrate.quad(lambda u: (u - x) ** (alpha - 1.0), x, 1.0)
        oracle = ((1.0 - x) ** alpha + (1.0 - alpha) * inner) / special.gamma(alpha)
        closed = (1.0 - x) ** alpha / special.gamma(1.0 + alpha)
        assert abs(oracle - closed) / closed < 1e-9
        assert abs(d[k] - closed) / closed < 1e-4


def test_right_derivative_finite_on_rough_paths():
    grid = GridSpec(1.0, 256)
    sups = []
    for s in range(100):
        p = gen_fbm(grid, 0.75, Seed(20 + s).child(1))
        d = rl_right_derivative(GridFunction(0.0, 1.0, p.values), 0.375).values
        assert np.all(np.isfinite(d[:-1]))
        sups.append(float(np.max(np.abs(d[:-1]))))
    assert max(sups) < 100.0


def test_gls_constant_integrand_recovers_endpoint_difference():
    n = 4096
    one = _grid_fn(lambda x: 1.0 + 0.0 * x, n)
    g = _grid_fn(lambda x: np.sin(x) + 0.3 * x, n)
    exact = g.values[-1] - g.values[0]
    assert abs(gls_integral(one, g, 0.3) - exact) / abs(exact) < 1e-3


def test_gls_smooth_chain_rule():
    n = 4096
    f = _grid_fn(np.sin, n)
    exact = 0.5 * np.sin(1.0) ** 2
    assert abs(gls_integral(f, f, 0.3) - exact) / exact < 1e-3


def test_gls_linearity():
    n = 1024
    f1 = _grid_fn(lambda x: np.sin(3 * x), n)
    f2 = _grid_fn(lambda x: x ** 2, n)
    g = _grid_fn(np.cos, n)
    combo = GridFunction(0.0, 1.0, 2.0 * f1.values - 0.7 * f2.values)
    lhs = gls_integral(combo, g, 0.3)
    rhs = 2.0 * gls_integral(f1, g, 0.3) - 0.7 * gls_integral(f2, g, 0.3)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_gls_additivity_over_subintervals():
    n = 2048
    f = _grid_fn(lambda x: np.sin(2 * x) + x, n)
    g = _grid_fn(np.cos, n)
    whole = gls_integral(f, g, 0.3, refine=4)
    (f_left, f_right), (g_left, g_right) = _halves(f), _halves(g)
    left = gls_integral(f_left, g_left, 0.3, refine=4)
    right = gls_integral(f_right, g_right, 0.3, refine=4)
    assert abs(whole - (left + right)) < 1e-4


def test_gls_agrees_with_forward_sums_on_rough_path():
    # the pairing and the forward sums approximate the same integral; their
    # gap closes under refinement of a common master path
    master = gen_fbm(GridSpec(1.0, 2048), 0.8, Seed(101).child(1))
    diffs = []
    for steps in (256, 512, 1024, 2048):
        stride = 2048 // steps
        xs = np.linspace(0.0, 1.0, steps + 1)
        f = GridFunction(0.0, 1.0, _hold(xs))
        g = GridFunction(0.0, 1.0, master.values[::stride])
        diffs.append(abs(gls_integral(f, g, 0.45, refine=16)
                         - forward_sum_integral(f, g)))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def _trapezoid_error(f, g, alpha, refine):
    """|gls_integral - trapezoid sum| over sum |(f_k + f_(k+1))/2 (g_(k+1) - g_k)|.

    Grid data are piecewise linear, so g is Lipschitz and the integral
    equals the Riemann-Stieltjes one (Zaehle 1998), which is exactly the
    trapezoid sum; both sums are taken with math.fsum.
    """
    terms = [(f.values[k] + f.values[k + 1]) / 2.0 * (g.values[k + 1] - g.values[k])
             for k in range(f.cells)]
    exact = math.fsum(terms)
    return abs(gls_integral(f, g, alpha, refine=refine) - exact) / math.fsum(map(abs, terms))


# twice the largest error of today's code over the drivers and orders
# below, rounded up to one digit: 1.07e-2, 8.5e-4, 1.6e-4 and 3.1e-5
_TRAPEZOID_BOUNDS = {1: 3e-2, 4: 2e-3, 16: 4e-4, 64: 7e-5}


def _oracle_drivers():
    """fBm, a smooth path, and an fBm moved to start at 1, on 256 cells."""
    grid = GridSpec(1.0, 256)
    return {"fbm": gen_fbm(grid, 0.75, Seed(1234)),
            "smooth": GridFunction(0.0, 1.0, np.sin(3.0 * grid.times) + grid.times ** 2),
            "from 1": GridFunction(0.0, 1.0, 1.0 + gen_fbm(grid, 0.75, Seed(1235)).values)}


@pytest.mark.parametrize("driver", ["fbm", "smooth", "from 1"])
@pytest.mark.parametrize("alpha", [0.2, 0.45, 0.7])
def test_gls_converges_to_the_trapezoid_sum(driver, alpha):
    g = _oracle_drivers()[driver]
    f = _grid_fn(_hold, g.cells)
    errors = [_trapezoid_error(f, g, alpha, refine) for refine in _TRAPEZOID_BOUNDS]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert all(e <= bound for e, bound in zip(errors, _TRAPEZOID_BOUNDS.values())), errors


@pytest.mark.parametrize("alpha", [0.2, 0.45, 0.7])
def test_gls_of_a_constant_is_the_increment_at_refine_16(alpha):
    # the trapezoid sum of a constant 1 is g(b) - g(a), whatever g(a) is
    for g in _oracle_drivers().values():
        one = GridFunction(0.0, 1.0, np.ones(g.cells + 1))
        assert _trapezoid_error(one, g, alpha, 16) <= _TRAPEZOID_BOUNDS[16]


def test_gls_parameter_errors():
    f = _grid_fn(np.sin, 64)
    g = _grid_fn(np.cos, 128)
    with pytest.raises(GridMismatchError):
        gls_integral(f, g, 0.3)
    short = _grid_fn(np.sin, 2)
    with pytest.raises(ParameterError):
        gls_integral(short, short, 0.3)
    with pytest.raises(ParameterError):
        gls_integral(f, f, 0.3, refine=0)
    for refine in (2.0, 2.5, True):
        with pytest.raises(ParameterError, match="refine must be an integer >= 1"):
            gls_integral(f, f, 0.3, refine=refine)
    # a fine grid of _MAX_NODES nodes or more is refused before f is keyed;
    # the first refine is the smallest such
    for refine in (-(-(_MAX_NODES - 1) // f.cells), 2**62, np.int64(2**62), 10**400):
        misses = _integrand_side.cache_info().misses
        with pytest.raises(ParameterError, match="refine must keep the fine grid below"):
            gls_integral(f, f, 0.3, refine=refine)
        assert _integrand_side.cache_info().misses == misses
    # a fine grid below that bound whose array numpy cannot describe is
    # refused before anything is allocated
    with pytest.raises(ParameterError, match="fine grid of .* is more than memory holds"):
        gls_integral(f, f, 0.3, refine=2**54 - 1)
    assert gls_integral(f, f, 0.3, refine=np.int64(2)) == gls_integral(f, f, 0.3, refine=2)
    with pytest.raises(ParameterError):
        gls_integral(f, f, 1.2)


def test_orders_are_real_scalars_taken_as_python_floats():
    f = _grid_fn(np.sin, 64)
    g = _grid_fn(np.cos, 64)
    calls = [lambda a: rl_left_derivative(f, a).values,
             lambda a: rl_right_derivative(g, a).values,
             lambda a: np.float64(gls_integral(f, g, a, refine=2))]
    for call in calls:
        # a 0-d array is the float it holds, also as a cache key
        assert call(np.array(0.45)).tobytes() == call(0.45).tobytes()
        for bad in ("0.45", np.array([0.45]), 0.45j, None):
            with pytest.raises(ParameterError, match="fractional order must be a real number"):
                call(bad)
        with pytest.raises(ParameterError, match="must lie in"):
            call(np.array(1.2))


def test_non_finite_values_are_refused():
    n = 64
    good = _grid_fn(np.sin, n)
    for bad_value in (np.nan, np.inf, -np.inf):
        vals = good.values.copy()
        vals[n // 2] = bad_value
        bad = GridFunction(0.0, 1.0, vals)
        with pytest.raises(ParameterError, match="^f holds non-finite values"):
            rl_left_derivative(bad, 0.3)
        with pytest.raises(ParameterError, match="^g holds non-finite values"):
            rl_right_derivative(bad, 0.3)
        with pytest.raises(ParameterError, match="^f holds non-finite values"):
            gls_integral(bad, good, 0.3)
        with pytest.raises(ParameterError, match="^g holds non-finite values"):
            gls_integral(good, bad, 0.3, refine=4)


def test_overflowing_finite_data_are_refused():
    n = 64
    smooth = _grid_fn(np.sin, n)
    # a difference of two neighbours overflows; and all neighbour differences
    # are finite but the kernel sums overflow
    jump = np.zeros(n + 1)
    jump[n // 2], jump[n // 2 + 1] = 1.7e308, -1.7e308
    alternating = np.where(np.arange(n + 1) % 2, 0.9e307, 1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        for values in (jump, alternating):
            big = GridFunction(0.0, 1.0, values)
            for refine in (1, 4):
                for f, g in ((big, smooth), (smooth, big)):
                    with pytest.raises(ParameterError, match="^gls_integral overflows"):
                        gls_integral(f, g, 0.3, refine)
            with pytest.raises(ParameterError, match="^the left derivative of f overflows"):
                rl_left_derivative(big, 0.3)
            with pytest.raises(ParameterError, match="^the right derivative of g overflows"):
                rl_right_derivative(big, 0.3)


@pytest.mark.parametrize("refine", [1, 16])
def test_cached_integrand_side_gives_the_cold_bits(refine):
    rng = np.random.default_rng(6)
    f = _grid_fn(_hold, 256)
    gs = [GridFunction(0.0, 1.0, np.cumsum(rng.standard_normal(257))) for _ in range(3)]
    cold = []
    for g in gs:
        _integrand_side.cache_clear()
        cold.append(np.float64(gls_integral(f, g, 0.45, refine)).tobytes())
    # a copy of the integrand has the same content, so the same key
    twin = GridFunction(0.0, 1.0, f.values.copy())
    warm = [np.float64(gls_integral(twin, g, 0.45, refine)).tobytes() for g in gs]
    assert warm == cold
    info = _integrand_side.cache_info()
    assert (info.hits, info.misses) == (3, 1)


def test_integrand_changed_in_place_is_a_new_key():
    f = _grid_fn(np.sin, 256)
    g = _grid_fn(np.cos, 256)
    before = gls_integral(f, g, 0.3, refine=4)
    f.values[100] += 0.5
    changed = gls_integral(f, g, 0.3, refine=4)
    _integrand_side.cache_clear()
    assert np.float64(changed).tobytes() == np.float64(gls_integral(f, g, 0.3, refine=4)).tobytes()
    assert changed != before


def test_cached_integrand_side_is_read_only():
    f = _grid_fn(np.sin, 64)
    gls_integral(f, f, 0.3, refine=2)
    *arrays, (size, *spectra) = _integrand_side(f.left, f.right, f.values.tobytes(), 0.3, 2)
    # dl and x^alpha at the interior nodes, the distance powers at every
    # node, and the outer rule's weights per cell; then the right
    # derivative's kernel spectra on the 128 fine cells
    assert [a.size for a in arrays] == [127, 127, 129, 128, 128]
    assert size == _next_fast_len(2 * 128)
    assert [a.size for a in spectra] == [129] + [size // 2 + 1] * 3
    for a in [*arrays, *spectra]:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_c02_loop_computes_each_integrand_side_once():
    # the c02 shape: one integrand per grid level, a fresh fBm per seed
    levels = (256, 512, 1024, 2048)
    integrands = [_grid_fn(_hold, steps) for steps in levels]
    _integrand_side.cache_clear()
    for s in range(40):
        master = gen_fbm(GridSpec(1.0, levels[-1]), 0.75, Seed(s).child(1))
        for f in integrands:
            g = GridFunction(0.0, 1.0, master.values[:: levels[-1] // f.cells])
            gls_integral(f, g, 0.45, refine=16)
    info = _integrand_side.cache_info()
    assert (info.misses, info.hits) == (4, 156)


def test_c02_loop_builds_each_grid_table_once(monkeypatch):
    # the grid tables and both derivatives' kernel spectra are built on an
    # integrand-side miss only
    levels = (256, 512, 1024, 2048)
    integrands = [_grid_fn(_hold, steps) for steps in levels]
    calls = {"powers": 0, "weights": 0, "left spectra": 0, "right spectra": 0}

    def counted(name, build):
        def wrapper(*args):
            calls[name] += 1
            return build(*args)
        return wrapper

    def spectra(n, order, h, build=_kernels._kernel_spectra):
        # f's left derivative builds its spectra at order alpha in _kernels,
        # the drivers' right derivatives theirs at 1 - alpha in fractional
        calls["left spectra" if order == 0.45 else "right spectra"] += 1
        return build(n, order, h)

    monkeypatch.setattr(fractional, "_distance_powers",
                        counted("powers", fractional._distance_powers))
    monkeypatch.setattr(fractional, "_linear_weights",
                        counted("weights", fractional._linear_weights))
    monkeypatch.setattr(_kernels, "_kernel_spectra", spectra)
    monkeypatch.setattr(fractional, "_kernel_spectra", spectra)
    _integrand_side.cache_clear()
    for s in range(40):
        master = gen_fbm(GridSpec(1.0, levels[-1]), 0.75, Seed(s).child(1))
        for f in integrands:
            g = GridFunction(0.0, 1.0, master.values[:: levels[-1] // f.cells])
            gls_integral(f, g, 0.45, refine=16)
    assert calls == {"powers": 4, "weights": 4, "left spectra": 4, "right spectra": 4}


_FAULT_PROBE = """
import json, resource
import numpy as np
from mfsde.fractional import GridFunction, gls_integral
from mfsde.noise import GridSpec, Seed, gen_fbm

levels = (256, 512, 1024, 2048)
integrands = []
for steps in levels:
    xs = np.linspace(0.0, 1.0, steps + 1)
    integrands.append(GridFunction(0.0, 1.0, 2.0 * xs + np.abs(xs - 0.4) ** 0.6))
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for s in range(8):
        master = gen_fbm(GridSpec(1.0, levels[-1]), 0.75, Seed(s).child(1))
        for f in integrands:
            g = GridFunction(0.0, 1.0, master.values[:: levels[-1] // f.cells])
            gls_integral(f, g, 0.45, refine=16)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts glibc's minor page faults")
def test_warm_c02_loop_faults_in_no_fresh_pages():
    # a fresh single-threaded interpreter, as the benchmark's workers run:
    # once every cache entry is built, a pass of the c02 loop reuses the
    # heap it freed instead of giving it back and faulting it in again
    src = str(Path(importlib.import_module("mfsde").__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    faults = json.loads(run.stdout)
    assert max(faults[1:]) <= 64, faults


def test_forward_sum_examples():
    n = 64
    one = _grid_fn(lambda x: 1.0 + 0.0 * x, n)
    g = _grid_fn(lambda x: np.exp(x), n)
    assert forward_sum_integral(one, g) == pytest.approx(np.e - 1.0, abs=1e-14)

    ident = _grid_fn(lambda x: x, 2)
    assert forward_sum_integral(ident, ident) == 0.25

    # piecewise-constant f: the sum splits exactly at the break node
    vals = np.where(np.linspace(0, 1, n + 1) < 0.5, 2.0, -1.0)
    f = GridFunction(0.0, 1.0, vals)
    g = _grid_fn(np.cos, n)
    whole = forward_sum_integral(f, g)
    (f_left, f_right), (g_left, g_right) = _halves(f), _halves(g)
    parts = forward_sum_integral(f_left, g_left) + forward_sum_integral(f_right, g_right)
    assert whole == parts


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, _DOT_BLOCK), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(0.0, 200.0))
def test_blocked_dot_is_np_dot_up_to_one_block(n, seed, spread):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * np.exp2(rng.uniform(-spread, spread, n))
    b = rng.standard_normal(n)
    assert _blocked_dot(a, b).hex() == float(np.dot(a, b)).hex()


_THREADS_PROBE = """
import json
import numpy as np
from mfsde.fractional import GridFunction, forward_sum_integral

sums = []
for seed in range(5):
    rng = np.random.default_rng(seed)
    f = GridFunction(0.0, 1.0, rng.standard_normal(32769))
    g = GridFunction(0.0, 1.0, np.cumsum(rng.standard_normal(32769)))
    sums.append(forward_sum_integral(f, g).hex())
print(json.dumps(sums))
"""


def test_forward_sums_have_the_same_bits_at_any_blas_thread_count():
    # OpenBLAS splits a dot longer than 10,000 elements across its threads;
    # 32,768 cells are four blocks of one-thread dots
    src = str(Path(importlib.import_module("mfsde").__file__).parents[1])
    sums = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        sums.append(json.loads(run.stdout))
    assert sums[0] == sums[1]


def _fftconvolve_kernel_sums(values, alpha, h):
    """increment_kernel_sums as computed before its kernel spectra were
    cached: four scipy.signal.fftconvolve calls."""
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    if n == 0:
        return np.zeros(1)
    g1, g2, _, _ = _power_tables(n, -alpha, 1.0 - alpha, h)
    df = np.diff(f)
    kg1 = np.arange(n + 1, dtype=float) * g1
    out = (f * np.cumsum(g1) - fftconvolve(f[1:], g1)[: n + 1]
           - fftconvolve(df, kg1)[: n + 1] + fftconvolve(df, g1)[: n + 1]
           + fftconvolve(df, g2)[: n + 1] / h)
    out[0] = 0.0
    return out


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 400),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       horizon=st.floats(0.1, 10.0),
       kind=st.sampled_from(["random", "piecewise"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=4096, alpha=0.45, horizon=1.0, kind="random", seed=0)
@example(n=32768, alpha=0.55, horizon=1.0, kind="piecewise", seed=1)
def test_kernel_sums_equal_fftconvolve_bit_for_bit(n, alpha, horizon, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        values = rng.standard_normal(n + 1)
    else:
        # piecewise-linear data whose interpolant changes sign inside most cells
        values = rng.uniform(0.1, 2.0, n + 1) * np.where(np.arange(n + 1) % 2, -1.0, 1.0)
        values[rng.random(n + 1) < 0.2] *= -1.0
    h = horizon / n
    expected = _fftconvolve_kernel_sums(values, alpha, h)
    first = increment_kernel_sums(values, alpha, h)
    np.testing.assert_array_equal(first, expected)
    # the second call builds the same spectra again and gives the same bits
    np.testing.assert_array_equal(increment_kernel_sums(values, alpha, h), first)
    size, *arrays = _kernel_spectra(n, alpha, h)
    assert size >= 2 * n
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_gamma_port_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(8)
    uniform = rng.uniform(0.0, 1.0, 200_000)
    tiny = np.finfo(float).smallest_subnormal
    xs = np.concatenate([
        uniform[uniform > 0.0],
        10.0 ** rng.uniform(-300.0, 0.0, 20_000),
        tiny * rng.integers(1, 2**52, 1_000),
        [tiny, np.finfo(float).smallest_normal, 1e-9, np.nextafter(1e-9, 0.0), 1e-10,
         1.0 - 2.0**-53, 1.0, 0.45, 0.55]])
    got = np.array([_gamma(x) for x in xs.tolist()])
    assert got.tobytes() == special.gamma(xs).tobytes()


def test_next_fast_len_equals_scipy():
    targets = range(1, 2**20 + 1)
    assert list(map(_next_fast_len, targets)) == [fft.next_fast_len(t, True) for t in targets]
    rng = np.random.default_rng(9)
    large = [2**30 + 1, 3**30, 5**25 - 1, 2**60, *rng.integers(2**20, 2**60, 1_000).tolist()]
    assert [_next_fast_len(t) for t in large] == [fft.next_fast_len(t, True) for t in large]


def test_integrand_side_cache_is_bounded():
    maxsize = _integrand_side.cache_info().maxsize
    assert maxsize is not None and maxsize <= 8
    for n in range(4, maxsize + 14):
        f = _grid_fn(np.sin, n)
        gls_integral(f, f, 0.3)
    assert _integrand_side.cache_info().currsize == maxsize


def _in_fresh_thread(fn):
    """fn() run in a new thread, so it sees an empty per-thread scratch."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(result) == 1
    return result[0]


def test_kernel_sums_share_no_memory_with_scratch():
    rng = np.random.default_rng(3)
    first = increment_kernel_sums(rng.standard_normal(513), 0.45, 1.0 / 512)
    kept = first.copy()
    assert not np.shares_memory(first, _SCRATCH.buf)
    # the scratch is a block of three spectra and, after it, two real rows
    size = _kernel_spectra(512, 0.45, 1.0 / 512)[0]
    spectra, real = _fft_scratch(size)
    assert spectra.shape == (3, size // 2 + 1) and spectra.dtype == complex
    assert real.shape == (2, size) and real.dtype == float
    assert spectra.flags.c_contiguous and real.flags.c_contiguous
    assert np.shares_memory(spectra, _SCRATCH.buf) and np.shares_memory(real, _SCRATCH.buf)
    assert not np.shares_memory(spectra, real)
    # a smaller call reuses the buffer, a larger one replaces it
    for n in (64, 8192):
        later = increment_kernel_sums(rng.standard_normal(n + 1), 0.45, 1.0 / n)
        assert not np.shares_memory(later, _SCRATCH.buf)
        assert not np.shares_memory(later, first)
        np.testing.assert_array_equal(first, kept)


def test_kernel_scratch_is_reused_and_only_grows():
    def sizes():
        rng = np.random.default_rng(4)
        seen = []
        for n in (1000, 1000, 10, 5000, 10, 1000):
            increment_kernel_sums(rng.standard_normal(n + 1), 0.3, 1.0 / n)
            seen.append((_SCRATCH.buf, _SCRATCH.buf.size))
        return seen

    seen = _in_fresh_thread(sizes)
    bufs = [buf for buf, _ in seen]
    lengths = [size for _, size in seen]
    # three spectra of size // 2 + 1 values and two real rows of size,
    # which fill size complex values
    for k, n in ((0, 1000), (3, 5000)):
        size = _kernel_spectra(n, 0.3, 1.0 / n)[0]
        assert lengths[k] == 3 * (size // 2 + 1) + size
    assert bufs[1] is bufs[0] and bufs[2] is bufs[0]
    assert lengths[3] > lengths[0]
    assert bufs[4] is bufs[3] and bufs[5] is bufs[3]
    assert lengths[3:] == [lengths[3]] * 3


def test_kernel_sums_in_concurrent_threads_match_serial_bits():
    rng = np.random.default_rng(5)
    cases = [(rng.standard_normal(n + 1), alpha, 1.0 / n)
             for n, alpha in ((300, 0.3), (2048, 0.45), (5000, 0.55), (12000, 0.7))]
    serial = [increment_kernel_sums(*case) for case in cases]
    results = {}
    errors = []

    def work(k):
        try:
            results[k] = [increment_kernel_sums(*cases[k]) for _ in range(10)]
        except Exception as exc:            # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    for k, expected in enumerate(serial):
        assert len(results[k]) == 10
        for got in results[k]:
            np.testing.assert_array_equal(got, expected)


def test_gls_integral_in_concurrent_threads_matches_serial_bits():
    rng = np.random.default_rng(7)
    cases = [(_grid_fn(_hold, n), GridFunction(0.0, 1.0, np.cumsum(rng.standard_normal(n + 1))),
              alpha, refine)
             for n, alpha, refine in ((256, 0.45, 16), (512, 0.3, 1), (1024, 0.55, 4), (300, 0.7, 8))]
    serial = [np.float64(gls_integral(*case)).tobytes() for case in cases]
    _integrand_side.cache_clear()
    # two threads per case race on its first lookup of the cache
    results = {}
    errors = []

    def work(k):
        try:
            results[k] = [np.float64(gls_integral(*cases[k % len(cases)])).tobytes()
                          for _ in range(5)]
        except Exception as exc:            # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(2 * len(cases))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    for k, got in results.items():
        assert got == [serial[k % len(cases)]] * 5
    assert len(results) == 2 * len(cases)
