"""Path norms: closed forms on polynomial paths, quadrature oracles on
rough ones, the stacked norms against the one-path kernels, and the pruned
anchor loops against their bounds and the full loops."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mfsde._kernels import (
    _abs_increment_bounds,
    _abs_right_singular_total,
    _power_tables,
    abs_left_singular_cells,
)
from mfsde.analysis import simulate_ensemble
from mfsde.errors import GridMismatchError, ParameterError
from mfsde.fractional import GridFunction
from mfsde.models import build_model
from mfsde.noise import FracParams, GridSpec, Seed, gen_fbm, gen_fbm_stack
from mfsde.norms import (
    _interval_bounds,
    capital_lambda,
    norm_0_interval,
    norm_0_interval_stack,
    norm_inf,
    norm_inf_stack,
)


def _linear(n, slope=1.0, a=0.0, b=1.0):
    return GridFunction(a, b, slope * np.linspace(a, b, n + 1))


def _profile(f, alpha):
    """Increment integral of f at every node (the inner sup of norm_inf)."""
    return _ref_increment_profile(f.values[None], alpha, f.h)[0]


# The norm_t tests check the increment integral at one anchor node, read
# off the profile.

def test_norm_t_constant_and_left_end():
    f = GridFunction(0.0, 1.0, np.full(129, 4.2))
    assert np.all(_profile(f, 0.25) == 0.0)
    assert _profile(_linear(64), 0.25)[0] == 0.0     # empty integral at the left end
    with pytest.raises(GridMismatchError):
        norm_inf(f, 0.123, 0.25)


def test_norm_t_linear_closed_form():
    # integrand (1 - s)(1 - s)^(-1.25) integrates to 1 / 0.75
    f = _linear(4096)
    assert _profile(f, 0.25)[-1] == pytest.approx(4.0 / 3.0, rel=1e-3)


def test_norm_t_rough_path_vs_quadrature():
    nodes = np.linspace(0.0, 1.0, 65)
    for s in range(10):
        p = gen_fbm(GridSpec(1.0, 64), 0.75, Seed(60 + s).child(1))
        prof = _profile(p, 0.25)
        for k in (17, 32, 64):
            anchor = p.values[k]
            fn = lambda u: (abs(anchor - np.interp(u, nodes, p.values))
                            * (nodes[k] - u) ** -1.25)
            oracle, _ = integrate.quad(fn, 0.0, nodes[k], points=list(nodes[1:k]),
                                       limit=800, epsabs=1e-9, epsrel=1e-9)
            assert abs(prof[k] - oracle) / abs(oracle) < 1e-6


def test_norm_inf_decomposition_and_linear_value():
    p = gen_fbm(GridSpec(1.0, 128), 0.75, Seed(5).child(1))
    assert norm_inf(p, 1.0, 0.3) == np.max(np.abs(p.values)) + np.max(_profile(p, 0.3))

    # sup|f| = 1 and the increment integral peaks at t = 1 with value 4/3
    f = _linear(4096)
    assert norm_inf(f, 1.0, 0.25) == pytest.approx(7.0 / 3.0, rel=1e-3)


def test_norm_0_interval_constant_and_linear():
    c = GridFunction(0.0, 1.0, np.full(65, -3.0))
    assert norm_0_interval(c, 0.0, 1.0, 0.25) == 0.0
    # slope-1 path: increment quotient 1 plus inner integral 4, both at the
    # full interval
    f = _linear(4096)
    assert norm_0_interval(f, 0.0, 1.0, 0.25) == pytest.approx(5.0, rel=1e-9)
    with pytest.raises(ParameterError):
        norm_0_interval(f, 0.5, 0.5, 0.25)


def test_norm_0_interval_scaling_and_monotonicity():
    p = gen_fbm(GridSpec(1.0, 64), 0.75, Seed(8).child(1))
    base = norm_0_interval(p, 0.0, 1.0, 0.3)
    scaled = GridFunction(0.0, 1.0, 4.0 * p.values)
    assert norm_0_interval(scaled, 0.0, 1.0, 0.3) == 4.0 * base
    assert norm_0_interval(p, 0.0, 0.5, 0.3) <= base
    assert norm_0_interval(p, 0.25, 0.75, 0.3) <= base


def test_norm_0_interval_moments_finite():
    vals = []
    for s in range(200):
        p = gen_fbm(GridSpec(1.0, 64), 0.75, Seed(11).child(3 + s).child(1))
        vals.append(norm_0_interval(p, 0.0, 1.0, 0.3))
    m8 = np.mean(np.array(vals) ** 8)
    assert np.isfinite(m8) and m8 > 0.0


def test_capital_lambda_floor_and_linear():
    c = GridFunction(0.0, 1.0, np.full(65, 2.0))
    assert capital_lambda(c, 1.0, 0.25) == 1.0
    f = _linear(4096)
    assert capital_lambda(f, 1.0, 0.25) == pytest.approx(5.0, rel=1e-9)
    for s in range(20):
        p = gen_fbm(GridSpec(1.0, 64), 0.85, Seed(13).child(3 + s).child(1))
        assert capital_lambda(p, 1.0, 0.2) >= 1.0


def test_smooth_path_grid_refinement():
    vals = []
    for n in (512, 1024):
        xs = np.linspace(0.0, 1.0, n + 1)
        vals.append(_profile(GridFunction(0.0, 1.0, np.sin(3.0 * xs)), 0.25)[-1])
    assert abs(vals[1] - vals[0]) / abs(vals[1]) < 1e-2


# ---------------------------------------------------------------------------
# stacked norms against the one-path kernels they replaced
#
# The functions below are the one-path kernels as they stood before the
# norms were stacked over paths, kept here unchanged as the reference: every
# stacked row must equal them bit for bit.


def _ref_right_total(d, i, alpha, h, g1, g2, pow_neg, pow_pos):
    if i == 0:
        return 0.0
    v = np.abs(d[: i + 1])
    vj = v[:i]
    vj1 = v[1:]
    slope = (vj - vj1) / h
    g1r = g1[1 : i + 1][::-1]
    g2r = g2[1 : i + 1][::-1]
    w_lo = np.arange(i, dtype=float)[::-1] * h
    c = vj1 - slope * w_lo
    total = float(np.dot(c, g1r) + np.dot(slope, g2r))
    cross = np.nonzero(d[:i] * d[1 : i + 1] < 0.0)[0]
    if cross.size:
        j = cross
        k_lag = (i - j).astype(float)
        w_hi_c = k_lag * h
        w_lo_c = (k_lag - 1.0) * h
        w_star = w_hi_c - h * vj[j] / (vj[j] + vj1[j])
        hi_neg = pow_neg[i - j] * h**-alpha
        hi_pos = pow_pos[i - j] * h ** (1.0 - alpha)
        lo_neg = pow_neg[i - j - 1] * h**-alpha
        lo_pos = pow_pos[i - j - 1] * h ** (1.0 - alpha)
        st_neg = w_star**-alpha
        st_pos = w_star ** (1.0 - alpha)
        sub_hi = vj[j] / (w_hi_c - w_star) * (
            (hi_pos - st_pos) / (1.0 - alpha) - w_star * (st_neg - hi_neg) / alpha
        )
        sub_lo = vj1[j] / (w_star - w_lo_c) * (
            w_star * (lo_neg - st_neg) / alpha - (st_pos - lo_pos) / (1.0 - alpha)
        )
        base = c[j] * g1r[j] + slope[j] * g2r[j]
        total += float(np.sum(sub_hi + sub_lo - base))
    return total


def _ref_profile(vals, alpha, h):
    k = len(vals) - 1
    prof = np.zeros(k + 1)
    if k:
        tables = _power_tables(k, -alpha, 1.0 - alpha, h)
        for i in range(1, k + 1):
            prof[i] = _ref_right_total(vals[i] - vals[: i + 1], i, alpha, h, *tables)
    return prof


def _ref_norm_inf(f, t, alpha):
    k = int(round((t - f.left) / f.h))
    vals = f.values[: k + 1]
    return float(np.max(np.abs(vals))) + float(np.max(_ref_profile(vals, alpha, f.h)))


def _ref_left_cells(f, start, alpha, h, tables):
    m = len(f) - 1 - start
    q1, q2, pow_m1, pow_a = tables
    d = f[start:] - f[start]
    v = np.abs(d)
    v_lo = v[:-1]
    v_hi = v[1:]
    slope = (v_hi - v_lo) / h
    w_lo = np.arange(m, dtype=float) * h
    c = v_lo - slope * w_lo
    cells = c * q1[1 : m + 1] + slope * q2[1 : m + 1]
    cross = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    if cross.size:
        k = cross + 1.0
        w_hi_c = k * h
        w_lo_c = (k - 1.0) * h
        w_star = w_lo_c + h * v_lo[cross] / (v_lo[cross] + v_hi[cross])
        hi_m1 = pow_m1[cross + 1] * h ** (alpha - 1.0)
        hi_a = pow_a[cross + 1] * h**alpha
        lo_m1 = pow_m1[cross] * h ** (alpha - 1.0)
        lo_a = pow_a[cross] * h**alpha
        st_m1 = w_star ** (alpha - 1.0)
        st_a = w_star**alpha
        sub_lo = v_lo[cross] / (w_star - w_lo_c) * (
            w_star * (lo_m1 - st_m1) / (1.0 - alpha) - (st_a - lo_a) / alpha
        )
        sub_hi = v_hi[cross] / (w_hi_c - w_star) * (
            (hi_a - st_a) / alpha - w_star * (st_m1 - hi_m1) / (1.0 - alpha)
        )
        cells[cross] = sub_lo + sub_hi
    return cells


def _ref_norm_0_interval(f, s, t, alpha):
    h = f.h
    i0 = int(round((s - f.left) / h))
    i1 = int(round((t - f.left) / h))
    seg = f.values[i0 : i1 + 1]
    m = i1 - i0
    tables = _power_tables(m, alpha - 1.0, alpha, h)
    spans_pow = (h * np.arange(1, m + 1)) ** (1.0 - alpha)
    best = 0.0
    for i in range(m):
        integ = np.cumsum(_ref_left_cells(seg, i, alpha, h, tables))
        cand = np.abs(seg[i + 1 :] - seg[i]) / spans_pow[: m - i] + integ
        ci = float(np.max(cand))
        if ci > best:
            best = ci
    return best


def _max_crossings(values):
    # most sign changes of f(t_i) - f(u), u in [t_0, t_i], over the anchors i
    return max(int(np.sum((values[i] - values[:i])[:-1] * (values[i] - values[1:i]) < 0.0))
               for i in range(1, len(values)))


def _row(kind, n, rng):
    if kind == "monotone":        # f(t_i) - f(u) never changes sign
        return np.cumsum(rng.uniform(0.1, 1.0, n + 1))
    if kind == "zigzag":          # many crossings inside cells
        return (-1.0) ** np.arange(n + 1) + rng.uniform(-0.5, 0.5, n + 1)
    if kind == "ties":            # equal node values: zeros at nodes
        return rng.integers(-2, 3, n + 1).astype(float)
    return rng.standard_normal(n + 1) * rng.uniform(0.01, 100.0)


def _check_stacked_norms(rows, left, right, alpha, i0, i1):
    paths = [GridFunction(left, right, v) for v in rows]
    # the kernels at every node: a maximum would hide a wrong non-maximal entry
    h = paths[0].h
    stack = np.array(rows)
    profile = _ref_increment_profile(stack, alpha, h)
    for r, p in enumerate(paths):
        assert profile[r].tobytes() == _ref_profile(p.values, alpha, h).tobytes()
    m = i1 - i0
    tables = _power_tables(m, alpha - 1.0, alpha, h)
    for start in range(m):
        cells = abs_left_singular_cells(stack[:, i0 : i1 + 1], start, alpha, h, tables)
        for r, v in enumerate(rows):
            expected = _ref_left_cells(v[i0 : i1 + 1], start, alpha, h, tables)
            assert cells[r].tobytes() == expected.tobytes()
    t = paths[0].nodes[-1]
    s_node, t_node = paths[0].nodes[i0], paths[0].nodes[i1]
    stacked = norm_inf_stack(paths, t, alpha)
    assert stacked.shape == (len(paths),)
    assert stacked.tobytes() == np.array([norm_inf(p, t, alpha) for p in paths]).tobytes()
    assert stacked.tobytes() == np.array([_ref_norm_inf(p, t, alpha) for p in paths]).tobytes()
    stacked = norm_0_interval_stack(paths, s_node, t_node, alpha)
    width_one = [norm_0_interval(p, s_node, t_node, alpha) for p in paths]
    assert stacked.tobytes() == np.array(width_one).tobytes()
    reference = [_ref_norm_0_interval(p, s_node, t_node, alpha) for p in paths]
    assert stacked.tobytes() == np.array(reference).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
       kinds=st.lists(st.sampled_from(("monotone", "zigzag", "ties", "random")),
                      min_size=1, max_size=8),
       alpha=st.floats(0.01, 0.49), left=st.sampled_from((0.0, -0.4, 2.5)),
       length=st.floats(0.1, 3.0), data=st.data())
def test_stacked_norms_equal_width_one_calls_bitwise(seed, n, kinds, alpha, left,
                                                     length, data):
    rng = np.random.default_rng(seed)
    rows = [_row(kind, n, rng) for kind in kinds]
    i0 = data.draw(st.integers(0, n - 1), label="i0")
    i1 = data.draw(st.integers(i0 + 1, n), label="i1")
    _check_stacked_norms(rows, left, left + length, alpha, i0, i1)


def test_stacked_norms_cover_crossing_counts():
    # the three regimes the row-wise crossing sums must keep apart: none,
    # a few inside cells, and more than 8 (numpy's pairwise-sum block)
    rng = np.random.default_rng(7)
    rows = [_row("monotone", 40, rng), _row("random", 40, rng),
            np.array([0.0, 1.0, -1.0] + [0.5] * 38), _row("zigzag", 40, rng)]
    counts = [_max_crossings(v) for v in rows]
    assert counts[0] == 0 and 0 < counts[2] <= 2 and counts[3] > 8
    _check_stacked_norms(rows, 0.0, 1.0, 0.3, 0, 40)
    _check_stacked_norms(rows, 0.0, 1.0, 0.3, 5, 33)


def test_stacked_norms_span_several_blocks():
    # 300 paths cross two block boundaries of the stacked entries
    rng = np.random.default_rng(11)
    kinds = ("monotone", "zigzag", "ties", "random")
    rows = [_row(kinds[r % 4], 6, rng) for r in range(300)]
    _check_stacked_norms(rows, 0.0, 1.0, 0.35, 1, 5)


def test_stacked_norms_need_one_grid():
    f = GridFunction(0.0, 1.0, np.arange(9.0))
    for other in (GridFunction(0.0, 1.0, np.arange(17.0)),
                  GridFunction(0.0, 2.0, np.arange(9.0)),
                  GridFunction(0.5, 1.5, np.arange(9.0))):
        with pytest.raises(GridMismatchError, match="one grid"):
            norm_inf_stack([f, other], 1.0, 0.3)
        with pytest.raises(GridMismatchError, match="one grid"):
            norm_0_interval_stack([f, other], 0.0, 1.0, 0.3)
    with pytest.raises(ParameterError, match="at least one path"):
        norm_inf_stack([], 1.0, 0.3)
    with pytest.raises(ParameterError, match="at least one path"):
        norm_0_interval_stack(iter(()), 0.0, 1.0, 0.3)


def test_norms_refuse_bad_orders_and_non_finite_nodes():
    f = GridFunction(0.0, 1.0, np.sin(np.linspace(0.0, 3.0, 17)))
    for alpha in (math.nan, 0.0, 1.0, 1.2, -0.1):
        for call in (lambda: norm_inf(f, 1.0, alpha),
                     lambda: norm_inf_stack([f], 1.0, alpha),
                     lambda: norm_0_interval(f, 0.0, 1.0, alpha),
                     lambda: norm_0_interval_stack([f], 0.0, 1.0, alpha)):
            with pytest.raises(ParameterError, match=r"order must lie in \(0, 1\)"):
                call()
    for node in (math.nan, math.inf, -math.inf):
        with pytest.raises(GridMismatchError, match="not a grid node"):
            norm_inf(f, node, 0.3)
        with pytest.raises(GridMismatchError, match="not a grid node"):
            norm_0_interval(f, node, 1.0, 0.3)
        with pytest.raises(GridMismatchError, match="not a grid node"):
            norm_0_interval_stack([f], 0.0, node, 0.3)


def test_norms_refuse_non_finite_paths_and_overflow_reads_non_finite():
    base = np.linspace(0.0, 1.0, 17)
    for bad in (math.nan, math.inf, -math.inf):
        vals = base.copy()
        vals[5] = bad
        broken = GridFunction(0.0, 1.0, vals)
        for call in (lambda: norm_inf(broken, 1.0, 0.3),
                     lambda: norm_inf_stack([_linear(16), broken], 1.0, 0.3),
                     lambda: norm_0_interval(broken, 0.0, 1.0, 0.3),
                     lambda: norm_0_interval_stack([_linear(16), broken], 0.0, 1.0, 0.3),
                     lambda: capital_lambda(broken, 1.0, 0.3)):
            with pytest.raises(ParameterError, match="holds non-finite values"):
                call()
    # finite nodes whose differences overflow: no skipped-candidate value
    huge = GridFunction(0.0, 1.0, np.array([1e308, -1e308] * 8 + [1e308]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(norm_inf(huge, 1.0, 0.3))
        assert not math.isfinite(norm_0_interval(huge, 0.0, 1.0, 0.3))
        assert not math.isfinite(capital_lambda(huge, 1.0, 0.3))
        stacked = norm_0_interval_stack([_linear(16), huge], 0.0, 1.0, 0.3)
    assert math.isfinite(stacked[0]) and not math.isfinite(stacked[1])


# ---------------------------------------------------------------------------
# anchor pruning: each norm evaluates its exact anchor values only at the
# anchors whose upper bound can reach the row's max


def _pruning_rows(kinds, n, rng):
    return [np.full(n + 1, rng.uniform(-5.0, 5.0)) if kind == "constant" else _row(kind, n, rng)
            for kind in kinds]


_KINDS = ("monotone", "zigzag", "ties", "random", "constant")


def _ref_increment_profile(values, alpha, h):
    # the unpruned norm_inf anchor loop: integral over [t_0, t_i] of
    # |f(t_i) - f(u)| (t_i - u)^(-1-alpha) du at every node i of every row
    # of an (R, n+1) value stack, sharing the power tables; returns (R, n+1)
    f = np.asarray(values, dtype=float)
    n = f.shape[-1] - 1
    out = np.zeros(f.shape)
    if n == 0:
        return out
    tables = _power_tables(n, -alpha, 1.0 - alpha, h)
    for i in range(1, n + 1):
        out[:, i] = _abs_right_singular_total(f[:, i : i + 1] - f[:, : i + 1], i, alpha, h, *tables)
    return out


def _ref_candidate_maxima(stack, alpha, h):
    # the unpruned norm_0_interval anchor loop over a whole (R, m+1) span:
    # column i is the max over v > i of anchor i's candidate
    m = stack.shape[-1] - 1
    tables = _power_tables(m, alpha - 1.0, alpha, h)
    spans_pow = (h * np.arange(1, m + 1)) ** (1.0 - alpha)
    out = np.empty((len(stack), m))
    for i in range(m):
        integ = np.cumsum(abs_left_singular_cells(stack, i, alpha, h, tables), axis=-1)
        cand = np.abs(stack[:, i + 1 :] - stack[:, i : i + 1]) / spans_pow[: m - i] + integ
        out[:, i] = np.max(cand, axis=-1)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
       alpha=st.floats(0.001, 0.999), length=st.floats(0.01, 10.0))
def test_anchor_bounds_hold_at_every_anchor(seed, n, kinds, alpha, length):
    # the bounds themselves, at every (row, anchor): a pruning test would
    # only see a bad bound where it happened to drop a row's winner
    stack = np.array(_pruning_rows(kinds, n, np.random.default_rng(seed)))
    h = length / n
    exact = _ref_increment_profile(stack, alpha, h)
    bound = _abs_increment_bounds(stack, alpha, h, _power_tables(n, -alpha, 1.0 - alpha, h)[2])
    assert bound.shape == exact.shape
    assert np.all(bound >= exact)
    exact = _ref_candidate_maxima(stack, alpha, h)
    pow_m1 = _power_tables(n, alpha - 1.0, alpha, h)[2]
    bound = _interval_bounds(stack, alpha, h, pow_m1, (h * np.arange(1, n + 1)) ** (1.0 - alpha))
    assert bound.shape == exact.shape
    assert np.all(bound >= exact)


def _check_pruned(stack, left, right, alpha):
    # the pruned norms against the unpruned anchor loops, over the whole grid
    stack = np.array(stack)
    paths = [GridFunction(left, right, v) for v in stack]
    h = paths[0].h
    full = (np.max(np.abs(stack), axis=-1)
            + np.max(_ref_increment_profile(stack, alpha, h), axis=-1))
    assert norm_inf_stack(paths, right, alpha).tobytes() == full.tobytes()
    full = np.max(_ref_candidate_maxima(stack, alpha, h), axis=-1, initial=0.0)
    assert norm_0_interval_stack(paths, left, right, alpha).tobytes() == full.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=6),
       alpha=st.floats(0.01, 0.99), length=st.floats(0.1, 3.0))
def test_pruned_norms_equal_the_full_anchor_loops_bitwise(seed, n, kinds, alpha, length):
    _check_pruned(_pruning_rows(kinds, n, np.random.default_rng(seed)), 0.0, length, alpha)


def test_pruned_norms_equal_the_full_anchor_loops_at_n_1024():
    # 130 rows span two row blocks: 65 fBm paths and 65 linear-model solutions
    grid = GridSpec(1.0, 1024)
    fbm = gen_fbm_stack(grid, 0.75, [Seed(21).child(r) for r in range(65)])
    ens = simulate_ensemble(build_model("linear"), 1.0, grid, FracParams(0.75, alpha=0.3),
                            Seed(42), 65)
    stack = np.concatenate([fbm, [p.values for p in ens.paths]])
    assert stack.shape == (130, 1025)
    _check_pruned(stack, 0.0, 1.0, 0.3)


def test_a_negligible_side_of_a_sign_change_gives_finite_kernels():
    # one side of the sign change is below 1e-16 of the other, so a
    # sub-cell's width rounds to 0; that sub-cell contributes 0, and the
    # profile is the one with the tiny node set to 0
    tiny = _ref_increment_profile(np.array([[1e-20, -1.0, 0.0, 0.0, 0.0]]), 0.3, 0.25)
    zero = _ref_increment_profile(np.array([[0.0, -1.0, 0.0, 0.0, 0.0]]), 0.3, 0.25)
    assert np.all(np.isfinite(tiny))
    np.testing.assert_allclose(tiny, zero, rtol=1e-14, atol=0.0)
    # the pruned norms equal the full anchor loops there, bit for bit
    row = np.array([0.0, 1.0, -1e-20, 0.0, 0.0])
    f = GridFunction(0.0, 1.0, row)
    for alpha in (0.25, 0.3):
        _check_pruned([row], 0.0, 1.0, alpha)
        assert math.isfinite(norm_inf(f, 1.0, alpha))
        assert math.isfinite(norm_0_interval(f, 0.0, 1.0, alpha))


_THREADS_PROBE = """
import json
from mfsde.noise import GridSpec, Seed, gen_fbm
from mfsde.norms import norm_inf

f = gen_fbm(GridSpec(1.0, 12288), 0.75, Seed(0).child(1))
print(json.dumps(norm_inf(f, 1.0, 0.3).hex()))
"""


def test_norm_inf_has_the_same_bits_at_any_blas_thread_count():
    # OpenBLAS splits a dot longer than 10,000 elements across its threads;
    # this path's exact anchors past node 10,000 gave another last bit at 2
    # threads when each row was one np.dot
    src = str(Path(importlib.import_module("mfsde").__file__).parents[1])
    norms = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        norms.append(json.loads(run.stdout))
    assert norms[0] == norms[1]
