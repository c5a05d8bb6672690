"""Solver contracts: assumption checking, exact special cases, jump-restart
composition, forward-sum stochastic integrals, and the blow-up guard."""

import dataclasses
import io
import math

import numpy as np
import pytest

from mfsde.analysis import simulate_ensemble
from mfsde.errors import BlowUpError, GridMismatchError, ParameterError
from mfsde.models import MODELS, build_model
from mfsde.noise import (
    FracParams,
    GridFunction,
    GridSpec,
    JumpTrain,
    Seed,
    TwoPointMarks,
    gen_driving_triple,
    gen_fbm,
    gen_wiener,
)
from mfsde.solver import (
    BLOWUP_LIMIT,
    CoefficientSet,
    SamplingBox,
    check_assumptions,
    euler_paths,
    ito_integral_path,
    pathwise_bound_rhs,
    read_solution_csv,
    solve_with_jumps,
    solve_with_jumps_stack,
)

EMPTY_TRAIN = JumpTrain(np.array([]), np.array([]), 0.0, 1.0)


def _zero_path(grid):
    return GridFunction(0.0, grid.horizon, np.zeros(grid.steps + 1))


def _drivers(grid, hurst, rate, seed):
    return gen_driving_triple(grid, hurst, rate, TwoPointMarks(), seed)


def _one_jump_coeffs():
    base = build_model("additive")
    return CoefficientSet(
        name="onejump", a=base.a, b=lambda t, x: 0.0 * x, c=base.c,
        dc_dx=base.dc_dx, q=lambda t, x, y: x * y, growth=base.growth,
        lipschitz=0.0, time_holder=0.0, beta=0.8, b_bound=0.0,
        jump_gain=np.abs)


def test_check_assumptions_pass():
    rep = check_assumptions(build_model("zero"))
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names == ["growth", "dc_dx-bound", "x-lipschitz", "t-holder",
                     "b-bound", "jump-gain"]
    rep = check_assumptions(build_model("trigonometric"))
    assert rep.passed
    assert all("PASS" in line for line in rep.lines())
    # coefficients may return Python scalars; each check still sees one
    # value per sample
    scalars = dataclasses.replace(build_model("additive"), b=lambda t, x: 0.0,
                                  c=lambda t, x: 1.0, q=lambda t, x, y: 0.0)
    rep = check_assumptions(scalars, samples=50)
    assert rep.passed
    growth = rep.checks[0]
    assert growth.observed == pytest.approx(1.0 / (1.0 + abs(growth.witness[1])))


def test_check_assumptions_reports_violation_with_witness():
    bad = CoefficientSet(
        name="bad-b", a=lambda t, x: 0.0 * x, b=lambda t, x: x,
        c=lambda t, x: 0.0 * x, dc_dx=lambda t, x: 0.0 * x,
        q=lambda t, x, y: 0.0, growth=1.0, lipschitz=1.0, time_holder=0.0,
        beta=0.8, b_bound=5.0, jump_gain=np.abs, box=SamplingBox(x=(-10.0, 10.0)))
    rep = check_assumptions(bad)
    assert not rep.passed
    entry = {c.name: c for c in rep.checks}["b-bound"]
    assert not entry.passed
    assert entry.observed > 5.0
    assert abs(entry.witness[1]) > 5.0
    assert "FAIL b-bound" in str(rep)


# each built-in model's failing checks on its own box; an infinite
# declaration fails, since it bounds nothing
MODEL_FAILURES = {
    "zero": [], "additive": [], "pure_jump": [], "linear": [],
    "trigonometric": [], "logistic_drift": [],
    "mixed_geometric": ["b-bound"],
    "explosive": ["growth", "dc_dx-bound", "x-lipschitz"],
}


def test_every_model_reports_its_declared_verdicts():
    assert sorted(MODEL_FAILURES) == sorted(MODELS)
    for name, failures in MODEL_FAILURES.items():
        rep = check_assumptions(build_model(name))
        assert [c.name for c in rep.checks if not c.passed] == failures, name
        assert rep.passed == (not failures)
        assert rep.box == build_model(name).box
    assert build_model("logistic_drift", box_half_width=2.0).box.x == (-2.0, 2.0)


def test_mixed_geometric_closed_form_is_inf_past_the_float_range():
    closed = build_model("mixed_geometric", sigma_h=1000.0).closed_form
    assert closed(1.0, 0.0, 1.0, EMPTY_TRAIN) == math.inf
    # a finite target is math.exp's own value
    assert closed(2.0, 0.5, -0.3, EMPTY_TRAIN) == 2.0 * math.exp(
        0.25 * 0.5 - 0.5 * 0.25 ** 2 * 1.0 + 1000.0 * -0.3)


@pytest.mark.parametrize("samples", [1, 0, -3, 2.5, float("nan"), "100", None])
def test_check_assumptions_refuses_bad_sample_counts(samples):
    with pytest.raises(ParameterError, match="samples"):
        check_assumptions(build_model("zero"), samples=samples)


@pytest.mark.parametrize("seed", [1.7, -1, float("nan"), "0", None])
def test_check_assumptions_refuses_bad_seeds(seed):
    with pytest.raises(ParameterError, match="seed"):
        check_assumptions(build_model("zero"), seed=seed)


def test_check_assumptions_accepts_numpy_integers_and_seeds():
    model = build_model("linear")
    assert (check_assumptions(model, samples=np.int64(50), seed=np.uint32(3)).lines()
            == check_assumptions(model, samples=50, seed=Seed(3)).lines())


def test_zero_model_stays_constant():
    grid = GridSpec(1.0, 128)
    w, z, _ = _drivers(grid, 0.75, 0.0, Seed(1))
    sol = solve_with_jumps(build_model("zero"), 2.0, w, z, EMPTY_TRAIN)
    assert np.all(sol.values == 2.0)
    assert sol.terminal == 2.0


def test_additive_model_reproduces_rough_driver():
    grid = GridSpec(1.0, 1024)
    w, z, _ = _drivers(grid, 0.75, 0.0, Seed(2))
    sol = solve_with_jumps(build_model("additive"), 0.5, w, z, EMPTY_TRAIN)
    np.testing.assert_allclose(sol.values, 0.5 + z.values, atol=1e-13)


def test_empty_train_matches_plain_segment_solve_bitwise():
    grid = GridSpec(1.0, 512)
    coeffs = build_model("linear")
    w, z, _ = _drivers(grid, 0.75, 0.0, Seed(3))
    jumped = solve_with_jumps(coeffs, 1.0, w, z, EMPTY_TRAIN)
    batch = euler_paths(coeffs, 1.0, grid, w.values[None, :], z.values[None, :])
    np.testing.assert_array_equal(jumped.values, batch[0])
    assert len(jumped.segments) == 1 and jumped.train.count == 0


def test_pure_jump_accumulates_marks_exactly():
    grid = GridSpec(1.0, 256)
    w, z, train = _drivers(grid, 0.75, 5.0, Seed(4))
    assert train.count > 0
    sol = solve_with_jumps(build_model("pure_jump"), 1.0, w, z, train)
    acc = 1.0
    for m in train.marks:
        acc = acc + float(m)
    assert sol.terminal == acc

    # every right-continuous row, post-jump rows included, holds the running
    # sum of the marks whose left-limit rows come at or before it
    assert np.count_nonzero(sol.left_flags) == train.count
    running = np.cumsum(np.r_[1.0, train.marks])
    right = sol.left_flags == 0
    np.testing.assert_array_equal(sol.values[right], running[np.cumsum(sol.left_flags)[right]])


def test_jump_rows_apply_the_jump_map_exactly():
    grid = GridSpec(1.0, 256)
    coeffs = build_model("linear")
    w, z, train = _drivers(grid, 0.75, 3.0, Seed(5))
    assert train.count > 0
    sol = solve_with_jumps(coeffs, 1.0, w, z, train)
    rows = np.flatnonzero(sol.left_flags)
    np.testing.assert_allclose(sol.times[rows], train.times, rtol=0, atol=1e-12)
    for k, i in enumerate(rows):
        left = sol.values[i]
        assert sol.values[i + 1] == left + float(
            coeffs.q(train.times[k], left, train.marks[k]))


def test_one_jump_composition_on_grid_is_exact():
    grid = GridSpec(1.0, 256)
    tau = 100.0 / 256.0
    mark = 0.5
    z = gen_fbm(grid, 0.75, Seed(6).child(1))
    w = _zero_path(grid)
    train = JumpTrain(np.array([tau]), np.array([mark]), 1.0, 1.0)
    sol = solve_with_jumps(_one_jump_coeffs(), 1.0, w, z, train)
    z_tau = z.values[100]
    hand = (1.0 + z_tau) * (1.0 + mark) + z.values[-1] - z_tau
    assert abs(sol.terminal - hand) < 1e-13


def test_one_jump_composition_error_shrinks_with_the_grid():
    # off-grid jump time: the restart interpolates the drivers, and the
    # error against the fine-grid hand solution drops with the spacing
    fine = GridSpec(1.0, 4096)
    tau_idx = 1639
    tau = fine.times[tau_idx]
    mark = 0.5
    coeffs = _one_jump_coeffs()
    errmat = []
    for s in range(10):
        z_master = gen_fbm(fine, 0.75, Seed(30 + s).child(1))
        w_master = gen_wiener(fine, Seed(30 + s).child(0))
        z_tau = z_master.values[tau_idx]
        hand = (1.0 + z_tau) * (1.0 + mark) + z_master.values[-1] - z_tau
        errs = []
        for steps in (128, 256, 512, 1024):
            stride = 4096 // steps
            g = GridSpec(1.0, steps)
            wi = GridFunction(0.0, g.horizon, w_master.values[::stride])
            fb = GridFunction(0.0, g.horizon, z_master.values[::stride])
            train = JumpTrain(np.array([tau]), np.array([mark]), 1.0, 1.0)
            sol = solve_with_jumps(coeffs, 1.0, wi, fb, train)
            errs.append(abs(sol.terminal - hand))
        errmat.append(errs)
    med = np.median(np.array(errmat), axis=0)
    assert med[-1] < med[0]
    assert med[0] / med[-1] > 8 ** 0.5


def test_ito_integral_edge_cases_and_law():
    grid = GridSpec(1.0, 8)
    w = gen_wiener(grid, Seed(7).child(0))
    zero = ito_integral_path(np.zeros(9), w)
    assert np.all(zero.values == 0.0)
    unit = ito_integral_path(np.ones(9), w)
    np.testing.assert_allclose(unit.values, w.values, atol=1e-13)
    with pytest.raises(GridMismatchError):
        ito_integral_path(np.ones(5), w)

    # adapted integrand b = W: the discrete second moment is
    # sum_i t_i * dt = (n-1)/(2n) on the unit horizon
    m = 20000
    vals = np.empty(m)
    for r in range(m):
        wr = gen_wiener(grid, Seed(8).child(3 + r).child(0))
        vals[r] = ito_integral_path(wr.values, wr).values[-1]
    target = 7.0 / 16.0
    sq = vals ** 2
    se = sq.std(ddof=1) / np.sqrt(m)
    assert abs(sq.mean() - target) < 4.0 * se


def test_pathwise_bound_rhs_values_and_errors():
    assert pathwise_bound_rhs(1.0, 0.0, 0.3, 1.0) == pytest.approx(np.e, rel=1e-12)
    a = pathwise_bound_rhs(2.0, 0.0, 0.3, 1.0)
    assert a > pathwise_bound_rhs(1.5, 0.0, 0.3, 1.0)
    assert pathwise_bound_rhs(2.0, 1.0, 0.3, 1.0) == pytest.approx(2.0 * a, rel=1e-12)
    assert pathwise_bound_rhs(2.0, 0.0, 0.45, 1.0) > a
    assert pathwise_bound_rhs(30.0, 0.0, 0.5, 1.0) == float("inf")
    nan, inf = float("nan"), float("inf")
    for bad in (dict(Lambda=0.5), dict(Jb=-1.0), dict(K=0.0), dict(alpha=1.5),
                dict(Lambda=nan), dict(Lambda=inf), dict(Jb=nan), dict(Jb=inf),
                dict(K=nan), dict(K=inf), dict(alpha=nan)):
        kw = dict(Lambda=2.0, Jb=0.0, alpha=0.3, K=1.0)
        kw.update(bad)
        with pytest.raises(ParameterError):
            pathwise_bound_rhs(**kw)


def test_successive_grid_differences_shrink_per_path():
    # Cauchy-style refinement: |X^n - X^2n| at the horizon decreases level
    # over level on nearly every seed when the rough loading dominates
    coeffs = build_model("linear", theta=1.0, sigma_w=0.05, sigma_h=0.95)
    levels = [256 * 2 ** j for j in range(5)]
    fine = GridSpec(1.0, levels[-1])
    m = 100
    wmat = np.empty((m, levels[-1] + 1))
    zmat = np.empty((m, levels[-1] + 1))
    for s in range(m):
        wi, fb, _ = _drivers(fine, 0.75, 0.0, Seed(0).child(3 + s))
        wmat[s] = wi.values
        zmat[s] = fb.values
    terms = []
    for steps in levels:
        stride = levels[-1] // steps
        g = GridSpec(1.0, steps)
        st = euler_paths(coeffs, 1.0, g, wmat[:, ::stride], zmat[:, ::stride])
        terms.append(st[:, -1])
    d = np.abs(np.diff(np.array(terms), axis=0))
    mono = np.mean(np.all(np.diff(d, axis=0) < 0.0, axis=0))
    assert mono >= 0.9


def test_flow_composition_at_a_grid_node():
    coeffs = build_model("linear")
    grid = GridSpec(1.0, 512)
    w, z, _ = _drivers(grid, 0.75, 0.0, Seed(10))
    full = euler_paths(coeffs, 1.0, grid, w.values, z.values)

    half = GridSpec(0.5, 256)
    first = euler_paths(coeffs, 1.0, half, w.values[:257], z.values[:257])
    w2 = w.values[256:] - w.values[256]
    z2 = z.values[256:] - z.values[256]
    second = euler_paths(coeffs, float(first[-1]), half, w2, z2)
    np.testing.assert_allclose(
        np.concatenate([first, second[1:]]), full, rtol=1e-12, atol=1e-13)


def test_blow_up_error_carries_location():
    grid = GridSpec(1.0, 64)
    w = _zero_path(grid)
    with pytest.raises(BlowUpError) as exc:
        solve_with_jumps(build_model("explosive"), 2.0, w, w, EMPTY_TRAIN)
    err = exc.value
    assert err.step >= 1
    assert 0.0 < err.time <= 1.0
    assert not np.isfinite(err.state) or abs(err.state) > 1e12


def _start_error(entry, x0):
    """The text of the error one solve entry raises when started at x0."""
    grid = GridSpec(1.0, 8)
    coeffs = build_model("linear")
    w, z, train = _drivers(grid, 0.75, 0.0, Seed(3))
    try:
        if entry == "euler_paths":
            euler_paths(coeffs, x0, grid, w.values, z.values)
        elif entry == "solve_with_jumps":
            solve_with_jumps(coeffs, x0, w, z, train)
        else:
            simulate_ensemble(coeffs, x0, grid, FracParams(0.75), Seed(3), 4)
    except (ParameterError, BlowUpError) as err:
        return f"{type(err).__name__}: {err}"
    raise AssertionError(f"{entry} accepted x0 = {x0}")


@pytest.mark.parametrize("entry", ["euler_paths", "solve_with_jumps", "simulate_ensemble"])
@pytest.mark.parametrize("x0", [math.nan, math.inf, 1e13, -1e13,
                                math.nextafter(BLOWUP_LIMIT, math.inf),
                                np.ones(2), np.array([1.0]), 1 + 0j, "1"],
                         ids=["nan", "inf", "1e13", "-1e13", "past-limit",
                              "array", "one-element-array", "complex", "string"])
def test_starts_outside_the_trust_region(entry, x0):
    # a finite start past BLOWUP_LIMIT is refused with the non-finite ones:
    # its first transition could only report a blow-up; a start is one real
    # number, so an array, a complex number or a string is refused too
    text = _start_error(entry, x0)
    assert text.startswith("ParameterError: x0 must be finite"), text


def test_the_trust_region_edge_is_a_start():
    # so are a numpy float and an int, each solved as its Python float
    grid = GridSpec(1.0, 8)
    w, zero = _zero_path(grid), build_model("zero")
    for x0 in (BLOWUP_LIMIT, -BLOWUP_LIMIT, np.float64(0.3), 3):
        assert euler_paths(zero, x0, grid, w.values, w.values).tolist() == [float(x0)] * 9
        assert solve_with_jumps(zero, x0, w, w, EMPTY_TRAIN).values.tolist() == [float(x0)] * 9


def test_solution_csv_roundtrip():
    grid = GridSpec(1.0, 128)
    w, z, train = _drivers(grid, 0.75, 2.0, Seed(11))
    sol = solve_with_jumps(build_model("linear"), 1.0, w, z, train)
    buf = io.StringIO()
    sol.to_csv(buf)
    buf.seek(0)
    ts, vs, fl = read_solution_csv(buf)
    np.testing.assert_array_equal(ts, sol.times)
    np.testing.assert_array_equal(vs, sol.values)
    np.testing.assert_array_equal(fl, sol.left_flags)


def test_euler_paths_batch_matches_single_solves():
    grid = GridSpec(1.0, 256)
    ws, zs = [], []
    for s in range(5):
        w, z, _ = _drivers(grid, 0.75, 0.0, Seed(12).child(3 + s))
        ws.append(w.values)
        zs.append(z.values)
    # a restoring cubic drift: numpy's scalar and array powers differ in the
    # last bit on a few percent of inputs, and from 1.7 the drift is large
    # enough per step that such a bit reaches the state
    for coeffs, x0 in ((build_model("trigonometric"), 0.3),
                       (build_model("explosive", scale=-1.0), 1.7)):
        batch = euler_paths(coeffs, x0, grid, np.array(ws), np.array(zs))
        for s in range(5):
            single = euler_paths(coeffs, x0, grid, ws[s], zs[s])
            np.testing.assert_array_equal(batch[s], single)


def _segment_nodes(length, dt):
    """Local nodes for one segment: the usual spacing, plus a short final
    step when the segment length is not a whole number of steps."""
    if length <= 0.0:
        return np.zeros(1)
    k = int(math.floor(length / dt + 1e-9))
    if k >= 1 and length - k * dt <= 1e-9 * dt:
        return np.linspace(0.0, length, k + 1)
    return np.concatenate([dt * np.arange(k + 1), [length]])


class _DriverSampler:
    """Reads a master path at arbitrary times; exact at its own nodes."""

    def __init__(self, path):
        self.times = path.nodes
        self.values = path.values
        self.dt = path.h
        self.steps = path.cells

    def at(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.rint(t / self.dt).astype(int), 0, self.steps)
        out = self.values[k]
        off = np.abs(t - self.times[k]) > 1e-9 * self.dt
        if np.any(off):
            out = out.copy()
            out[off] = np.interp(t[off], self.times, self.values)
        return out


def _reference_solve(coeffs, x0, W, BH, jumps):
    """The jump-restart construction as a plain per-segment loop, one path
    and one Euler step at a time; the state is a 1-element array, like a
    row of the batched solver.  The node and driver rules above are the
    solver's, written out per segment.  Returns the output times, values
    and (start, local nodes, values) segments."""
    w_s, z_s = _DriverSampler(W), _DriverSampler(BH)
    taus = list(jumps.times)
    times, values, segments = [], [], []
    x = np.array([float(x0)])
    for j, (s0, s1) in enumerate(zip([0.0] + taus, taus + [W.right])):
        ts = _segment_nodes(s1 - s0, W.h)
        nodes = s0 + ts
        w_loc, z_loc = w_s.at(nodes), z_s.at(nodes)
        dw, dz = np.diff(w_loc - w_loc[0]), np.diff(z_loc - z_loc[0])
        seg = [x]
        for i, dt in enumerate(np.diff(ts)):
            t = nodes[i]
            x = (x + coeffs.a(t, x) * dt + coeffs.b(t, x) * dw[i]
                 + coeffs.c(t, x) * dz[i])
            if not abs(x[0]) <= BLOWUP_LIMIT:
                raise BlowUpError(step=i + 1, time=nodes[i + 1], state=float(x[0]))
            seg.append(x)
        times.append(nodes)
        values.append(np.concatenate(seg))
        segments.append((s0, ts, values[-1]))
        if j < len(taus):
            x = x + coeffs.q(s1, x, jumps.marks[j])
            if not abs(x[0]) <= BLOWUP_LIMIT:
                raise BlowUpError(step=-1, time=s1, state=float(x[0]))
    return np.concatenate(times), np.concatenate(values), segments


def _hand_trains(grid):
    """Empty, on a grid node, within rounding of a node, two jumps inside
    one cell, a jump at exactly the horizon (an empty last segment), one
    just past it (within the solver's tolerance), jumps whose restart times
    round, and many jumps."""
    h, k, T = grid.dt, grid.steps // 3, grid.horizon
    many = np.sort(Seed(49).generator().uniform(0.0, T, 40))
    taus = [[], [k * h], [k * h * (1 + 1e-12)], [(k + 0.3) * h, (k + 0.7) * h],
            [0.3 * T, T], [0.5 * T, T * (1 + 5e-13)], [0.1 * T, 0.2 * T, 0.9 * T],
            list(many)]
    return [JumpTrain(np.array(t), np.linspace(-0.4, 0.45, len(t)), 1.0, T * (1 + 1e-12))
            for t in taus]


def test_solve_with_jumps_matches_the_per_segment_loop():
    steep = dataclasses.replace(build_model("linear"),
                                q=lambda t, x, y: 1e6 * y * x ** 4)
    # a jump map that moves the state to the jump time
    timed = dataclasses.replace(build_model("linear"), q=lambda t, x, y: t - x)
    cases = [(build_model("trigonometric"), 1.0), (build_model("linear"), 1.0),
             (build_model("explosive", scale=2.0), 0.9), (steep, 1.0),
             (timed, 1.0)]
    outcomes = set()
    for grid in (GridSpec(1.0, 64), GridSpec(1.5, 10), GridSpec(1.0, 2048)):
        # seeded trains, then hand-built ones on the same drivers; the
        # whole list is also solved as one block
        drivers = [_drivers(grid, 0.75, 4.0, Seed(40 + s)) for s in range(6)]
        w, z, _ = drivers[0]
        drivers += [(w, z, train) for train in _hand_trains(grid)]
        W = np.array([w.values for w, _, _ in drivers])
        Z = np.array([z.values for _, z, _ in drivers])
        trains = [train for _, _, train in drivers]

        def draw(rows):
            return W[rows], Z[rows], trains[rows]

        for coeffs, x0 in cases:
            block = solve_with_jumps_stack(coeffs, x0, grid, draw, len(drivers))
            for (w, z, train), batched in zip(drivers, block):
                try:
                    times, values, segments = _reference_solve(coeffs, x0, w, z, train)
                except BlowUpError as err:
                    with pytest.raises(BlowUpError) as got:
                        solve_with_jumps(coeffs, x0, w, z, train)
                    assert str(got.value) == str(err)
                    assert str(batched) == str(err)
                    outcomes.add("jump" if err.step == -1 else "step")
                    continue
                for sol in (solve_with_jumps(coeffs, x0, w, z, train), batched):
                    np.testing.assert_array_equal(sol.times, times)
                    np.testing.assert_array_equal(sol.values, values)
                    assert len(sol.segments) == len(segments) == train.count + 1
                    for got, expect in zip(sol.segments, segments):
                        assert got[0] == expect[0]
                        np.testing.assert_array_equal(got[1], expect[1])
                        np.testing.assert_array_equal(got[2], expect[2])
                outcomes.add("solved")
    assert outcomes == {"solved", "step", "jump"}


def test_solve_with_jumps_validation():
    g1 = GridSpec(1.0, 64)
    coeffs = build_model("zero")
    late = JumpTrain(np.array([1.5]), np.array([0.1]), 1.0, 2.0)
    with pytest.raises(ParameterError):
        solve_with_jumps(coeffs, 1.0, _zero_path(g1), _zero_path(g1), late)
    # the restart construction reads drivers on [0, horizon]
    shifted = GridFunction(0.5, 1.5, np.zeros(65))
    with pytest.raises(GridMismatchError, match="start at 0"):
        solve_with_jumps(coeffs, 1.0, shifted, shifted, EMPTY_TRAIN)
    with pytest.raises(GridMismatchError, match="start at 0"):
        solve_with_jumps(coeffs, 1.0, _zero_path(g1), shifted, EMPTY_TRAIN)
    # both drivers live on one grid
    for other in (GridSpec(1.0, 128), GridSpec(2.0, 64)):
        with pytest.raises(GridMismatchError, match="share one grid"):
            solve_with_jumps(coeffs, 1.0, _zero_path(g1), _zero_path(other), EMPTY_TRAIN)
