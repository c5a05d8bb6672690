"""Driving-noise generators: distributional laws, determinism, CSV I/O."""

import io
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mfsde import noise
from mfsde.errors import ParameterError
from mfsde.noise import (
    ALPHA_RANGE_MESSAGE,
    FracParams,
    GaussianMarks,
    GridFunction,
    GridSpec,
    JumpTrain,
    Seed,
    TwoPointMarks,
    UniformMarks,
    build_mark_law,
    gen_driving_triple,
    gen_fbm,
    gen_jump_train,
    gen_wiener,
)


def test_grid_spec_basics():
    g = GridSpec(2.0, 4)
    assert g.dt == 0.5
    assert np.array_equal(g.times, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    assert np.all(np.diff(g.times) > 0)
    with pytest.raises(ParameterError):
        GridSpec(0.0, 4)
    # 1e-320 / 16 rounds to 6.225e-322, and 16 such cells end short of 1e-320
    with pytest.raises(ParameterError, match="horizon / steps must be a normal float"):
        GridSpec(1e-320, 16)
    # steps + 1 float nodes must fit in one numpy array
    assert GridSpec(1.0, noise._MAX_NODES - 1).steps == noise._MAX_NODES - 1
    for steps in (noise._MAX_NODES, 10**400):
        with pytest.raises(ParameterError, match="steps must be below"):
            GridSpec(1.0, steps)
    tiny = GridSpec(16 * sys.float_info.min, 16)
    assert tiny.dt == sys.float_info.min and tiny.times[-1] == tiny.horizon
    with pytest.raises(ParameterError):
        GridSpec(1.0, 0)
    # steps must be an integer: nan or 4.0 would construct a grid whose
    # times numpy cannot build, and True would hold steps=True
    for bad in (float("nan"), 4.0, 2.5, "4", True):
        with pytest.raises(ParameterError, match="steps must be an integer"):
            GridSpec(1.0, bad)
    assert np.array_equal(GridSpec(2.0, np.int64(4)).times, g.times)


def test_frac_params_defaults_and_ranges():
    p = FracParams(hurst=0.75)
    # default order sits at the midpoint of the admissible interval
    assert p.alpha == pytest.approx((1 - 0.75 + 0.5) / 2)
    assert 1 - 0.75 < p.beta < 1.0
    with pytest.raises(ParameterError):
        FracParams(hurst=0.5)
    with pytest.raises(ParameterError, match="alpha"):
        FracParams(hurst=0.75, alpha=0.6)
    with pytest.raises(ParameterError):
        FracParams(hurst=0.75, beta=0.1)
    assert "alpha" in ALPHA_RANGE_MESSAGE


def test_sample_path_csv_roundtrip():
    g = GridSpec(1.0, 8)
    p = gen_fbm(g, 0.7, Seed(3).child(1))
    buf = io.StringIO()
    p.to_csv(buf)
    buf.seek(0)
    q = GridFunction.from_csv(buf)
    assert np.array_equal(p.values, q.values)
    assert (q.left, q.right, q.cells) == (0.0, g.horizon, g.steps)


def test_grid_function_csv_roundtrip_off_zero():
    p = GridFunction(0.3, 2.7, np.sin(np.arange(13.0)))
    buf = io.StringIO()
    p.to_csv(buf)
    buf.seek(0)
    q = GridFunction.from_csv(buf)
    assert (q.left, q.right) == (0.3, 2.7)
    assert np.array_equal(q.values, p.values)
    assert np.array_equal(q.nodes, p.nodes)
    with pytest.raises(ParameterError):
        GridFunction.from_csv(io.StringIO("t,value\n0,1\n0.5,2\n2,3\n"))
    for left, right in ((0.0, float("inf")), (float("nan"), 1.0), (1.0, 1.0)):
        with pytest.raises(ParameterError):
            GridFunction(left, right, np.zeros(3))


def test_jump_train_invariants_and_csv():
    for s in range(20):
        train = gen_jump_train(4.0, TwoPointMarks(), 2.0, Seed(s).child(2))
        if train.count:
            assert np.all(np.diff(train.times) > 0)
            assert train.times[0] > 0.0 and train.times[-1] <= 2.0
    train = gen_jump_train(5.0, TwoPointMarks(), 2.0, Seed(11).child(2))
    buf = io.StringIO()
    train.to_csv(buf)
    buf.seek(0)
    back = JumpTrain.from_csv(buf, rate=5.0, horizon=2.0)
    assert np.array_equal(train.times, back.times)
    assert np.array_equal(train.marks, back.marks)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: JumpTrain(np.array([_NAN]), np.array([0.1]), 1.0, 1.0),
    lambda: JumpTrain(np.array([0.5]), np.array([_NAN]), 1.0, 1.0),
    lambda: JumpTrain(np.array([0.5]), np.array([_INF]), 1.0, 1.0),
    lambda: JumpTrain(np.array([0.5]), np.array([-_INF]), 1.0, 1.0),
    lambda: JumpTrain(np.array([0.5]), np.array([0.1]), 1.0, _NAN),
    lambda: JumpTrain(np.array([0.5]), np.array([0.1]), 1.0, _INF),
    lambda: JumpTrain(np.empty(0), np.empty(0), 1.0, 0.0),
    lambda: JumpTrain.from_csv(io.StringIO("tau,mark\nnan,0.2\n"), rate=1.0, horizon=1.0),
], ids=["nan-time", "nan-mark", "inf-mark", "-inf-mark", "nan-horizon", "inf-horizon",
        "zero-horizon", "csv-nan-time"])
def test_jump_train_refuses_non_finite_input(make):
    with pytest.raises(ParameterError):
        make()


@pytest.mark.parametrize("times, marks", [
    ([[0.2, 0.3], [0.1, 0.4]], [[1.0, 2.0], [3.0, 4.0]]),
    ([[0.2], [0.5]], [0.1, 0.2]),
    ([0.2, 0.5], [[0.1], [0.2]]),
    (0.5, 0.1),
], ids=["2-d-both", "2-d-times", "2-d-marks", "0-d"])
def test_jump_train_refuses_arrays_that_are_not_1d(times, marks):
    with pytest.raises(ParameterError, match="1-d"):
        JumpTrain(np.array(times), np.array(marks), 1.0, 1.0)


def test_seed_determinism_bytes():
    g = GridSpec(1.0, 32)
    for make in (lambda s: gen_wiener(g, s.child(0)),
                 lambda s: gen_fbm(g, 0.8, s.child(1))):
        a, b = io.StringIO(), io.StringIO()
        make(Seed(99)).to_csv(a)
        make(Seed(99)).to_csv(b)
        assert a.getvalue() == b.getvalue()
    t1 = gen_jump_train(2.0, TwoPointMarks(), 1.0, Seed(99).child(2))
    t2 = gen_jump_train(2.0, TwoPointMarks(), 1.0, Seed(99).child(2))
    assert np.array_equal(t1.times, t2.times) and np.array_equal(t1.marks, t2.marks)


def test_seed_refuses_words_that_are_not_nonnegative_integers():
    for bad in (-1, 1.5, float("nan"), "3", None, True):
        with pytest.raises(ParameterError, match="seed root must be a nonnegative integer"):
            Seed(bad)
    for bad in (-2, 1.5):
        with pytest.raises(ParameterError,
                           match="seed stream index must be a nonnegative integer"):
            Seed(0).child(bad)
    # numpy integers name the same streams as Python integers
    child = Seed(np.int64(3)).child(np.uint32(4))
    assert child == Seed(3).child(4) and type(child.stream[0]) is int
    assert np.array_equal(Seed(np.uint32(3)).child(np.int64(4)).generator().random(3),
                          Seed(3).child(4).generator().random(3))


def test_stack_refuses_a_negative_stream_entry_built_by_hand():
    for bad in ((-1,), (2, 1.5), (np.float64(1.0),), (1, "2"), [1], None):
        with pytest.raises(ParameterError, match="seed stream"):
            Seed(1, bad)
    # numpy integers name the same streams as Python integers
    seed = Seed(1, (np.int64(2), np.uint32(3)))
    assert np.array_equal(seed.generator().random(3),
                          Seed(1).child(2).child(3).generator().random(3))
    # a stream forged past the constructor: a bulk-hashed stack of
    # _BULK_MIN or more seeds must not wrap -1 to 2**32 - 1
    forged = Seed(1)
    object.__setattr__(forged, "stream", (-1,))
    seeds = [Seed(1).child(k) for k in range(noise._BULK_MIN - 1)] + [forged]
    with pytest.raises(ValueError):
        noise.gen_fbm_stack(GridSpec(1.0, 8), 0.75, seeds)


def test_fbm_starts_at_zero():
    g = GridSpec(1.0, 16)
    for h in (0.55, 0.75, 0.9):
        for s in range(5):
            assert gen_fbm(g, h, Seed(s).child(1)).values[0] == 0.0


def test_fbm_half_is_brownian_increments():
    # H = 1/2: adjacent increments independent, variance dt
    g = GridSpec(1.0, 2)
    m = 10_000
    d = np.empty((m, 2))
    for r in range(m):
        d[r] = np.diff(gen_fbm(g, 0.5, Seed(1).child(3 + r).child(1)).values)
    corr = np.corrcoef(d[:, 0], d[:, 1])[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(m)
    assert abs(d.var() / g.dt - 1.0) < 4.0 * np.sqrt(2.0 / (2 * m))


def test_fbm_cov_at_one_and_two():
    # Cov(B_1, B_2) = (1 + 2^(2H) - 1)/2 = sqrt(2) at H = 0.75
    g = GridSpec(2.0, 2)
    m = 100_000
    # one stack, each row drawn as gen_fbm draws it alone
    vals = noise.gen_fbm_stack(g, 0.75, [Seed(2).child(3 + r).child(1)
                                         for r in range(m)])[:, 1:]
    c11, c22 = 1.0, 2.0 ** 1.5
    c12 = 0.5 * (1.0 + c22 - 1.0)
    emp = float(np.mean(vals[:, 0] * vals[:, 1]))
    se = np.sqrt((c12 ** 2 + c11 * c22) / m)
    assert abs(emp - np.sqrt(2.0)) < 4.0 * se


def test_fbm_half_matches_wiener_in_law():
    g = GridSpec(1.0, 16)
    m = 10_000
    a = noise.gen_fbm_stack(g, 0.5, [Seed(1).child(3 + r).child(1) for r in range(m)])[:, -1]
    b = noise._wiener_stack(g, [Seed(2).child(3 + r).child(0) for r in range(m)])[:, -1]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_fbm_parameter_errors_and_methods():
    g = GridSpec(1.0, 8)
    with pytest.raises(ParameterError):
        gen_fbm(g, 0.0, Seed(0))
    with pytest.raises(ParameterError):
        gen_fbm(g, 1.0, Seed(0))


FGN_SWEEP_STEPS = (1, 2, 3, 16, 256, 2048, 16384, 65536)
FGN_SWEEP_HURST = (0.01, 0.3, 0.5, 0.75, 0.99, 0.9999, 0.999999)


@pytest.mark.parametrize("n", FGN_SWEEP_STEPS)
def test_fgn_circulant_spectrum_is_nonnegative_up_to_rounding(n):
    # the circulant embedding of fGn is nonnegative definite for every H;
    # what rounding of the autocovariance leaves below 0 is tiny, and
    # nothing on grids of up to 4096 steps
    k = np.arange(n + 1, dtype=float)
    for hurst in FGN_SWEEP_HURST:
        gamma = 0.5 * ((k + 1.0) ** (2 * hurst) - 2.0 * k ** (2 * hurst)
                       + np.abs(k - 1.0) ** (2 * hurst))
        eigs = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
        ratio = eigs.min() / eigs.max()
        assert ratio >= (0.0 if n <= 4096 else -1e-8), (n, hurst, ratio)


def test_long_fbm_near_hurst_one_stays_on_the_circulant_path():
    # a dense n x n factor at this n would take 2 GiB
    grid, seed = GridSpec(1.0, 16384), Seed(8).child(1)
    noise._fgn_amplitudes.cache_clear()
    tracemalloc.start()
    try:
        path = gen_fbm(grid, 0.999999, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(path.values).all()
    assert peak < 64 * 2**20, peak
    stack = noise.gen_fbm_stack(grid, 0.999999, [Seed(3).child(1), seed])
    assert path.values.tobytes() == stack[1].tobytes()


def test_wiener_law():
    g = GridSpec(2.0, 4)
    m = 100_000
    # one stack, each row drawn as gen_wiener draws it alone
    w = noise._wiener_stack(g, [Seed(4).child(3 + r).child(0) for r in range(m)])
    assert (w[:, 0] == 0.0).all()
    vals = w[:, [1, -1]]  # W_0.5 and W_2
    var = float(np.mean(vals[:, 1] ** 2))
    assert abs(var - 2.0) < 4.0 * 2.0 * np.sqrt(2.0 / m)
    cov = float(np.mean(vals[:, 0] * vals[:, 1]))
    se = np.sqrt((0.5 ** 2 + 0.5 * 2.0) / m)
    assert abs(cov - 0.5) < 4.0 * se


def test_jump_train_law():
    assert gen_jump_train(0.0, TwoPointMarks(), 1.0, Seed(0).child(2)).count == 0
    m = 100_000
    # one stack of trains, each drawn as gen_jump_train draws it alone
    trains = noise._draw_trains(3.0, TwoPointMarks(), 2.0,
                                [Seed(6).child(3 + r).child(2) for r in range(m)])
    counts = np.array([train.count for train in trains])
    assert abs(counts.mean() - 6.0) < 4.0 * np.sqrt(6.0 / m)
    with pytest.raises(ParameterError):
        gen_jump_train(-1.0, TwoPointMarks(), 1.0, Seed(0))
    with pytest.raises(ParameterError):
        gen_jump_train(float("inf"), TwoPointMarks(), 1.0, Seed(0))
    # past the largest Poisson mean numpy draws from
    for rate, horizon in ((1e19, 1.0), (1e30, 1.0), (1e10, 1e9)):
        with pytest.raises(ParameterError, match="rate \\* horizon"):
            gen_jump_train(rate, TwoPointMarks(), horizon, Seed(0))
    # at the largest mean numpy draws a count, but cannot hold that many jumps
    with pytest.raises(ParameterError, match="more than memory holds"):
        gen_jump_train(noise.MAX_JUMP_MEAN, TwoPointMarks(), 1.0, Seed(0))


def test_interarrival_law():
    train = gen_jump_train(100.0, TwoPointMarks(), 100.0, Seed(8).child(2))
    gaps = np.diff(np.concatenate([[0.0], train.times]))
    assert len(gaps) > 9000
    assert stats.kstest(gaps, "expon", args=(0, 1 / 100.0)).pvalue > 0.01


def test_driving_triple_independence():
    g = GridSpec(1.0, 2)
    m = 10_000
    dw = np.empty((m, 2))
    dz = np.empty((m, 2))
    for r in range(m):
        w, z, _ = gen_driving_triple(g, 0.75, 0.0, TwoPointMarks(),
                                     Seed(10).child(3 + r))
        dw[r] = np.diff(w.values)
        dz[r] = np.diff(z.values)
    corr = np.corrcoef(dw.ravel(), dz.ravel())[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(dw.size)


def test_driving_triple_contract():
    g = GridSpec(1.0, 16)
    w1, z1, t1 = gen_driving_triple(g, 0.75, 2.0, TwoPointMarks(), Seed(12))
    w2, z2, t2 = gen_driving_triple(g, 0.75, 2.0, TwoPointMarks(), Seed(12))
    assert np.array_equal(w1.values, w2.values)
    assert np.array_equal(z1.values, z2.values)
    assert np.array_equal(t1.times, t2.times)
    _, _, empty = gen_driving_triple(g, 0.75, 0.0, TwoPointMarks(), Seed(12))
    assert empty.count == 0
    # the drivers are independent: no other dependence model is offered
    for dependence in ("entangled", "coupled"):
        with pytest.raises(ParameterError, match="dependence"):
            gen_driving_triple(g, 0.75, 0.0, TwoPointMarks(), Seed(0),
                               dependence=dependence)


def test_mark_laws():
    tp = TwoPointMarks(low=-0.5, high=1.0, p_low=0.25)
    assert tp.expect(lambda y: y) == pytest.approx(0.25 * -0.5 + 0.75 * 1.0)
    gm = GaussianMarks(mean=0.3, std=0.5)
    assert gm.expect(lambda y: y ** 2) == pytest.approx(0.5 ** 2 + 0.3 ** 2, rel=1e-6)
    um = UniformMarks(-1.0, 3.0)
    assert um.expect(lambda y: y) == pytest.approx(1.0, rel=1e-8)
    assert isinstance(build_mark_law("two_point", low=-1.0, high=1.0), TwoPointMarks)
    with pytest.raises(ParameterError):
        build_mark_law("cauchy")
    with pytest.raises(ParameterError):
        build_mark_law("two_point", widthh=1.0)
    with pytest.raises(ParameterError):
        UniformMarks(2.0, -2.0)
    # numpy's sampler refuses a width that overflows; the law refuses it first
    with pytest.raises(ParameterError, match="finite high - low"):
        UniformMarks(-1e308, 1e308)
    assert np.all(np.abs(UniformMarks(-1e307, 1e307).sample(np.random.default_rng(0), 8)) <= 1e307)


@pytest.mark.parametrize("make", [
    lambda: GaussianMarks(std=_NAN),
    lambda: GaussianMarks(mean=_NAN),
    lambda: GaussianMarks(std=_INF),
    lambda: TwoPointMarks(low=_INF),
    lambda: TwoPointMarks(high=_NAN),
    lambda: UniformMarks(low=-_INF),
    lambda: UniformMarks(high=_INF),
    lambda: gen_jump_train(1.0, TwoPointMarks(), _NAN, Seed(0)),
    lambda: gen_jump_train(1.0, TwoPointMarks(), _INF, Seed(0)),
], ids=["gaussian-std-nan", "gaussian-mean-nan", "gaussian-std-inf", "two-point-low-inf",
        "two-point-high-nan", "uniform-low-inf", "uniform-high-inf", "train-horizon-nan",
        "train-horizon-inf"])
def test_mark_laws_and_jump_trains_refuse_non_finite_constants(make):
    with pytest.raises(ParameterError, match="finite"):
        make()
