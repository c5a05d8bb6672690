"""Verification suites: moment tables, tail slopes, the pathwise growth
bound, kernel quadrature, interval scaling, and the jump product moment."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mfsde import analysis
from mfsde.analysis import (
    Thresholds,
    _minimal_k,
    estimate_moments,
    simulate_ensemble,
    tail_diagnostic,
    verify_jump_product_moment,
    verify_kernel_estimates,
    verify_pathwise_lemma,
    verify_self_similarity,
)
from mfsde.errors import BlowUpError, ParameterError, RunFailure
from mfsde.models import build_model
from mfsde.noise import FracParams, GridFunction, GridSpec, Seed, TwoPointMarks, gen_fbm
from mfsde.norms import capital_lambda, norm_0_interval, norm_inf
from mfsde.solver import (
    CoefficientSet,
    ito_integral_path,
    pathwise_bound_rhs,
    solve_with_jumps,
)

FRAC = FracParams(0.75, alpha=0.3)

# counts that are not integers, whatever their size; a bool is no count
BAD_COUNTS = (2.5, 64.0, "64", None, math.nan, True)


def _cubic_coeffs():
    # cubic drift with unit rough loading: a tunable fraction of replicas
    # leaves the trust region, which exercises the exclusion accounting
    return CoefficientSet(
        name="cubic", a=lambda t, x: 4.0 * x ** 3, b=lambda t, x: 0.0 * x,
        c=lambda t, x: 0.0 * x + 1.0, dc_dx=lambda t, x: 0.0 * x,
        q=lambda t, x, y: 0.0, growth=float("inf"), lipschitz=float("inf"),
        time_holder=0.0, beta=0.8, b_bound=0.0,
        jump_gain=lambda y: np.abs(y) * 0.0)


def test_simulate_ensemble_validation():
    grid = GridSpec(1.0, 16)
    with pytest.raises(ParameterError):
        simulate_ensemble(build_model("zero"), 1.0, grid, FRAC, Seed(0), 0)
    for bad in BAD_COUNTS:
        with pytest.raises(ParameterError, match="replicas must be an integer"):
            simulate_ensemble(build_model("zero"), 1.0, grid, FRAC, Seed(0), bad)
    assert simulate_ensemble(build_model("zero"), 1.0, grid, FRAC, Seed(0),
                             np.int64(4)).size == 4
    with pytest.raises(ParameterError, match="mark law"):
        simulate_ensemble(build_model("zero"), 1.0, grid, FRAC, Seed(0), 4,
                          rate=2.0)


def test_ensemble_regeneration_is_bit_identical():
    args = (build_model("linear"), 1.0, GridSpec(1.0, 64), FRAC, Seed(31), 5)
    kw = dict(rate=2.0, marks=TwoPointMarks())
    e1 = simulate_ensemble(*args, **kw)
    e2 = simulate_ensemble(*args, **kw)
    assert e1.replica_ids == e2.replica_ids
    for p1, p2 in zip(e1.paths, e2.paths):
        np.testing.assert_array_equal(p1.values, p2.values)

    # drivers(r) regenerates exactly what produced the stored path
    rid = e1.replica_ids[2]
    w, z, train = e1.drivers(rid)
    redo = solve_with_jumps(e1.coeffs, e1.x0, w, z, train)
    np.testing.assert_array_equal(redo.values, e1.paths[2].values)


def test_drivers_refuse_replicas_outside_the_ensemble():
    # replica -1 would key the root's own jump stream, and replica
    # `requested` one the ensemble never drew
    ens = simulate_ensemble(build_model("linear"), 1.0, GridSpec(1.0, 8), FRAC, Seed(4), 3,
                            rate=2.0, marks=TwoPointMarks())
    for bad in (-1, -2, -3, ens.requested, ens.requested + 5, 1.5, "1", None):
        with pytest.raises(ParameterError):
            ens.drivers(bad)
    assert ens.drivers(np.int64(ens.requested - 1))[1].values.tobytes() \
        == ens.drivers(ens.requested - 1)[1].values.tobytes()


def _cubic_jump_coeffs():
    # the cubic with a steep jump map, so replicas blow up both inside a
    # segment and at a jump
    return dataclasses.replace(_cubic_coeffs(), name="cubic-jumps",
                               q=lambda t, x, y: 1e4 * y * x ** 8)


EQUIVALENCE_MODELS = {
    "trigonometric": (lambda: build_model("trigonometric"), 1.0),
    "linear": (lambda: build_model("linear"), 1.0),
    "cubic-jumps": (_cubic_jump_coeffs, 0.3),
}


@settings(max_examples=20, deadline=None)
@given(model=st.sampled_from(sorted(EQUIVALENCE_MODELS)),
       root=st.integers(0, 2**31 - 1),
       rate=st.sampled_from([0.0, 0.5, 3.0, 12.0]),
       replicas=st.integers(1, 300),
       steps=st.sampled_from([8, 16, 33]))
def test_batched_ensemble_equals_width_one_solves(model, root, rate, replicas, steps):
    build, x0 = EQUIVALENCE_MODELS[model]
    ens = simulate_ensemble(build(), x0, GridSpec(1.0, steps), FRAC, Seed(root),
                            replicas, rate=rate, marks=TwoPointMarks())
    kept, excluded = {}, []
    for r in range(replicas):
        try:
            kept[r] = solve_with_jumps(ens.coeffs, x0, *ens.drivers(r))
        except BlowUpError as err:
            excluded.append((r, str(err)))
    assert list(ens.excluded) == excluded
    assert ens.replica_ids == tuple(kept)
    for r, path in zip(ens.replica_ids, ens.paths):
        single = kept[r]
        np.testing.assert_array_equal(path.values, single.values)
        np.testing.assert_array_equal(path.times, single.times)
        np.testing.assert_array_equal(path.left_flags, single.left_flags)
        assert len(path.segments) == len(single.segments)


def test_moments_of_a_constant_ensemble_are_exact():
    ens = simulate_ensemble(build_model("zero"), 2.0, GridSpec(1.0, 16),
                            FRAC, Seed(42), 100)
    table = estimate_moments(ens, [1.0, 2.0, 3.0])
    for row in table.rows:
        assert row.value == pytest.approx(2.0 ** row.power, rel=1e-14)
        assert row.std_error == 0.0
        assert row.stable
    assert table.passed and table.exclusion_rate == 0.0
    assert table.lines()[-1] == "result: PASS"
    assert len(table.csv_rows()) == 3

    with pytest.raises(ParameterError):
        estimate_moments(ens, [0.0])
    with pytest.raises(ParameterError, match="must not be empty"):
        estimate_moments(ens, [])
    small = simulate_ensemble(build_model("zero"), 1.0, GridSpec(1.0, 8),
                              FRAC, Seed(43), 50)
    with pytest.raises(ParameterError, match="100"):
        estimate_moments(small, [1.0])


def test_moments_stable_on_jumpy_model_and_power_mean_monotone():
    ens = simulate_ensemble(build_model("linear"), 1.0, GridSpec(1.0, 64),
                            FRAC, Seed(13), 1000, rate=2.0,
                            marks=TwoPointMarks())
    table = estimate_moments(ens, [1.0, 2.0, 4.0, 8.0])
    assert table.passed
    pmeans = [row.value ** (1.0 / row.power) for row in table.rows]
    assert all(b >= a for a, b in zip(pmeans, pmeans[1:]))


def test_moments_flag_excluded_replicas():
    ens = simulate_ensemble(_cubic_coeffs(), 0.25, GridSpec(1.0, 32),
                            FRAC, Seed(19), 250)
    assert ens.size >= 100 and len(ens.excluded) > 0
    assert ens.requested == 250
    table = estimate_moments(ens, [1.0, 2.0])
    assert not table.passed
    assert any("WARNING" in line for line in table.lines())
    assert table.lines()[-1] == "result: FAIL"


def test_tail_degenerate_and_light_tailed():
    const = simulate_ensemble(build_model("zero"), 2.0, GridSpec(1.0, 8),
                              FRAC, Seed(50), 1000)
    rep = tail_diagnostic(const, 8.0)
    assert rep.slope == math.inf and rep.passed
    assert rep.tail_count == 100
    for bad in (-math.inf, math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ParameterError, match="p_max must be positive and finite"):
            tail_diagnostic(const, bad)

    ens = simulate_ensemble(build_model("additive"), 1.0, GridSpec(1.0, 32),
                            FRAC, Seed(23), 1000)
    rep = tail_diagnostic(ens, 4.0)
    assert rep.passed and rep.slope > 5.0
    assert len(rep.csv_rows()) == rep.tail_count

    small = simulate_ensemble(build_model("zero"), 1.0, GridSpec(1.0, 8),
                              FRAC, Seed(51), 100)
    with pytest.raises(ParameterError, match="1000"):
        tail_diagnostic(small, 4.0)


def test_tail_of_a_blown_up_ensemble_is_a_run_failure():
    # 1005 requested, 995 blown up: a valid request whose solves failed
    kept = simulate_ensemble(build_model("zero"), 1.0, GridSpec(1.0, 8),
                             FRAC, Seed(52), 10)
    ens = dataclasses.replace(kept, excluded=tuple(
        (r, "blow-up") for r in range(10, 1005)))
    assert ens.size == 10 and ens.requested == 1005
    with pytest.raises(RunFailure, match="995 of 1005 replicas blew up"):
        tail_diagnostic(ens, 4.0)


def test_lemma_on_constant_paths():
    # constant solution: lhs is exactly x0 and the Wiener integral vanishes,
    # so each per-path minimal constant comes straight from the W0 branch;
    # the second model's b and q return Python scalars
    zero = build_model("zero")
    scalars = dataclasses.replace(zero, b=lambda t, x: 0.0, q=lambda t, x, y: 0.0)
    for coeffs in (zero, scalars):
        ens = simulate_ensemble(coeffs, 1.0, GridSpec(0.5, 64),
                                FracParams(0.9, alpha=0.15), Seed(17), 40)
        rep = verify_pathwise_lemma(ens)
        assert all(v == 1.0 for v in rep.lhs)
        assert all(v == 0.0 for v in rep.ito_norm)
        assert rep.train_size == 20
        assert rep.fitted_k == max(rep.k_min[:rep.train_size])
        np.testing.assert_array_equal(
            np.array(rep.k_envelope),
            np.maximum.accumulate(np.array(rep.k_min[:rep.train_size])))
        assert all(b >= a for a, b in zip(rep.k_envelope, rep.k_envelope[1:]))
        assert rep.passed and rep.holdout_rate >= 0.9
        assert len(rep.csv_rows()) == 40


def test_minimal_constant_at_the_roughness_floor():
    # with unit driver norm and no Wiener part the smallest workable
    # constant solves K*e^K = 1, i.e. the principal Lambert W at 1;
    # 1/e falls short of it
    k_star = float(special.lambertw(1.0).real)
    assert pathwise_bound_rhs(1.0, 0.0, 0.3, k_star) == pytest.approx(1.0, rel=1e-12)
    assert pathwise_bound_rhs(1.0, 0.0, 0.3, 1.0 / math.e) < 1.0


def test_lemma_validation():
    jumpy = simulate_ensemble(build_model("linear"), 1.0, GridSpec(1.0, 16),
                              FRAC, Seed(52), 4, rate=3.0, marks=TwoPointMarks())
    with pytest.raises(ParameterError, match="jump-free"):
        verify_pathwise_lemma(jumpy)
    tiny = simulate_ensemble(build_model("zero"), 1.0, GridSpec(1.0, 8),
                             FRAC, Seed(53), 3)
    with pytest.raises(ParameterError, match="4 paths"):
        verify_pathwise_lemma(tiny)


def _reference_lemma_rows(ens):
    # the suite's per-path loop as it stood before the norms were stacked
    alpha = ens.frac.alpha
    horizon = ens.grid.horizon
    times = ens.grid.times
    lhs, lam, jb, kmin = [], [], [], []
    for rid, path in zip(ens.replica_ids, ens.paths):
        wiener, fbm, _ = ens.drivers(rid)
        x = GridFunction(0.0, horizon, path.values)
        lhs_i = norm_inf(x, horizon, alpha)
        lam_i = capital_lambda(fbm, horizon, alpha)
        b_vals = np.broadcast_to(ens.coeffs.b(times, path.values), times.shape)
        jb_i = norm_inf(ito_integral_path(b_vals, wiener), horizon, alpha)
        lhs.append(lhs_i)
        lam.append(lam_i)
        jb.append(jb_i)
        kmin.append(_minimal_k(lhs_i, lam_i ** (1.0 / (1.0 - alpha)), jb_i))
    k_fit = float(np.max(kmin[:round(ens.size / 2)]))
    satisfied = [lhs_i <= (pathwise_bound_rhs(lam_i, jb_i, alpha, k_fit) if k_fit > 0.0
                           else 0.0) * (1.0 + 1e-9)
                 for lhs_i, lam_i, jb_i in zip(lhs, lam, jb)]
    return tuple(lhs), tuple(lam), tuple(jb), tuple(kmin), tuple(satisfied)


@pytest.mark.parametrize("model, steps, replicas, alpha", [
    ("linear", 64, 40, 0.3),
    ("trigonometric", 33, 23, 0.27),
    ("mixed_geometric", 128, 12, 0.3),
    ("additive", 8, 9, 0.45),
])
def test_lemma_equals_the_per_path_loop(model, steps, replicas, alpha):
    ens = simulate_ensemble(build_model(model), 1.0, GridSpec(1.5, steps),
                            FracParams(0.75, alpha=alpha), Seed(11), replicas)
    rep = verify_pathwise_lemma(ens)
    got = (rep.lhs, rep.lam, rep.ito_norm, rep.k_min, rep.satisfied)
    assert repr(got) == repr(_reference_lemma_rows(ens))


def _reference_selfsim_samples(hurst, alpha, interval_list, replicas, seed, steps,
                               kappa_scale):
    # the suite's per-path loop as it stood before the norms were stacked
    kappa = kappa_scale * (alpha + hurst - 1.0) / (1.0 - alpha)
    expo = 1.0 / (1.0 - alpha)
    out = []
    for k, (a, b) in enumerate(interval_list):
        cells = int(round((b - a) * steps))
        scale = (b - a) ** (-kappa)
        sample = np.empty(replicas)
        reference = np.empty(replicas)
        for r in range(replicas):
            bh = gen_fbm(GridSpec(1.0, steps), hurst, seed.child(2 * k).child(r))
            sample[r] = scale * norm_0_interval(bh, a, b, alpha) ** expo
            ref = gen_fbm(GridSpec(1.0, cells), hurst, seed.child(2 * k + 1).child(r))
            reference[r] = norm_0_interval(ref, 0.0, 1.0, alpha) ** expo
        out.append((sample, reference))
    return out


@pytest.mark.parametrize("intervals, replicas, steps, kappa_scale", [
    (((0.0, 0.25), (0.5, 1.0)), 40, 64, 1.0),
    (((0.25, 0.75),), 25, 32, 2.0),
    (((0.0, 1.0), (0.5, 0.75)), 12, 32, 0.5),
])
def test_self_similarity_equals_the_per_path_loop(monkeypatch, intervals, replicas,
                                                  steps, kappa_scale):
    # the KS p-values only see ranks, so the two samples the suite hands to
    # the KS test are captured and compared bit for bit as well
    seen = []
    ks_pvalue = analysis._ks_pvalue

    def capture(sample, reference):
        seen.append((sample.copy(), reference.copy()))
        return ks_pvalue(sample, reference)

    monkeypatch.setattr(analysis, "_ks_pvalue", capture)
    rep = verify_self_similarity(0.75, 0.3, intervals, replicas, Seed(5), steps=steps,
                                 kappa_scale=kappa_scale)
    expected = _reference_selfsim_samples(0.75, 0.3, intervals, replicas, Seed(5), steps,
                                          kappa_scale)
    assert len(seen) == len(expected) == len(rep.rows)
    for (sample, reference), (ref_sample, ref_reference), row in zip(seen, expected,
                                                                     rep.rows):
        assert sample.tobytes() == ref_sample.tobytes()
        assert reference.tobytes() == ref_reference.tobytes()
        assert row[3] == float(stats.ks_2samp(ref_sample, ref_reference).pvalue)


def _ks_pairs():
    """(label, sample, reference) pairs across the exact path's inputs and
    every way out of it."""
    rng = np.random.default_rng(17)
    for n in [*range(1, 201), 997, 1000, 2500, 5000, 10000]:
        a = rng.standard_normal(n)
        yield "exact", a, rng.normal(rng.uniform(0.0, 1.0), 1.0, n)
        if n <= 200:
            # ties within and across the samples
            yield "exact", np.round(a, 1), np.round(rng.standard_normal(n), 1)
            yield "exact", a, a[::-1].copy()                  # h = 0
    for n, h in ((1000, 1), (1000, 2), (5000, 2)):
        # h points apart: D = h/n, whose exact probability exceeds 1 here
        a = rng.standard_normal(n)
        b = a.copy()
        b[np.argsort(a)[-h:]] += 10.0
        yield "fallback", a, b
    yield "fallback", rng.standard_normal(50), rng.standard_normal(60)
    yield "fallback", rng.standard_normal(10001), rng.standard_normal(10001)
    nan = rng.standard_normal(40)
    nan[7] = math.nan
    yield "fallback", nan, rng.standard_normal(40)
    yield "fallback", rng.standard_normal(40), np.append(rng.standard_normal(39), math.inf)


def test_ks_pvalue_equals_scipy_bit_for_bit(monkeypatch):
    calls = []
    ks_2samp = stats.ks_2samp

    def counted(sample, reference):
        calls.append(len(sample))
        return ks_2samp(sample, reference)

    monkeypatch.setattr(stats, "ks_2samp", counted)
    with warnings.catch_warnings():
        # scipy warns when it leaves its exact path
        warnings.simplefilter("ignore", RuntimeWarning)
        for label, sample, reference in _ks_pairs():
            calls.clear()
            got = analysis._ks_pvalue(sample, reference)
            assert calls == ([] if label == "exact" else [len(sample)]), (label, len(sample))
            assert type(got) is float
            want = float(ks_2samp(sample, reference).pvalue)
            assert got.hex() == want.hex(), (label, len(sample), len(reference))


def test_kernel_estimates_pass_and_agree_at_large_rates():
    rep = verify_kernel_estimates(0.25, [1.0, 10.0, 100.0, 1000.0])
    assert rep.passed
    assert len(rep.weighted_rows) == 4
    for _, ratio, _ in rep.weighted_rows:
        assert ratio <= 1.0 + 1e-3
    assert rep.beta_ratio <= 1.0 + 1e-3
    # the weighted bound saturates in the rate: the two largest rates give
    # sup ratios within a percent of each other
    r100 = rep.weighted_rows[2][1]
    r1000 = rep.weighted_rows[3][1]
    assert abs(r100 - r1000) / r1000 < 1e-2
    assert len(rep.csv_rows()) == 5
    assert rep.lines()[-1] == "result: PASS"

    assert verify_kernel_estimates(0.05, [1.0, 10.0]).passed


def test_kernel_single_point_inequality():
    # one hand check of the convolution bound away from the code path:
    # int_0^u v^(-a) (t-v)^(-1-a) dv <= B(1-a, 2a) (t-u)^(-2a)
    from scipy import integrate
    alpha, u, t = 0.25, 0.5, 1.0
    val, _ = integrate.quad(lambda v: (t - v) ** (-1.0 - alpha), 0.0, u,
                            weight="alg", wvar=(-alpha, 0.0))
    bound = special.beta(1.0 - alpha, 2.0 * alpha) * (t - u) ** (-2.0 * alpha)
    assert val <= bound


def test_kernel_validation():
    with pytest.raises(ParameterError):
        verify_kernel_estimates(0.6, [1.0])
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="positive and finite"):
            verify_kernel_estimates(0.25, [bad])
    # an empty list would pass the suite vacuously
    with pytest.raises(ParameterError, match="at least one lambda"):
        verify_kernel_estimates(0.25, [])


def test_self_similarity_unit_interval_and_subintervals():
    rep = verify_self_similarity(0.75, 0.3, [(0.0, 1.0)], 50, Seed(3), steps=64)
    assert rep.passed
    assert rep.kappa < 1.0
    assert any("below 1" in line for line in rep.lines())

    rep = verify_self_similarity(0.75, 0.3, [(0.0, 0.25), (0.5, 1.0)], 200,
                                 Seed(5), steps=256)
    assert rep.passed
    for a, b, cells, pval in rep.rows:
        assert cells == int(round((b - a) * 256))
        assert pval > 0.01


def test_self_similarity_control_detects_wrong_exponent():
    rep = verify_self_similarity(0.75, 0.3, [(0.0, 0.25), (0.5, 1.0)], 200,
                                 Seed(5), steps=256, kappa_scale=2.0)
    assert not rep.passed
    assert rep.kappa_scale == 2.0
    assert any("control" in line for line in rep.lines())


def test_self_similarity_validation():
    with pytest.raises(ParameterError):
        verify_self_similarity(0.4, 0.3, [(0.0, 1.0)], 50, Seed(0))
    with pytest.raises(ParameterError):
        verify_self_similarity(0.75, 0.1, [(0.0, 1.0)], 50, Seed(0))
    with pytest.raises(ParameterError, match="align"):
        verify_self_similarity(0.75, 0.3, [(0.0, 0.3)], 50, Seed(0), steps=64)
    with pytest.raises(ParameterError):
        verify_self_similarity(0.75, 0.3, [(0.0, 1.0)], 5, Seed(0))
    for bad in BAD_COUNTS:
        with pytest.raises(ParameterError, match="replicas must be an integer"):
            verify_self_similarity(0.75, 0.3, [(0.0, 1.0)], bad, Seed(0))
    with pytest.raises(ParameterError, match="at least one interval"):
        verify_self_similarity(0.75, 0.3, [], 50, Seed(0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="kappa_scale must be finite"):
            verify_self_similarity(0.75, 0.3, [(0.0, 1.0)], 50, Seed(0),
                                   kappa_scale=bad)
    # a finite kappa_scale whose scale 0.5^(-kappa_scale * kappa) overflows
    with pytest.raises(ParameterError, match="kappa_scale = 1e\\+308 is too large"):
        verify_self_similarity(0.75, 0.3, [(0.5, 1.0)], 50, Seed(0), kappa_scale=1e308)


def test_jump_product_trivial_cases():
    ones = lambda y: np.ones_like(np.asarray(y, dtype=float))
    rep = verify_jump_product_moment(2.0, TwoPointMarks(), ones, 0.25, 1.0,
                                     64, Seed(60))
    assert rep.exact == 1.0 and rep.empirical == 1.0
    assert rep.z_score == 0.0 and rep.passed

    rep = verify_jump_product_moment(0.0, TwoPointMarks(), np.abs, 0.25, 1.0,
                                     64, Seed(61))
    assert rep.exact == 1.0 and rep.empirical == 1.0 and rep.passed


def test_jump_product_two_point_closed_form():
    gain = lambda y: 1.0 + np.abs(y)
    rep = verify_jump_product_moment(2.0, TwoPointMarks(low=-0.5, high=1.0),
                                     gain, 0.25, 1.0, 2000, Seed(6))
    assert rep.exact == math.exp(1.5)
    assert rep.power == 1.0
    assert rep.passed and rep.z_score <= 4.0

    with pytest.raises(ParameterError):
        verify_jump_product_moment(-1.0, TwoPointMarks(), gain, 0.25, 1.0,
                                   64, Seed(0))
    with pytest.raises(ParameterError):
        verify_jump_product_moment(1.0, TwoPointMarks(), gain, 0.25, 1.0,
                                   8, Seed(0))
    for bad in BAD_COUNTS:
        with pytest.raises(ParameterError, match="replicas must be an integer"):
            verify_jump_product_moment(1.0, TwoPointMarks(), gain, 0.25, 1.0,
                                       bad, Seed(0))
    assert verify_jump_product_moment(1.0, TwoPointMarks(), gain, 0.25, 1.0,
                                      np.int32(16), Seed(0)).sample_size == 16
    for p in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="p must be finite"):
            verify_jump_product_moment(1.0, TwoPointMarks(), gain, p, 1.0,
                                       64, Seed(0))


def test_jump_product_refuses_an_overflowing_closed_form_before_any_draw(monkeypatch):
    # the closed form does not depend on the draws, so it is computed first
    def no_draw(*args):
        raise AssertionError("a jump train was drawn")

    monkeypatch.setattr(analysis, "gen_jump_train", no_draw)
    gain = lambda y: 1.0 + np.abs(y)
    # p = 300: E[2^1200] overflows; p = 2.5: E[2^10] is finite, exp(1023) is not
    for p in (300.0, 2.5):
        with pytest.raises(ParameterError, match=f"p = {p} is too large"):
            verify_jump_product_moment(1.0, TwoPointMarks(), gain, p, 1.0, 64, Seed(0))


def test_thresholds_are_explicit_conventions():
    t = Thresholds()
    assert t.se_multiplier == 4.0
    assert t.stability_se_multiplier == 3.0
    assert t.holdout_pass_fraction == 0.95
    assert t.ks_pvalue_min == 0.01
    assert t.ratio_slack == 1e-3
    for bad in ({"stability_se_multiplier": 0.0}, {"ratio_slack": -1e-3},
                {"holdout_pass_fraction": math.nan}, {"ks_pvalue_min": 1.5}):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            Thresholds(**bad)
