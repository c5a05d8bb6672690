"""Rules with one owner, checked against the copies they replaced.

The suite dispatch, the report CSV rows, the config echo of the
thresholds, the padded model coefficients and the two Riemann-Liouville
derivative bodies were each spelled out in several places, the commands
wrote each artifact as soon as it was made, the kernel sums made one
numpy FFT call per transform, and the pathwise integral's outer rule built
its weights on every call.  The references below are
those copies as they stood, so each owner is checked against code it
shares nothing with: whole output directories byte for byte, solver
states bit for bit (the sign of a zero included), assumption reports line
for line, and kernel sums, derivative values, outer-rule integrals and
pathwise integrals bit for bit.  The same-grid rule, once written under two tolerances, is
checked at every caller.
"""

import dataclasses
import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from mfsde import cli, models
from mfsde._kernels import (
    _kernel_spectra,
    _linear_weights,
    increment_kernel_sums,
    weighted_linear_integral,
)
from mfsde.analysis import (
    JUMPS_MIN_REPLICAS,
    LEMMA_MIN_REPLICAS,
    MOMENTS_MIN_REPLICAS,
    SELFSIM_MIN_REPLICAS,
    TAIL_MIN_REPLICAS,
    JumpMomentReport,
    KernelReport,
    LemmaReport,
    MomentTable,
    SelfSimReport,
    TailReport,
    estimate_moments,
    simulate_ensemble,
    tail_diagnostic,
    verify_jump_product_moment,
    verify_kernel_estimates,
    verify_pathwise_lemma,
    verify_self_similarity,
)
from mfsde.cli import ConvergenceReport, run_convergence
from mfsde.config import parse_config
from mfsde.errors import BlowUpError, GridMismatchError
from mfsde.fractional import (
    forward_sum_integral,
    gls_integral,
    rl_left_derivative,
    rl_right_derivative,
)
from mfsde.models import MODELS, build_model
from mfsde.noise import (
    GridFunction,
    GridSpec,
    JumpTrain,
    Seed,
    UniformMarks,
    gen_driving_stack,
    gen_driving_triple,
    gen_fbm,
)
from mfsde.norms import norm_0_interval_stack, norm_inf_stack
from mfsde.solver import check_assumptions, euler_paths, solve_with_jumps

FMT = "%.17g"


# ---------------------------------------------------------------------------
# the report rows, config echo and suite dispatch as they stood


def _ref_csv_rows(report) -> list:
    fmt = FMT
    if isinstance(report, MomentTable):
        return [",".join([fmt % row.power, fmt % row.value, fmt % row.std_error,
                          fmt % row.half_value, fmt % row.half_std_error,
                          "%d" % row.stable]) for row in report.rows]
    if isinstance(report, TailReport):
        return [",".join([fmt % v, fmt % s])
                for v, s in zip(report.tail_values, report.tail_survival)]
    if isinstance(report, LemmaReport):
        return [",".join(["%d" % rid, fmt % a, fmt % b, fmt % c, fmt % d, "%d" % s])
                for rid, a, b, c, d, s in zip(report.replica_ids, report.lhs, report.lam,
                                              report.ito_norm, report.k_min,
                                              report.satisfied)]
    if isinstance(report, KernelReport):
        rows = [",".join(["weighted", fmt % lam, fmt % s_at, fmt % ratio])
                for lam, ratio, s_at in report.weighted_rows]
        u, t = report.beta_argmax
        rows.append(",".join(["beta", fmt % u, fmt % t, fmt % report.beta_ratio]))
        return rows
    if isinstance(report, SelfSimReport):
        return [",".join([fmt % a, fmt % b, "%d" % cells, fmt % p])
                for a, b, cells, p in report.rows]
    if isinstance(report, JumpMomentReport):
        return [",".join([fmt % report.rate, fmt % report.power, fmt % report.horizon,
                          "%d" % report.sample_size, fmt % report.empirical,
                          fmt % report.std_error, fmt % report.exact,
                          fmt % report.z_score])]
    assert isinstance(report, ConvergenceReport)
    return [",".join(["%d" % n, fmt % e]) for n, e in zip(report.levels, report.mean_errors)]


def _ref_serialize_config(cfg) -> str:
    num = lambda x: FMT % float(x)
    lines = ["[model]", f"name = {cfg.model_name}", f"x0 = {num(cfg.x0)}"]
    for key in sorted(cfg.model_params):
        lines.append(f"{key} = {num(cfg.model_params[key])}")
    lines += ["", "[noise]", f"hurst = {num(cfg.frac.hurst)}",
              f"rate = {num(cfg.rate)}", f"marks = {cfg.marks.name}"]
    for field in dataclasses.fields(cfg.marks):
        lines.append(f"mark_{field.name} = {num(getattr(cfg.marks, field.name))}")
    lines += ["", "[grid]", f"horizon = {num(cfg.grid.horizon)}",
              f"steps = {cfg.grid.steps}"]
    lines += ["", "[frac]", f"alpha = {num(cfg.frac.alpha)}",
              f"beta = {num(cfg.frac.beta)}",
              f"lambda = {num(cfg.lam)}",
              f"eta = {'' if cfg.eta is None else num(cfg.eta)}"]
    th = cfg.thresholds
    lines += ["", "[mc]", f"replicas = {cfg.replicas}",
              "p_list = " + " ".join(num(p) for p in cfg.p_list),
              f"jump_power = {num(cfg.jump_power)}",
              f"se_multiplier = {num(th.se_multiplier)}",
              f"stability_se_multiplier = {num(th.stability_se_multiplier)}",
              f"holdout_pass_fraction = {num(th.holdout_pass_fraction)}",
              f"ks_pvalue_min = {num(th.ks_pvalue_min)}",
              f"ratio_slack = {num(th.ratio_slack)}"]
    lines += ["", "[seed]", f"root = {cfg.seed_root}"]
    return "\n".join(lines) + "\n"


def _ref_write_text(out, name, text, artifacts):
    (out / name).write_text(text, encoding="utf-8")
    artifacts.append(name)


def _ref_write_csv(out, name, report, artifacts):
    _ref_write_text(out, name, report.CSV_HEADER + "\n" + "\n".join(_ref_csv_rows(report))
                    + "\n", artifacts)


def _ref_write_manifest(out, command, artifacts):
    lines = ["mfsde run manifest", f"command: {command}", "artifacts:"]
    for name in sorted(artifacts):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        lines.append(f"{name} sha256={digest}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


_REF_SUITES = ("kernel", "lemma", "selfsim", "moments", "jumps")
_REF_SUITE_MIN_REPLICAS = {"lemma": LEMMA_MIN_REPLICAS, "selfsim": SELFSIM_MIN_REPLICAS,
                           "moments": MOMENTS_MIN_REPLICAS, "jumps": JUMPS_MIN_REPLICAS}


def _ref_run_kernel(cfg):
    return verify_kernel_estimates(cfg.frac.alpha, cli.KERNEL_LAMBDAS,
                                   thresholds=cfg.thresholds)


def _ref_run_lemma(cfg):
    ens = simulate_ensemble(cfg.build_coeffs(), cfg.x0, cfg.grid, cfg.frac,
                            cfg.seed(), cfg.replicas, rate=0.0)
    return verify_pathwise_lemma(ens, thresholds=cfg.thresholds)


def _ref_run_selfsim(cfg, kappa_scale):
    return verify_self_similarity(cfg.frac.hurst, cfg.frac.alpha, cli.SELFSIM_INTERVALS,
                                  cfg.replicas, cfg.seed(), steps=cfg.grid.steps,
                                  kappa_scale=kappa_scale, thresholds=cfg.thresholds)


def _ref_run_moments(cfg):
    ens = simulate_ensemble(cfg.build_coeffs(), cfg.x0, cfg.grid, cfg.frac,
                            cfg.seed(), cfg.replicas, rate=cfg.rate, marks=cfg.marks)
    table = estimate_moments(ens, cfg.p_list, cfg.thresholds)
    tail = None
    if ens.size >= TAIL_MIN_REPLICAS:
        tail = tail_diagnostic(ens, max(cfg.p_list))
    return table, tail


def _ref_run_jumps(cfg):
    coeffs = cfg.build_coeffs()
    gain = lambda y: 1.0 + np.asarray(coeffs.jump_gain(y), dtype=float)
    return verify_jump_product_moment(cfg.rate, cfg.marks, gain, cfg.jump_power,
                                      cfg.grid.horizon, cfg.replicas, cfg.seed(),
                                      thresholds=cfg.thresholds)


def _ref_cmd_verify(cfg, suite, kappa_scale, out):
    selected = _REF_SUITES if suite == "all" else (suite,)
    for name in selected:
        floor = _REF_SUITE_MIN_REPLICAS.get(name, 0)
        assert cfg.replicas >= floor
    artifacts = []
    _ref_write_text(out, "config.echo.ini", _ref_serialize_config(cfg), artifacts)
    all_passed = True
    for name in selected:
        if name == "kernel":
            report = _ref_run_kernel(cfg)
        elif name == "lemma":
            report = _ref_run_lemma(cfg)
        elif name == "selfsim":
            report = _ref_run_selfsim(cfg, kappa_scale)
        elif name == "jumps":
            report = _ref_run_jumps(cfg)
        else:
            table, tail = _ref_run_moments(cfg)
            summary = table.lines()
            if tail is None:
                summary.append(f"tail: skipped (needs >= {TAIL_MIN_REPLICAS} replicas)")
            else:
                summary += tail.lines()
                _ref_write_csv(out, "moments_tail.csv", tail, artifacts)
            _ref_write_text(out, "moments_summary.txt", "\n".join(summary) + "\n",
                            artifacts)
            _ref_write_csv(out, "moments_data.csv", table, artifacts)
            passed = table.passed and (tail is None or tail.passed)
            all_passed &= passed
            print(f"moments: {'PASS' if passed else 'FAIL'}")
            continue
        _ref_write_text(out, f"{name}_summary.txt", "\n".join(report.lines()) + "\n",
                        artifacts)
        _ref_write_csv(out, f"{name}_data.csv", report, artifacts)
        all_passed &= report.passed
        print(f"{name}: {'PASS' if report.passed else 'FAIL'}")
    _ref_write_manifest(out, f"verify {suite} --kappa-scale {FMT % kappa_scale}", artifacts)
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _ref_cmd_simulate(cfg, out):
    coeffs = cfg.build_coeffs()
    artifacts = []
    _ref_write_text(out, "config.echo.ini", _ref_serialize_config(cfg), artifacts)
    wiener, fbm, train = gen_driving_triple(cfg.grid, cfg.frac.hurst, cfg.rate,
                                            cfg.marks, cfg.seed())
    wiener.to_csv(str(out / "wiener.csv"))
    fbm.to_csv(str(out / "fbm.csv"))
    train.to_csv(str(out / "jumps.csv"))
    artifacts += ["wiener.csv", "fbm.csv", "jumps.csv"]
    status = 0
    try:
        sol = solve_with_jumps(coeffs, cfg.x0, wiener, fbm, train)
    except BlowUpError as err:
        print(f"simulate: solve failed: {err}", file=sys.stderr)
        status = 1
    else:
        sol.to_csv(str(out / "solution.csv"))
        artifacts.append("solution.csv")
        print(f"simulate: wrote solution with {sol.train.count} jumps to {out}")
    _ref_write_manifest(out, "simulate", artifacts)
    return status


def _ref_cmd_convergence(cfg, refinements, out):
    report = run_convergence(cfg, refinements)
    artifacts = []
    _ref_write_text(out, "config.echo.ini", _ref_serialize_config(cfg), artifacts)
    _ref_write_text(out, "convergence_summary.txt", "\n".join(report.lines()) + "\n",
                    artifacts)
    _ref_write_csv(out, "convergence_data.csv", report, artifacts)
    _ref_write_manifest(out, f"convergence --refinements {refinements}", artifacts)
    print(f"convergence: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


VERIFY_ALL_CFG = """\
[model]
name = trigonometric
[noise]
rate = 2
marks = uniform
mark_low = -0.5
mark_high = 0.5
[grid]
steps = 128
[mc]
replicas = 120
holdout_pass_fraction = 0.75
ks_pvalue_min = 1e-5
se_multiplier = 12
[seed]
root = 31
"""

MOMENTS_CFG = """\
[model]
name = trigonometric
[noise]
rate = 3
marks = uniform
mark_low = -0.5
mark_high = 0.5
[grid]
steps = 16
[mc]
replicas = 1000
[seed]
root = 32
"""

SELFSIM_CFG = """\
[grid]
steps = 256
[frac]
alpha = 0.3
[mc]
replicas = 200
[seed]
root = 5
"""

SIMULATE_CFG = """\
[model]
name = mixed_geometric
[noise]
rate = 2
marks = uniform
mark_low = -0.5
mark_high = 0.5
[grid]
steps = 64
[seed]
root = 34
"""

# the explosive drift blows up at step 3, after the first of two jumps
BLOW_UP_CFG = """\
[model]
name = explosive
x0 = 3
[noise]
rate = 2
[grid]
steps = 64
[seed]
root = 34
"""

CONVERGENCE_CFG = """\
[model]
name = mixed_geometric
sigma_w = 0.1
[grid]
steps = 32
[mc]
replicas = 100
[seed]
root = 33
"""


@pytest.mark.parametrize("config, argv, reference, code, written", [
    (VERIFY_ALL_CFG, ["verify", "all"],
     lambda cfg, out: _ref_cmd_verify(cfg, "all", 1.0, out), 0,
     {f"{s}_{kind}" for s in _REF_SUITES for kind in ("summary.txt", "data.csv")}),
    (MOMENTS_CFG, ["verify", "moments"],
     lambda cfg, out: _ref_cmd_verify(cfg, "moments", 1.0, out), 0,
     {"moments_summary.txt", "moments_data.csv", "moments_tail.csv"}),
    (SELFSIM_CFG, ["verify", "selfsim", "--kappa-scale", "2"],
     lambda cfg, out: _ref_cmd_verify(cfg, "selfsim", 2.0, out), 1,
     {"selfsim_summary.txt", "selfsim_data.csv"}),
    (CONVERGENCE_CFG, ["convergence", "--refinements", "3"],
     lambda cfg, out: _ref_cmd_convergence(cfg, 3, out), 0,
     {"convergence_summary.txt", "convergence_data.csv"}),
    (SIMULATE_CFG, ["simulate"], _ref_cmd_simulate, 0,
     {"wiener.csv", "fbm.csv", "jumps.csv", "solution.csv"}),
    (BLOW_UP_CFG, ["simulate"], _ref_cmd_simulate, 1,
     {"wiener.csv", "fbm.csv", "jumps.csv"}),
], ids=["verify-all", "verify-moments-with-tail", "verify-selfsim-control", "convergence",
        "simulate", "simulate-blow-up"])
def test_runs_write_the_bytes_of_the_old_dispatch(tmp_path, capsys, config, argv,
                                                  reference, code, written):
    path = tmp_path / "run.ini"
    path.write_text(config, encoding="utf-8")
    new, old = tmp_path / "new", tmp_path / "old"
    assert cli.main([*argv, "--config", str(path), "--out", str(new)]) == code
    printed = capsys.readouterr()
    old.mkdir()
    assert reference(parse_config(config), old) == code
    # simulate names its output directory
    assert capsys.readouterr() == (printed.out.replace(str(new), str(old)), printed.err)
    files = {p.name: p.read_bytes() for p in new.iterdir()}
    assert files == {p.name: p.read_bytes() for p in old.iterdir()}
    assert set(files) == written | {"config.echo.ini", "manifest.txt"}


# ---------------------------------------------------------------------------
# the models with padded coefficients, as they stood


def _padded(name):
    """The model at default parameters as it stood: constant coefficients
    padded to the shape of x, zero jump gains padded to the shape of y, and
    the zero coefficient x * 0.0 (which keeps the sign of a zero state)."""
    model = build_model(name)
    pad = lambda value: (lambda t, x: x * 0.0 + value)
    zero_gain = lambda y: np.abs(y) * 0.0
    zeros = {f: (lambda t, x: x * 0.0) for f in ("a", "b", "c", "dc_dx")
             if getattr(model, f) is models._zero}
    fields = {
        "zero": dict(jump_gain=zero_gain),
        "additive": dict(c=pad(1.0)),
        "linear": dict(b=pad(0.5), dc_dx=pad(0.5)),
        "logistic_drift": dict(b=pad(0.3)),
        "mixed_geometric": dict(dc_dx=pad(0.75)),
        "explosive": dict(jump_gain=zero_gain),
    }.get(name, {})
    return dataclasses.replace(model, **zeros, **fields)


def _solved(solve):
    try:
        result = solve()
    except BlowUpError as err:
        return str(err)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return result.times.tobytes(), result.values.tobytes(), result.left_flags.tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_unpadded_models_solve_and_check_as_the_padded_ones(name):
    new, old = build_model(name), _padded(name)
    grid = GridSpec(1.0, 64)
    W, Z, trains = gen_driving_stack(grid, 0.75, 2.0, UniformMarks(-0.5, 0.5),
                                     [Seed(9).child(r) for r in range(4)])
    drivers = [(GridFunction(0.0, 1.0, w), GridFunction(0.0, 1.0, z), train)
               for w, z, train in zip(W, Z, trains)]
    assert sum(train.count for train in trains) > 0
    for x0 in (-0.0, 0.0, 1.0, -2.0):
        for w, z, train in drivers:
            assert (_solved(lambda: solve_with_jumps(new, x0, w, z, train))
                    == _solved(lambda: solve_with_jumps(old, x0, w, z, train)))
        assert (_solved(lambda: euler_paths(new, x0, grid, W, Z))
                == _solved(lambda: euler_paths(old, x0, grid, W, Z)))
    assert check_assumptions(new).lines() == check_assumptions(old).lines()


# ---------------------------------------------------------------------------
# the two derivative bodies, as they stood


def _ref_rl_left(f, alpha, kernel=increment_kernel_sums):
    kern = kernel(f.values, alpha, f.h)
    x = f.nodes - f.left
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = (f.values * x**-alpha + alpha * kern) / gamma(1.0 - alpha)
    vals[0] = np.nan
    return vals


def _ref_rl_right(g, alpha, kernel=increment_kernel_sums):
    order = 1.0 - alpha
    shifted = g.values - g.values[-1]
    rev = shifted[::-1].copy()
    kern = kernel(rev, order, g.h)
    y = np.arange(rev.size, dtype=float) * g.h
    with np.errstate(divide="ignore", invalid="ignore"):
        rev_vals = (rev * y**-order + order * kern) / gamma(alpha)
    rev_vals[0] = np.nan
    return rev_vals[::-1].copy()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300),
       st.floats(1e-3, 1.0 - 1e-3), st.floats(-5.0, 5.0), st.floats(0.01, 10.0))
# each order's gamma value below 1e-9 takes Cephes' small-argument branch
@example([0.0, 1.0, -2.5, 0.5, 3.0], 1e-10, 0.0, 1.0)
@example([0.0, 1.0, -2.5, 0.5, 3.0], 1.0 - 1e-10, 0.0, 1.0)
def test_derivatives_equal_their_old_bodies_bit_for_bit(values, alpha, left, width):
    f = GridFunction(left, left + width, np.array(values))
    assert rl_left_derivative(f, alpha).values.tobytes() == _ref_rl_left(f, alpha).tobytes()
    assert rl_right_derivative(f, alpha).values.tobytes() == _ref_rl_right(f, alpha).tobytes()


# ---------------------------------------------------------------------------
# the kernel sums with one numpy FFT call per transform, as they stood


def _ref_increment_kernel_sums(values, alpha, h):
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    if n == 0:
        return np.zeros(1)
    size, cg1, spec_g1, spec_kg1, spec_g2 = _kernel_spectra(n, alpha, h)
    m = size // 2 + 1
    spec_f, spec_df, prod = (np.empty(m, dtype=complex) for _ in range(3))
    real = np.empty(size)
    np.fft.rfft(f[1:], size, out=spec_f)
    df = np.subtract(f[1:], f[:-1], out=real[:n])
    np.fft.rfft(df, size, out=spec_df)
    conv = real[: n + 1]

    def convolve(spec_in, spec_kernel):
        np.multiply(spec_in, spec_kernel, out=prod)
        np.fft.irfft(prod, size, out=real)
        return conv

    out = f * cg1
    out -= convolve(spec_f, spec_g1)
    out -= convolve(spec_df, spec_kg1)
    out += convolve(spec_df, spec_g1)
    out += np.divide(convolve(spec_df, spec_g2), h, out=conv)
    out[0] = 0.0
    return out


# ---------------------------------------------------------------------------
# the outer rule of the pathwise integral, building its weights on every call,
# as it stood


def _ref_weighted_linear_integral(psi, alpha, h):
    psi = np.asarray(psi, dtype=float)
    m = len(psi) - 1
    j = np.arange(m + 1, dtype=float)
    y_lo = j[:-1] * h
    p1 = (j * h) ** (1.0 - alpha)
    p2 = (j * h) ** (2.0 - alpha)
    r1 = (p1[1:] - p1[:-1]) / (1.0 - alpha)
    r2 = (p2[1:] - p2[:-1]) / (2.0 - alpha) - y_lo * r1
    slope = np.diff(psi) / h
    return float(np.dot(psi[:-1], r1) + np.dot(slope, r2))


@settings(max_examples=120, deadline=None)
@given(m=st.integers(1, 400),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       horizon=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
@example(m=4096, alpha=0.45, horizon=1.0, seed=0)
@example(m=32768, alpha=0.45, horizon=1.0, seed=1)
def test_weighted_linear_integral_equals_its_old_body_bit_for_bit(m, alpha, horizon, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(m + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
    h = horizon / m
    # twice: a call must leave psi as it found it
    for _ in range(2):
        got = weighted_linear_integral(psi, *_linear_weights(m, alpha, h), h)
        assert np.float64(got).tobytes() == np.float64(
            _ref_weighted_linear_integral(psi, alpha, h)).tobytes()


def _ref_gls_integral(f, g, alpha, refine):
    """gls_integral on the derivative bodies, kernel sums and outer rule
    above."""
    xf = np.linspace(f.left, f.right, f.cells * refine + 1)
    f = GridFunction(f.left, f.right, np.interp(xf, f.nodes, f.values))
    g = GridFunction(g.left, g.right, np.interp(xf, g.nodes, g.values))
    n = f.cells
    dl = _ref_rl_left(f, alpha, _ref_increment_kernel_sums)
    dr = _ref_rl_right(g, alpha, _ref_increment_kernel_sums)
    x = f.nodes - f.left
    psi = np.empty(n + 1)
    psi[1:n] = dl[1:n] * dr[1:n] * x[1:n] ** alpha
    psi[0] = 2.0 * psi[1] - psi[2]
    psi[n] = 2.0 * psi[n - 1] - psi[n - 2]
    return -_ref_weighted_linear_integral(psi, alpha, f.h)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 400),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       horizon=st.floats(0.1, 10.0),
       kind=st.sampled_from(["random", "sign-changing"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=4096, alpha=0.45, horizon=1.0, kind="random", seed=0)
@example(n=32768, alpha=0.55, horizon=1.0, kind="sign-changing", seed=1)
def test_kernel_sums_equal_their_one_row_body_bit_for_bit(n, alpha, horizon, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        values = rng.standard_normal(n + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
    else:
        values = rng.uniform(0.1, 2.0, n + 1) * np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    h = horizon / n
    expected = _ref_increment_kernel_sums(values, alpha, h)
    assert increment_kernel_sums(values, alpha, h).tobytes() == expected.tobytes()


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=1234)
def test_pathwise_integral_equals_its_one_row_body_bit_for_bit(seed):
    # the c02 shape: one fBm at 2048 cells, subsampled to four grid levels
    levels = (256, 512, 1024, 2048)
    master = gen_fbm(GridSpec(1.0, levels[-1]), 0.75, Seed(seed).child(1))
    for steps in levels:
        xs = np.linspace(0.0, 1.0, steps + 1)
        f = GridFunction(0.0, 1.0, 2.0 * xs + np.abs(xs - 0.4) ** 0.6)
        g = GridFunction(0.0, 1.0, master.values[:: levels[-1] // steps])
        new = gls_integral(f, g, 0.45, refine=16)
        assert np.float64(new).tobytes() == np.float64(
            _ref_gls_integral(f, g, 0.45, 16)).tobytes()


# ---------------------------------------------------------------------------
# one same-grid rule


def _solve_pair(W, BH):
    return solve_with_jumps(build_model("zero"), 1.0, W, BH,
                            JumpTrain(np.empty(0), np.empty(0), 0.0, 1.0))


@pytest.mark.parametrize("pair", [
    lambda f, g: gls_integral(f, g, 0.3),
    forward_sum_integral,
    lambda f, g: norm_inf_stack([f, g], 1.0, 0.3),
    lambda f, g: norm_0_interval_stack([f, g], 0.0, 1.0, 0.3),
    _solve_pair,
], ids=["gls_integral", "forward_sum_integral", "norm_inf_stack",
        "norm_0_interval_stack", "solve_with_jumps"])
def test_every_pairing_needs_one_grid(pair):
    xs = np.linspace(0.0, 1.0, 17)
    f = GridFunction(0.0, 1.0, np.sin(xs))
    g = GridFunction(0.0, 1.0, np.cos(xs))
    pair(f, g)
    # an interval one ulp longer, or another cell count, is another grid
    for other in (GridFunction(0.0, math.nextafter(1.0, 2.0), g.values),
                  GridFunction(0.0, 1.0, np.cos(np.linspace(0.0, 1.0, 33)))):
        with pytest.raises(GridMismatchError, match="share one grid"):
            pair(f, other)
