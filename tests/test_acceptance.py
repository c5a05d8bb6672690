"""Acceptance gate: one test per release criterion, each printing a single
verdict line.  Tolerances and budgets here are the shipping contract; do not
loosen them to make a red run green."""

import math
import time

import numpy as np
from scipy.special import gamma

from mfsde import cli
from mfsde.analysis import (
    estimate_moments,
    simulate_ensemble,
    tail_diagnostic,
    verify_jump_product_moment,
    verify_kernel_estimates,
    verify_pathwise_lemma,
    verify_self_similarity,
)
from mfsde.config import parse_config
from mfsde.cli import run_convergence
from mfsde.fractional import (
    GridFunction,
    forward_sum_integral,
    gls_integral,
    rl_left_derivative,
)
from mfsde.models import build_model
from mfsde.noise import (
    FracParams,
    GridSpec,
    JumpTrain,
    Seed,
    TwoPointMarks,
    UniformMarks,
    gen_driving_triple,
    gen_fbm,
    gen_fbm_stack,
)
from mfsde.solver import euler_paths, solve_with_jumps


def _verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:2d}] {label}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_c01_fbm_covariance_law(capsys):
    grid = GridSpec(1.0, 8)
    t = grid.times[1:]
    m = 100_000
    start = time.monotonic()
    worst = {}
    for hurst in (0.6, 0.75, 0.9):
        exact = 0.5 * (t[:, None] ** (2 * hurst) + t[None, :] ** (2 * hurst)
                       - np.abs(t[:, None] - t[None, :]) ** (2 * hurst))
        vals = gen_fbm_stack(grid, hurst, [Seed(0).child(3 + r).child(1)
                                           for r in range(m)])[:, 1:]
        emp = vals.T @ vals / m
        diag = np.diag(exact)
        se = np.sqrt((exact ** 2 + np.outer(diag, diag)) / m)
        worst[hurst] = float(np.max(np.abs(emp - exact) / se))
    elapsed = time.monotonic() - start
    ok = max(worst.values()) <= 4.0 and elapsed < 120.0
    _verdict(capsys, 1, "fBm covariance law", ok,
             f"max |z| {max(worst.values()):.2f} over H in (0.6, 0.75, 0.9), "
             f"{elapsed:.0f}s")


def test_c02_integral_against_forward_sums(capsys):
    hold = lambda x: 2.0 * x + np.abs(x - 0.4) ** 0.6
    levels = (256, 512, 1024, 2048)
    wins = 0
    for s in range(100):
        master = gen_fbm(GridSpec(1.0, levels[-1]), 0.75, Seed(1234 + s).child(1))
        diffs = []
        for steps in levels:
            stride = levels[-1] // steps
            xs = np.linspace(0.0, 1.0, steps + 1)
            f = GridFunction(0.0, 1.0, hold(xs))
            g = GridFunction(0.0, 1.0, master.values[::stride])
            diffs.append(abs(gls_integral(f, g, 0.45, refine=16)
                             - forward_sum_integral(f, g)))
        wins += int(all(b < a for a, b in zip(diffs, diffs[1:])))

    # a constant integrand must recover the bare increment of the rough path
    worst = 0.0
    ones = GridFunction(0.0, 1.0, np.ones(1025))
    for s in range(20):
        path = gen_fbm(GridSpec(1.0, 1024), 0.75, Seed(1234 + s).child(1))
        val = gls_integral(ones, GridFunction(0.0, 1.0, path.values), 0.45,
                           refine=16)
        inc = path.values[-1] - path.values[0]
        worst = max(worst, abs(val - inc) / abs(inc))

    ok = wins >= 90 and worst <= 1e-3
    _verdict(capsys, 2, "compensated integral vs forward sums", ok,
             f"{wins}/100 seeds monotone over 3 doublings, "
             f"constant-integrand rel {worst:.1e}")


def test_c03_fractional_derivative_power_oracles(capsys):
    n = 4096
    xs = np.linspace(0.0, 1.0, n + 1)
    lo = n // 16
    worst = 0.0
    for alpha in (0.2, 0.3, 0.45):
        for p in (0.9, 2.0):
            f = GridFunction(0.0, 1.0, xs ** p)
            d = rl_left_derivative(f, alpha).values
            exact = gamma(p + 1.0) / gamma(p + 1.0 - alpha) * xs ** (p - alpha)
            rel = np.max(np.abs(d[lo:] - exact[lo:]) / np.abs(exact[lo:]))
            worst = max(worst, float(rel))
    ok = worst < 1e-3
    _verdict(capsys, 3, "fractional-derivative closed forms", ok,
             f"max rel {worst:.1e} at n={n}, alpha in (0.2, 0.3, 0.45)")


def test_c04_kernel_estimates(capsys):
    start = time.monotonic()
    rep = verify_kernel_estimates(0.25, (1.0, 10.0, 100.0, 1000.0))
    elapsed = time.monotonic() - start
    ratios = [r for _, r, _ in rep.weighted_rows] + [rep.beta_ratio]
    ok = rep.passed and max(ratios) <= 1.0 + 1e-3 and elapsed < 60.0
    _verdict(capsys, 4, "singular-kernel inequalities", ok,
             f"max ratio {max(ratios):.6f} over 4 lambdas + 20x20 grid, "
             f"{elapsed:.0f}s")


def test_c05_solver_against_mixed_geometric_oracle(capsys):
    cfg = parse_config("""\
[model]
name = mixed_geometric

[noise]
hurst = 0.75

[grid]
steps = 2048

[mc]
replicas = 100

[seed]
root = 0
""")
    rep = run_convergence(cfg, 3)
    shrinking = all(b < a for a, b in zip(rep.mean_errors, rep.mean_errors[1:]))
    ok = (rep.levels[-1] == 2 ** 14 and rep.mean_errors[-1] < 0.02
          and shrinking and rep.passed)
    _verdict(capsys, 5, "mixed geometric terminal oracle", ok,
             f"mean rel error {rep.mean_errors[-1]:.4f} at n=2^14, "
             f"decay {rep.mean_errors[0]:.4f} -> {rep.mean_errors[-1]:.4f}, "
             f"monotone fraction {rep.monotone_fraction:.2f}")


def test_c06_jump_construction_exactness(capsys):
    grid = GridSpec(1.0, 256)

    # a) drift/diffusion switched off: terminal is exactly x0 + sum of marks
    w, z, train = gen_driving_triple(grid, 0.75, 5.0, TwoPointMarks(), Seed(4))
    sol = solve_with_jumps(build_model("pure_jump"), 1.0, w, z, train)
    acc = 1.0
    for mark in train.marks:
        acc = acc + float(mark)
    pure_ok = train.count > 0 and sol.terminal == acc

    # b) an empty train must not perturb the solver in even the last bit
    grid2 = GridSpec(1.0, 512)
    coeffs = build_model("linear")
    w2, z2, _ = gen_driving_triple(grid2, 0.75, 0.0, TwoPointMarks(), Seed(3))
    empty = JumpTrain(np.array([]), np.array([]), 0.0, 1.0)
    jumped = solve_with_jumps(coeffs, 1.0, w2, z2, empty)
    batch = euler_paths(coeffs, 1.0, grid2, w2.values[None, :], z2.values[None, :])
    empty_ok = np.array_equal(jumped.values, batch[0])

    # c) every recorded jump applies the jump map with no rounding slack
    w3, z3, train3 = gen_driving_triple(grid, 0.75, 3.0, TwoPointMarks(), Seed(5))
    sol3 = solve_with_jumps(coeffs, 1.0, w3, z3, train3)
    rows = np.flatnonzero(sol3.left_flags)
    map_ok = train3.count > 0 and len(rows) == train3.count and all(
        sol3.values[i + 1] == sol3.values[i]
        + float(coeffs.q(train3.times[k], sol3.values[i], train3.marks[k]))
        for k, i in enumerate(rows))

    ok = pure_ok and empty_ok and map_ok
    _verdict(capsys, 6, "jump construction exactness", ok,
             f"pure-jump {pure_ok}, empty-train bitwise {empty_ok}, "
             f"jump map exact at {len(rows)} jumps {map_ok}")


def test_c07_pathwise_growth_bound(capsys):
    start = time.monotonic()
    ens = simulate_ensemble(build_model("linear"), 1.0, GridSpec(1.0, 1024),
                            FracParams(0.75, alpha=0.3), Seed(42), 400)
    rep = verify_pathwise_lemma(ens)
    elapsed = time.monotonic() - start
    ok = rep.passed and rep.holdout_rate >= 0.95 and elapsed < 600.0
    _verdict(capsys, 7, "pathwise growth bound", ok,
             f"holdout satisfaction {rep.holdout_rate:.3f} on 400 paths, "
             f"fitted K {rep.fitted_k:.3g}, {elapsed:.0f}s")


def test_c08_supremum_moments_with_jumps(capsys):
    start = time.monotonic()
    ens = simulate_ensemble(build_model("trigonometric", b0=0.25, c0=0.25),
                            1.0, GridSpec(1.0, 256), FracParams(hurst=0.75),
                            Seed(7), 10_000, rate=3.0,
                            marks=UniformMarks(-0.5, 0.5))
    table = estimate_moments(ens, (1.0, 2.0, 4.0, 8.0))
    tail = tail_diagnostic(ens, 8.0)
    elapsed = time.monotonic() - start
    ok = table.passed and tail.slope > 9.0 and elapsed < 900.0
    _verdict(capsys, 8, "supremum moments under jumps", ok,
             f"p in (1, 2, 4, 8) stable {table.stable}, excluded "
             f"{table.excluded}, tail slope {tail.slope:.1f}, {elapsed:.0f}s")


def test_c09_interval_self_similarity(capsys):
    intervals = ((0.0, 0.25), (0.5, 1.0))
    rep = verify_self_similarity(0.75, 0.3, intervals, replicas=1000,
                                 seed=Seed(5), steps=256)
    ctl = verify_self_similarity(0.75, 0.3, intervals, replicas=1000,
                                 seed=Seed(5), steps=256, kappa_scale=2.0)
    ps = [row[3] for row in rep.rows]
    ctl_ps = [row[3] for row in ctl.rows]
    ok = rep.passed and min(ps) > 0.01 and not ctl.passed
    _verdict(capsys, 9, "interval self-similarity", ok,
             f"p-values {ps[0]:.2f}/{ps[1]:.2f}, doubled-exponent control "
             f"rejected with p {ctl_ps[0]:.1e}/{ctl_ps[1]:.1e}")


def test_c10_jump_gain_product_moment(capsys):
    rep = verify_jump_product_moment(2.0, TwoPointMarks(),
                                     lambda y: 1.0 + np.abs(y), 0.25, 1.0,
                                     replicas=100_000, seed=Seed(3))
    ok = (rep.passed and abs(rep.z_score) <= 4.0
          and abs(rep.exact - math.exp(2.0)) < 1e-12)
    _verdict(capsys, 10, "jump-gain product moment", ok,
             f"MC {rep.empirical:.4f} vs exact e^2 = {rep.exact:.4f}, "
             f"|z| {abs(rep.z_score):.2f} at 10^5 replicas")


def _manifest_command(out_dir):
    for line in (out_dir / "manifest.txt").read_text().splitlines():
        if line.startswith("command: "):
            return line[len("command: "):].split()
    raise AssertionError(f"no command line in {out_dir}/manifest.txt")


def _dirs_bitwise_equal(d1, d2):
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    return names1 == names2 and all(
        (d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names1)


def test_c11_manifest_reproducibility_and_exit_codes(tmp_path, capsys):
    def rerun_from_manifest(first):
        second = tmp_path / (first.name + "_replay")
        argv = _manifest_command(first) + [
            "--config", str(first / "config.echo.ini"), "--out", str(second)]
        return cli.main(argv) == 0 and _dirs_bitwise_equal(first, second)

    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    sim_cfg = write("sim.ini", "[model]\nname = linear\n[noise]\nrate = 2\n"
                               "[grid]\nsteps = 32\n[seed]\nroot = 3\n")
    ver_cfg = write("ver.ini", "[model]\nname = zero\n[grid]\nsteps = 64\n"
                               "[mc]\nreplicas = 120\n")
    conv_cfg = write("conv.ini", "[model]\nname = additive\n"
                                 "[grid]\nsteps = 64\n")
    sim_out = tmp_path / "sim"
    ver_out = tmp_path / "ver"
    conv_out = tmp_path / "conv"
    ran = (cli.main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0
           and cli.main(["verify", "all", "--config", ver_cfg,
                         "--out", str(ver_out)]) == 0
           and cli.main(["convergence", "--config", conv_cfg,
                         "--out", str(conv_out)]) == 0)
    replayed = (ran and rerun_from_manifest(sim_out)
                and rerun_from_manifest(ver_out)
                and rerun_from_manifest(conv_out))

    # exit contract: 0 on pass (above), 1 on a failing suite, 2 on bad config
    selfsim_cfg = write("ss.ini", "[noise]\nhurst = 0.75\n[grid]\nsteps = 256\n"
                                  "[frac]\nalpha = 0.3\n[mc]\nreplicas = 200\n"
                                  "[seed]\nroot = 5\n")
    bad_cfg = write("bad.ini", "[frac]\nalpha = 0.6\n")
    fail_rc = cli.main(["verify", "selfsim", "--config", selfsim_cfg,
                        "--kappa-scale", "2", "--out", str(tmp_path / "ctl")])
    err_rc = cli.main(["simulate", "--config", bad_cfg,
                       "--out", str(tmp_path / "bad")])
    ok = replayed and fail_rc == 1 and err_rc == 2
    _verdict(capsys, 11, "manifest reproducibility and exit codes", ok,
             f"3 run kinds replayed byte-identically from their manifests, "
             f"exit codes 0/{fail_rc}/{err_rc}")
