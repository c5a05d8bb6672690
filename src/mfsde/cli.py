"""Command-line front end: simulate, verify <suite>, convergence.

Every run computes all of its artifacts first and then writes them, with
a manifest, into one directory; a run that ends with an `error:` line
writes nothing.  The manifest records the effective command and a sha256
per artifact, and the config echo (output location excluded) pins every
other input, so rerunning the recorded command against the echo
reproduces each file bit for bit.  Exit codes: 0 success / all suites
PASS, 1 run or suite failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    LEMMA_MIN_REPLICAS,
    MOMENTS_MIN_REPLICAS,
    TAIL_MIN_REPLICAS,
    _jump_closed_form,
    _selfsim_setup,
    estimate_moments,
    simulate_ensemble,
    tail_diagnostic,
    verify_jump_product_moment,
    verify_kernel_estimates,
    verify_pathwise_lemma,
    verify_self_similarity,
)
from .config import RunConfig, load_config, parse_config, serialize_config
from .errors import BlowUpError, ParameterError, RunFailure
from .models import MODELS
from .noise import (
    CSV_FLOAT_FMT,
    GridSpec,
    Seed,
    _MAX_NODES,
    _check_count,
    _csv_row,
    _replica_seeds,
    gen_driving_stack,
    gen_driving_triple,
)
from .solver import euler_paths, solve_with_jumps, solve_with_jumps_stack

KERNEL_LAMBDAS = (1.0, 10.0, 100.0, 1000.0)
SELFSIM_INTERVALS = ((0.0, 0.25), (0.5, 1.0))
MONOTONE_FRACTION = 0.9


# ---------------------------------------------------------------------------
# output plumbing


def _write_run(out: Path, cfg: RunConfig, command: str, artifacts: dict) -> None:
    """Write config.echo.ini, each artifact (name -> text) and manifest.txt.

    Every command computes all of its artifacts before it calls this, so a
    run that fails or is refused leaves its output directory as it was.
    """
    files = {"config.echo.ini": serialize_config(cfg, include_output=False), **artifacts}
    lines = ["mfsde run manifest", f"command: {command}", "artifacts:"]
    for name in sorted(files):
        data = files[name].encode("utf-8")
        (out / name).write_bytes(data)
        lines.append(f"{name} sha256={hashlib.sha256(data).hexdigest()}")
    (out / "manifest.txt").write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _csv_text(obj) -> str:
    buf = io.StringIO()
    obj.to_csv(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(cfg: RunConfig, out: Path) -> int:
    coeffs = cfg.build_coeffs()
    wiener, fbm, train = gen_driving_triple(cfg.grid, cfg.frac.hurst, cfg.rate,
                                            cfg.marks, cfg.seed())
    artifacts = {"wiener.csv": _csv_text(wiener), "fbm.csv": _csv_text(fbm),
                 "jumps.csv": _csv_text(train)}
    status = 0
    try:
        sol = solve_with_jumps(coeffs, cfg.x0, wiener, fbm, train)
    except BlowUpError as err:
        print(f"simulate: solve failed: {err}", file=sys.stderr)
        status = 1
    else:
        artifacts["solution.csv"] = _csv_text(sol)
        print(f"simulate: wrote solution with {sol.train.count} jumps to {out}")
    _write_run(out, cfg, "simulate", artifacts)
    return status


# ---------------------------------------------------------------------------
# verify


def _outcome(report) -> tuple:
    return report.lines(), report.passed, {"data": report}


def _jump_gain(cfg: RunConfig):
    coeffs = cfg.build_coeffs()
    return lambda y: 1.0 + np.asarray(coeffs.jump_gain(y), dtype=float)


def _run_kernel(cfg: RunConfig, kappa_scale: float) -> tuple:
    return _outcome(verify_kernel_estimates(cfg.frac.alpha, KERNEL_LAMBDAS,
                                            thresholds=cfg.thresholds))


def _run_lemma(cfg: RunConfig, kappa_scale: float) -> tuple:
    # the growth bound concerns the continuous part, so the ensemble is
    # simulated without jumps whatever the configured rate
    ens = simulate_ensemble(cfg.build_coeffs(), cfg.x0, cfg.grid, cfg.frac,
                            cfg.seed(), cfg.replicas, rate=0.0)
    return _outcome(verify_pathwise_lemma(ens, thresholds=cfg.thresholds))


def _run_selfsim(cfg: RunConfig, kappa_scale: float) -> tuple:
    return _outcome(verify_self_similarity(cfg.frac.hurst, cfg.frac.alpha, SELFSIM_INTERVALS,
                                           cfg.replicas, cfg.seed(), steps=cfg.grid.steps,
                                           kappa_scale=kappa_scale,
                                           thresholds=cfg.thresholds))


def _run_moments(cfg: RunConfig, kappa_scale: float) -> tuple:
    ens = simulate_ensemble(cfg.build_coeffs(), cfg.x0, cfg.grid, cfg.frac,
                            cfg.seed(), cfg.replicas, rate=cfg.rate,
                            marks=cfg.marks)
    table = estimate_moments(ens, cfg.p_list, cfg.thresholds)
    if ens.size < TAIL_MIN_REPLICAS:
        return (table.lines() + [f"tail: skipped (needs >= {TAIL_MIN_REPLICAS} replicas)"],
                table.passed, {"data": table})
    tail = tail_diagnostic(ens, max(cfg.p_list))
    return (table.lines() + tail.lines(), table.passed and tail.passed,
            {"data": table, "tail": tail})


def _run_jumps(cfg: RunConfig, kappa_scale: float) -> tuple:
    return _outcome(verify_jump_product_moment(cfg.rate, cfg.marks, _jump_gain(cfg),
                                               cfg.jump_power, cfg.grid.horizon,
                                               cfg.replicas, cfg.seed(),
                                               thresholds=cfg.thresholds))


# suite: (check, run), in the order `verify all` runs them; both take
# (cfg, kappa_scale).  A check draws nothing and raises ParameterError
# through the rules its suite applies in `analysis`; the kernel suite has
# none a parsed config can break.  A run returns the suite's summary lines,
# its verdict and its data tables, {file suffix: report with CSV_HEADER and
# csv_rows()}.
SUITES = {
    "kernel": (lambda cfg, kappa_scale: None, _run_kernel),
    "lemma": (lambda cfg, kappa_scale: _check_count("replicas", cfg.replicas,
                                                    LEMMA_MIN_REPLICAS), _run_lemma),
    "selfsim": (lambda cfg, kappa_scale: _selfsim_setup(
        cfg.frac.hurst, cfg.frac.alpha, SELFSIM_INTERVALS, cfg.replicas, cfg.grid.steps,
        kappa_scale), _run_selfsim),
    "moments": (lambda cfg, kappa_scale: _check_count("replicas", cfg.replicas,
                                                      MOMENTS_MIN_REPLICAS), _run_moments),
    "jumps": (lambda cfg, kappa_scale: _jump_closed_form(
        cfg.rate, cfg.marks, _jump_gain(cfg), cfg.jump_power, cfg.grid.horizon,
        cfg.replicas), _run_jumps),
}


def _suite_artifacts(name: str, lines: list, tables: dict) -> dict:
    """A suite's summary as <name>_summary.txt, each table as <name>_<suffix>.csv."""
    artifacts = {f"{name}_summary.txt": "\n".join(lines) + "\n"}
    for suffix, report in tables.items():
        artifacts[f"{name}_{suffix}.csv"] = (report.CSV_HEADER + "\n"
                                             + "\n".join(report.csv_rows()) + "\n")
    return artifacts


def cmd_verify(cfg: RunConfig, suite: str, kappa_scale: float, out: Path) -> int:
    selected = list(SUITES) if suite == "all" else [suite]
    # every selected suite is checked before any of them draws
    for name in selected:
        try:
            SUITES[name][0](cfg, kappa_scale)
        except ParameterError as err:
            raise ParameterError(f"suite {name}: {err}") from None
    artifacts: dict = {}
    all_passed = True
    for name in selected:
        lines, passed, tables = SUITES[name][1](cfg, kappa_scale)
        artifacts.update(_suite_artifacts(name, lines, tables))
        all_passed &= passed
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    _write_run(out, cfg, f"verify {suite} --kappa-scale {CSV_FLOAT_FMT % kappa_scale}",
               artifacts)
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# convergence


@dataclass(frozen=True)
class ConvergenceReport:
    """Terminal error against a closed form across dyadic refinements."""

    model: str
    sample_size: int
    levels: tuple          # steps per level, coarse to fine
    mean_errors: tuple     # mean relative terminal error per level
    monotone_fraction: float
    fitted_rate: float | None
    exact: bool

    CSV_HEADER = "steps,mean_rel_error"

    @property
    def passed(self) -> bool:
        return self.exact or self.monotone_fraction >= MONOTONE_FRACTION

    def lines(self) -> list:
        out = ["suite: convergence",
               f"model: {self.model}",
               f"seeds: {self.sample_size}",
               "levels: " + " ".join(str(n) for n in self.levels),
               "mean relative errors: " + " ".join(format(e, ".6g")
                                                   for e in self.mean_errors)]
        if self.exact:
            out.append("scheme is exact for this model (errors at rounding level)")
        else:
            out.append(f"fitted rate: {format(self.fitted_rate, '.4g')}")
        out.append(f"seeds with strictly decreasing error: "
                   f"{format(self.monotone_fraction, '.6g')}"
                   f" (required >= {MONOTONE_FRACTION} unless exact)")
        if not self.exact and any(b >= a for a, b in zip(self.mean_errors,
                                                         self.mean_errors[1:])):
            out.append("FLAG: mean error sequence is not monotone")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def csv_rows(self) -> list:
        return [_csv_row(n, e) for n, e in zip(self.levels, self.mean_errors)]


def run_convergence(cfg: RunConfig, refinements: int) -> ConvergenceReport:
    """Solve on dyadically refined grids and compare terminal values.

    All levels of one seed subsample the same finest-grid drivers, so the
    closed form is evaluated once per seed from the shared terminal
    driver values; a target that is not finite is a RunFailure before any
    solve.  Each level is one batched solve: euler_paths without jumps,
    solve_with_jumps_stack with them.
    """
    _check_count("refinements", refinements, 3)
    # the finest grid's steps << refinements must stay below _MAX_NODES, as
    # GridSpec requires; shifting the bound keeps a huge count from
    # building a huge integer
    if cfg.grid.steps > (_MAX_NODES - 1) >> int(refinements):
        raise ParameterError(f"refinements must keep the finest grid below {_MAX_NODES}"
                             f" steps, got {refinements} from {cfg.grid.steps} steps")
    coeffs = cfg.build_coeffs()
    if coeffs.closed_form is None:
        known = ", ".join(sorted(name for name, build in MODELS.items()
                                 if build().closed_form is not None))
        raise ParameterError(
            f"no closed-form oracle for model {cfg.model_name!r}; known: {known}")
    seed = cfg.seed()
    levels = [cfg.grid.steps * 2 ** j for j in range(refinements + 1)]
    fine = GridSpec(cfg.grid.horizon, levels[-1])
    m = cfg.replicas

    w_fine, z_fine, trains = gen_driving_stack(
        fine, cfg.frac.hurst, cfg.rate, cfg.marks, _replica_seeds(seed, range(m)))
    targets = np.empty(m)
    for s, train in enumerate(trains):
        targets[s] = coeffs.closed_form(cfg.x0, w_fine[s, -1], z_fine[s, -1], train)
    bad = np.flatnonzero(~np.isfinite(targets))
    if bad.size:
        raise RunFailure(f"the {cfg.model_name} closed form is not finite at replica"
                         f" {bad[0]}: {targets[bad[0]]}")

    errors = np.empty((m, len(levels)))
    for j, steps in enumerate(levels):
        stride = levels[-1] // steps
        grid_j = GridSpec(cfg.grid.horizon, steps)
        w_j, z_j = w_fine[:, ::stride], z_fine[:, ::stride]
        if cfg.rate == 0.0:
            # a copy, so this level's paths are freed before the next solve
            terminal = euler_paths(coeffs, cfg.x0, grid_j, w_j, z_j)[:, -1].copy()
        else:
            draw = lambda rows: (w_j[rows], z_j[rows], trains[rows])
            terminal = np.empty(m)
            for s, sol in enumerate(solve_with_jumps_stack(coeffs, cfg.x0, grid_j, draw, m)):
                if isinstance(sol, BlowUpError):
                    raise sol
                terminal[s] = sol.terminal
        errors[:, j] = np.abs(terminal - targets) / np.maximum(np.abs(targets), 1e-12)

    mean_errors = errors.mean(axis=0)
    exact = bool(mean_errors.max() <= 1e-12)
    if exact:
        rate = None
        monotone = 1.0
    else:
        slope = np.polyfit(np.log2(levels), np.log2(np.maximum(mean_errors, 1e-300)), 1)[0]
        rate = -float(slope)
        monotone = float(np.mean(np.all(np.diff(errors, axis=1) < 0.0, axis=1)))
    return ConvergenceReport(cfg.model_name, m, tuple(levels),
                             tuple(float(e) for e in mean_errors),
                             monotone, rate, exact)


def cmd_convergence(cfg: RunConfig, refinements: int, out: Path) -> int:
    report = run_convergence(cfg, refinements)
    _write_run(out, cfg, f"convergence --refinements {refinements}",
               _suite_artifacts("convergence", report.lines(), {"data": report}))
    print(f"convergence: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file (defaults apply if omitted)")
    sub.add_argument("--seed", type=int, help="override the seed root")
    sub.add_argument("--out", help="override the output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfsde",
        description="Simulate and statistically verify a mixed-noise jump SDE solver.")
    commands = parser.add_subparsers(dest="command", required=True)
    _add_common(commands.add_parser("simulate", help="one run, CSVs plus manifest"))
    p_verify = commands.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--kappa-scale", type=float, default=1.0,
                          help="scale the self-similarity exponent (control runs)")
    _add_common(p_verify)
    p_conv = commands.add_parser("convergence", help="dyadic refinement study")
    p_conv.add_argument("--refinements", type=int, default=3)
    _add_common(p_conv)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else parse_config("")
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed_root=Seed(args.seed).root)
        if args.command == "verify" and not math.isfinite(args.kappa_scale):
            raise ParameterError("--kappa-scale must be finite")
        if args.out:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except (ParameterError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.kappa_scale, out)
        return cmd_convergence(cfg, args.refinements, out)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RunFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
