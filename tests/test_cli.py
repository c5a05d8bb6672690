"""Command-line behavior: artifacts, manifests, exit codes, overrides."""

import contextlib
import dataclasses
import inspect
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mfsde import cli, noise
from mfsde.analysis import (
    JUMPS_MIN_REPLICAS,
    LEMMA_MIN_REPLICAS,
    MOMENTS_MIN_REPLICAS,
    SELFSIM_MIN_REPLICAS,
)
from mfsde.config import parse_config, serialize_config
from mfsde.models import MODELS
from mfsde.noise import MARK_LAWS, MAX_JUMP_MEAN
from mfsde.solver import read_solution_csv

SIM_CFG = """\
[model]
name = linear

[noise]
rate = 2

[grid]
steps = 32

[seed]
root = 3
"""


# the replica floor of each suite that draws, as `analysis` owns it
_FLOORS = {"lemma": LEMMA_MIN_REPLICAS, "selfsim": SELFSIM_MIN_REPLICAS,
           "moments": MOMENTS_MIN_REPLICAS, "jumps": JUMPS_MIN_REPLICAS}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_simulate_artifacts_and_manifest_stability(tmp_path):
    cfg = _write(tmp_path, "run.ini", SIM_CFG)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(d1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(d2)]) == 0
    names = ["config.echo.ini", "wiener.csv", "fbm.csv", "jumps.csv",
             "solution.csv", "manifest.txt"]
    for name in names:
        assert (d1 / name).is_file()
        # artifacts carry no output-directory traces, so a rerun into a
        # different directory is byte-identical
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = (d1 / "manifest.txt").read_text()
    assert manifest.splitlines()[0] == "mfsde run manifest"
    assert "command: simulate" in manifest
    for name in names[:-1]:
        assert f"{name} sha256=" in manifest


def test_simulate_zero_model_writes_constant_solution(tmp_path):
    cfg = _write(tmp_path, "run.ini", "[model]\nname = zero\nx0 = 1.5\n"
                                      "[grid]\nsteps = 16\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, values, _ = read_solution_csv(out / "solution.csv")
    assert np.all(values == 1.5)


def test_config_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.ini", "[frac]\nalpha = 0.6\n")
    assert cli.main(["simulate", "--config", bad,
                     "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.ini"),
                     "--out", str(tmp_path / "x")]) == 2


def test_start_and_rate_edges(tmp_path, capsys):
    # a jump rate past numpy's Poisson limit is a config error: exit 2, and
    # nothing is written
    huge = _write(tmp_path, "huge.ini", "[noise]\nrate = 1e30\n")
    assert cli.main(["simulate", "--config", huge, "--out", str(tmp_path / "h")]) == 2
    assert "[noise] rate" in capsys.readouterr().err
    assert not (tmp_path / "h").exists()
    # a start outside the trust region is a config error too; the trust
    # region's edge is a start
    far = _write(tmp_path, "far.ini", "[model]\nx0 = 1e13\n")
    assert cli.main(["simulate", "--config", far, "--out", str(tmp_path / "f")]) == 2
    assert "[model] x0: x0 must be finite" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()
    edge = _write(tmp_path, "edge.ini", "[model]\nname = zero\nx0 = 1e12\n[grid]\nsteps = 8\n")
    assert cli.main(["simulate", "--config", edge, "--out", str(tmp_path / "e")]) == 0
    past = _write(tmp_path, "past.ini", f"[model]\nx0 = {math.nextafter(1e12, math.inf)!r}\n")
    assert cli.main(["simulate", "--config", past, "--out", str(tmp_path / "p")]) == 2
    assert "[model] x0" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_verify_kernel_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["verify", "kernel", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "kernel: PASS" in stdout and "overall: PASS" in stdout
    summary = (out / "kernel_summary.txt").read_text()
    assert summary.rstrip().endswith("result: PASS")
    assert (out / "kernel_data.csv").is_file()
    assert "command: verify kernel --kappa-scale 1" in (out / "manifest.txt").read_text()


SELFSIM_CFG = """\
[noise]
hurst = 0.75

[grid]
steps = 256

[frac]
alpha = 0.3

[mc]
replicas = 200

[seed]
root = 5
"""


def test_verify_selfsim_and_its_control(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini", SELFSIM_CFG)
    assert cli.main(["verify", "selfsim", "--config", cfg,
                     "--out", str(tmp_path / "ok")]) == 0
    # the same seeds with a doubled exponent must be rejected, proving the
    # comparison has the power to notice a wrong scaling
    assert cli.main(["verify", "selfsim", "--config", cfg, "--kappa-scale", "2",
                     "--out", str(tmp_path / "ctl")]) == 1
    stdout = capsys.readouterr().out
    assert "selfsim: FAIL" in stdout
    summary = (tmp_path / "ctl" / "selfsim_summary.txt").read_text()
    assert "control" in summary and "result: FAIL" in summary


def test_verify_all_on_zero_model(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = zero\n[grid]\nsteps = 64\n"
                 "[mc]\nreplicas = 120\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "all", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    for suite in cli.SUITES:
        assert f"{suite}: PASS" in stdout
        assert (out / f"{suite}_summary.txt").is_file()
        assert (out / f"{suite}_data.csv").is_file()
    # below the tail sample-size floor the moments suite says so
    assert "tail: skipped" in (out / "moments_summary.txt").read_text()
    assert not (out / "moments_tail.csv").exists()


def test_verify_jumps_unit_scale(tmp_path):
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = additive\n[noise]\nrate = 2\n"
                 "[grid]\nsteps = 32\n[mc]\nreplicas = 2000\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "jumps", "--config", cfg, "--out", str(out)]) == 0
    summary = (out / "jumps_summary.txt").read_text()
    assert f"exact: {math.exp(2.0):.6g}" in summary


def test_convergence_additive_is_exact(tmp_path, capsys):
    # without jumps (one batched solve per level) and with them (the
    # jump-restart solve in blocks of seeds)
    for rate in (0, 2):
        cfg = _write(tmp_path, f"run{rate}.ini",
                     f"[model]\nname = additive\n[noise]\nrate = {rate}\n"
                     "[grid]\nsteps = 64\n[mc]\nreplicas = 20\n")
        out = tmp_path / f"out{rate}"
        assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        assert "convergence: PASS" in capsys.readouterr().out
        summary = (out / "convergence_summary.txt").read_text()
        assert "exact for this model" in summary
        assert "command: convergence --refinements 3" in (out / "manifest.txt").read_text()
        # four levels: base grid plus three refinements
        assert len((out / "convergence_data.csv").read_text().strip().splitlines()) == 5


def test_convergence_validation_exits_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = _write(tmp_path, "run.ini", "[model]\nname = additive\n")
    assert cli.main(["convergence", "--config", cfg, "--refinements", "2",
                     "--out", out]) == 2
    nolemma = _write(tmp_path, "run2.ini", "[model]\nname = linear\n")
    assert cli.main(["convergence", "--config", nolemma, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "no closed-form oracle" in err
    assert "known: additive, mixed_geometric, pure_jump, zero" in err
    jumpy = _write(tmp_path, "run3.ini",
                   "[model]\nname = mixed_geometric\n[noise]\nrate = 1\n")
    assert cli.main(["convergence", "--config", jumpy, "--out", out]) == 2
    assert "closed form needs rate = 0" in capsys.readouterr().err


def test_convergence_blow_up_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = mixed_geometric\nsigma_h = 40\n"
                 "[noise]\nrate = 0\n[grid]\nsteps = 16\n[mc]\nreplicas = 50\n")
    assert cli.main(["convergence", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: state blew up at step")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text, code, message", [
    # numpy cannot sample uniform marks whose width overflows: refused at
    # parse time, before the output directory is made
    (["simulate"], "[noise]\nrate = 3\nmarks = uniform\n"
     "mark_low = -1e308\nmark_high = 1e308\n", 2, "need a finite high - low"),
    # a closed-form target past the float range fails the run before any solve
    (["convergence"], "[model]\nname = mixed_geometric\nsigma_h = 1000\n"
     "[grid]\nsteps = 16\n[mc]\nreplicas = 50\n", 1, "closed form is not finite"),
    # E[g(Y)^1200] of the default two-point gain 2 is past the float range;
    # the jumps suite refuses it before it draws any train
    (["verify", "jumps"], "[noise]\nrate = 1\n[mc]\njump_power = 300\n",
     2, "p = 300.0 is too large"),
    # the overflowing target keeps the sign of x0
    (["convergence"], "[model]\nname = mixed_geometric\nsigma_h = 1000\nx0 = -1\n"
     "[grid]\nsteps = 16\n[mc]\nreplicas = 50\n", 1, "not finite at replica 3: -inf"),
    # `verify all` runs the four suites before it, then writes nothing
    (["verify", "all"], "[noise]\nrate = 1\n[grid]\nsteps = 16\n[mc]\nreplicas = 120\n"
     "jump_power = 300\n", 2, "p = 300.0 is too large"),
])
def test_overflowing_configs_exit_with_an_error_line(tmp_path, capsys, command, text,
                                                     code, message):
    cfg = _write(tmp_path, "run.ini", text)
    out = tmp_path / "out"
    assert cli.main([*command, "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    if command == ["simulate"]:
        assert not out.exists()
    else:
        assert list(out.iterdir()) == []


def test_overflowing_geometric_closed_form_from_zero_is_exact(tmp_path, capsys):
    # exp(sigma_h Z_T) overflows on some replicas; x0 = 0 makes every
    # target and every Euler state exactly 0
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = mixed_geometric\nsigma_h = 1000\nx0 = 0\n"
                 "[noise]\nrate = 0\n[grid]\nsteps = 16\n[mc]\nreplicas = 50\n")
    out = tmp_path / "out"
    assert cli.main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    assert "convergence: PASS" in capsys.readouterr().out
    summary = (out / "convergence_summary.txt").read_text()
    assert "mean relative errors: 0 0 0 0" in summary
    assert "exact for this model" in summary


def test_a_suite_run_failure_writes_nothing(tmp_path, capsys):
    # the kernel suite passes before the lemma suite finds every path blown
    # up; its summary is not written either
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = explosive\nx0 = 3\n[grid]\nsteps = 64\n"
                 "[mc]\nreplicas = 120\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "all", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "kernel: PASS\n"
    assert captured.err.startswith("error:") and "120 of 120 replicas blew up" in captured.err
    assert list(out.iterdir()) == []


def test_a_blow_up_at_a_jump_names_the_jump(tmp_path, capsys):
    # a mark of -1e308 takes the state out of the trust region at the jump
    cfg = _write(tmp_path, "run.ini",
                 "[noise]\nrate = 1\nmarks = two_point\nmark_low = -1e308\n"
                 "mark_high = 1e308\n[grid]\nsteps = 16\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulate: solve failed: state blew up at a jump (t=0.254294):")
    assert "step -1" not in err
    assert sorted(p.name for p in out.iterdir()) == [
        "config.echo.ini", "fbm.csv", "jumps.csv", "manifest.txt", "wiener.csv"]


def test_a_float_error_in_a_step_is_reported_as_the_blow_up_alone(tmp_path, capsys):
    # x / capacity overflows in the logistic drift's first step; the step
    # loop reports the state it makes as the blow-up, and numpy warns of
    # nothing (a warning here is an error)
    text = "[model]\nname = logistic_drift\ncapacity = 1e-310\n[grid]\nsteps = 16\n"
    one = _write(tmp_path, "one.ini", text)
    many = _write(tmp_path, "many.ini", text + "[mc]\nreplicas = 120\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", one, "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == ("simulate: solve failed: state blew up at step 1"
                                           " (t=0.0625): x=-inf\n")
        assert cli.main(["verify", "all", "--config", many, "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == ("error: need at least 4 paths to split, got 0:"
                                           " 120 of 120 replicas blew up\n")


def test_lemma_without_survivors_exits_1(tmp_path, capsys):
    # a valid config whose every solve blows up is a run failure, not a
    # configuration error
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = explosive\nx0 = 3\n[grid]\nsteps = 64\n"
                 "[mc]\nreplicas = 8\n")
    assert cli.main(["verify", "lemma", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "8 of 8 replicas blew up" in err
    assert "Traceback" not in err


def test_moments_without_survivors_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = explosive\nx0 = 3\n[grid]\nsteps = 64\n"
                 "[mc]\nreplicas = 100\n")
    assert cli.main(["verify", "moments", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: moment estimation needs >= 100 kept replicas, got 0")
    assert "100 of 100 replicas blew up" in err
    assert "Traceback" not in err


def test_suite_floors_are_checked_before_any_artifact(tmp_path, capsys):
    cfg = _write(tmp_path, "run.ini",
                 "[model]\nname = zero\n[grid]\nsteps = 16\n[mc]\nreplicas = 30\n")
    out = tmp_path / "out"
    assert cli.main(["verify", "all", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: suite moments: replicas must be an integer"
                                       " >= 100, got 30\n")
    assert list(out.iterdir()) == []
    for suite, floor in _FLOORS.items():
        few = _write(tmp_path, f"{suite}.ini", f"[mc]\nreplicas = {floor - 1}\n")
        assert cli.main(["verify", suite, "--config", few,
                         "--out", str(tmp_path / suite)]) == 2
        assert capsys.readouterr().err == (f"error: suite {suite}: replicas must be an"
                                           f" integer >= {floor}, got {floor - 1}\n")
        assert list((tmp_path / suite).iterdir()) == []


# the `cli_pipeline` benchmark's verify shape, whose gain moment overflows
# at jump_power 300, and a grid the self-similarity intervals miss
_REFUSED_LATE = {
    "jumps": ("[model]\nname = trigonometric\n[noise]\nhurst = 0.75\nrate = 2.0\n"
              "marks = uniform\nmark_low = -0.5\nmark_high = 0.5\n[grid]\nsteps = 128\n"
              "[mc]\nreplicas = 120\njump_power = 300\n",
              "p = 300.0 is too large"),
    "selfsim": ("[grid]\nsteps = 6\n[mc]\nreplicas = 120\n",
                "must align with the grid"),
}


@pytest.mark.parametrize("suite", sorted(_REFUSED_LATE))
def test_verify_all_checks_every_suite_before_any_draws(tmp_path, capsys, monkeypatch,
                                                        suite):
    # a config that only a later suite refuses exits 2 before the earlier
    # suites draw or print anything
    streams = []
    real = noise._streams
    monkeypatch.setattr(noise, "_streams", lambda seeds: streams.append(1) or real(seeds))
    text, reason = _REFUSED_LATE[suite]
    out = tmp_path / "out"
    assert cli.main(["verify", "all", "--config", _write(tmp_path, "run.ini", text),
                     "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: suite {suite}: ") and reason in printed.err
    assert list(out.iterdir()) == []
    assert streams == []


def test_misaligned_selfsim_grid_exits_2_before_writing(tmp_path, capsys):
    # the self-similarity intervals [0, 1/4] and [1/2, 1] miss a 6-cell grid
    cfg = _write(tmp_path, "run.ini", "[grid]\nsteps = 6\n[mc]\nreplicas = 120\n")
    for suite in ("selfsim", "all"):
        out = tmp_path / suite
        assert cli.main(["verify", suite, "--config", cfg, "--out", str(out)]) == 2
        assert "must align with the grid" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    assert cli.main(["simulate", "--out", str(taken)]) == 2
    assert "error:" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_seed_override(tmp_path):
    cfg = _write(tmp_path, "run.ini", SIM_CFG)
    base, other = tmp_path / "base", tmp_path / "other"
    assert cli.main(["simulate", "--config", cfg, "--out", str(base)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", "123",
                     "--out", str(other)]) == 0
    assert (base / "wiener.csv").read_bytes() != (other / "wiener.csv").read_bytes()
    assert "root = 123" in (other / "config.echo.ini").read_text()
    assert cli.main(["simulate", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "x")]) == 2


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _non_finite_cases():
    """id -> (command, config lines, line to replace, where the error points).

    The keys come from the echoed default config under each mark law and
    from each model builder's signature ([model] constants), so a key added
    to the config or a constant added to a model is covered by itself.  An
    empty value is an optional number ([frac] eta).
    """
    cases = {}
    for law in MARK_LAWS:
        lines = serialize_config(parse_config(f"[noise]\nmarks = {law}\n")).splitlines()
        section = None
        for i, line in enumerate(lines):
            key, sep, value = line.partition(" = ")
            if line.startswith("["):
                section = line[1:-1]
            elif sep and all(map(_is_number, value.split())):
                cases.setdefault(f"{section}.{key}", (["simulate"], lines, i,
                                                      f"[{section}] {key}"))
    for name, builder in MODELS.items():
        params = inspect.signature(builder).parameters.values()
        lines = serialize_config(parse_config(f"[model]\nname = {name}\n" + "".join(
            f"{p.name} = {p.default}\n" for p in params))).splitlines()
        model_keys = [line.partition(" = ")[0] for line in lines[:lines.index("")]]
        for p in params:
            cases[f"model.{name}.{p.name}"] = (["simulate"], lines, model_keys.index(p.name),
                                                f"[model] {p.name}")
    cases["verify.kappa-scale"] = (["verify", "selfsim", "--kappa-scale={}"],
                                   serialize_config(parse_config("")).splitlines(), None,
                                   "--kappa-scale must be finite")
    return cases


_NON_FINITE = _non_finite_cases()


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_numbers_exit_2(tmp_path, capsys, case):
    command, lines, index, spot = _NON_FINITE[case]
    for value in ("nan", "inf", "-inf"):
        text = list(lines)
        if index is not None:
            text[index] = text[index].partition(" = ")[0] + f" = {value}"
        cfg = _write(tmp_path, "run.ini", "\n".join(text) + "\n")
        out = tmp_path / value
        argv = [arg.format(value) for arg in command]
        assert cli.main(argv + ["--config", cfg, "--out", str(out)]) == 2, value
        assert spot in capsys.readouterr().err, value
        assert not out.exists(), value


def test_non_finite_table_covers_the_config():
    # a change to the echo format would otherwise empty the table silently
    assert {"model.x0", "noise.rate", "noise.mark_std", "frac.eta", "mc.p_list",
            "grid.steps", "verify.kappa-scale", "model.trigonometric.b0",
            "model.logistic_drift.rate"} <= set(_NON_FINITE)


def test_config_echo_excludes_output_directory(tmp_path):
    cfg = _write(tmp_path, "run.ini", SIM_CFG + "\n[output]\ndirectory = somewhere\n")
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(d1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(d2)]) == 0
    echo = (d1 / "config.echo.ini").read_text()
    assert echo == (d2 / "config.echo.ini").read_text()
    assert "somewhere" not in echo and "[output]" not in echo


# ---------------------------------------------------------------------------
# the 0/1/2 exit-code contract over the config grammar


def _edges(*bounds):
    """Each boundary of a range and its two float neighbours."""
    return tuple(x for b in bounds for x in (math.nextafter(b, -math.inf), b,
                                            math.nextafter(b, math.inf)))


# every number is drawn from these finite extremes and its key's boundaries
# (alpha, beta and eta at the default hurst 0.75)
_EXTREMES = (1e308, -1e308, 1e-320, 0.0)
_BOUNDS = {
    "model": {"x0": ()},
    "noise": {"hurst": _edges(0.5, 1.0), "rate": _edges(MAX_JUMP_MEAN)},
    "grid": {"horizon": ()},
    "frac": {"alpha": _edges(0.25, 0.5), "beta": _edges(0.25, 1.0), "lambda": (),
             "eta": _edges(0.125)},
    "mc": {"jump_power": (), "se_multiplier": (), "stability_se_multiplier": (),
           "holdout_pass_fraction": _edges(1.0), "ks_pvalue_min": _edges(1.0),
           "ratio_slack": ()},
}
_MARK_BOUNDS = {"p_low": _edges(1.0)}
_COMMANDS = {"simulate": ["simulate"], "convergence": ["convergence"],
             **{suite: ["verify", suite] for suite in cli.SUITES}}


def _number(bounds):
    return st.sampled_from(_EXTREMES + bounds).map(repr)


@st.composite
def _configs(draw):
    """(command, {section: {key: value}}) on a tiny shape: at most 16 steps
    and the command's own replica floor, with up to three numbers at an
    extreme (more would almost always be refused at parse time).  A grid
    numpy cannot hold is drawn too: 2**62 steps, or a convergence refined
    past 2**62 steps, is refused before anything is allocated."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    model = draw(st.sampled_from(sorted(MODELS)))
    law = draw(st.sampled_from(sorted(MARK_LAWS)))
    keys = [(section, key, bounds) for section, table in _BOUNDS.items()
            for key, bounds in table.items()]
    keys += [("model", p, ()) for p in inspect.signature(MODELS[model]).parameters]
    keys += [("noise", f"mark_{f.name}", _MARK_BOUNDS.get(f.name, ()))
             for f in dataclasses.fields(MARK_LAWS[law])]
    keys += [("mc", "p_list", ()), ("seed", "root", ())]
    config = {"model": {"name": model}, "noise": {"marks": law},
              "grid": {"steps": str(draw(st.sampled_from([0, 1, 4, 16, 2**62])))},
              "mc": {"replicas": str(_FLOORS.get(name, 1))}}
    for section, key, bounds in draw(st.lists(st.sampled_from(keys), max_size=3,
                                              unique=True)):
        if key == "root":
            value = str(draw(st.sampled_from([0, 2**64 - 1])))
        elif key == "p_list":
            value = " ".join(draw(st.lists(_number(bounds), min_size=1, max_size=3)))
        else:
            value = draw(_number(bounds))
        config.setdefault(section, {})[key] = value
    command = list(_COMMANDS[name])
    if name == "selfsim" and draw(st.booleans()):
        command.append(f"--kappa-scale={draw(_number(_edges(1.0)))}")
    if name == "convergence":
        command.append(f"--refinements={draw(st.sampled_from([3, 70, 1100]))}")
    return command, config


def _ini(config):
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in config.items())


@settings(max_examples=150, deadline=None)
@given(case=_configs())
@example(case=(["simulate"], {"noise": {"rate": "3", "marks": "uniform",
                                        "mark_low": "-1e308", "mark_high": "1e308"}}))
@example(case=(["convergence"], {"model": {"name": "mixed_geometric", "sigma_h": "1000"},
                                 "grid": {"steps": "16"}, "mc": {"replicas": "50"}}))
@example(case=(["verify", "jumps"], {"noise": {"rate": "1"}, "mc": {"jump_power": "300"}}))
@example(case=(["verify", "all"], {"model": {"name": "explosive", "x0": "3"},
                                   "grid": {"steps": "64"}, "mc": {"replicas": "120"}}))
@example(case=(["simulate"], {"noise": {"rate": repr(MAX_JUMP_MEAN)}}))
@example(case=(["simulate"], {"model": {"x0": "1e13"}}))
@example(case=(["verify", "selfsim", "--kappa-scale=1e308"],
               {"grid": {"steps": "4"}, "mc": {"replicas": "10"}}))
@example(case=(["verify", "lemma"], {"grid": {"steps": "16", "horizon": "1e-320"},
                                     "mc": {"replicas": "4"}}))
@example(case=(["simulate"], {"grid": {"steps": str(2**62)}}))
@example(case=(["simulate"], {"grid": {"steps": str(2**59)}}))
@example(case=(["simulate"], {"grid": {"steps": str(10**400)}}))
@example(case=(["convergence", "--refinements=55"], {"grid": {"steps": "16"}}))
@example(case=(["convergence", "--refinements=70"], {"grid": {"steps": "16"}}))
@example(case=(["convergence", "--refinements=1100"], {"grid": {"steps": "16"}}))
@example(case=(["convergence", "--refinements=51"], {"grid": {"steps": "16"},
                                                      "mc": {"replicas": "1000"}}))
@example(case=(["verify", "moments"], {"mc": {"replicas": "120", "p_list": "1 2 4 420"}}))
@example(case=(["verify", "moments"], {"mc": {"replicas": "120", "p_list": "1 2 4 1100"}}))
def test_every_config_exits_0_1_or_2_and_an_error_writes_nothing(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_ini(config), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", str(path), "--out", str(out)])
        event(f"exit {code}")
        assert code in (0, 1, 2)
        failed = any(line.startswith("error:") for line in err.getvalue().splitlines())
        assert failed or code != 2
        if failed:
            assert not out.exists() or list(out.iterdir()) == []
        # a moment table that is written holds only finite numbers
        table = out / "moments_data.csv"
        if table.exists():
            assert np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)).all()
