"""Run configuration: INI-style files parsed into a validated bundle.

The format is plain `[section]` / `key = value` text so configs diff and
hand-edit cleanly.  Every key has a default; unknown sections or keys are
rejected rather than ignored, and validation failures point at the
offending line.  Floats serialize at 17 significant digits, so a
parse -> serialize -> parse round trip is exact.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .analysis import Thresholds, _moment_orders
from .errors import ParameterError
from .models import build_model
from .noise import (
    CSV_FLOAT_FMT,
    FracParams,
    GridSpec,
    MarkLaw,
    Seed,
    _check_count,
    _check_jump_mean,
    build_mark_law,
)
from .solver import CoefficientSet, _check_start

_DEFAULTS = {
    "model": {"name": "additive", "x0": "1"},
    "noise": {"hurst": "0.75", "rate": "0", "marks": "two_point"},
    "grid": {"horizon": "1", "steps": "256"},
    "frac": {"alpha": "", "beta": "", "lambda": "0", "eta": ""},
    # the threshold keys and defaults are the fields of Thresholds
    "mc": {"replicas": "400", "p_list": "1 2 4 8", "jump_power": "0.25",
           **{f.name: str(f.default) for f in dataclasses.fields(Thresholds)}},
    "seed": {"root": "0"},
    "output": {"directory": "out"},
}

# model takes free numeric keys (builder constants) and noise takes
# mark_* keys (mark-law constants); everything else is closed.
_FIXED_KEYS = {name: frozenset(keys) for name, keys in _DEFAULTS.items()
               if name not in ("model", "noise")}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; built by parse_config."""

    model_name: str
    model_params: dict
    x0: float
    rate: float
    marks: MarkLaw
    grid: GridSpec
    frac: FracParams
    lam: float
    eta: float | None
    replicas: int
    p_list: tuple
    jump_power: float
    thresholds: Thresholds
    seed_root: int
    out_dir: str

    def build_coeffs(self) -> CoefficientSet:
        return build_model(self.model_name, **self.model_params)

    def seed(self) -> Seed:
        return Seed(self.seed_root)


def _line_of(text: str, section: str, key: str | None) -> int | None:
    current = None
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
            if key is None and current == section:
                return i
        elif current == section and key is not None:
            head = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if head == key:
                return i
    return None


def _fail(text: str, section: str, key: str | None, message: str) -> None:
    line = _line_of(text, section, key)
    where = f"line {line}: " if line is not None else ""
    spot = f"[{section}]" + (f" {key}" if key else "")
    raise ParameterError(f"config {where}{spot}: {message}")


def _owned(text: str, where: dict, build, /, *args, **kwargs):
    """build(*args, **kwargs), with a ParameterError it raises re-raised at
    the key of `where` (key -> section) that opens the message, or else at
    the first key."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        msg = str(exc)
        key = next((k for k in where if msg.startswith(k)), next(iter(where)))
        _fail(text, where[key], key, msg)


def _get_float(text: str, values: dict, section: str, key: str) -> float:
    raw = values[key]
    try:
        value = float(raw)
    except ValueError:
        _fail(text, section, key, f"expected a number, got {raw!r}")
    if not math.isfinite(value):
        _fail(text, section, key, f"expected a finite number, got {raw!r}")
    return value


def _get_int(text: str, values: dict, section: str, key: str) -> int:
    raw = values[key]
    try:
        return int(raw)
    except ValueError:
        _fail(text, section, key, f"expected an integer, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate an INI config; defaults fill gaps."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParameterError(f"config syntax: {exc}") from exc

    merged = {name: dict(defaults) for name, defaults in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in merged:
            _fail(text, section, None,
                  f"unknown section; expected one of {sorted(merged)}")
        for key, value in parser.items(section):
            fixed = _FIXED_KEYS.get(section)
            if fixed is not None and key not in fixed:
                _fail(text, section, key,
                      f"unknown key; expected one of {sorted(fixed)}")
            if section == "noise" and key not in ("hurst", "rate", "marks") \
                    and not key.startswith("mark_"):
                _fail(text, section, key,
                      "unknown key; expected hurst, rate, marks, or mark_*")
            merged[section][key] = value.strip()

    model_sec = merged["model"]
    model_name = model_sec["name"]
    x0 = _get_float(text, model_sec, "model", "x0")
    x0 = _owned(text, {"x0": "model"}, _check_start, x0)
    model_params = {}
    for key, value in model_sec.items():
        if key in ("name", "x0"):
            continue
        model_params[key] = _get_float(text, model_sec, "model", key)
    _owned(text, {"name": "model"}, build_model, model_name, **model_params)

    noise_sec = merged["noise"]
    hurst = _get_float(text, noise_sec, "noise", "hurst")
    rate = _get_float(text, noise_sec, "noise", "rate")
    mark_kwargs = {key[len("mark_"):]: _get_float(text, noise_sec, "noise", key)
                   for key in noise_sec if key.startswith("mark_")}
    marks = _owned(text, {"marks": "noise"}, build_mark_law, noise_sec["marks"],
                   **mark_kwargs)

    grid_sec = merged["grid"]
    grid = _owned(text, {"steps": "grid", "horizon": "grid"}, GridSpec,
                  _get_float(text, grid_sec, "grid", "horizon"),
                  _get_int(text, grid_sec, "grid", "steps"))
    _owned(text, {"rate": "noise"}, _check_jump_mean, rate, grid.horizon)

    frac_sec = merged["frac"]
    alpha = _get_float(text, frac_sec, "frac", "alpha") if frac_sec["alpha"] else None
    beta = _get_float(text, frac_sec, "frac", "beta") if frac_sec["beta"] else None
    frac = _owned(text, {"alpha": "frac", "hurst": "noise", "beta": "frac"}, FracParams,
                  hurst, alpha=alpha, beta=beta)
    lam = _get_float(text, frac_sec, "frac", "lambda")
    eta = _get_float(text, frac_sec, "frac", "eta") if frac_sec["eta"] else None
    if lam < 0.0:
        _fail(text, "frac", "lambda", "lam must be nonnegative")
    if eta is not None and not 0.0 < eta < 0.5 - frac.alpha:
        _fail(text, "frac", "eta", "eta must lie in (0, 1/2 - alpha)")

    mc_sec = merged["mc"]
    replicas = _get_int(text, mc_sec, "mc", "replicas")
    _owned(text, {"replicas": "mc"}, _check_count, "replicas", replicas, 1)
    try:
        p_list = [float(tok) for tok in mc_sec["p_list"].replace(",", " ").split()]
    except ValueError:
        _fail(text, "mc", "p_list", f"expected numbers, got {mc_sec['p_list']!r}")
    p_list = _owned(text, {"p_list": "mc"}, _moment_orders, p_list)
    jump_power = _get_float(text, mc_sec, "mc", "jump_power")
    names = [f.name for f in dataclasses.fields(Thresholds)]
    thresholds = _owned(text, dict.fromkeys(names, "mc"), Thresholds,
                        **{name: _get_float(text, mc_sec, "mc", name) for name in names})

    seed_root = _get_int(text, merged["seed"], "seed", "root")
    _owned(text, {"root": "seed"}, Seed, seed_root)
    out_dir = merged["output"]["directory"]

    return RunConfig(model_name, model_params, x0, rate, marks, grid,
                     frac, lam, eta, replicas, p_list, jump_power, thresholds,
                     seed_root, out_dir)


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt_num(x: float) -> str:
    return CSV_FLOAT_FMT % float(x)


def serialize_config(cfg: RunConfig, include_output: bool = True) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg.

    The output section can be omitted so that run echoes compare equal
    across destination directories.
    """
    lines = ["[model]", f"name = {cfg.model_name}", f"x0 = {_fmt_num(cfg.x0)}"]
    for key in sorted(cfg.model_params):
        lines.append(f"{key} = {_fmt_num(cfg.model_params[key])}")
    lines += ["", "[noise]", f"hurst = {_fmt_num(cfg.frac.hurst)}",
              f"rate = {_fmt_num(cfg.rate)}", f"marks = {cfg.marks.name}"]
    for field in dataclasses.fields(cfg.marks):
        lines.append(f"mark_{field.name} = {_fmt_num(getattr(cfg.marks, field.name))}")
    lines += ["", "[grid]", f"horizon = {_fmt_num(cfg.grid.horizon)}",
              f"steps = {cfg.grid.steps}"]
    lines += ["", "[frac]", f"alpha = {_fmt_num(cfg.frac.alpha)}",
              f"beta = {_fmt_num(cfg.frac.beta)}",
              f"lambda = {_fmt_num(cfg.lam)}",
              f"eta = {'' if cfg.eta is None else _fmt_num(cfg.eta)}"]
    lines += ["", "[mc]", f"replicas = {cfg.replicas}",
              "p_list = " + " ".join(_fmt_num(p) for p in cfg.p_list),
              f"jump_power = {_fmt_num(cfg.jump_power)}"]
    for field in dataclasses.fields(cfg.thresholds):
        lines.append(f"{field.name} = {_fmt_num(getattr(cfg.thresholds, field.name))}")
    lines += ["", "[seed]", f"root = {cfg.seed_root}"]
    if include_output:
        lines += ["", "[output]", f"directory = {cfg.out_dir}"]
    return "\n".join(lines) + "\n"
