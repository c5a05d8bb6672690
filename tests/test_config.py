"""Config parsing: defaults, exact round trips, and line-precise errors."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsde.analysis import Thresholds
from mfsde.config import load_config, parse_config, serialize_config
from mfsde.errors import ParameterError
from mfsde.models import MODELS
from mfsde.noise import GaussianMarks, TwoPointMarks


FULL_TEXT = """\
[model]
name = linear
x0 = 0.5
theta = 1.25
sigma_w = 0.1
sigma_h = 0.9

[noise]
hurst = 0.8
rate = 2.5
marks = gaussian
mark_mean = 0.2
mark_std = 0.7

[grid]
horizon = 2
steps = 512

[frac]
alpha = 0.3
beta = 0.85
lambda = 1.5
eta = 0.1

[mc]
replicas = 64
p_list = 1, 2.5 3
jump_power = 0.5
se_multiplier = 5
stability_se_multiplier = 2.5
holdout_pass_fraction = 0.9
ks_pvalue_min = 0.02
ratio_slack = 0.01

[seed]
root = 7

[output]
directory = results
"""


def test_empty_config_takes_defaults():
    cfg = parse_config("")
    assert cfg.model_name == "additive" and cfg.model_params == {}
    assert cfg.x0 == 1.0
    assert cfg.frac.hurst == 0.75 and cfg.rate == 0.0
    assert cfg.marks == TwoPointMarks()
    assert (cfg.grid.horizon, cfg.grid.steps) == (1.0, 256)
    # alpha defaults to the midpoint of its admissible window
    assert cfg.frac.alpha == 0.375
    assert 0.25 < cfg.frac.beta < 1.0
    assert cfg.lam == 0.0 and cfg.eta is None
    assert cfg.replicas == 400
    assert cfg.p_list == (1.0, 2.0, 4.0, 8.0)
    assert cfg.jump_power == 0.25
    assert cfg.thresholds == Thresholds()
    assert cfg.seed_root == 0 and cfg.out_dir == "out"
    assert cfg.build_coeffs().name == "additive"


def test_full_config_and_exact_round_trip():
    cfg = parse_config(FULL_TEXT)
    assert cfg.model_name == "linear"
    assert cfg.model_params == {"theta": 1.25, "sigma_w": 0.1, "sigma_h": 0.9}
    assert cfg.marks == GaussianMarks(mean=0.2, std=0.7)
    assert cfg.p_list == (1.0, 2.5, 3.0)
    assert cfg.thresholds.se_multiplier == 5.0
    assert cfg.out_dir == "results"

    again = parse_config(serialize_config(cfg))
    assert again == cfg

    # omitting the output section must be the only difference
    echoed = serialize_config(cfg, include_output=False)
    assert "[output]" not in echoed
    stripped = parse_config(echoed)
    assert stripped.out_dir == "out"
    assert serialize_config(stripped, include_output=False) == echoed


def test_default_round_trip():
    cfg = parse_config("")
    assert parse_config(serialize_config(cfg)) == cfg


def _num(lo=-1e6, hi=1e6, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def _config_texts(draw):
    """INI text of a random valid configuration; optional keys may be absent
    and model constants are positive (logistic_drift needs a positive
    capacity)."""
    model = draw(st.sampled_from(sorted(MODELS)))
    consts = sorted(inspect.signature(MODELS[model]).parameters)
    lines = ["[model]", f"name = {model}", f"x0 = {draw(_num())!r}"]
    for key in draw(st.lists(st.sampled_from(consts), unique=True)) if consts else []:
        lines.append(f"{key} = {draw(_num(1e-3, 10.0))!r}")
    hurst = draw(_num(0.5, 1.0, exclude_min=True, exclude_max=True))
    marks = draw(st.sampled_from(["gaussian", "two_point", "uniform"]))
    lines += ["[noise]", f"hurst = {hurst!r}", f"rate = {draw(_num(0.0, 1e3))!r}",
              f"marks = {marks}"]
    if marks == "gaussian":
        lines += [f"mark_mean = {draw(_num())!r}", f"mark_std = {draw(_num(1e-3, 1e3))!r}"]
    elif marks == "two_point":
        lines += [f"mark_low = {draw(_num())!r}", f"mark_high = {draw(_num())!r}",
                  f"mark_p_low = {draw(_num(0.0, 1.0))!r}"]
    else:
        low = draw(_num(-10.0, 10.0))
        lines += [f"mark_low = {low!r}", f"mark_high = {low + draw(_num(1e-3, 10.0))!r}"]
    lines += ["[grid]", f"horizon = {draw(_num(1e-3, 1e3))!r}",
              f"steps = {draw(st.integers(1, 10**6))}"]
    lines.append("[frac]")
    floor = 1.0 - hurst
    alpha = draw(st.none() | _num(floor, 0.5, exclude_min=True, exclude_max=True))
    if alpha is not None:
        lines.append(f"alpha = {alpha!r}")
        eta = draw(st.none() | _num(0.0, 0.5 - alpha, exclude_min=True, exclude_max=True))
        if eta is not None:
            lines.append(f"eta = {eta!r}")
    if draw(st.booleans()):
        lines.append(f"beta = {draw(_num(floor, 1.0, exclude_min=True, exclude_max=True))!r}")
    lines.append(f"lambda = {draw(_num(0.0, 1e3))!r}")
    p_list = draw(st.lists(_num(1e-3, 64.0), min_size=1, max_size=5))
    lines += ["[mc]", f"replicas = {draw(st.integers(1, 10**6))}",
              "p_list = " + " ".join(repr(p) for p in p_list),
              f"jump_power = {draw(_num())!r}",
              f"se_multiplier = {draw(_num(1e-3, 1e3))!r}",
              f"stability_se_multiplier = {draw(_num(1e-3, 1e3))!r}",
              f"holdout_pass_fraction = {draw(_num(0.0, 1.0))!r}",
              f"ks_pvalue_min = {draw(_num(0.0, 1.0))!r}",
              f"ratio_slack = {draw(_num(0.0, 1.0))!r}",
              "[seed]", f"root = {draw(st.integers(0, 2**63))}",
              "[output]", f"directory = {draw(st.sampled_from(['out', 'runs/a b']))}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_config_texts())
def test_parse_serialize_parse_round_trip(text):
    cfg = parse_config(text)
    canonical = serialize_config(cfg)
    again = parse_config(canonical)
    assert again == cfg
    assert serialize_config(again) == canonical


def test_unknown_section_is_line_precise():
    text = "[model]\nname = zero\n\n[extras]\nfoo = 1\n"
    with pytest.raises(ParameterError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "line 4" in msg and "[extras]" in msg and "unknown section" in msg


def test_unknown_key_is_line_precise():
    text = "[model]\nname = zero\n\n[grid]\nstep = 12\n"
    with pytest.raises(ParameterError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "line 5" in msg and "[grid] step" in msg and "unknown key" in msg


def test_noise_section_allows_only_mark_prefixed_extras():
    parse_config("[noise]\nmarks = gaussian\nmark_std = 0.5\n")
    with pytest.raises(ParameterError) as exc:
        parse_config("[noise]\nflavor = 3\n")
    assert "mark_*" in str(exc.value)


def test_alpha_range_is_rejected_at_its_line():
    text = "[noise]\nhurst = 0.75\n\n[frac]\nalpha = 0.6\n"
    with pytest.raises(ParameterError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "line 5" in msg and "[frac] alpha" in msg and "alpha" in msg
    # below the rough-regularity cutoff 1 - hurst fails too
    with pytest.raises(ParameterError):
        parse_config("[frac]\nalpha = 0.2\n")


def test_bad_model_and_marks_names():
    with pytest.raises(ParameterError) as exc:
        parse_config("[model]\nname = nope\n")
    assert "[model] name" in str(exc.value)
    with pytest.raises(ParameterError) as exc:
        parse_config("[model]\nname = linear\nomega = 2\n")
    assert "omega" in str(exc.value)
    with pytest.raises(ParameterError) as exc:
        parse_config("[noise]\nmarks = weird\n")
    assert "[noise] marks" in str(exc.value)
    with pytest.raises(ParameterError) as exc:
        parse_config("[model]\nx0 = abc\n")
    assert "expected a number" in str(exc.value)


def test_mc_validation():
    with pytest.raises(ParameterError, match="replicas"):
        parse_config("[mc]\nreplicas = 0\n")
    with pytest.raises(ParameterError, match="integer"):
        parse_config("[mc]\nreplicas = 12.5\n")
    with pytest.raises(ParameterError, match="empty"):
        parse_config("[mc]\np_list =\n")
    with pytest.raises(ParameterError, match="positive"):
        parse_config("[mc]\np_list = 1 -2\n")
    with pytest.raises(ParameterError, match="numbers"):
        parse_config("[mc]\np_list = a b\n")


def test_grid_seed_rate_validation():
    with pytest.raises(ParameterError) as exc:
        parse_config("[grid]\nsteps = 0\n")
    assert "[grid]" in str(exc.value)
    with pytest.raises(ParameterError):
        parse_config("[grid]\nhorizon = -1\n")
    with pytest.raises(ParameterError, match="nonnegative"):
        parse_config("[seed]\nroot = -1\n")
    with pytest.raises(ParameterError, match="nonnegative"):
        parse_config("[noise]\nrate = -2\n")


@pytest.mark.parametrize("text, spot", [
    ("[model]\nx0 = nan\n", "line 2: [model] x0"),
    ("[model]\nx0 = inf\n", "line 2: [model] x0"),
    ("[noise]\nrate = inf\n", "line 2: [noise] rate"),
    # past the largest Poisson mean numpy draws from
    ("[noise]\nrate = 1e19\n", "line 2: [noise] rate"),
    ("[grid]\nhorizon = 1e10\n[noise]\nrate = 1e9\n", "line 4: [noise] rate"),
    ("[mc]\njump_power = nan\n", "line 2: [mc] jump_power"),
    ("[frac]\nlambda = nan\n", "line 2: [frac] lambda"),
    ("[model]\nname = linear\ntheta = nan\n", "line 3: [model] theta"),
    ("[mc]\nholdout_pass_fraction = 7\n", "line 2: [mc] holdout_pass_fraction"),
    ("[mc]\nks_pvalue_min = -1\n", "line 2: [mc] ks_pvalue_min"),
    ("[mc]\nse_multiplier = -3\n", "line 2: [mc] se_multiplier"),
    ("[mc]\np_list = 1 inf\n", "line 2: [mc] p_list"),
])
def test_non_finite_and_out_of_range_numbers_are_rejected(text, spot):
    with pytest.raises(ParameterError) as exc:
        parse_config(text)
    assert spot in str(exc.value)


def test_frac_weight_validation():
    for text, spot in [
        ("[frac]\nlambda = -1\n", "line 2: [frac] lambda"),
        # a bad lambda is blamed on lambda even when eta is set
        ("[frac]\nlambda = -1\neta = 0.1\n", "line 2: [frac] lambda"),
        ("[frac]\nalpha = 0.3\neta = 0.4\n", "line 3: [frac] eta"),
        ("[frac]\neta = 0\n", "line 2: [frac] eta"),
    ]:
        with pytest.raises(ParameterError) as exc:
            parse_config(text)
        assert spot in str(exc.value)


def test_syntax_error_is_wrapped():
    with pytest.raises(ParameterError, match="config syntax"):
        parse_config("key_without_section = 1\n")


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL_TEXT, encoding="utf-8")
    assert load_config(path) == parse_config(FULL_TEXT)
