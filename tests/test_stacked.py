"""Stacked driver synthesis and the stacked solver entry: every stack, and
every suite that draws through one, equals the per-replica draws it
replaced, bit for bit.

The references below are copies of the one-path synthesis that drew each
replica on its own (circulant embedding, Wiener increments, the jump-train
draw) and of the per-replica loops the callers ran, so the stacks are
checked against code they share nothing with.
"""

import dataclasses
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
from scipy import stats

from mfsde import noise, solver
from mfsde.analysis import simulate_ensemble, verify_pathwise_lemma, verify_self_similarity
from mfsde.cli import run_convergence
from mfsde.config import parse_config
from mfsde.errors import BlowUpError, GridMismatchError, ParameterError
from mfsde.models import build_model
from mfsde.noise import (
    FracParams,
    GaussianMarks,
    GridFunction,
    GridSpec,
    JumpTrain,
    Seed,
    TwoPointMarks,
    UniformMarks,
    gen_driving_stack,
    gen_driving_triple,
    gen_fbm,
    gen_fbm_stack,
    gen_jump_train,
)
from mfsde.norms import capital_lambda, norm_0_interval, norm_inf
from mfsde.solver import (
    BLOWUP_LIMIT,
    euler_paths,
    ito_integral_path,
    solve_with_jumps,
    solve_with_jumps_stack,
)

from test_analysis import BAD_COUNTS

EMPTY = JumpTrain(np.array([]), np.array([]), 0.0, 1.0)
MARK_LAWS = (TwoPointMarks(-0.5, 1.0, 0.3), GaussianMarks(0.1, 0.5), UniformMarks(-1.0, 2.0))


# ---------------------------------------------------------------------------
# the per-replica synthesis, as it stood before the stacks


def _ref_fgn(rng, n, hurst):
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
    eigs = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    v0 = rng.standard_normal()
    vn = rng.standard_normal()
    vre = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    vim = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    m = 2 * n
    lam = np.clip(eigs, 0.0, None)
    w = np.zeros(m, dtype=complex)
    w[0] = math.sqrt(lam[0] / m) * v0
    w[n] = math.sqrt(lam[n] / m) * vn
    if n > 1:
        amp = np.sqrt(lam[1:n] / (2.0 * m))
        w[1:n] = amp * (vre + 1j * vim)
        w[n + 1:] = np.conj(w[1:n][::-1])
    return np.fft.fft(w).real[:n]


def _ref_path(increments):
    return np.concatenate([[0.0], np.cumsum(increments)])


def _ref_fbm(grid, hurst, seed):
    return _ref_path(_ref_fgn(seed.generator(), grid.steps, hurst) * grid.dt**hurst)


def _ref_wiener(grid, seed):
    return _ref_path(seed.generator().standard_normal(grid.steps) * math.sqrt(grid.dt))


def _ref_train(rate, marks, horizon, seed, rng=None):
    rng = rng or seed.generator()
    count = int(rng.poisson(rate * horizon))
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    while count and (times[0] <= 0.0 or np.any(np.diff(times) <= 0.0)):
        times = np.sort(rng.uniform(0.0, horizon, size=count))
    return noise.JumpTrain(times, marks.sample(rng, count), float(rate), float(horizon))


def _ref_triple(grid, hurst, rate, marks, seed):
    """(W, B^H, train) of one replica seed as GridFunctions."""
    return (GridFunction(0.0, grid.horizon, _ref_wiener(grid, seed.child(0))),
            GridFunction(0.0, grid.horizon, _ref_fbm(grid, hurst, seed.child(1))),
            _ref_train(rate, marks, grid.horizon, seed.child(2)))


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_train(got, want):
    return (_same(got.times, want.times) and _same(got.marks, want.marks)
            and repr((got.count, got.rate, got.horizon))
            == repr((want.count, want.rate, want.horizon)))


# ---------------------------------------------------------------------------
# the stacks against one replica at a time


def _check_stacks(steps, hurst, rate, law, root, replicas, horizon):
    grid = GridSpec(horizon, steps)
    marks = MARK_LAWS[law]
    seeds = [Seed(root).child(3 + r) for r in range(replicas)]
    W, B, trains = gen_driving_stack(grid, hurst, rate, marks, seeds)
    fbm = gen_fbm_stack(grid, hurst, [s.child(7) for s in seeds])
    assert W.shape == B.shape == fbm.shape == (replicas, steps + 1)
    assert len(trains) == replicas
    for r, seed in enumerate(seeds):
        w, z, train = gen_driving_triple(grid, hurst, rate, marks, seed)
        ref_w, ref_z, ref_train = _ref_triple(grid, hurst, rate, marks, seed)
        assert _same(W[r], w.values) and _same(W[r], ref_w.values)
        assert _same(B[r], z.values) and _same(B[r], ref_z.values)
        assert _same(fbm[r], gen_fbm(grid, hurst, seed.child(7)).values)
        assert _same(fbm[r], _ref_fbm(grid, hurst, seed.child(7)))
        alone = gen_jump_train(rate, marks, horizon, seed.child(2))
        for got in (trains[r], train, alone):
            assert _same_train(got, ref_train)


_STACK_CASES = dict(
    steps=st.integers(1, 300),
    hurst=st.one_of(st.floats(0.501, 0.999), st.just(0.3)),
    rate=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    law=st.integers(0, len(MARK_LAWS) - 1),
    root=st.integers(0, 2**31 - 1),
    replicas=st.integers(1, 7),
    chunk_rows=st.integers(1, 3),
    bulk_min=st.integers(1, 8),
    horizon=st.sampled_from([1.0, 2.5]),
)


@settings(max_examples=40, deadline=None)
@given(**_STACK_CASES)
def test_stacks_equal_per_replica_draws(steps, hurst, rate, law, root, replicas,
                                        chunk_rows, bulk_min, horizon):
    # chunks of a few rows, so most draws cross a chunk boundary, and short
    # runs of seeds hashed in bulk or one by one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "_CHUNK", 2 * steps * chunk_rows)
        mp.setattr(noise, "_BULK_MIN", bulk_min)
        _check_stacks(steps, hurst, rate, law, root, replicas, horizon)


@pytest.mark.parametrize("steps, replicas", [(256, 130), (300, 111), (2048, 17)])
def test_stacks_cross_the_chunk_budget(steps, replicas):
    # the real chunk budget: 128 rows at n = 256, 109 at n = 300, 16 at 2048
    assert replicas > noise._CHUNK // (2 * steps)
    _check_stacks(steps, 0.75, 2.0, 2, 17, replicas, 1.0)


@pytest.mark.parametrize("width", [1, noise._BULK_MIN - 1, noise._BULK_MIN, 41])
@pytest.mark.parametrize("rate, law", [(0, 0), (3.0, 1), (50, 2)])
def test_train_stacks_equal_per_seed_draws(width, rate, law):
    # the real _BULK_MIN: the narrower stacks key each stream on its own
    seeds = [Seed(29).child(3 + r).child(2) for r in range(width)]
    marks = MARK_LAWS[law]
    trains = noise._draw_trains(rate, marks, 2.5, seeds)
    assert len(trains) == width
    for got, seed in zip(trains, seeds):
        want = _ref_train(rate, marks, 2.5, seed)
        assert _same_train(got, want) and _same_train(gen_jump_train(rate, marks, 2.5, seed), want)


class _TiedTimes:
    """A generator whose first draw of jump times is spoiled: an exact zero
    and a tie among the first two times, so the draw must take the redraw
    branch; every draw still comes from the wrapped stream."""

    def __init__(self, rng):
        self.rng = rng
        self.time_draws = 0

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def uniform(self, low, high, size):
        out = self.rng.uniform(low, high, size)
        self.time_draws += 1
        if self.time_draws == 1 and size:
            out[:2] = 0.0
        return out


def test_train_stack_takes_the_redraw_branch_as_one_train_does(monkeypatch):
    seeds = [Seed(31).child(3 + r).child(2) for r in range(12)]
    stubs = []

    def streams(seeds):
        for seed in seeds:
            stubs.append(_TiedTimes(seed.generator()))
            yield stubs[-1]

    monkeypatch.setattr(noise, "_streams", streams)
    trains = noise._draw_trains(3.0, MARK_LAWS[0], 1.0, seeds)
    redrawn = 0
    for got, seed, stub in zip(trains, seeds, stubs):
        want = _ref_train(3.0, MARK_LAWS[0], 1.0, seed, rng=_TiedTimes(seed.generator()))
        assert _same_train(got, want)
        redrawn += stub.time_draws > 1
    assert redrawn >= 10


@pytest.mark.parametrize("width", [1, 20])
def test_infinite_marks_are_refused_from_a_stack(width):
    # normal marks of std 1e308 overflow to inf at a draw beyond 1.8 std
    seeds = [Seed(6).child(3 + r) for r in range(width)]
    marks = GaussianMarks(0.0, 1e308)
    with pytest.raises(ParameterError, match="jump times and marks must be finite"):
        gen_driving_stack(GridSpec(1.0, 4), 0.75, 50.0, marks, seeds)
    with pytest.raises(ParameterError, match="jump times and marks must be finite"):
        gen_jump_train(50.0, marks, 1.0, seeds[0].child(2))


def test_spectrum_is_cached_read_only():
    amps = noise._fgn_amplitudes(16, 0.75)
    assert noise._fgn_amplitudes(16, 0.75) is amps
    with pytest.raises(ValueError):
        amps[2][0] = 1.0


def test_empty_stacks_and_bad_hurst():
    grid = GridSpec(1.0, 8)
    W, B, trains = gen_driving_stack(grid, 0.75, 1.0, TwoPointMarks(), [])
    assert W.shape == B.shape == (0, 9) and trains == []
    for hurst in (0.0, 1.0, math.nan):
        with pytest.raises(ParameterError, match="hurst"):
            gen_fbm_stack(grid, hurst, [Seed(0)])


# ---------------------------------------------------------------------------
# seed streams derived in bulk


def _words(value):
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _assembled_entropy(root, spawn_key):
    # SeedSequence's entropy words: root words, zero-padded to the pool
    # size when a spawn key follows, then the spawn key's words
    run = _words(root)
    spawn = [w for k in spawn_key for w in _words(k)]
    if spawn and len(run) < 4:
        run += [0] * (4 - len(run))
    return run + spawn


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**96), st.lists(st.integers(0, 2**70), max_size=5)),
                min_size=1, max_size=40))
def test_bulk_keys_equal_seed_sequence(cases):
    # multi-word roots and spawn keys included; rows of one width at a time
    by_width = {}
    for root, key in cases:
        by_width.setdefault(len(_assembled_entropy(root, key)), []).append((root, key))
    for group in by_width.values():
        entropy = np.array([_assembled_entropy(r, k) for r, k in group], dtype=np.uint32)
        want = [np.random.SeedSequence(r, spawn_key=tuple(k)).generate_state(2, np.uint64)
                for r, k in group]
        assert _same(noise._philox_keys(entropy), np.array(want))


@pytest.mark.parametrize("seeds", [
    [Seed(2**31 - 1).child(3 + r).child(r % 3) for r in range(40)],
    [Seed(r).child(5) for r in range(20)],
    [Seed(7 + r) for r in range(16)],
    # not hashed in bulk: too few, ragged spawn keys, a 64-bit entry
    [Seed(1).child(r) for r in range(5)],
    [Seed(1).child(r) if r % 2 else Seed(1).child(r).child(1) for r in range(20)],
    [Seed(2**40 + r).child(1) for r in range(20)],
], ids=["deep", "one-level", "no-key", "few", "ragged", "wide-root"])
def test_streams_draw_what_each_seed_draws(seeds):
    for seed, rng in zip(seeds, noise._streams(seeds)):
        fresh = seed.generator()
        for draw in (lambda g: g.standard_normal(7), lambda g: g.poisson(3.0, 2),
                     lambda g: g.uniform(0.0, 2.0, 3), lambda g: g.random(1)):
            assert _same(draw(rng), draw(fresh))


# ---------------------------------------------------------------------------
# the stacked solver entry


def _cubic_jumps():
    # blows up both inside a segment and at a jump
    return dataclasses.replace(
        build_model("linear"), name="cubic-jumps",
        a=lambda t, x: 4.0 * x ** 3, q=lambda t, x, y: 1e4 * y * x ** 8)


@pytest.mark.parametrize("coeffs, x0", [(build_model("trigonometric"), 1.0),
                                        (build_model("linear"), 1.0),
                                        (_cubic_jumps(), 0.3)],
                         ids=["trigonometric", "linear", "cubic-jumps"])
def test_stacked_solve_equals_per_triple_solves(coeffs, x0):
    # 150 replicas: two solver blocks
    grid = GridSpec(1.0, 16)
    seeds = [Seed(23).child(3 + r) for r in range(150)]
    W, B, trains = gen_driving_stack(grid, 0.75, 3.0, TwoPointMarks(), seeds)
    drawn = []

    def draw(rows):
        drawn.append(rows)
        return W[rows], B[rows], trains[rows]

    stacked = solve_with_jumps_stack(coeffs, x0, grid, draw, len(seeds))
    assert drawn == [slice(0, 128), slice(128, 150)]
    triples = [(GridFunction(0.0, 1.0, w), GridFunction(0.0, 1.0, z), t)
               for w, z, t in zip(W, B, trains)]
    outcomes = set()
    for got, triple in zip(stacked, triples):
        try:
            single = solve_with_jumps(coeffs, x0, *triple)
        except BlowUpError as err:
            assert str(got) == str(err)
            outcomes.add("blow-up")
            continue
        assert _same(got.times, single.times) and _same(got.values, single.values)
        assert _same(got.left_flags, single.left_flags)
        outcomes.add("solved")
    assert "solved" in outcomes


def test_stacked_solve_validation():
    grid = GridSpec(1.0, 8)
    W, B, trains = gen_driving_stack(grid, 0.75, 1.0, TwoPointMarks(), [Seed(1), Seed(2)])
    coeffs = build_model("linear")
    for bad in (lambda rows: (W, B, trains),                    # too many rows
                lambda rows: (W[rows], B[rows, :5], trains[rows]),
                lambda rows: (W[rows], B[rows], [])):
        with pytest.raises(GridMismatchError):
            solve_with_jumps_stack(coeffs, 1.0, grid, bad, 1)
    with pytest.raises(GridMismatchError):
        solve_with_jumps_stack(coeffs, 1.0, GridSpec(1.0, 16),
                               lambda rows: (W[rows], B[rows], trains[rows]), 2)
    with pytest.raises(ParameterError, match="x0"):
        solve_with_jumps_stack(coeffs, math.nan, grid, lambda rows: 1 / 0, 2)
    assert solve_with_jumps_stack(coeffs, 1.0, grid, lambda rows: 1 / 0, 0) == []
    for bad in BAD_COUNTS:
        with pytest.raises(ParameterError, match="replicas must be a nonnegative integer"):
            solve_with_jumps_stack(coeffs, 1.0, grid, lambda rows: 1 / 0, bad)


# ---------------------------------------------------------------------------
# the step loop against its row-major form

# Copies of the row-major step loop and restart layout as they stood before
# the time-major loop: replicas in block order, (rows, K) step arrays padded
# with hold transitions, and jumps read from padded kinds and marks.
_REF_JUMP = -1
_REF_HOLD = 0


def _ref_euler_loop(coeffs, x0, t, dt, dw, dz, kinds=None, marks=None):
    x = x0
    rows, steps = x.size, dw.shape[1]
    out = np.empty((rows, steps + 1))
    out[:, 0] = x
    special = ([False] * steps if kinds is None
               else (kinds <= _REF_HOLD).any(axis=0).tolist())
    frozen = None
    failed = {}
    for k in range(steps):
        tk = t[:, k]
        new = (x + coeffs.a(tk, x) * dt[:, k] + coeffs.b(tk, x) * dw[:, k]
               + coeffs.c(tk, x) * dz[:, k])
        hold = frozen
        if special[k]:
            kind = kinds[:, k]
            jump = kind == _REF_JUMP
            if jump.any():
                new[jump] = x[jump] + coeffs.q(tk[jump], x[jump], marks[jump, k])
            pad = kind == _REF_HOLD
            hold = pad if hold is None else hold | pad
        if hold is not None:
            new[hold] = x[hold]
        ok = np.abs(new) <= BLOWUP_LIMIT
        if not ok.all():
            bad = ~ok
            for r in np.flatnonzero(bad if frozen is None else bad & ~frozen):
                failed[int(r)] = (k, float(new[r]))
            new[bad] = x[bad]
            frozen = bad if frozen is None else frozen | bad
        out[:, k + 1] = new
        x = new
    return out, failed


def _ref_euler_paths(coeffs, x0, grid, w, z):
    w, z = np.asarray(w, dtype=float), np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(np.shape(x0), w.shape[:-1])
    n, ts = grid.steps, grid.times
    dw = np.broadcast_to(np.diff(w, axis=-1), shape + (n,)).reshape(-1, n)
    dz = np.broadcast_to(np.diff(z, axis=-1), shape + (n,)).reshape(-1, n)
    vals, failed = _ref_euler_loop(coeffs, np.full(shape, x0, dtype=float).reshape(-1),
                                   ts[None, :-1], np.diff(ts)[None, :], dw, dz)
    if failed:
        k, state = next(iter(failed.values()))
        raise BlowUpError(step=k + 1, time=ts[k + 1], state=state)
    return vals.reshape(shape + (n + 1,))


def _ref_restart_layout(grid, W, BH, trains):
    T, n = grid.horizon, grid.steps
    taus = np.concatenate([jumps.times for jumps in trains])
    h = T / n
    last_seg = np.cumsum([jumps.count + 1 for jumps in trains]) - 1
    inner = np.ones(last_seg[-1] + 1, dtype=bool)
    inner[last_seg] = False
    starts = np.zeros(inner.size)
    starts[np.flatnonzero(inner) + 1] = taus
    ends = np.full(inner.size, T)
    ends[inner] = taus
    counts, local = solver._local_nodes(ends - starts, h)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    times = np.repeat(starts, counts) + local
    row_end = np.cumsum(counts)[last_seg]
    sizes = np.diff(row_end, prepend=0)
    row = np.repeat(np.arange(len(trains)), sizes)

    nodes = np.linspace(0.0, T, n + 1)
    near = np.clip(np.rint(times / h).astype(int), 0, n)
    off = np.flatnonzero(np.abs(times - nodes[near]) > 1e-9 * h)
    t_off, r_off = times[off], row[off]
    j = np.clip(np.searchsorted(nodes, t_off, "right") - 1, 0, n - 1)

    def sample(values):
        out = values[row, near]
        f0, f1 = values[r_off, j], values[r_off, j + 1]
        out[off] = np.where(t_off >= T, values[r_off, n],
                            (f1 - f0) / (nodes[j + 1] - nodes[j]) * (t_off - nodes[j]) + f0)
        return out - out[first]

    w = sample(W)
    z = sample(BH)
    jump_from = (np.cumsum(counts) - 1)[inner]
    kinds = np.arange(1, times.size + 1) - first
    kinds[jump_from] = _REF_JUMP
    t = times.copy()
    t[jump_from] = taus
    marks = np.zeros(times.size)
    marks[jump_from] = np.concatenate([jumps.marks for jumps in trains])

    def steps(values):
        d = np.append(values[1:] - values[:-1], 0.0)
        d[jump_from] = 0.0
        return d

    keep = np.ones(times.size, dtype=bool)
    keep[row_end - 1] = False
    valid = np.arange(sizes.max() - 1) < (sizes - 1)[:, None]

    def pad(values, fill=0):
        out = np.full(valid.shape, fill, dtype=values.dtype)
        out[valid] = values[keep]
        return out

    flags = np.zeros(times.size, dtype=int)
    flags[jump_from] = 1
    return (pad(t), pad(steps(local)), pad(steps(w)), pad(steps(z)),
            pad(kinds, _REF_HOLD), pad(marks), np.split(times, row_end[:-1]),
            np.split(flags, row_end[:-1]))


def _ref_solve_block(coeffs, x0, grid, W, BH, trains):
    """One block solved row-major: per replica (times, values, flags) or
    the text of its BlowUpError."""
    t, dt, dw, dz, kinds, marks, times, flags = _ref_restart_layout(grid, W, BH, trains)
    states, failed = _ref_euler_loop(coeffs, np.full(len(trains), float(x0)), t, dt, dw,
                                     dz, kinds, marks)
    results = []
    for r in range(len(trains)):
        if r in failed:
            k, state = failed[r]
            if kinds[r, k] == _REF_JUMP:
                err = BlowUpError(step=-1, time=t[r, k], state=state)
            else:
                err = BlowUpError(step=int(kinds[r, k]), time=times[r][k + 1], state=state)
            results.append(str(err))
        else:
            results.append((times[r], states[r, :times[r].size], flags[r]))
    return results


def _check_block(coeffs, x0, grid, W, BH, trains):
    """The stacked solve of one block against the row-major reference;
    returns the blow-up texts."""
    want = _ref_solve_block(coeffs, x0, grid, W, BH, trains)
    got = solve_with_jumps_stack(coeffs, x0, grid, lambda rows: (W, BH, trains),
                                 len(trains))
    for g, w in zip(got, want):
        if isinstance(w, str):
            assert str(g) == w
        else:
            assert _same(g.times, w[0]) and _same(g.values, w[1])
            assert _same(g.left_flags, w[2])
            assert g.values.flags.c_contiguous
    return [w for w in want if isinstance(w, str)]


def _block_train(grid, spec):
    """A train from (kind, position, mark) triples: a free time, a grid
    node, within 1e-9 h of one, or the horizon."""
    T, h = grid.horizon, grid.dt
    at = {"free": lambda u: u * T, "node": lambda u: round(u * grid.steps) * h,
          "near": lambda u: round(u * grid.steps) * h + (u - 0.5) * 1e-9 * h,
          "end": lambda u: T}
    times = {}
    for kind, u, mark in spec:
        tau = at[kind](u)
        if 0.0 < tau <= T:
            times.setdefault(tau, mark)
    taus = np.array(sorted(times))
    return JumpTrain(taus, np.array([times[t] for t in taus]), 1.0, T)


_BLOCK_COEFFS = (build_model("trigonometric"), build_model("linear"),
                 dataclasses.replace(build_model("linear"), q=lambda t, x, y: t - x))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 24),
       horizon=st.sampled_from([1.0, 1.5]), model=st.integers(0, len(_BLOCK_COEFFS) - 1),
       specs=st.lists(st.lists(st.tuples(st.sampled_from(["free", "node", "near", "end"]),
                                         st.floats(0.0, 1.0), st.floats(-0.5, 0.5)),
                               max_size=12),
                      min_size=1, max_size=40))
def test_block_solve_equals_the_row_major_loop(seed, steps, horizon, model, specs):
    grid = GridSpec(horizon, steps)
    rng = np.random.default_rng(seed)
    W = np.cumsum(rng.normal(0.0, 0.3, (len(specs), steps + 1)), axis=1)
    BH = np.cumsum(rng.normal(0.0, 0.3, (len(specs), steps + 1)), axis=1)
    trains = [_block_train(grid, spec) for spec in specs]
    _check_block(_BLOCK_COEFFS[model], 1.0, grid, W, BH, trains)


def test_block_blow_ups_equal_the_row_major_loop(monkeypatch):
    # zero drivers: the cubic drift and jump map alone; from 0.3 the drift
    # does not blow up by T, from 1.0 it does inside the first segment
    grid = GridSpec(1.0, 16)
    W = np.zeros((5, 17))
    quiet = JumpTrain(np.linspace(0.05, 0.95, 12), np.full(12, 1e-6), 1.0, 1.0)
    cases = {
        # a jump lifts the state and the drift blows up after it, while
        # the longer quiet row still steps
        "short row": [JumpTrain([0.5], [0.45], 1.0, 1.0), quiet],
        # three jumps 1e-12 apart: the third one blows up
        "at a jump": [quiet, JumpTrain(0.3 + np.arange(3) * 1e-12, np.full(3, 0.45),
                                       1.0, 1.0)],
        # a jump at T blows up on the row's last real transition, the slot
        # before its padding, while the longer quiet row still steps
        "last transition": [JumpTrain([1.0], [1e12], 1.0, 1.0), quiet],
    }
    texts = {name: _check_block(_cubic_jumps(), 0.3, grid, W[:2], W[:2], trains)
             for name, trains in cases.items()}
    texts["in a segment"] = _check_block(_cubic_jumps(), 1.0, grid, W, W,
                                         [quiet] + [EMPTY] * 4)
    # a replica that has ended takes zero steps while longer ones step; its
    # drift here is inf, so inf * 0 makes its padded state NaN, which is
    # ignored: it is not a blow-up
    lifted = dataclasses.replace(build_model("linear"), a=lambda t, x: 1e-3 * np.exp(x),
                                 q=lambda t, x, y: y - x)
    with np.errstate(over="ignore", invalid="ignore"):
        texts["ended"] = _check_block(lifted, 0.3, grid, W[:2], W[:2],
                                      [JumpTrain([1.0], [800.0], 1.0, 1.0), quiet])
    # additive moves x by the rough increment alone: row 1 leaves the trust
    # region at step 6 and comes back to its start at step 9, before its
    # jump, and row 2 leaves for good at step 12; each is reported at its
    # first bad transition, with the states scanned two steps at a time
    rough = np.zeros((3, 17))
    rough[1, 6:9], rough[2, 12:] = 4e12, 6e12
    monkeypatch.setattr(solver, "_CHUNK", 6)
    texts["comes back"] = _check_block(build_model("additive"), 1.0, grid, W[:3], rough,
                                       [EMPTY, JumpTrain([0.8], [0.5], 1.0, 1.0), EMPTY])
    monkeypatch.undo()
    where = {name: [text.split(":")[0] for text in found] for name, found in texts.items()}
    assert where["comes back"] == ["state blew up at step 6 (t=0.375)",
                                   "state blew up at step 12 (t=0.75)"]
    assert where["short row"] == ["state blew up at step 5 (t=0.8125)"]
    assert where["at a jump"] == ["state blew up at a jump (t=0.3)"]
    assert where["last transition"] == ["state blew up at a jump (t=1)"]
    assert where["in a segment"][1:] == ["state blew up at step 7 (t=0.4375)"] * 4
    assert where["ended"] == []


def test_euler_paths_equals_the_row_major_loop(monkeypatch):
    rng = np.random.default_rng(5)
    w = np.cumsum(rng.normal(0.0, 0.1, (6, 257)), axis=1)
    z = np.cumsum(rng.normal(0.0, 0.1, (6, 257)), axis=1)
    fine = GridSpec(1.0, 256)
    cases = [(1.0, GridSpec(1.0, 64), w[:, ::4], z[:, ::4]),       # strided views
             (0.7, fine, w[0], z[0]),                              # one path
             (0.1, fine, w[:1], z[:1]),                            # a stack of one
             (1.5, fine, w[:2], z[:2]),                            # two paths
             (1.0, fine, w[:0], z[:0])]                            # an empty stack
    shapes = []
    for coeffs in (build_model("trigonometric"), build_model("explosive", scale=-1.0)):
        for x0, grid, wi, zi in cases:
            got = euler_paths(coeffs, x0, grid, wi, zi)
            assert _same(got, _ref_euler_paths(coeffs, x0, grid, wi, zi))
            shapes.append(got.shape)
    assert shapes[:5] == [(6, 65), (257,), (1, 257), (2, 257), (0, 257)]

    # the increments come a chunk of steps at a time: chunks of 8 steps at
    # every width, around one and two chunks, on the same kinds of driver
    chunk = 8
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        grid = GridSpec(1.0, n)
        ws, zs = w[:, :4 * n + 1:4], z[:, :4 * n + 1:4]
        for x0, wi, zi, cols in ((1.0, ws, zs, 6), (0.7, ws[0], zs[0], 1),
                                 (1.5, ws[:2], zs[:2], 2)):
            monkeypatch.setattr(solver, "_CHUNK", 2 * chunk * cols)
            for coeffs in (build_model("trigonometric"), build_model("explosive", scale=-1.0)):
                assert _same(euler_paths(coeffs, x0, grid, wi, zi),
                             _ref_euler_paths(coeffs, x0, grid, wi, zi))
    # the driver values are copied 32 paths at a time: 70 strided paths
    # take two whole blocks and part of a third, in chunks of 8 steps
    wide_w, wide_z = np.cumsum(rng.normal(0.0, 0.1, (2, 70, 129)), axis=2)[:, :, ::2]
    monkeypatch.setattr(solver, "_CHUNK", 2 * chunk * 70)
    for coeffs in (build_model("trigonometric"), build_model("explosive", scale=-1.0)):
        assert _same(euler_paths(coeffs, 1.0, GridSpec(1.0, 64), wide_w, wide_z),
                     _ref_euler_paths(coeffs, 1.0, GridSpec(1.0, 64), wide_w, wide_z))
    monkeypatch.undo()

    # two rows blow up at one step with different states: the error names
    # the lower one
    grid, x0, linear = GridSpec(1.0, 64), 1.0, build_model("linear")
    zero, rough = np.zeros((3, 65)), np.zeros((3, 65))
    rough[1, 6:], rough[2, 6:] = 4e12, 6e12
    ts = grid.times
    _, failed = _ref_euler_loop(linear, np.full(3, x0), ts[None, :-1], np.diff(ts)[None, :],
                                zero[:, 1:], np.diff(rough, axis=1))
    assert failed[1][0] == failed[2][0] and failed[1][1] != failed[2][1]
    with pytest.raises(BlowUpError) as want:
        _ref_euler_paths(linear, x0, grid, zero, rough)
    with pytest.raises(BlowUpError) as got:
        euler_paths(linear, x0, grid, zero, rough)
    assert str(got.value) == str(want.value)
    assert got.value.state == failed[1][1]
    # the same when the first bad step lies in the second chunk
    k = failed[1][0]
    chunk = k // 2 + 1
    assert chunk <= k < 2 * chunk
    monkeypatch.setattr(solver, "_CHUNK", 2 * chunk * 3)
    with pytest.raises(BlowUpError) as got:
        euler_paths(linear, x0, grid, zero, rough)
    assert str(got.value) == str(want.value)
    assert got.value.state == want.value.state == failed[1][1]
    monkeypatch.undo()

    # additive moves x by the rough increment alone: row 1 leaves the trust
    # region for good at step 12, and row 2 leaves it at step 6 and comes
    # back to its start at step 9; the error names row 2's first bad step
    grid, additive = GridSpec(1.0, 16), build_model("additive")
    rough = np.zeros((3, 17))
    rough[1, 12:], rough[2, 6:9] = 6e12, 4e12
    with pytest.raises(BlowUpError) as want:
        _ref_euler_paths(additive, x0, grid, zero[:, :17], rough)
    with pytest.raises(BlowUpError) as got:
        euler_paths(additive, x0, grid, zero[:, :17], rough)
    assert str(got.value) == str(want.value)
    assert (got.value.step, got.value.state) == (6, x0 + 4e12)


# ---------------------------------------------------------------------------
# the callers against their per-replica loops


@pytest.mark.parametrize("model, x0, rate, replicas", [
    ("trigonometric", 1.0, 3.0, 140),
    ("linear", 1.0, 0.0, 9),
])
def test_ensemble_equals_the_per_replica_loop(model, x0, rate, replicas):
    grid, frac, marks = GridSpec(1.0, 32), FracParams(0.75), UniformMarks(-0.5, 0.5)
    ens = simulate_ensemble(build_model(model), x0, grid, frac, Seed(41), replicas,
                            rate=rate, marks=marks)
    kept = []
    for r in range(replicas):
        drivers = _ref_triple(grid, 0.75, rate, marks, Seed(41).child(3 + r))
        kept.append((r, solve_with_jumps(ens.coeffs, x0, *drivers)))
    assert ens.replica_ids == tuple(r for r, _ in kept) and not ens.excluded
    for path, (_, single) in zip(ens.paths, kept):
        assert _same(path.times, single.times) and _same(path.values, single.values)


def test_ensemble_sups_are_taken_once_per_path():
    grid, frac = GridSpec(1.0, 32), FracParams(0.75)
    ens = simulate_ensemble(build_model("trigonometric"), 1.0, grid, frac, Seed(12), 20,
                            rate=3.0, marks=UniformMarks(-0.5, 0.5))
    sups = ens.sup_values()
    assert _same(sups, np.array([float(np.max(np.abs(p.values))) for p in ens.paths]))
    assert ens.sup_values() is sups
    with pytest.raises(ValueError):
        sups[0] = 0.0


def _ref_convergence(cfg, refinements):
    """run_convergence's mean errors and monotone fraction, drawn and solved
    one seed at a time."""
    coeffs = cfg.build_coeffs()
    levels = [cfg.grid.steps * 2 ** j for j in range(refinements + 1)]
    fine = GridSpec(cfg.grid.horizon, levels[-1])
    m = cfg.replicas
    drivers = [_ref_triple(fine, cfg.frac.hurst, cfg.rate, cfg.marks, cfg.seed().child(3 + s))
               for s in range(m)]
    w_fine = np.array([w.values for w, _, _ in drivers])
    z_fine = np.array([z.values for _, z, _ in drivers])
    targets = np.empty(m)
    for s, (w, z, train) in enumerate(drivers):
        targets[s] = coeffs.closed_form(cfg.x0, w.values[-1], z.values[-1], train)
    errors = np.empty((m, len(levels)))
    for j, steps in enumerate(levels):
        stride = levels[-1] // steps
        grid_j = GridSpec(cfg.grid.horizon, steps)
        if cfg.rate == 0.0:
            terminal = euler_paths(coeffs, cfg.x0, grid_j, w_fine[:, ::stride],
                                   z_fine[:, ::stride])[:, -1]
        else:
            terminal = np.array([
                solve_with_jumps(coeffs, cfg.x0,
                                 GridFunction(0.0, grid_j.horizon, w.values[::stride]),
                                 GridFunction(0.0, grid_j.horizon, z.values[::stride]),
                                 train).terminal
                for w, z, train in drivers])
        errors[:, j] = np.abs(terminal - targets) / np.maximum(np.abs(targets), 1e-12)
    return errors.mean(axis=0), float(np.mean(np.all(np.diff(errors, axis=1) < 0.0, axis=1)))


@pytest.mark.parametrize("text", [
    "[model]\nname = mixed_geometric\n[grid]\nsteps = 16\n[mc]\nreplicas = 30\n",
    "[model]\nname = additive\n[noise]\nrate = 2.5\nmarks = gaussian\n"
    "[grid]\nsteps = 8\n[mc]\nreplicas = 140\n",
], ids=["rate-0", "rate-2.5"])
def test_convergence_equals_the_per_seed_loop(text):
    cfg = parse_config(text)
    report = run_convergence(cfg, 3)
    mean_errors, monotone = _ref_convergence(cfg, 3)
    assert report.mean_errors == tuple(float(e) for e in mean_errors)
    if not report.exact:
        assert report.monotone_fraction == monotone


_MEMORY_PROBE = """
import json
from mfsde.cli import run_convergence
from mfsde.config import parse_config

def config(replicas, steps):
    return parse_config("[model]\\nname = mixed_geometric\\nsigma_w = 0.1\\n"
                        "[noise]\\nhurst = 0.75\\nrate = 0\\n"
                        f"[grid]\\nsteps = {steps}\\n[mc]\\nreplicas = {replicas}\\n")

def peak_kb():
    # this process's own peak RSS; ru_maxrss would start at the parent's,
    # which Linux carries across fork and exec
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

run_convergence(config(4, 16), 3)
before = peak_kb()
run_convergence(config(1000, 256), 3)
print(json.dumps(peak_kb() - before))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_jump_free_convergence_holds_at_most_three_and_a_half_driver_stacks():
    # a fresh interpreter, warmed by a small call: the benchmark's
    # convergence shape (1000 seeds, 256 -> 2048 steps) holds its two
    # driver stacks, one level's paths and a chunk of increments at a time
    # (about 3.15 stacks); the bound also refuses whole increment stacks
    # (5.6) and a level's paths kept alive while the next is solved (3.65)
    src = str(Path(importlib.import_module("mfsde").__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    stacks = json.loads(run.stdout) * 1024 / (1000 * 2049 * 8)
    assert stacks <= 3.5, stacks


def test_lemma_equals_the_per_replica_loop():
    grid, frac = GridSpec(1.0, 48), FracParams(0.75, alpha=0.3)
    ens = simulate_ensemble(build_model("trigonometric"), 1.0, grid, frac, Seed(8), 14)
    rep = verify_pathwise_lemma(ens)
    lhs, lam, jb = [], [], []
    for rid, path in zip(ens.replica_ids, ens.paths):
        wiener, fbm, _ = _ref_triple(grid, 0.75, 0.0, ens.marks, Seed(8).child(3 + rid))
        lhs.append(norm_inf(GridFunction(0.0, 1.0, path.values), 1.0, 0.3))
        lam.append(capital_lambda(fbm, 1.0, 0.3))
        b_vals = np.broadcast_to(ens.coeffs.b(grid.times, path.values), grid.times.shape)
        jb.append(norm_inf(ito_integral_path(b_vals, wiener), 1.0, 0.3))
    assert repr((rep.lhs, rep.lam, rep.ito_norm)) == repr((tuple(lhs), tuple(lam), tuple(jb)))


def test_self_similarity_equals_the_per_replica_loop(monkeypatch):
    seen = []
    ks_2samp = stats.ks_2samp

    def capture(sample, reference):
        seen.append((sample.copy(), reference.copy()))
        return ks_2samp(sample, reference)

    monkeypatch.setattr(stats, "ks_2samp", capture)
    intervals, replicas, steps, alpha = ((0.0, 0.25), (0.5, 1.0)), 12, 32, 0.3
    verify_self_similarity(0.75, alpha, intervals, replicas, Seed(6), steps=steps)
    expo = 1.0 / (1.0 - alpha)
    kappa = (alpha + 0.75 - 1.0) / (1.0 - alpha)
    for k, ((a, b), (sample, reference)) in enumerate(zip(intervals, seen)):
        cells = int(round((b - a) * steps))
        want_sample, want_reference = [], []
        for r in range(replicas):
            bh = _ref_fbm(GridSpec(1.0, steps), 0.75, Seed(6).child(2 * k).child(r))
            ref = _ref_fbm(GridSpec(1.0, cells), 0.75, Seed(6).child(2 * k + 1).child(r))
            want_sample.append((b - a) ** (-kappa)
                               * norm_0_interval(GridFunction(0.0, 1.0, bh), a, b, alpha)
                               ** expo)
            want_reference.append(norm_0_interval(GridFunction(0.0, 1.0, ref), 0.0, 1.0,
                                                  alpha) ** expo)
        assert _same(sample, want_sample) and _same(reference, want_reference)
