"""Coefficient models, the mixed Euler solver, and the jump-restart build.

The scheme is explicit Euler with forward increments for both the Wiener
and the rough driver; forward increments are the consistent choice because
the rough integral is a forward-sum limit.  Jumps restart the solve: the
path is advanced segment by segment between jump times, the drivers are
shifted to each segment's origin, and the jump map is applied at the
boundary.  Everything is deterministic given the drivers.

One time-major step loop serves every solve: step k reads and writes one
contiguous row.  A replica's segments and jumps lie on one step axis, with
replica r in column r, and an event table names the columns that jump at
each step.  A replica that has ended takes zero steps whose results are
never read.  A replica that blows up is reported alone, at its first
transition out of the trust region, by a scan after the loop.  The state
is an array at every width, so a replica alone equals it in a batch bit
for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BlowUpError, GridMismatchError, ParameterError
from .fractional import _check_order
from .noise import (CSV_FLOAT_FMT, GridFunction, GridSpec, JumpTrain, Seed, _check_count,
                    _check_one_grid)

__all__ = [
    "BLOWUP_LIMIT",
    "CoefficientSet",
    "SamplingBox",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
    "euler_paths",
    "SolutionPath",
    "solve_with_jumps",
    "solve_with_jumps_stack",
    "read_solution_csv",
    "ito_integral_path",
    "pathwise_bound_rhs",
]

# abort threshold for the state; protects moment experiments from overflow
BLOWUP_LIMIT = 1e12

# elements per chunk of a jump-free solve's increments, whose two drivers
# share one buffer of about 1 MB at any width, and per blow-up scan slice
_CHUNK = 131072


@dataclass(frozen=True)
class SamplingBox:
    """Rectangular (t, x, y) region on which a model's declared constants
    hold; check_assumptions samples the quotients on it."""

    t: tuple = (0.0, 1.0)
    x: tuple = (-5.0, 5.0)
    y: tuple = (-3.0, 3.0)

    def __post_init__(self):
        for name, (lo, hi) in (("t", self.t), ("x", self.x), ("y", self.y)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ParameterError(f"box range {name} must be finite with lo < hi")


@dataclass(frozen=True)
class CoefficientSet:
    """Equation coefficients plus their declared regularity constants.

    a, b, c, dc_dx take (t, x) and must broadcast over numpy arrays in t
    and x (a batched solve passes one time per replica); q takes (t, x, y)
    and must broadcast over all three; jump_gain is the dominating
    function g with |q(t,x,y)| <= g(y)(1+|x|).  Any of them may return a
    scalar where its value does not depend on its arguments; every
    consumer broadcasts the outputs.

    The constants are declarations, not guarantees: check_assumptions
    samples the quotients and reports which hold on the model's box.
    growth bounds |a|+|b|+|c| against 1+|x| and |dc_dx| directly;
    lipschitz bounds the x-increments of a, b, dc_dx; time_holder and
    beta bound the t-increments of a, b, c, dc_dx; b_bound bounds |b|.
    An infinite constant declares that no bound holds.

    closed_form, when the model has one, maps (x0, W_T, Z_T, jump train)
    to the exact terminal value X_T; it raises ParameterError for trains
    it does not cover.
    """

    a: Callable
    b: Callable
    c: Callable
    dc_dx: Callable
    q: Callable
    growth: float
    lipschitz: float
    time_holder: float
    beta: float
    b_bound: float
    jump_gain: Callable
    box: SamplingBox = SamplingBox()
    name: str = ""
    closed_form: Callable | None = None


# ---------------------------------------------------------------------------
# assumption checking


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    observed: float
    declared: float
    witness: tuple

    @property
    def passed(self) -> bool:
        """The observed maximum is at most the finite declared constant,
        with a relative slack of 1e-6."""
        return math.isfinite(self.declared) and self.observed <= self.declared * (1.0 + 1e-6)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        pt = ", ".join(f"{v:.4g}" for v in self.witness)
        return (f"{tag} {self.name}: observed {self.observed:.6g} "
                f"vs declared {self.declared:.6g} at ({pt})")


@dataclass(frozen=True)
class AssumptionReport:
    model: str
    box: SamplingBox
    samples: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list:
        return [c.line() for c in self.checks]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _check(name: str, quotient: np.ndarray, declared: float, coords: tuple) -> AssumptionCheck:
    """The check of one quotient: its maximum, witnessed by the sample
    coordinates where it is attained."""
    i = int(np.argmax(quotient))
    return AssumptionCheck(name, float(quotient[i]), declared,
                           tuple(float(c[i]) for c in coords))


def check_assumptions(coeffs: CoefficientSet, samples: int = 4000,
                      seed=0) -> AssumptionReport:
    """Empirically bound each assumption quotient on random samples of the
    model's box.

    `seed` is a Seed or the root of one.  Each entry records the observed
    maximum and its witness point; see AssumptionCheck.passed for the
    pass rule.  Violations are report entries, never exceptions.
    """
    _check_count("samples", samples, 2)
    box = coeffs.box
    rng = (seed if isinstance(seed, Seed) else Seed(seed)).generator()
    t = rng.uniform(*box.t, samples)
    x = rng.uniform(*box.x, samples)
    x2 = rng.uniform(*box.x, samples)
    s = rng.uniform(*box.t, samples)
    y = rng.uniform(*box.y, samples)

    def at(fn, *args):
        # coefficients may return scalars; every quotient is per sample
        return np.broadcast_to(fn(*args), x.shape)

    av, bv, cv = at(coeffs.a, t, x), at(coeffs.b, t, x), at(coeffs.c, t, x)
    dcv = at(coeffs.dc_dx, t, x)
    x_inc = (np.abs(at(coeffs.a, t, x2) - av) + np.abs(at(coeffs.b, t, x2) - bv)
             + np.abs(at(coeffs.dc_dx, t, x2) - dcv))
    t_inc = (np.abs(at(coeffs.a, s, x) - av) + np.abs(at(coeffs.b, s, x) - bv)
             + np.abs(at(coeffs.c, s, x) - cv)
             + np.abs(at(coeffs.dc_dx, s, x) - dcv))
    qv = np.abs(at(coeffs.q, t, x, y))
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = np.where(qv == 0.0, 0.0, qv / (coeffs.jump_gain(y) * (1.0 + np.abs(x))))
    table = (
        ("growth", (np.abs(av) + np.abs(bv) + np.abs(cv)) / (1.0 + np.abs(x)),
         coeffs.growth, (t, x)),
        ("dc_dx-bound", np.abs(dcv), coeffs.growth, (t, x)),
        ("x-lipschitz", np.where(np.abs(x - x2) > 1e-9, x_inc / np.abs(x - x2), 0.0),
         coeffs.lipschitz, (t, x, x2)),
        ("t-holder", np.where(np.abs(t - s) > 1e-9, t_inc / np.abs(t - s) ** coeffs.beta, 0.0),
         coeffs.time_holder, (t, s, x)),
        ("b-bound", np.abs(bv), coeffs.b_bound, (t, x)),
        ("jump-gain", jump, 1.0, (t, x, y)),
    )
    return AssumptionReport(model=coeffs.name or "<anonymous>", box=box, samples=samples,
                            checks=tuple(_check(*row) for row in table))


# ---------------------------------------------------------------------------
# the Euler step loop

# the kind of a jump transition; an Euler step's is its step number
_JUMP = -1


def _euler_loop(coeffs: CoefficientSet, out: np.ndarray, t: np.ndarray,
                dt: np.ndarray, dw: np.ndarray, dz: np.ndarray,
                jumps: dict | None = None) -> dict:
    """The one step loop behind every solve; it advances all rows at once.

    Row 0 of the caller's (K + 1, rows) array `out` holds the start; step k
    writes [k + 1, r] of it in place from [k, r] by the forward Euler step
    x + a(t, x) dt + b(t, x) dw + c(t, x) dz, with t, dt, dw, dz read at
    [k, r] from (K, rows) or (K, 1) arrays.  `jumps` maps k to the (row
    indices, marks) that take the jump map x + q(t, x, mark) instead.  The
    state is an array at every width, so a row alone sees the same
    operations as in a batch.  No step tests the trust region: the result,
    found by one scan after the loop, maps each row whose state ever leaves
    it to (k, state) of its first bad transition, in order of k and then of
    row, and the row's later states are never read.  A float error in a
    step warns of nothing: a state it leaves non-finite is the blow-up that
    the result reports.
    """
    x, jumps = out[0], jumps or {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(dw.shape[0]):
            tk, new = t[k], out[k + 1]
            np.add(x, coeffs.a(tk, x) * dt[k], out=new)
            new += coeffs.b(tk, x) * dw[k]
            new += coeffs.c(tk, x) * dz[k]
            if k in jumps:
                r, marks = jumps[k]
                new[r] = x[r] + coeffs.q(tk[r], x[r], marks)
            x = new
    failed, span = {}, max(_CHUNK // out.shape[1], 1)
    for a in range(1, out.shape[0], span):
        part = out[a:a + span]
        if part.max() <= BLOWUP_LIMIT and part.min() >= -BLOWUP_LIMIT:     # NaN fails
            continue
        bad = ~(np.abs(part) <= BLOWUP_LIMIT)
        first = bad.argmax(axis=0)
        for r in np.flatnonzero(bad.any(axis=0)).tolist():
            failed.setdefault(r, (a - 1 + int(first[r]), float(part[first[r], r])))
    return dict(sorted(failed.items(), key=lambda item: (item[1][0], item[0])))


def _check_start(x0) -> float:
    """The start of a solve as a float: a real number (numpy's too) inside
    the trust region, since from outside it a first step could only blow up."""
    if not (isinstance(x0, numbers.Real) and abs(x0) <= BLOWUP_LIMIT):
        raise ParameterError(f"x0 must be finite and real with |x0| <= {BLOWUP_LIMIT:g},"
                             f" got {x0!r}")
    return float(x0)


def euler_paths(coeffs: CoefficientSet, x0: float, grid: GridSpec,
                wiener_values: np.ndarray, frac_values: np.ndarray) -> np.ndarray:
    """Batched jump-free solve from the one start x0, for the convergence
    study: driver value arrays of shape (m, n+1) give an (m, n+1) state
    array in one pass, and shape (n+1,) gives one path.  A blow-up in any
    path raises BlowUpError for the earliest one, the lowest path at a tie,
    once the chunk of steps that holds it is solved.  A chunk's driver
    values are copied time-major 32 paths at a time, which keeps the rows
    read in cache, and differenced; the two buffers hold about 1.5 MB, so a
    call holds little besides its result."""
    x0 = _check_start(x0)
    w, z = (np.asarray(v, dtype=float) for v in (wiener_values, frac_values))
    n, ts = grid.steps, grid.times
    if w.shape != z.shape or w.ndim not in (1, 2) or w.shape[-1] != n + 1:
        raise GridMismatchError("driver arrays must share shape (steps+1,) or (m, steps+1)")
    cols = w.size // (n + 1)
    if not cols:
        return np.empty(w.shape)
    views = [v.reshape(cols, n + 1).T for v in (w, z)]
    chunk = min(max(_CHUNK // (2 * cols), 1), n)
    buf, node = np.empty((2, chunk, cols)), np.empty((chunk + 1, cols))
    vals = np.empty((n + 1, cols))
    vals[0] = x0
    t, dt = ts[:-1, None], np.diff(ts)[:, None]
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        inc = buf[:, :b - a]
        for d, v in zip(inc, views):
            for p in range(0, cols, 32):
                node[:b - a + 1, p:p + 32] = v[a:b + 1, p:p + 32]
            np.subtract(node[1:b - a + 1], node[:b - a], out=d)
        failed = _euler_loop(coeffs, vals[a:b + 1], t[a:b], dt[a:b], *inc)
        if failed:
            k, state = next(iter(failed.values()))
            raise BlowUpError(step=a + k + 1, time=ts[a + k + 1], state=state)
    return vals.T.reshape(w.shape)


# ---------------------------------------------------------------------------
# jump-restart construction

# replicas per block of a batched solve: wide enough that the step loop's
# per-step overhead is shared, narrow enough that one block's drivers and
# step arrays stay small
_BLOCK = 128


def _local_nodes(lengths: np.ndarray, h: float) -> tuple:
    """Node counts and concatenated local nodes of segments of the given
    lengths: spacing h plus a short final step when a length is not a whole
    number of steps (a whole-step segment takes the nodes of
    np.linspace(0, L, k + 1)); a segment of length <= 0 is one node."""
    k = np.floor(lengths / h + 1e-9)
    whole = (k >= 1.0) & (lengths - k * h <= 1e-9 * h)
    empty = lengths <= 0.0
    counts = np.where(empty, 1, k.astype(int) + np.where(whole, 1, 2))
    step = np.where(whole, lengths / np.maximum(k, 1.0), h)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    local = (np.arange(first.size) - first) * np.repeat(step, counts)
    local[(np.cumsum(counts) - 1)[~empty]] = lengths[~empty]
    return counts, local


@dataclass
class SolutionPath:
    """Cadlag solution on the union of the grid and the jump times.

    Jump times appear twice in `times`: first the left limit (flag 1),
    then the post-jump value (flag 0).
    """

    times: np.ndarray
    values: np.ndarray
    left_flags: np.ndarray
    train: JumpTrain
    grid: GridSpec

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    @property
    def segments(self) -> list:
        """One (start, local times, values) triple per between-jumps
        segment: its start time, its nodes counted from that start, and
        the solution there."""
        bounds = np.concatenate([[0], np.flatnonzero(self.left_flags) + 1,
                                 [self.times.size]])
        starts = self.times[bounds[:-1]]
        _, local = _local_nodes(np.append(starts[1:], self.grid.horizon) - starts,
                                self.grid.dt)
        return [(s0, local[a:b], self.values[a:b])
                for s0, a, b in zip(starts, bounds[:-1], bounds[1:])]

    def to_csv(self, file) -> None:
        data = np.column_stack([self.times, self.values,
                                self.left_flags.astype(float)])
        np.savetxt(file, data, fmt=[CSV_FLOAT_FMT, CSV_FLOAT_FMT, "%d"],
                   delimiter=",", header="t,value,left_limit_flag", comments="")


def read_solution_csv(file) -> tuple:
    """Read back a SolutionPath CSV as (times, values, left_flags)."""
    data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2].astype(int)


def _solve_block(coeffs: CoefficientSet, x0: float, grid: GridSpec, W: np.ndarray,
                 BH: np.ndarray, trains: list) -> list:
    """Solve a block of jump-restart replicas on one time-major step axis.

    Row r of the (rows, n+1) driver stacks W and BH holds replica r's
    driver values at the nodes of `grid`, and trains[r] its jumps.
    Transition k of a replica takes output node k to node k + 1: within a
    segment an Euler step (kind: its step number) on the drivers shifted
    to the segment origin, at a jump the jump map (kind _JUMP, t the jump
    time, dt = dw = dz = 0).  A driver value within 1e-9 h of a grid node
    is that node's value, any other is the linear interpolation np.interp
    computes, so a replica's arrays do not depend on its block.
    Transition k of replica r sits at [k, r] of the (K, rows) t, dt, dw,
    dz that the step loop reads, and the jump table maps k to the
    (replicas, marks) that jump there.  The slots after a replica's last
    transition stay zero with no jump: their results are never read, and a
    failure there is not a blow-up.  Returns one entry per replica: its
    SolutionPath, or the BlowUpError that stopped it.
    """
    T, n, h, nodes = grid.horizon, grid.steps, grid.dt, grid.times
    taus = np.concatenate([jumps.times for jumps in trains])
    if taus.size and taus.max() > T * (1 + 1e-12):
        raise ParameterError("jump train extends beyond the driver horizon")

    # segments in row order: a row's last one ends at T, the others at a jump
    last_seg = np.cumsum([jumps.count + 1 for jumps in trains]) - 1
    inner = np.ones(last_seg[-1] + 1, dtype=bool)
    inner[last_seg] = False
    starts = np.zeros(inner.size)
    starts[np.flatnonzero(inner) + 1] = taus
    ends = np.full(inner.size, T)
    ends[inner] = taus
    counts, local = _local_nodes(ends - starts, h)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    times = np.repeat(starts, counts) + local
    row_end = np.cumsum(counts)[last_seg]
    sizes = np.diff(row_end, prepend=0)
    row = np.repeat(np.arange(len(trains)), sizes)

    # drivers read at every output node, shifted to each segment origin;
    # both stacks share the flat node indices and interpolation weights
    near = np.clip(np.rint(times / h).astype(int), 0, n)
    off = np.flatnonzero(np.abs(times - nodes[near]) > 1e-9 * h)
    j = np.clip(np.searchsorted(nodes, times[off], "right") - 1, 0, n - 1)
    at, lo = row * (n + 1) + near, row[off] * (n + 1) + j
    span, past, end = nodes[j + 1] - nodes[j], times[off] - nodes[j], times[off] >= T

    def sample(values):
        flat = values.reshape(-1)
        out = flat[at]
        f0, f1 = flat[lo], flat[lo + 1]
        out[off] = np.where(end, f1, (f1 - f0) / span * past + f0)
        return out - out[first]

    # per node, the transition that leaves it
    jump_from = (np.cumsum(counts) - 1)[inner]
    kinds = np.arange(1, times.size + 1) - first
    kinds[jump_from] = _JUMP
    t = times.copy()
    t[jump_from] = taus

    def steps(values):
        d = np.append(values[1:] - values[:-1], 0.0)
        d[jump_from] = 0.0
        return d

    # transition k of replica r at [k, r]; a replica's last node leaves none
    rows, K = len(trains), int(sizes.max()) - 1
    slot = (np.arange(times.size) - np.repeat(row_end - sizes, sizes)) * rows + row
    keep = np.delete(np.arange(times.size), row_end - 1)

    def scatter(values):
        out = np.zeros(K * rows)
        out[slot[keep]] = values[keep]
        return out.reshape(K, rows)

    by_slot = np.argsort(slot[jump_from])
    at_jump = slot[jump_from][by_slot]
    cols, cuts = np.unique(at_jump // rows, return_index=True)
    marks = np.concatenate([jumps.marks for jumps in trains])[by_slot]
    who, bounds = at_jump % rows, np.append(cuts, at_jump.size).tolist()
    events = {c: (who[a:b], marks[a:b])
              for c, a, b in zip(cols.tolist(), bounds[:-1], bounds[1:])}

    states = np.empty((K + 1, rows))
    states[0] = x0
    failed = _euler_loop(coeffs, states, scatter(t), scatter(steps(local)),
                         scatter(steps(sample(W))), scatter(steps(sample(BH))), events)
    states = states.T.copy()            # each path's values: one contiguous row
    flags = (kinds == _JUMP).astype(int)
    cut = [0] + row_end.tolist()
    results = []
    for r, (train, a, b) in enumerate(zip(trains, cut, cut[1:])):
        if r in failed and failed[r][0] < b - a - 1:
            # a post-jump node sits at exactly its jump time
            k, state = failed[r]
            results.append(BlowUpError(step=int(kinds[a + k]), time=times[a + k + 1],
                                       state=state))
        else:
            results.append(SolutionPath(times=times[a:b], values=states[r, :b - a],
                                        left_flags=flags[a:b], train=train, grid=grid))
    return results


def solve_with_jumps_stack(coeffs: CoefficientSet, x0: float, grid: GridSpec, draw,
                           replicas: int) -> list:
    """Jump-restart solves of `replicas` replicas whose drivers come as
    stacks, drawn block by block.

    draw(rows) returns the drivers of the replicas in the slice `rows` as
    gen_driving_stack does: (k, n+1) arrays W and BH of Wiener and rough
    driver values at the nodes of `grid`, and the k jump trains.  It is
    called once per block of _BLOCK replicas, just before the block is
    solved, so only one block's drivers need exist at a time, and its
    replicas advance together with exactly the operations of a solve on
    its own.  Returns one entry per replica: its SolutionPath, or the
    BlowUpError that stopped it (a blow-up stops only its own replica).
    Entry r equals solve_with_jumps(coeffs, x0, W_r, BH_r, trains_r) bit
    for bit.
    """
    x0 = _check_start(x0)
    _check_count("replicas", replicas, 0)
    results = []
    for a in range(0, replicas, _BLOCK):
        rows = slice(a, min(a + _BLOCK, replicas))
        W, BH, trains = draw(rows)
        W, BH = np.asarray(W, dtype=float), np.asarray(BH, dtype=float)
        trains = list(trains)
        if not W.shape == BH.shape == (rows.stop - a, grid.steps + 1) or len(trains) != len(W):
            raise GridMismatchError("a drawn block must hold one (steps+1)-row of W and BH"
                                    " and one train per replica")
        results += _solve_block(coeffs, x0, grid, W, BH, trains)
    return results


def solve_with_jumps(coeffs: CoefficientSet, x0: float, W: GridFunction,
                     BH: GridFunction, jumps: JumpTrain) -> SolutionPath:
    """Advance the equation through its jumps by restarted segment solves.

    Between jump times the mixed Euler scheme runs on the usual spacing
    started at the previous jump (drivers shifted to the segment origin,
    linearly interpolated at off-grid jump times); at each jump time the
    jump map is applied to the left limit.  Output is cadlag with stored
    left limits.  This is the width-1 call of solve_with_jumps_stack, so
    it regenerates any replica of a stacked ensemble bit for bit.
    """
    if W.left != 0.0 or BH.left != 0.0:
        raise GridMismatchError(f"drivers must start at 0, got {W.left} and {BH.left}")
    _check_one_grid("drivers", [W, BH])
    result = solve_with_jumps_stack(coeffs, x0, GridSpec(float(W.right), W.cells),
                                    lambda rows: (W.values[None], BH.values[None], [jumps]),
                                    1)[0]
    if isinstance(result, BlowUpError):
        raise result
    return result


# ---------------------------------------------------------------------------
# helpers used by the bound experiments


def ito_integral_path(b_values: np.ndarray, W: GridFunction) -> GridFunction:
    """Running forward sums of b against the Wiener increments.

    b_values holds the integrand at the grid nodes (left-endpoint values
    are used, so an adapted integrand stays adapted).
    """
    bv = np.asarray(b_values, dtype=float)
    if bv.shape != W.values.shape:
        raise GridMismatchError("integrand and Wiener path must share the grid")
    vals = np.concatenate([[0.0], np.cumsum(bv[:-1] * np.diff(W.values))])
    return GridFunction(W.left, W.right, vals)


def pathwise_bound_rhs(Lambda: float, Jb: float, alpha: float, K: float) -> float:
    """Right-hand side K*exp(K*Lambda^(1/(1-alpha)))*(1+Jb) of the pathwise
    sup-norm bound; K is always fitted or caller-supplied, never derived."""
    if not all(map(math.isfinite, (Lambda, Jb, alpha, K))):
        raise ParameterError("Lambda, Jb, alpha and K must be finite")
    if Lambda < 1.0:
        raise ParameterError("Lambda must be >= 1 (it is floored at 1)")
    if Jb < 0.0:
        raise ParameterError("Jb must be nonnegative")
    if K <= 0.0:
        raise ParameterError("K must be positive")
    _check_order(alpha)
    expo = K * Lambda ** (1.0 / (1.0 - alpha))
    if expo > 700.0:
        return float("inf")
    return K * math.exp(expo) * (1.0 + Jb)
