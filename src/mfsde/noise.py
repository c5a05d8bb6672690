"""Driving noise: Wiener paths, exact fractional Brownian motion, and
finite-activity compound-Poisson jump trains.

Every generator is a pure function of (parameters, seed).  Substreams are
derived from the root seed by counter-based splitting (Philox keyed through
a SeedSequence spawn path), with fixed stream indices so any component of a
run can be regenerated in isolation:

    0  Wiener path
    1  fractional Brownian motion
    2  jump train
    3+ ensemble replicas (replica r uses stream 3 + r, then 0/1/2 below it)

Ensembles draw their drivers as stacks: gen_fbm_stack and
gen_driving_stack return (R, n+1) path arrays, one row per seed, each row
drawn from its own seed's stream in the same order as a path drawn alone.
The fBm comes from circulant embedding, the one synthesis path for every
n and H, whose spectral amplitudes are cached per (n, H); the spectral
noise of a chunk of rows goes through one FFT.
A stack's jump trains are drawn stream by stream and checked once as a
whole; at rate 0 no jump stream is keyed.  gen_wiener, gen_fbm,
gen_jump_train and gen_driving_triple are the width-1 calls of the
stacks, so regenerating one replica reproduces its row bit for bit.  The
Wiener path, fBm and jump train of a seed are independent, so W is a
Wiener process for a filtration the fBm and jumps are adapted to.  A
stack of seeds gets its Philox keys from numpy's SeedSequence hash run
over all seeds at once, and one Philox re-keyed per seed; the draws are
those of Seed.generator().
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import GridMismatchError, ParameterError

WIENER_STREAM = 0
FBM_STREAM = 1
JUMP_STREAM = 2
REPLICA_STREAM_BASE = 3

# 17 significant digits round-trips IEEE doubles through text.
CSV_FLOAT_FMT = "%.17g"


def _csv_row(*values) -> str:
    """One CSV line of report values: strings as they are, integers and
    booleans as %d, every other number at CSV_FLOAT_FMT."""
    return ",".join(v if isinstance(v, str)
                    else "%d" % v if isinstance(v, (int, np.integer, np.bool_))
                    else CSV_FLOAT_FMT % v for v in values)


ALPHA_RANGE_MESSAGE = "alpha must lie in (1-H, 1/2)"

# largest Poisson mean numpy's Generator.poisson draws from
MAX_JUMP_MEAN = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)

# most float64 nodes an array can hold: numpy refuses a larger one as "array
# is too big" (its byte count must fit in intp)
_MAX_NODES = np.iinfo(np.intp).max // 8


def _check_count(name: str, value, floor: int) -> None:
    """Refuse a count argument unless it is an integer (np.integer too, a
    bool not) of at least `floor`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < floor:
        bound = "a nonnegative integer" if floor == 0 else f"an integer >= {floor}"
        raise ParameterError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class Seed:
    """Root entropy plus a stream path for derived substreams.

    The root must be a nonnegative integer and the stream a tuple of them
    (numpy integers too), or ParameterError is raised.  Identical (root,
    stream) always reproduces identical draws bit for bit; distinct stream
    paths give independent streams.
    """

    root: int
    stream: tuple[int, ...] = ()

    def __post_init__(self):
        _check_count("seed root", self.root, 0)
        if not isinstance(self.stream, tuple):
            raise ParameterError(f"seed stream must be a tuple, got {self.stream!r}")
        for index in self.stream:
            _check_count("seed stream index", index, 0)

    def child(self, index: int) -> "Seed":
        _check_count("seed stream index", index, 0)
        # the parent's root and stream are already checked
        child = object.__new__(Seed)
        object.__setattr__(child, "root", self.root)
        object.__setattr__(child, "stream", self.stream + (int(index),))
        return child

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.root, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


def _replica_seeds(seed: Seed, replicas) -> list:
    """The driver seeds of the given replica indices: replica r draws from
    substream REPLICA_STREAM_BASE + r of `seed`."""
    return [seed.child(REPLICA_STREAM_BASE + r) for r in replicas]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): pool size,
# hash-constant seeds and multipliers, mix multipliers, xor shift
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# fewest seeds worth hashing in bulk; below it, SeedSequence one by one
# is faster
_BULK_MIN = 16


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of `count` hashes."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each column of `values` in turn, column j
    hashed under consts[j] (which consts[j + 1] follows)."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(...).generate_state(2, np.uint64), the key Philox takes
    from a SeedSequence, for every row of assembled entropy words at once:
    (R, L) uint32 words in, (R, 2) uint64 keys out.  Uint32 arithmetic
    wraps as the C code's does."""
    rows, width = entropy.shape
    hashes = _POOL * _POOL + _POOL * max(width - _POOL, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, hashes)
    first = np.zeros((rows, _POOL), dtype=np.uint32)
    first[:, : min(width, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(first, consts[: _POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        mixed = _hashmix(pool[:, src : src + 1], consts[k : k + _POOL])
        pool[:, dst] = _mix(pool[:, dst], mixed)
        k += _POOL - 1
    for src in range(_POOL, width):
        pool = _mix(pool, _hashmix(entropy[:, src : src + 1], consts[k : k + _POOL + 1]))
        k += _POOL
    state = _hashmix(pool, _hash_constants(_INIT_B, _MULT_B, _POOL)).astype(np.uint64)
    # little-endian pairs of words, as generate_state forms them
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _streams(seeds: list):
    """Yield, seed by seed, a Generator that draws exactly what
    seed.generator() draws.

    A run of at least _BULK_MIN seeds whose root and stream entries are
    32-bit nonnegative integers has its SeedSequence keys hashed in bulk,
    and one Philox is re-keyed per seed through its state setter (a fresh
    counter and buffer, as a new Philox has).  Each Generator yielded is
    then the same object, so it must be used up before the next is taken.
    """
    words = None
    if len(seeds) >= _BULK_MIN:
        # root padded to the pool size when a spawn key follows, as
        # SeedSequence assembles its entropy
        try:
            words = np.array([(s.root, 0, 0, 0, *s.stream) if s.stream else (s.root,)
                              for s in seeds])
        except (ValueError, OverflowError):
            pass
    if (words is None or words.ndim != 2 or words.dtype.kind not in "iu"
            or words.min() < 0 or words.max() > 0xFFFFFFFF):
        yield from (s.generator() for s in seeds)
        return
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    for key in _philox_keys(words.astype(np.uint32)):
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, horizon] with `steps` cells.  Its steps + 1
    nodes must fit in one numpy array, and the cell width must be a normal
    float: a subnormal one is too coarse for `steps` cells to end at the
    horizon."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive and finite, got {self.horizon}")
        _check_count("steps", self.steps, 1)
        if self.steps >= _MAX_NODES:
            raise ParameterError(f"steps must be below {_MAX_NODES}, got {self.steps}")
        if self.horizon / self.steps < sys.float_info.min:
            raise ParameterError(f"horizon / steps must be a normal float, got"
                                 f" {self.horizon} / {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class FracParams:
    """Roughness/order bundle: Hurst index, fractional order, time exponent.

    The admissible chain is 1/2 < hurst < 1, 1 - hurst < alpha < 1/2 and
    beta in (1 - hurst, 1).  Omitted alpha/beta default to the midpoint of
    their ranges.
    """

    hurst: float
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if not 0.5 < self.hurst < 1.0:
            raise ParameterError(f"hurst must lie in (1/2, 1), got {self.hurst}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 0.5 * ((1.0 - self.hurst) + 0.5))
        if not (1.0 - self.hurst) < self.alpha < 0.5:
            raise ParameterError(ALPHA_RANGE_MESSAGE)
        if self.beta is None:
            object.__setattr__(self, "beta", 0.5 * ((1.0 - self.hurst) + 1.0))
        if not (1.0 - self.hurst) < self.beta < 1.0:
            raise ParameterError(f"beta must lie in (1-H, 1), got {self.beta}")


@dataclass
class GridFunction:
    """Real function sampled at the nodes of a uniform grid on [left, right].

    The one path type: drivers, solutions and the fractional calculus all
    use it.  Drivers start at left = 0; cadlag paths store right limits.
    """

    left: float
    right: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ParameterError("a grid function needs at least two nodes")
        if not (math.isfinite(self.left) and math.isfinite(self.right)
                and self.right > self.left):
            raise ParameterError(f"need finite right > left, got [{self.left}, {self.right}]")

    @property
    def cells(self) -> int:
        return self.values.size - 1

    @property
    def h(self) -> float:
        return (self.right - self.left) / self.cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.left, self.right, self.values.size)

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    def to_csv(self, file) -> None:
        data = np.column_stack([self.nodes, self.values])
        np.savetxt(file, data, fmt=CSV_FLOAT_FMT, delimiter=",", header="t,value", comments="")

    @classmethod
    def from_csv(cls, file) -> "GridFunction":
        data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
        t = data[:, 0]
        path = cls(float(t[0]), float(t[-1]), data[:, 1])
        scale = max(1.0, abs(t[0]), abs(t[-1]))
        if not np.allclose(t, path.nodes, rtol=0.0, atol=1e-9 * scale):
            raise ParameterError("CSV nodes are not a uniform grid")
        return path


def _check_one_grid(what: str, paths: list) -> None:
    """Refuse grid functions unless they share one grid: the same left end,
    right end and cell count, exactly."""
    grid = (paths[0].left, paths[0].right, paths[0].cells)
    if any((p.left, p.right, p.cells) != grid for p in paths[1:]):
        raise GridMismatchError(f"{what} must share one grid")


@dataclass
class JumpTrain:
    """Jump times and marks of a finite-activity train on (0, horizon]."""

    times: np.ndarray
    marks: np.ndarray
    rate: float
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.marks = np.asarray(self.marks, dtype=float)
        _check_jump_mean(self.rate, self.horizon)
        _check_trains([self.times], [self.marks], self.horizon)

    @classmethod
    def _trusted(cls, times: np.ndarray, marks: np.ndarray, rate: float,
                 horizon: float) -> "JumpTrain":
        """A train of float arrays that already pass every check of
        __post_init__ (a checked draw), built without repeating them."""
        train = cls.__new__(cls)
        train.times, train.marks, train.rate, train.horizon = times, marks, rate, horizon
        return train

    @property
    def count(self) -> int:
        return int(self.times.size)

    def to_csv(self, file) -> None:
        data = np.column_stack([self.times, self.marks]) if self.count else np.empty((0, 2))
        np.savetxt(file, data, fmt=CSV_FLOAT_FMT, delimiter=",", header="tau,mark", comments="")

    @classmethod
    def from_csv(cls, file, rate: float, horizon: float) -> "JumpTrain":
        data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2)
        if data.size == 0:
            return cls(np.empty(0), np.empty(0), rate, horizon)
        return cls(data[:, 0], data[:, 1], rate, horizon)


# ---------------------------------------------------------------------------
# mark laws


class MarkLaw:
    """Distribution of jump marks; subclasses define sampling and expectations."""

    name = "abstract"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ParameterError(f"mark {field.name} must be finite, got {value}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def expect(self, fn) -> float:
        """E[fn(Y)] under the mark law."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianMarks(MarkLaw):
    mean: float = 0.0
    std: float = 1.0
    name = "gaussian"

    def __post_init__(self):
        super().__post_init__()
        if self.std <= 0:
            raise ParameterError("mark std must be positive")

    def sample(self, rng, size):
        return rng.normal(self.mean, self.std, size)

    def expect(self, fn):
        lo, hi = self.mean - 12 * self.std, self.mean + 12 * self.std
        dens = lambda y: math.exp(-0.5 * ((y - self.mean) / self.std) ** 2) / (
            self.std * math.sqrt(2 * math.pi)
        )
        from scipy.integrate import quad

        val, _ = quad(lambda y: fn(y) * dens(y), lo, hi, limit=200)
        return val


@dataclass(frozen=True)
class TwoPointMarks(MarkLaw):
    """Mass p_low at `low`, 1 - p_low at `high`."""

    low: float = -1.0
    high: float = 1.0
    p_low: float = 0.5
    name = "two_point"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.p_low <= 1.0:
            raise ParameterError("p_low must lie in [0, 1]")

    def sample(self, rng, size):
        return np.where(rng.random(size) < self.p_low, self.low, self.high)

    def expect(self, fn):
        return self.p_low * fn(self.low) + (1.0 - self.p_low) * fn(self.high)


@dataclass(frozen=True)
class UniformMarks(MarkLaw):
    low: float = -1.0
    high: float = 1.0
    name = "uniform"

    def __post_init__(self):
        super().__post_init__()
        if not self.high > self.low:
            raise ParameterError("uniform marks need high > low")
        if not math.isfinite(self.high - self.low):
            raise ParameterError(f"uniform marks need a finite high - low, got"
                                 f" [{self.low}, {self.high}]")

    def sample(self, rng, size):
        return rng.uniform(self.low, self.high, size)

    def expect(self, fn):
        width = self.high - self.low
        from scipy.integrate import quad

        val, _ = quad(lambda y: fn(y) / width, self.low, self.high, limit=200)
        return val


MARK_LAWS = {
    "gaussian": GaussianMarks,
    "two_point": TwoPointMarks,
    "uniform": UniformMarks,
}


def build_mark_law(name: str, **params) -> MarkLaw:
    if name not in MARK_LAWS:
        raise ParameterError(f"unknown mark law {name!r}, expected one of {sorted(MARK_LAWS)}")
    try:
        return MARK_LAWS[name](**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for mark law {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# fractional Brownian motion


@functools.lru_cache(maxsize=64)
def _fgn_amplitudes(n: int, hurst: float) -> tuple:
    """Spectral amplitudes at frequency 0, at n and at 1..n-1 of the
    length-2n circulant embedding of unit-spacing fractional Gaussian noise,
    cached read-only per (n, H)."""
    # autocovariance at lags 0..n, embedded as the row [g0 .. gn, g(n-1) .. g1]
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    gamma = 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
    eigs = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    # The embedding is nonnegative definite for every H in (0, 1) (Perrin et
    # al. 2002; Craigmile 2003).  Its negative eigenvalues are rounding of
    # gamma, whose second difference loses up to 4.8e-7 relative accuracy at
    # large lags near H = 1: min/max eigenvalue -1.3e-10, -6.4e-10 and
    # -1.7e-9 at (n, H) = (16384, 0.999999), (65536, 0.9999) and
    # (65536, 0.999999), where gamma to 40 digits gives +5.2e-11, +1.3e-9
    # and +1.3e-11.  They are clipped to 0.
    m = 2 * n
    lam = np.clip(eigs, 0.0, None)
    amp = np.sqrt(lam[1:n] / (2.0 * m))
    amp.flags.writeable = False
    return math.sqrt(lam[0] / m), math.sqrt(lam[n] / m), amp


# complex elements of spectral workspace per synthesis chunk: the rows of a
# chunk share one FFT call, and the workspace stays about 1 MB at any n
_CHUNK = 65536


def _allocate(make, what: str):
    """make(), with numpy's refusal of an array it cannot describe ("array
    is too big") or memory cannot hold raised as a ParameterError about
    `what`."""
    try:
        return make()
    except (ValueError, MemoryError):
        raise ParameterError(f"{what} is more than memory holds") from None


def _path_stack(rows: int, nodes: int) -> np.ndarray:
    """A zeroed (rows, nodes) float array, through `_allocate`."""
    return _allocate(lambda: np.zeros((rows, nodes)), f"a {rows} x {nodes} path stack")


def gen_fbm_stack(grid: GridSpec, hurst: float, seeds) -> np.ndarray:
    """Exact fractional Brownian motion on the grid for each seed, as an
    (R, n+1) array of paths started at 0; row r draws from seeds[r] alone.

    Synthesis is circulant embedding of the increment covariance, for
    every n and every H in (0, 1).
    """
    if not 0.0 < hurst < 1.0:
        raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")
    seeds = list(seeds)
    n = grid.steps
    out = _path_stack(len(seeds), n + 1)
    scale = grid.dt**hurst
    a0, an, amp = _fgn_amplitudes(n, hurst)
    streams = _streams(seeds)
    rows = max(_CHUNK // (2 * n), 1)
    for a in range(0, len(seeds), rows):
        # a row of draws holds the 2n standard normals of one path's
        # Hermitian spectral noise in drawing order: v0, vn, then n - 1 real
        # and n - 1 imaginary parts
        draws = np.empty((min(rows, len(seeds) - a), 2 * n))
        for row, rng in zip(draws, streams):
            rng.standard_normal(out=row)
        w = np.zeros((len(draws), 2 * n), dtype=complex)
        w[:, 0] = a0 * draws[:, 0]
        w[:, n] = an * draws[:, 1]
        if n > 1:
            w[:, 1:n] = amp * (draws[:, 2 : n + 1] + 1j * draws[:, n + 1 :])
            w[:, n + 1 :] = np.conj(w[:, n - 1 : 0 : -1])
        np.cumsum(np.fft.fft(w, axis=-1).real[:, :n] * scale, axis=1,
                  out=out[a : a + len(draws), 1:])
    return out


def _wiener_stack(grid: GridSpec, seeds: list) -> np.ndarray:
    """Standard Wiener paths on the grid, one (n+1)-row per seed."""
    out = _path_stack(len(seeds), grid.steps + 1)
    for row, rng in zip(out, _streams(seeds)):
        rng.standard_normal(out=row[1:])
    out[:, 1:] *= math.sqrt(grid.dt)
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def gen_fbm(grid: GridSpec, hurst: float, seed: Seed) -> GridFunction:
    """Exact fractional Brownian motion on the grid, started at 0."""
    return GridFunction(0.0, grid.horizon, gen_fbm_stack(grid, hurst, [seed])[0])


def gen_wiener(grid: GridSpec, seed: Seed) -> GridFunction:
    """Standard Wiener path on the grid, started at 0."""
    return GridFunction(0.0, grid.horizon, _wiener_stack(grid, [seed])[0])


def gen_jump_train(rate: float, marks: MarkLaw, horizon: float, seed: Seed) -> JumpTrain:
    """Compound-Poisson jump train: Poisson(rate * horizon) many jumps, uniform
    times on (0, horizon), i.i.d. marks."""
    return _draw_trains(rate, marks, horizon, [seed])[0]


def _check_jump_mean(rate: float, horizon: float) -> None:
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ParameterError(f"rate must be finite and nonnegative, got {rate}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ParameterError(f"horizon must be positive and finite, got {horizon}")
    if rate * horizon > MAX_JUMP_MEAN:
        raise ParameterError(f"rate * horizon must be at most {MAX_JUMP_MEAN:.6g},"
                             f" got {rate * horizon:.6g}")


def _check_trains(times: list, marks: list, horizon: float) -> None:
    """Refuse jump trains, given as their lists of time and mark arrays,
    unless each train's times and marks are finite 1-d arrays of equal
    length and its times rise strictly, all in (0, horizon]."""
    if any(taus.ndim != 1 or ys.shape != taus.shape for taus, ys in zip(times, marks)):
        raise ParameterError("jump times and marks must be 1-d arrays of equal length")
    flat = np.concatenate(times)
    if not (np.isfinite(flat).all() and np.isfinite(np.concatenate(marks)).all()):
        raise ParameterError("jump times and marks must be finite")
    if flat.size:
        rising = np.diff(flat) > 0.0
        # a train's first time may lie below the last time of the train before
        ends = np.cumsum([t.size for t in times[:-1]], dtype=int)
        rising[ends[(ends > 0) & (ends < flat.size)] - 1] = True
        if flat.min() <= 0.0 or flat.max() > horizon or not rising.all():
            raise ParameterError("jump times must be strictly increasing within (0, horizon]")


def _draw_trains(rate: float, marks: MarkLaw, horizon: float, seeds: list) -> list:
    """One jump train per seed, each drawn from its own seed's stream as a
    train drawn alone: the count, the times (redrawn on a tie or a zero),
    then the marks.

    The stack's times and marks are checked once, as JumpTrain checks a
    train, and each train is built without checking it again.  At rate 0
    no stream is keyed and the trains are empty.
    """
    _check_jump_mean(rate, horizon)
    if rate == 0.0 or not seeds:
        return [JumpTrain._trusted(np.empty(0), np.empty(0), float(rate), float(horizon))
                for _ in seeds]
    times, values = [], []
    for rng in _streams(seeds):
        count = int(rng.poisson(rate * horizon))
        try:
            taus = np.sort(rng.uniform(0.0, horizon, size=count))
        except (ValueError, MemoryError):
            # numpy draws Poisson means up to MAX_JUMP_MEAN, but cannot
            # hold that many jump times
            raise ParameterError(f"rate * horizon = {rate * horizon:.6g} drew {count}"
                                 " jumps, more than memory holds") from None
        # ties and exact zeros have probability zero; redraw defensively
        while count and (taus[0] <= 0.0 or (taus[1:] <= taus[:-1]).any()):
            taus = np.sort(rng.uniform(0.0, horizon, size=count))
        times.append(taus)
        values.append(np.asarray(marks.sample(rng, count), dtype=float))
    _check_trains(times, values, horizon)
    rate, horizon = float(rate), float(horizon)
    return [JumpTrain._trusted(t, y, rate, horizon) for t, y in zip(times, values)]


def gen_driving_stack(grid: GridSpec, hurst: float, rate: float, marks: MarkLaw,
                      seeds) -> tuple:
    """(W, B, trains) for a sequence of seeds: the (R, n+1) Wiener and fBm
    path stacks and the R jump trains.  Row r draws from substreams 0/1/2
    of seeds[r] alone, so it equals gen_driving_triple(grid, hurst, rate,
    marks, seeds[r]) bit for bit."""
    seeds = list(seeds)
    trains = _draw_trains(rate, marks, grid.horizon, [s.child(JUMP_STREAM) for s in seeds])
    wiener = _wiener_stack(grid, [s.child(WIENER_STREAM) for s in seeds])
    fbm = gen_fbm_stack(grid, hurst, [s.child(FBM_STREAM) for s in seeds])
    return wiener, fbm, trains


def gen_driving_triple(
    grid: GridSpec,
    hurst: float,
    rate: float,
    marks: MarkLaw,
    seed: Seed,
    dependence: str = "independent",
):
    """(Wiener, fBm, jump train) from substreams 0/1/2 of `seed`: the
    width-1 call of gen_driving_stack.

    The three components are independent, so W is a Wiener process for a
    filtration the fBm is adapted to.  `dependence` names that model; any
    value other than "independent" is refused.
    """
    if dependence != "independent":
        raise ParameterError(f"unknown dependence model {dependence!r}")
    wiener, fbm, trains = gen_driving_stack(grid, hurst, rate, marks, [seed])
    return (GridFunction(0.0, grid.horizon, wiener[0]),
            GridFunction(0.0, grid.horizon, fbm[0]), trains[0])
