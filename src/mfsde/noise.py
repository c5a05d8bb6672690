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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import integrate
from scipy.linalg import toeplitz

from .errors import ParameterError

WIENER_STREAM = 0
FBM_STREAM = 1
JUMP_STREAM = 2
REPLICA_STREAM_BASE = 3

# 17 significant digits round-trips IEEE doubles through text.
CSV_FLOAT_FMT = "%.17g"

ALPHA_RANGE_MESSAGE = "alpha must lie in (1-H, 1/2)"


@dataclass(frozen=True)
class Seed:
    """Root entropy plus a stream path for derived substreams.

    Identical (root, stream) always reproduces identical draws bit for bit;
    distinct stream paths give independent streams.
    """

    root: int
    stream: tuple[int, ...] = ()

    def child(self, index: int) -> "Seed":
        return Seed(self.root, self.stream + (int(index),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.root, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0, horizon] with `steps` cells."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def refine(self, factor: int) -> "GridSpec":
        return GridSpec(self.horizon, self.steps * int(factor))


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

    def subgrid(self, i0: int, i1: int) -> "GridFunction":
        if not 0 <= i0 < i1 <= self.cells:
            raise ParameterError(f"bad subgrid indices ({i0}, {i1})")
        x = self.nodes
        return GridFunction(float(x[i0]), float(x[i1]), self.values[i0 : i1 + 1].copy())

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
        if self.times.shape != self.marks.shape:
            raise ParameterError("times and marks must have equal length")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive and finite, got {self.horizon}")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.marks))):
            raise ParameterError("jump times and marks must be finite")
        if self.times.size and (
            np.any(self.times <= 0.0)
            or np.any(self.times > self.horizon)
            or np.any(np.diff(self.times) <= 0.0)
        ):
            raise ParameterError("jump times must be strictly increasing within (0, horizon]")
        if not (self.rate >= 0.0 and math.isfinite(self.rate)):
            raise ParameterError(f"rate must be finite and nonnegative, got {self.rate}")

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
        val, _ = integrate.quad(lambda y: fn(y) * dens(y), lo, hi, limit=200)
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

    def sample(self, rng, size):
        return rng.uniform(self.low, self.high, size)

    def expect(self, fn):
        width = self.high - self.low
        val, _ = integrate.quad(lambda y: fn(y) / width, self.low, self.high, limit=200)
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


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    """Autocovariance of unit-spacing fractional Gaussian noise at lags 0..n."""
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


def _circulant_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    # embedding row [g0 .. gn, g(n-1) .. g1], length 2n
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    return np.fft.fft(first_row).real


def _hermitian_noise(rng: np.random.Generator, n: int):
    """Fixed-order Gaussian draws for one spectral synthesis of length 2n."""
    v0 = rng.standard_normal()
    vn = rng.standard_normal()
    vre = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    vim = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    return v0, vn, vre, vim


def _spectral_transform(noise, eigs: np.ndarray, n: int) -> np.ndarray:
    """Turn Hermitian spectral noise into n stationary Gaussian increments."""
    v0, vn, vre, vim = noise
    m = 2 * n
    lam = np.clip(eigs, 0.0, None)
    w = np.zeros(m, dtype=complex)
    w[0] = math.sqrt(lam[0] / m) * v0
    w[n] = math.sqrt(lam[n] / m) * vn
    if n > 1:
        amp = np.sqrt(lam[1:n] / (2.0 * m))
        w[1:n] = amp * (vre + 1j * vim)
        w[n + 1 :] = np.conj(w[1:n][::-1])
    return np.fft.fft(w).real[:n]


_EMBED_TOL = 1e-12


def _embedding_ok(eigs: np.ndarray) -> bool:
    return eigs.min() >= -_EMBED_TOL * max(float(eigs.max()), 1.0)


def _fgn(rng: np.random.Generator, n: int, hurst: float):
    """n unit-spacing fractional Gaussian noise increments, plus a function
    giving the white noise made from the same draws.

    Synthesis is circulant embedding of the increment covariance, with a
    dense Cholesky factor when the embedding is not nonnegative definite.
    """
    if not 0.0 < hurst < 1.0:
        raise ParameterError(f"hurst must lie in (0, 1), got {hurst}")
    gamma = _fgn_autocov(n, hurst)
    eigs = _circulant_eigenvalues(gamma)
    if _embedding_ok(eigs):
        draws = _hermitian_noise(rng, n)
        white = lambda: _spectral_transform(draws, np.ones(2 * n), n)
        return _spectral_transform(draws, eigs, n), white
    draws = rng.standard_normal(n)
    return np.linalg.cholesky(toeplitz(gamma[:n])) @ draws, lambda: draws


def _path(grid: GridSpec, increments: np.ndarray) -> GridFunction:
    """The path on `grid` started at 0 with the given increments."""
    return GridFunction(0.0, grid.horizon, np.concatenate([[0.0], np.cumsum(increments)]))


def gen_fbm(grid: GridSpec, hurst: float, seed: Seed) -> GridFunction:
    """Exact fractional Brownian motion on the grid, started at 0."""
    fgn, _ = _fgn(seed.generator(), grid.steps, hurst)
    return _path(grid, fgn * grid.dt**hurst)


def gen_wiener(grid: GridSpec, seed: Seed) -> GridFunction:
    """Standard Wiener path on the grid, started at 0."""
    rng = seed.generator()
    return _path(grid, rng.standard_normal(grid.steps) * math.sqrt(grid.dt))


def gen_jump_train(rate: float, marks: MarkLaw, horizon: float, seed: Seed) -> JumpTrain:
    """Compound-Poisson jump train: Poisson(rate * horizon) many jumps, uniform
    times on (0, horizon), i.i.d. marks."""
    if not (math.isfinite(rate) and rate >= 0.0):
        raise ParameterError(f"rate must be finite and nonnegative, got {rate}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ParameterError(f"horizon must be positive and finite, got {horizon}")
    rng = seed.generator()
    count = int(rng.poisson(rate * horizon))
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    # ties and exact zeros have probability zero; redraw defensively
    while count and (times[0] <= 0.0 or np.any(np.diff(times) <= 0.0)):
        times = np.sort(rng.uniform(0.0, horizon, size=count))
    mark_values = marks.sample(rng, count)
    return JumpTrain(times, mark_values, float(rate), float(horizon))


def gen_driving_triple(
    grid: GridSpec,
    hurst: float,
    rate: float,
    marks: MarkLaw,
    seed: Seed,
    dependence: str = "independent",
):
    """(Wiener, fBm, jump train) from substreams 0/1/2 of `seed`.

    dependence="independent" (default) draws the three components from
    disjoint substreams.  dependence="coupled" is experimental: the Wiener
    and fBm paths are built from one shared spectral draw (stream 1), which
    keeps both marginal laws exact but makes them dependent.  The jump train
    is always independent.
    """
    if dependence not in ("independent", "coupled"):
        raise ParameterError(f"unknown dependence model {dependence!r}")
    train = gen_jump_train(rate, marks, grid.horizon, seed.child(JUMP_STREAM))
    if dependence == "independent":
        wiener = gen_wiener(grid, seed.child(WIENER_STREAM))
        fbm = gen_fbm(grid, hurst, seed.child(FBM_STREAM))
        return wiener, fbm, train
    fgn, white = _fgn(seed.child(FBM_STREAM).generator(), grid.steps, hurst)
    return (_path(grid, white() * math.sqrt(grid.dt)),
            _path(grid, fgn * grid.dt**hurst), train)
