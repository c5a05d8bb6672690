"""Path norms for rough-path estimates.

The family: a singular increment integral anchored at the right endpoint,
exponentially weighted sup norms, a two-parameter Holder-type seminorm, and
a Garsia-Rodemich-Rumsey double-integral functional.  All suprema are taken
over grid nodes; callers pick the grid fine enough (doubling n should move
any reported value by well under a percent for the paths of interest here).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._kernels import (
    _power_tables,
    abs_increment_kernel,
    abs_increment_kernel_profile,
    abs_left_singular_cells,
)
from .errors import GridMismatchError, ParameterError
from .noise import GridFunction

__all__ = [
    "NormParams",
    "NormReport",
    "norm_t",
    "norm_profile",
    "weighted_norms",
    "norm_inf",
    "norm_inf_stack",
    "norm_0_interval",
    "norm_0_interval_stack",
    "grr_functional",
    "capital_lambda",
    "evaluate_norms",
]


@dataclass(frozen=True)
class NormParams:
    """Exponents and rates shared by a batch of norm evaluations.

    alpha: singularity order, in (0, 1/2); when a Hurst index H is in play
        the caller must also keep alpha > 1 - H.
    lam: exponential weight rate, >= 0.
    eta: exponent of the double-integral functional, in (0, 1/2 - alpha);
        None if that functional is not wanted.
    """

    alpha: float
    lam: float = 0.0
    eta: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ParameterError("alpha must lie in (0, 1/2)")
        if self.lam < 0.0:
            raise ParameterError("lam must be nonnegative")
        if self.eta is not None and not 0.0 < self.eta < 0.5 - self.alpha:
            raise ParameterError("eta must lie in (0, 1/2 - alpha)")


def _node_index(t0: float, h: float, n: int, t: float, what: str = "t") -> int:
    k = int(round((t - t0) / h))
    if k < 0 or k > n or abs(t0 + k * h - t) > 1e-9 * max(1.0, abs(t)):
        raise GridMismatchError(f"{what} = {t} is not a grid node")
    return k


# Paths per kernel pass.  The anchor loops work on (paths, nodes)
# temporaries, and past a few hundred kilobytes they fall out of cache:
# 400 paths at n = 1024 took 14.3 s for norm_0_interval in one pass and
# 6.2 s in blocks of 128 (the increment-kernel profile, 11.4 s and 7.0 s).
_BLOCK = 128


def _by_blocks(fn, vals: np.ndarray, *args) -> np.ndarray:
    """fn applied to blocks of at most _BLOCK rows of vals, concatenated."""
    return np.concatenate([fn(vals[i : i + _BLOCK], *args)
                           for i in range(0, len(vals), _BLOCK)])


def _stack(paths) -> tuple[GridFunction, np.ndarray]:
    """First path (the shared grid) and the (R, n+1) value stack."""
    paths = list(paths)
    if not paths:
        raise ParameterError("need at least one path")
    first = paths[0]
    grid = (first.left, first.right, first.cells)
    if any((g.left, g.right, g.cells) != grid for g in paths[1:]):
        raise GridMismatchError("paths must share one grid")
    return first, np.stack([g.values for g in paths])


def norm_t(f: GridFunction, t: float, alpha: float) -> float:
    """Integral of |f(t) - f(s)| (t - s)^(-1-alpha) over s in [left, t].

    t must be a grid node; t at the left end returns 0 (empty integral).
    """
    k = _node_index(f.left, f.h, f.cells, t)
    if k == 0:
        return 0.0
    return abs_increment_kernel(f.values[: k + 1], alpha, f.h, k)


def norm_profile(f: GridFunction, t: float, alpha: float) -> np.ndarray:
    """norm_t evaluated at every node up to t, sharing kernel tables."""
    k = _node_index(f.left, f.h, f.cells, t)
    return abs_increment_kernel_profile(f.values[None, : k + 1], alpha, f.h)[0]


def weighted_norms(f: GridFunction, lam: float, t: float, alpha: float) -> tuple[float, float]:
    """Exponentially weighted sup norms up to time t.

    Returns (sup of e^(-lam*s)|f(s)|, sup of e^(-lam*s)*norm_s(f)), both
    over grid nodes s <= t.
    """
    if lam < 0.0:
        raise ParameterError("lam must be nonnegative")
    t0, h, vals = f.left, f.h, f.values
    k = _node_index(t0, h, f.cells, t)
    s = t0 + h * np.arange(k + 1)
    w = np.exp(-lam * (s - t0))
    prof = abs_increment_kernel_profile(vals[None, : k + 1], alpha, h)[0]
    return float(np.max(w * np.abs(vals[: k + 1]))), float(np.max(w * prof))


def norm_inf_stack(paths, t: float, alpha: float) -> np.ndarray:
    """norm_inf of every path of a sequence on one grid, as a float array.

    The increment-kernel profiles of a block of paths advance together,
    one anchor node at a time, with the same per-row arithmetic as one path.
    """
    f, vals = _stack(paths)
    k = _node_index(f.left, f.h, f.cells, t)
    seg = vals[:, : k + 1]
    prof = _by_blocks(abs_increment_kernel_profile, seg, alpha, f.h)
    return np.max(np.abs(seg), axis=-1) + np.max(prof, axis=-1)


def norm_inf(f: GridFunction, t: float, alpha: float) -> float:
    """Unweighted sup of |f| plus sup of norm_s, up to t."""
    return float(norm_inf_stack([f], t, alpha)[0])


def norm_0_interval_stack(paths, s: float, t: float, alpha: float) -> np.ndarray:
    """norm_0_interval of every path of a sequence on one grid, as a float
    array; the anchor loop runs once per block of paths."""
    f, vals = _stack(paths)
    h = f.h
    i0 = _node_index(f.left, h, f.cells, s, "s")
    i1 = _node_index(f.left, h, f.cells, t, "t")
    if i0 >= i1:
        raise ParameterError("norm_0_interval needs s < t")
    return _by_blocks(_norm_0_rows, vals[:, i0 : i1 + 1], alpha, h)


def _norm_0_rows(seg: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """norm_0_interval of every row of seg over its whole span."""
    m = seg.shape[-1] - 1
    tables = _power_tables(m, alpha - 1.0, alpha, h)
    spans_pow = (h * np.arange(1, m + 1)) ** (1.0 - alpha)
    best = np.zeros(len(seg))
    for i in range(m):
        integ = np.cumsum(abs_left_singular_cells(seg, i, alpha, h, tables), axis=-1)
        cand = np.abs(seg[:, i + 1 :] - seg[:, i : i + 1]) / spans_pow[: m - i] + integ
        ci = np.max(cand, axis=-1)
        best = np.where(ci > best, ci, best)     # a nan candidate is skipped
    return best


def norm_0_interval(f: GridFunction, s: float, t: float, alpha: float) -> float:
    """Two-parameter seminorm on [s, t].

    Supremum over node pairs u < v of
        |f(v) - f(u)| / (v - u)^(1-alpha)
        + integral over (u, v) of |f(u) - f(z)| (z - u)^(alpha-2) dz.
    The anchor loop is O(n^2) with shared power tables; the inner integral
    is a cumulative sum of exact cell integrals of the linear interpolant.
    """
    return float(norm_0_interval_stack([f], s, t, alpha)[0])


def grr_functional(f: GridFunction, eta: float, T: float, alpha: float | None = None) -> float:
    """Double-integral modulus functional.

    (integral over [0,T]^2 of |f(y)-f(x)|^(2/eta) / |x-y|^(1/eta))^(eta/2)
    by a double trapezoidal sum; the diagonal (|x-y| < grid spacing) is
    excluded, where the integrand is controlled by the local increment
    slope and contributes O(dt).
    """
    hi = 0.5 if alpha is None else 0.5 - alpha
    if not 0.0 < eta < hi:
        raise ParameterError("eta must lie in (0, 1/2 - alpha)")
    h = f.h
    k = _node_index(f.left, h, f.cells, T, "T")
    seg = f.values[: k + 1]
    x = h * np.arange(k + 1)
    w = np.full(k + 1, h)
    w[0] = w[-1] = 0.5 * h
    p = 2.0 / eta
    q = 1.0 / eta
    total = 0.0
    for i in range(k + 1):
        dx = np.abs(x - x[i])
        row = np.zeros(k + 1)
        off = dx > 0.0
        row[off] = np.abs(seg[off] - seg[i]) ** p / dx[off] ** q
        total += w[i] * float(np.dot(w, row))
    return total ** (eta / 2.0)


def capital_lambda(bh: GridFunction, T: float, alpha: float) -> float:
    """Seminorm of the rough driver over [0, T], floored at 1."""
    return max(norm_0_interval(bh, 0.0, T, alpha), 1.0)


@dataclass(frozen=True)
class NormReport:
    """All norm values for one path over one interval, CSV-exportable."""

    path_id: str
    s: float
    t: float
    alpha: float
    lam: float
    eta: float
    norm_t: float
    norm_lambda: float
    norm_1_lambda: float
    norm_inf: float
    norm_0_interval: float
    xi_eta: float

    HEADER = ("path_id,s,t,alpha,lam,eta,"
              "norm_t,norm_lambda,norm_1_lambda,norm_inf,norm_0_interval,xi_eta")

    def csv_row(self) -> str:
        cells = []
        for fld in fields(self):
            v = getattr(self, fld.name)
            cells.append(v if isinstance(v, str) else repr(float(v)))
        return ",".join(cells)


def evaluate_norms(f: GridFunction, params: NormParams, t: float | None = None,
                   s: float = 0.0, path_id: str = "") -> NormReport:
    """Evaluate the whole family on [s, t] (t defaults to the last node)."""
    if t is None:
        t = f.left + f.h * f.cells
    nl, n1l = weighted_norms(f, params.lam, t, params.alpha)
    xi = (grr_functional(f, params.eta, t, params.alpha)
          if params.eta is not None else float("nan"))
    return NormReport(
        path_id=path_id,
        s=s,
        t=t,
        alpha=params.alpha,
        lam=params.lam,
        eta=params.eta if params.eta is not None else float("nan"),
        norm_t=norm_t(f, t, params.alpha),
        norm_lambda=nl,
        norm_1_lambda=n1l,
        norm_inf=norm_inf(f, t, params.alpha),
        norm_0_interval=norm_0_interval(f, s, t, params.alpha),
        xi_eta=xi,
    )
