"""Path norms behind the pathwise growth estimate.

Two norms: the sup of |f| plus the sup of a singular increment integral
anchored at each node (`norm_inf`), and a two-parameter Holder-type
seminorm on an interval (`norm_0_interval`), whose value for the fBm
driver floored at 1 is `capital_lambda`.  Each has a stacked entry that
evaluates a sequence of paths on one grid.  All suprema are taken over
grid nodes; callers pick the grid fine enough (doubling n should move any
reported value by well under a percent for the paths of interest here).
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import _power_tables, abs_increment_kernel_profile, abs_left_singular_cells
from .errors import GridMismatchError, ParameterError
from .fractional import _check_order
from .noise import GridFunction

__all__ = [
    "norm_inf",
    "norm_inf_stack",
    "norm_0_interval",
    "norm_0_interval_stack",
    "capital_lambda",
]


def _node_index(t0: float, h: float, n: int, t: float, what: str = "t") -> int:
    k = int(round((t - t0) / h)) if math.isfinite(t) else -1
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


def _stack(paths, alpha: float) -> tuple[GridFunction, np.ndarray]:
    """First path (the shared grid) and the (R, n+1) value stack, once the
    order alpha is checked."""
    _check_order(alpha)
    paths = list(paths)
    if not paths:
        raise ParameterError("need at least one path")
    first = paths[0]
    grid = (first.left, first.right, first.cells)
    if any((g.left, g.right, g.cells) != grid for g in paths[1:]):
        raise GridMismatchError("paths must share one grid")
    return first, np.stack([g.values for g in paths])


def norm_inf_stack(paths, t: float, alpha: float) -> np.ndarray:
    """norm_inf of every path of a sequence on one grid, as a float array.

    The increment-kernel profiles of a block of paths advance together,
    one anchor node at a time, with the same per-row arithmetic as one path.
    """
    f, vals = _stack(paths, alpha)
    k = _node_index(f.left, f.h, f.cells, t)
    seg = vals[:, : k + 1]
    prof = _by_blocks(abs_increment_kernel_profile, seg, alpha, f.h)
    return np.max(np.abs(seg), axis=-1) + np.max(prof, axis=-1)


def norm_inf(f: GridFunction, t: float, alpha: float) -> float:
    """Sup of |f| plus sup of the increment integral, over nodes s <= t.

    The increment integral at s is
        integral over [left, s] of |f(s) - f(u)| (s - u)^(-1-alpha) du.
    """
    return float(norm_inf_stack([f], t, alpha)[0])


def norm_0_interval_stack(paths, s: float, t: float, alpha: float) -> np.ndarray:
    """norm_0_interval of every path of a sequence on one grid, as a float
    array; the anchor loop runs once per block of paths."""
    f, vals = _stack(paths, alpha)
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


def capital_lambda(bh: GridFunction, T: float, alpha: float) -> float:
    """Seminorm of the rough driver over [0, T], floored at 1."""
    return max(norm_0_interval(bh, 0.0, T, alpha), 1.0)
