"""Path norms behind the pathwise growth estimate.

Two norms: the sup of |f| plus the sup of a singular increment integral
anchored at each node (`norm_inf`), and a two-parameter Holder-type
seminorm on an interval (`norm_0_interval`), whose value for the fBm
driver floored at 1 is `capital_lambda`.  Each has a stacked entry that
evaluates a sequence of paths on one grid.  All suprema are taken over
grid nodes; callers pick the grid fine enough (doubling n should move any
reported value by well under a percent for the paths of interest here).

Both norms are a max over anchor nodes of an O(n) exact integral.  An
O(log n) upper bound per anchor, from range maxima on dyadic lag blocks,
rules out nearly every anchor, and only the anchors whose bound can reach
the row's max are evaluated exactly (`_pruned_sup`).  The result is bit
for bit the max over all anchors.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import (
    _BOUND_PAD,
    _abs_increment_bounds,
    _abs_right_singular_total,
    _lag_blocks,
    _power_tables,
    abs_left_singular_cells,
)
from .errors import GridMismatchError, ParameterError
from .fractional import _check_order
from .noise import GridFunction, _check_one_grid

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


# Paths per kernel pass.  The anchor bounds build range tables of
# (log2 n + 1) x (n + 1) floats per path, for maxima and minima each: about
# 23 MB at n = 1024 for 128 paths.  One pass over 400 paths at n = 1024 held
# 60 MB more of them for a norm_inf about 25% faster.
_BLOCK = 128
# Nodes per padded chunk of (row, anchor) pairs in norm_0_interval's exact
# candidates: 256 KB temporaries (at n = 128 and 1024, 2^14 to 2^15 nodes
# ran fastest, 2^17 up to 1.5x slower).
_PAIR_NODES = 1 << 15


def _by_blocks(fn, vals: np.ndarray, *args) -> np.ndarray:
    """fn applied to blocks of at most _BLOCK rows of vals, concatenated."""
    return np.concatenate([fn(vals[i : i + _BLOCK], *args)
                           for i in range(0, len(vals), _BLOCK)])


def _stack(paths, alpha: float) -> tuple[GridFunction, np.ndarray]:
    """First path (the shared grid) and the (R, n+1) value stack, once the
    order alpha and the finiteness of every node are checked."""
    _check_order(alpha)
    paths = list(paths)
    if not paths:
        raise ParameterError("need at least one path")
    _check_one_grid("paths", paths)
    vals = np.stack([g.values for g in paths])
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=-1))
    if bad.size:
        raise ParameterError(f"path {bad[0]} holds non-finite values")
    return paths[0], vals


def norm_inf_stack(paths, t: float, alpha: float) -> np.ndarray:
    """norm_inf of every path of a sequence on one grid, as a float array.

    The increment integral is evaluated exactly only at the anchor nodes
    whose upper bound can reach the row's max (`_norm_inf_rows`); every
    value is bit for bit the max over all anchors.
    """
    f, vals = _stack(paths, alpha)
    k = _node_index(f.left, f.h, f.cells, t)
    seg = vals[:, : k + 1]
    return np.max(np.abs(seg), axis=-1) + _by_blocks(_norm_inf_rows, seg, alpha, f.h)


def _norm_inf_rows(seg: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """Max over the nodes of each row's increment-kernel profile."""
    tables = _power_tables(seg.shape[-1] - 1, -alpha, 1.0 - alpha, h)

    def exact(rows, anchors):
        # one kernel call per anchor: its per-row dots keep their lengths
        out = np.empty(rows.size)
        order = np.argsort(anchors, kind="stable")
        starts = np.flatnonzero(np.diff(anchors[order], prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [order.size]):
            pick = order[lo:hi]
            i = int(anchors[pick[0]])
            sub = seg[rows[pick], : i + 1]
            out[pick] = _abs_right_singular_total(sub[:, i:] - sub, i, alpha, h, *tables)
        return out

    return _pruned_sup(_abs_increment_bounds(seg, alpha, h, tables[2]), exact)


def _pruned_sup(bound: np.ndarray, exact) -> np.ndarray:
    """Per row of the (R, anchors) upper bounds, the max of 0 and of the
    exact anchor values, evaluated only where a bound can reach that max.

    exact(rows, anchors) returns the value of row rows[p] at anchor
    anchors[p] for every pair p; a row's value must not depend on which
    pairs come along.  Each row's highest-bound anchor is evaluated first,
    then every anchor whose bound is not <= that value (a nan or inf bound
    always is); a row whose first value is not finite has every anchor
    evaluated.  A max of floats is exact, so the result is bit for bit the
    max over all anchors, unless rounding made a pruned anchor's value nan.
    """
    rows = np.arange(len(bound))
    first = np.argmax(bound, axis=-1)
    best = np.maximum(0.0, exact(rows, first))
    cut = np.where(np.isfinite(best), best, np.nan)
    need = ~(bound <= cut[:, None])
    need[rows, first] = False
    anchors, pending = np.nonzero(need.T)
    np.maximum.at(best, pending, exact(pending, anchors))
    return best


def norm_inf(f: GridFunction, t: float, alpha: float) -> float:
    """Sup of |f| plus sup of the increment integral, over nodes s <= t.

    The increment integral at s is
        integral over [left, s] of |f(s) - f(u)| (s - u)^(-1-alpha) du.
    """
    return float(norm_inf_stack([f], t, alpha)[0])


def norm_0_interval_stack(paths, s: float, t: float, alpha: float) -> np.ndarray:
    """norm_0_interval of every path of a sequence on one grid, as a float
    array.

    Each anchor's candidates are evaluated exactly only where the anchor's
    upper bound can reach the row's max (`_norm_0_rows`); every value is
    bit for bit the max over all anchors.
    """
    f, vals = _stack(paths, alpha)
    h = f.h
    i0 = _node_index(f.left, h, f.cells, s, "s")
    i1 = _node_index(f.left, h, f.cells, t, "t")
    if i0 >= i1:
        raise ParameterError("norm_0_interval needs s < t")
    return _by_blocks(_norm_0_rows, vals[:, i0 : i1 + 1], alpha, h)


def _norm_0_rows(seg: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """norm_0_interval of every row of seg over its whole span: per row,
    the max over anchors i of the max over v > i of the candidate."""
    m = seg.shape[-1] - 1
    tables = _power_tables(m, alpha - 1.0, alpha, h)
    spans_pow = (h * np.arange(1, m + 1)) ** (1.0 - alpha)

    def exact(rows, anchors):
        # pairs in anchor order, in chunks of rows padded to the chunk's
        # widest span with the row's last node; the padding is masked out
        out = np.empty(rows.size)
        order = np.argsort(anchors, kind="stable")
        spans = m - anchors[order]
        lo = 0
        while lo < order.size:
            w = int(spans[lo])
            hi = lo + max(1, _PAIR_NODES // w)
            pick = order[lo:hi]
            nodes = np.minimum(anchors[pick][:, None] + np.arange(w + 1), m)
            sub = seg[rows[pick][:, None], nodes]
            integ = np.cumsum(abs_left_singular_cells(sub, 0, alpha, h, tables), axis=-1)
            cand = np.abs(sub[:, 1:] - sub[:, :1]) / spans_pow[:w] + integ
            cand[np.arange(w) >= spans[lo:hi, None]] = -np.inf
            out[pick] = np.max(cand, axis=-1)
            lo = hi
        return out

    return _pruned_sup(_interval_bounds(seg, alpha, h, tables[2], spans_pow), exact)


def _interval_bounds(seg, alpha, h, pow_m1, spans_pow) -> np.ndarray:
    """Upper bounds on the candidate max of each anchor 0..m-1 of each row,
    (R, m): the largest increment term plus the whole inner integral to
    the end of the span, both bounded on dyadic lag blocks (`_lag_blocks`)
    of the reversed rows, where anchor i is node m - i."""
    cols = seg[:, ::-1].T
    d1 = np.abs(cols[1:] - cols[:-1])
    scale = h ** (alpha - 1.0)
    inc = d1 / spans_pow[0]
    total = d1 * (scale / alpha)
    for k_lo, k_hi, dev in _lag_blocks(cols):
        np.maximum(inc[k_lo - 1 :], dev / spans_pow[k_lo - 1], out=inc[k_lo - 1 :])
        total[k_lo - 1 :] += dev * ((pow_m1[k_lo - 1] - pow_m1[k_hi]) * scale
                                    / (1.0 - alpha))[:, None]
    return ((inc + total) * _BOUND_PAD)[::-1].T


def norm_0_interval(f: GridFunction, s: float, t: float, alpha: float) -> float:
    """Two-parameter seminorm on [s, t].

    Supremum over node pairs u < v of
        |f(v) - f(u)| / (v - u)^(1-alpha)
        + integral over (u, v) of |f(u) - f(z)| (z - u)^(alpha-2) dz.
    The inner integral is a cumulative sum of exact cell integrals of the
    linear interpolant, with shared power tables.  The anchor loop
    evaluates only the anchors whose upper bound can reach the max.
    """
    return float(norm_0_interval_stack([f], s, t, alpha)[0])


def capital_lambda(bh: GridFunction, T: float, alpha: float) -> float:
    """Seminorm of the rough driver over [0, T], floored at 1."""
    return max(norm_0_interval(bh, 0.0, T, alpha), 1.0)
