"""Product-integration primitives for weakly singular power kernels on
uniform grids.

Every routine integrates the piecewise-linear interpolant of node data in
closed form against a power kernel, so the rules are exact for piecewise-
linear inputs.  Absolute-value variants split cells at sign changes of the
interpolant, keeping them exact for |interpolant| as well.

Conventions: `values` has n+1 nodes with spacing h.  "Right-singular" means
the kernel blows up at the evaluation node t_i (kernel (t_i - u)^(-1-alpha),
0 < alpha < 1); "left-singular" means it blows up at the anchor node t_i
(kernel (z - t_i)^(alpha - 2)).  Both are integrable against interpolants
vanishing at the singular point.

`increment_kernel_sums` evaluates its cell sums as FFT convolutions: three
`numpy.fft` calls per call, one 2-row forward transform and two 2-row
inverse ones, every row with the bits of a one-row transform.  The calls
write through their `out=` arguments (numpy >= 2.0) into one scratch
buffer per thread, three spectra and two real rows, that is reused and
only grows, so a call allocates nothing large but the array it returns.
Their kernel side (`_kernel_spectra`) is built per call; the pathwise
integral keeps its own and hands it to the body `_increment_kernel_sums`.
"""

from __future__ import annotations

import bisect
import functools
import threading
from itertools import repeat

import numpy as np


def _power_tables(n: int, a: float, b: float, h: float):
    """Cell integrals of w^(a-1) and w^(b-1) at integer lags, with b = a + 1.

    T1[k] = integral of w^(a-1) over [(k-1)h, kh], T2[k] the same for
    w^(b-1); the powers k^a and k^b come along.  T1[1] is set to 0: its
    coefficient vanishes identically for interpolants that are zero at the
    singular node, which is the only case in which the first cell is
    touched.  The right-singular kernel takes (a, b) = (-alpha, 1 - alpha),
    the left-singular one (alpha - 1, alpha); both exponents are passed,
    since (alpha - 1) + 1 need not equal alpha in floating point.
    """
    k = np.arange(n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        pow_a = k**a
    pow_b = k**b
    t1 = np.zeros(n + 1)
    if n >= 2:
        t1[2:] = (pow_a[1:-1] - pow_a[2:]) * h**a / -a
    t2 = np.zeros(n + 1)
    t2[1:] = (pow_b[1:] - pow_b[:-1]) * h**b / b
    return t1, t2, pow_a, pow_b


@functools.cache
def _smooth_lengths() -> list:
    """Every 5-smooth number 2^i 3^j 5^k up to 2^63, ascending."""
    top = 1 << 63
    out = []
    p5 = 1
    while p5 <= top:
        p35 = p5
        while p35 <= top:
            out.extend(p35 << i for i in range((top // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return sorted(out)


def _next_fast_len(target: int) -> int:
    """The smallest 5-smooth number >= target (1 <= target <= 2^63): the
    length `scipy.fft.next_fast_len(target, real=True)` returns."""
    lengths = _smooth_lengths()
    return lengths[bisect.bisect_left(lengths, target)]


def _kernel_spectra(n: int, alpha: float, h: float):
    """The kernel side of increment_kernel_sums on n cells: the FFT length,
    cumsum(G1) and the rfft spectra of G1, k G1 and G2 at that length,
    read-only.

    The length is the one scipy's fftconvolve picks for the same
    convolutions (`_next_fast_len`, a stdlib port of scipy's
    `next_fast_len`), and numpy's rfft gives scipy's bits at it, which keeps
    the sums bit for bit those of fftconvolve with no scipy import.
    """
    g1, g2, _, _ = _power_tables(n, -alpha, 1.0 - alpha, h)
    size = _next_fast_len(2 * n)
    kg1 = np.arange(n + 1, dtype=float) * g1
    arrays = (np.cumsum(g1), *(np.fft.rfft(g, size) for g in (g1, kg1, g2)))
    for a in arrays:
        a.flags.writeable = False
    return (size, *arrays)


_SCRATCH = threading.local()


def _fft_scratch(size: int):
    """Views of this thread's FFT scratch for transforms of length `size`:
    a (3, size // 2 + 1) complex block of spectra and a (2, size) real
    block.  The buffer is reused while it is large enough and only grows,
    so repeated calls fault in no fresh pages."""
    m = size // 2 + 1
    need = 3 * m + size                 # 2 * size floats fill `size` complex slots
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < need:
        buf = _SCRATCH.buf = np.empty(need, dtype=complex)
    spectra = buf[: 3 * m].reshape(3, m)
    real = buf[3 * m : need].view(float).reshape(2, size)
    return spectra, real


def increment_kernel_sums(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """I[i] = integral over [t_0, t_i] of (f(t_i) - f(u)) (t_i - u)^(-1-alpha) du
    for every node i, with f the piecewise-linear interpolant of `values`,
    against kernel spectra built for this call (`_increment_kernel_sums`)."""
    f = np.asarray(values, dtype=float)
    return _increment_kernel_sums(f, h, _kernel_spectra(len(f) - 1, alpha, h))


def _increment_kernel_sums(values: np.ndarray, h: float, kernel: tuple) -> np.ndarray:
    """increment_kernel_sums against `kernel`, the `_kernel_spectra` of
    its cell count, order and spacing.

    Uniform spacing makes the cell sums convolutions, evaluated by FFT in
    three numpy calls, each row with the bits of a one-row transform.
    Every transform and product is written into the thread's scratch
    (`_fft_scratch`); only the returned array is allocated.  Its layout,
    call by call:

    - forward: the real rows hold f[1:] and diff(f); spectra rows 1 and 2
      take their transforms S_f and S_df.
    - first inverse: row 1 becomes S_f G1 in place and row 0 takes
      S_df kG1; the real rows take their inverses.
    - second inverse: row 1 takes S_df G1 and S_df G2 overwrites row 2;
      the real rows take their inverses.
    """
    f = np.asarray(values, dtype=float)
    n = len(f) - 1
    if n == 0:
        return np.zeros(1)
    size, cg1, spec_g1, spec_kg1, spec_g2 = kernel
    spectra, real = _fft_scratch(size)
    rows = real[:, :n]
    rows[0] = f[1:]
    np.subtract(f[1:], f[:-1], out=rows[1])     # np.diff(f)
    np.fft.rfft(rows, size, out=spectra[1:])
    spec_f, spec_df = spectra[1], spectra[2]
    conv = real[:, : n + 1]

    # cell j at lag k = i - j contributes c_j G1[k] + slope_j G2[k] with
    # slope_j = df[j]/h and c_j = f_i - f[j+1] - df[j] (k - 1); the three df
    # convolutions stay apart, since merging them by linearity moves the
    # sums; for the same reason the in-place updates keep the left-to-right
    # order of f cumsum(G1) - f*G1 - df*kG1 + df*G1 + (df*G2) / h
    spec_f *= spec_g1
    np.multiply(spec_df, spec_kg1, out=spectra[0])
    np.fft.irfft(spectra[:2], size, out=real)   # rows df*kG1, f*G1
    out = f * cg1
    out -= conv[1]                              # index i -> sum f[j+1] G1[i-j]
    out -= conv[0]
    np.multiply(spec_df, spec_g1, out=spec_f)
    spec_df *= spec_g2
    np.fft.irfft(spectra[1:], size, out=real)   # rows df*G1, df*G2
    out += conv[0]
    out += np.divide(conv[1], h, out=conv[1])
    out[0] = 0.0
    return out


def _split_cell(lo, hi, k, w_star, a, b, pow_a, pow_b, h):
    """Integral of |v_lin(w)| w^(a-1) over the cell [(k-1)h, kh] at lags k,
    where |v_lin| is lo at the cell's left end, hi at its right end and
    v_lin changes sign at w_star inside; pow_a and pow_b are the lag powers
    of `_power_tables` with b = a + 1.  The two sub-cells are integrated
    apart, each against the kernel's closed form.  A sub-cell whose width
    rounds to 0 (one side below about 1e-16 of the other) contributes 0."""
    hi_a = pow_a[k] * h**a
    hi_b = pow_b[k] * h**b
    lo_a = pow_a[k - 1] * h**a
    lo_b = pow_b[k - 1] * h**b
    width_lo = w_star - (k - 1.0) * h
    width_hi = k * h - w_star
    with np.errstate(divide="ignore", invalid="ignore"):
        st_a = w_star**a
        st_b = w_star**b
        sub_lo = lo / width_lo * (w_star * (lo_a - st_a) / -a - (st_b - lo_b) / b)
        sub_hi = hi / width_hi * ((hi_b - st_b) / b - w_star * (st_a - hi_a) / -a)
    return np.where(width_lo == 0.0, 0.0, sub_lo) + np.where(width_hi == 0.0, 0.0, sub_hi)


def _abs_right_singular_total(
    d: np.ndarray, i: int, alpha: float, h: float, g1, g2, pow_neg, pow_pos
) -> np.ndarray:
    """Row r: integral over [t_0, t_i] of |d_lin(u)| (t_i - u)^(-1-alpha) du
    where d_lin interpolates d[r, 0..i] and d[r, i] == 0."""
    rows = d.shape[0]
    if i == 0:
        return np.zeros(rows)
    v = np.abs(d[:, : i + 1])
    vj = v[:, :i]
    vj1 = v[:, 1:]
    slope = (vj - vj1) / h              # dv/dw, w = t_i - u
    g1r = g1[1 : i + 1][::-1]           # lag k = i - j aligned with j
    g2r = g2[1 : i + 1][::-1]
    w_lo = np.arange(i, dtype=float)[::-1] * h
    c = vj1 - slope * w_lo
    # one blocked dot per row: a matrix-vector product sums in another
    # order, and a blocked dot has the same bits at any BLAS thread count
    total = (np.array(list(map(_blocked_dot, c, repeat(g1r))))
             + np.array(list(map(_blocked_dot, slope, repeat(g2r)))))
    row, j = np.divmod(np.flatnonzero(d[:, :i] * d[:, 1 : i + 1] < 0.0), i)
    if j.size:
        k = i - j
        lo = vj1[row, j]
        hi = vj[row, j]
        w_star = k * h - h * hi / (hi + lo)
        split = _split_cell(lo, hi, k, w_star, -alpha, 1.0 - alpha, pow_neg, pow_pos, h)
        base = c[row, j] * g1r[j] + slope[row, j] * g2r[j]
        fix = split - base
        # each row's corrections summed on their own by np.sum's reduction
        # (np.add.reduce): it is pairwise, so its order depends on the term
        # count from 8 terms on
        starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
        ends = np.r_[starts[1:], row.size]
        for r, lo, hi in zip(row[starts].tolist(), starts.tolist(), ends.tolist()):
            total[r] += np.add.reduce(fix[lo:hi])
    return total


# Relative pad on every anchor bound: rounding in the bound or in an exact
# value must not prune the anchor that holds a row's max.
_BOUND_PAD = 1.0 + 1e-9


def _lag_blocks(cols: np.ndarray):
    """The dyadic lag blocks left of the nodes of a node-major (n+1, R)
    stack: for p = 1, 2, ... while 2^p <= n, yields (k_lo, k_hi, dev) for
    the nodes i = k_lo .. n, where k_lo = 2^p, the block at node i holds
    the cells at lags k_lo .. k_hi[i - k_lo] = min(2^(p+1) - 1, i), and
    dev[i - k_lo] is the largest |f_i - f_j| of each row over the block's
    nodes j = i - k_hi .. i - k_lo + 1.

    dev is read from sparse tables of range maxima and minima in O(1)
    (Bender and Farach-Colton 2000), so all blocks cost O(R n log n).
    """
    n = cols.shape[0] - 1
    levels = n.bit_length()
    # level l, node j: max (min) of the rows over nodes j .. j + 2^l - 1
    top = np.empty((levels, *cols.shape))
    low = np.empty((levels, *cols.shape))
    top[0] = low[0] = cols
    for lev in range(1, levels):
        w = 1 << (lev - 1)
        m = n + 2 - 2 * w
        np.maximum(top[lev - 1, :m], top[lev - 1, w : w + m], out=top[lev, :m])
        np.minimum(low[lev - 1, :m], low[lev - 1, w : w + m], out=low[lev, :m])
    for p in range(1, levels):
        k_lo = 1 << p
        i = np.arange(k_lo, n + 1)
        k_hi = np.minimum(2 * k_lo - 1, i)
        far = i - k_hi
        near = i - k_lo + 1
        lev = np.frexp(near - far + 1)[1] - 1
        back = near + 1 - (1 << lev)
        fi = cols[k_lo:]
        dev = np.maximum(np.maximum(top[lev, far], top[lev, back]) - fi,
                         fi - np.minimum(low[lev, far], low[lev, back]))
        yield k_lo, k_hi, dev


def _abs_increment_bounds(values: np.ndarray, alpha: float, h: float,
                          pow_neg: np.ndarray) -> np.ndarray:
    """Upper bounds, (R, n+1), on each row's increment integral at every
    node i (`_abs_right_singular_total` of f_i - f), in O(R n log n);
    pow_neg is k^(-alpha) for k = 0..n from `_power_tables`.

    At node i the lag-1 cell is exact, |f_i - f_(i-1)| h^(-alpha) / (1-alpha).
    On each dyadic block of lags k >= 2 (`_lag_blocks`) the integrand is at
    most the block's largest |f_i - f_j|, and the kernel's mass on the block
    is the telescoped sum of its T1 cells, so it rounds as the exact cells do.
    """
    cols = np.asarray(values, dtype=float).T   # (n+1, R): a node's rows side by side
    out = np.zeros(cols.shape)
    if cols.shape[0] == 1:
        return out.T
    scale = h**-alpha
    out[1:] = np.abs(cols[1:] - cols[:-1]) * (scale / (1.0 - alpha))
    for k_lo, k_hi, dev in _lag_blocks(cols):
        out[k_lo:] += dev * ((pow_neg[k_lo - 1] - pow_neg[k_hi]) * scale / alpha)[:, None]
    out *= _BOUND_PAD
    return out.T


def abs_left_singular_cells(values: np.ndarray, start: int, alpha: float, h: float,
                            tables) -> np.ndarray:
    """Per-cell integrals of |f(t_start) - f(z)| (z - t_start)^(alpha-2) dz
    for every row of an (R, n+1) value stack; `tables` are the
    left-singular power tables `_power_tables(n - start, alpha - 1, alpha, h)`
    or longer.

    Entry [r, k-1] covers [t_(start+k-1), t_(start+k)]; cumulative sums
    along a row give the integral up to any node right of `start`.
    """
    f = np.asarray(values, dtype=float)
    m = f.shape[-1] - 1 - start
    if m <= 0:
        return np.zeros((f.shape[0], 0))
    q1, q2, pow_m1, pow_a = tables
    d = f[:, start:] - f[:, start : start + 1]
    v = np.abs(d)
    v_lo = v[:, :-1]                    # node start+k-1, at w = (k-1)h
    v_hi = v[:, 1:]                     # node start+k, at w = kh
    slope = (v_hi - v_lo) / h
    w_lo = np.arange(m, dtype=float) * h
    c = v_lo - slope * w_lo
    cells = c * q1[1 : m + 1] + slope * q2[1 : m + 1]
    row, cross = np.divmod(np.flatnonzero(d[:, :-1] * d[:, 1:] < 0.0), m)
    if cross.size:
        k = cross + 1                   # first cell (k=1) never crosses: d[:, 0] == 0
        lo = v_lo[row, cross]
        hi = v_hi[row, cross]
        w_star = (k - 1.0) * h + h * lo / (lo + hi)
        cells[row, cross] = _split_cell(lo, hi, k, w_star, alpha - 1.0, alpha,
                                        pow_m1, pow_a, h)
    return cells


# elements per np.dot call of _blocked_dot: OpenBLAS runs a dot of up to
# 10,000 elements on one thread, so a block's bits do not depend on the
# BLAS thread count
_DOT_BLOCK = 8192


def _blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two equal-length vectors, one np.dot per block of
    _DOT_BLOCK elements, with the partial sums added left to right; up to
    one block it is np.dot bit for bit."""
    total = np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK])
    for i in range(_DOT_BLOCK, a.size, _DOT_BLOCK):
        total += np.dot(a[i:i + _DOT_BLOCK], b[i:i + _DOT_BLOCK])
    return float(total)


def _linear_weights(m: int, alpha: float, h: float):
    """The weights r1, r2 of weighted_linear_integral on m cells of width h:
    the integrals of y^(-alpha) and (y - y_j) y^(-alpha) over each cell
    [y_j, y_(j+1)], y_j = j h.  They depend on the grid and alpha alone."""
    j = np.arange(m + 1, dtype=float)
    y_lo = j[:-1] * h
    p1 = (j * h) ** (1.0 - alpha)
    p2 = (j * h) ** (2.0 - alpha)
    r1 = (p1[1:] - p1[:-1]) / (1.0 - alpha)
    r2 = (p2[1:] - p2[:-1]) / (2.0 - alpha) - y_lo * r1
    return r1, r2


def weighted_linear_integral(psi: np.ndarray, r1: np.ndarray, r2: np.ndarray,
                             h: float) -> float:
    """Integral of y^(-alpha) psi_lin(y) over [0, m h], psi sampled at y = j h,
    against the weights r1, r2 that `_linear_weights(m, alpha, h)` builds."""
    psi = np.asarray(psi, dtype=float)
    slope = np.diff(psi) / h
    return float(np.dot(psi[:-1], r1) + np.dot(slope, r2))
