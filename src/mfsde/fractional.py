"""Riemann-Liouville fractional derivatives on grids and the generalized
Lebesgue-Stieltjes (fractional-pairing) integral.

The real-valued convention is used throughout: neither derivative carries
its complex branch factor.  The dropped factors multiply to -1, which the
pairing integral absorbs as an overall sign (see gls_integral).  Derivatives
are undefined at one endpoint each (left: x = a, right: x = b); those nodes
hold NaN.  Inputs and derivatives are `GridFunction`s, the package's one
uniform-grid path type (defined in `noise`, re-exported here).
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from ._kernels import (
    _blocked_dot,
    _increment_kernel_sums,
    _kernel_spectra,
    _linear_weights,
    increment_kernel_sums,
    weighted_linear_integral,
)
from .errors import ParameterError
from .noise import _MAX_NODES, GridFunction, _allocate, _check_count, _check_one_grid


def _check_order(alpha) -> float:
    """alpha as a Python float, if it is a real scalar or a 0-d real array
    in (0, 1); anything else is a ParameterError."""
    if isinstance(alpha, np.ndarray) and alpha.ndim == 0:
        alpha = alpha[()]
    if not isinstance(alpha, numbers.Real):
        raise ParameterError(f"fractional order must be a real number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"fractional order must lie in (0, 1), got {alpha}")
    return float(alpha)


def _check_finite(name: str, fn: GridFunction) -> None:
    if not np.isfinite(fn.values).all():
        raise ParameterError(f"{name} holds non-finite values")


def _refuse_overflow(what: str, result) -> None:
    """A ParameterError if `result`, computed from finite data, is not
    finite: the data are too large for the kernels' floating point."""
    if not np.isfinite(result).all():
        raise ParameterError(f"{what} overflows: finite data give non-finite values")


# Cephes' Gamma (S. L. Moshier), the rational approximation on [2, 3] that
# scipy.special.gamma evaluates; numerators P and denominators Q, leading
# coefficient first
_GAMMA_P = (1.60119522476751861407E-4, 1.19135147006586384913E-3, 1.04213797561761569935E-2,
            4.76367800457137231464E-2, 2.07448227648435975150E-1, 4.94214826801497100753E-1,
            9.99999999999999996796E-1)
_GAMMA_Q = (-2.31581873324120129819E-5, 5.39605580493303397842E-4, -4.45641913851797240494E-3,
            1.18139785222060435552E-2, 3.58236398605498653373E-2, -2.34591795718243348568E-1,
            7.14304917030273074085E-2, 1.00000000000000000320E0)


def _horner(coeffs: tuple, x: float) -> float:
    value = coeffs[0]
    for c in coeffs[1:]:
        value = value * x + c
    return value


def _gamma(x: float) -> float:
    """Gamma(x) for 0 < x <= 1, bit for bit scipy.special.gamma: Cephes'
    steps, shifted up to [2, 3) by the recurrence, with 1 / ((1 + gamma_E x) x)
    below x = 1e-9."""
    z = 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _horner(_GAMMA_P, x) / _horner(_GAMMA_Q, x)


def _distance_powers(cells: int, order: float, h: float) -> np.ndarray:
    """(j h)^-order at the nodes j = 0..cells of a uniform grid (inf at
    j = 0): the right derivative's distance factor, which depends on the
    grid and the order alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.arange(cells + 1, dtype=float) * h) ** -order


def _rl_values(values: np.ndarray, order: float, kern: np.ndarray, pow_: np.ndarray,
               gamma_value: float) -> np.ndarray:
    """(values * pow_ + order * kern) / gamma_value at every node, NaN at
    node 0: the derivative body both sides share, with each side's kernel
    sums, node distances raised to -order, and gamma value.

    Built in place on `kern`, which the caller hands over fresh; the
    products and the sum take their operands in swapped order, which IEEE
    arithmetic leaves bit for bit the same."""
    kern *= order
    with np.errstate(invalid="ignore"):
        kern += values * pow_
    kern /= gamma_value
    kern[0] = np.nan
    return kern


def _rl_left_values(f: GridFunction, alpha: float, kern: np.ndarray) -> np.ndarray:
    """The values of rl_left_derivative(f, alpha) for an alpha and f already
    checked, built in place on kern, f's increment kernel sums at order
    alpha."""
    pow_ = f.nodes - f.left
    with np.errstate(divide="ignore", invalid="ignore"):
        pow_ **= -alpha
    return _rl_values(f.values, alpha, kern, pow_, _gamma(1.0 - alpha))


def rl_left_derivative(f: GridFunction, alpha: float) -> GridFunction:
    """Left Riemann-Liouville derivative of order alpha on [a, b], on the
    grid of f.

    Uses the boundary + increment form: the singular increment integral is
    evaluated by product integration, exact for piecewise-linear f.  The
    node x = a is undefined (NaN).  Data so large that a defined node
    overflows are a ParameterError.
    """
    alpha = _check_order(alpha)
    _check_finite("f", f)
    vals = _rl_left_values(f, alpha, increment_kernel_sums(f.values, alpha, f.h))
    _refuse_overflow("the left derivative of f", vals[1:])
    return GridFunction(f.left, f.right, vals)


def _rl_right_values(g: GridFunction, alpha: float, pow_: np.ndarray,
                     kernel: tuple) -> np.ndarray:
    """The values of rl_right_derivative(g, alpha), as a reversed view, for
    an alpha and a g already checked; pow_ and kernel are the
    `_distance_powers` and `_kernel_spectra` of g's grid at order 1 - alpha."""
    order = 1.0 - alpha
    rev = g.values[::-1] - g.values[-1]
    rev_vals = _rl_values(rev, order, _increment_kernel_sums(rev, g.h, kernel),
                          pow_, _gamma(alpha))
    return rev_vals[::-1]


def rl_right_derivative(g: GridFunction, alpha: float) -> GridFunction:
    """Right Riemann-Liouville derivative of order 1 - alpha of the
    end-shifted function g - g(b), real convention, on the grid of g.

    Computed by reflecting the grid and reusing the left-derivative kernel at
    order 1 - alpha.  The node x = b is undefined (NaN).  Data so large
    that a defined node overflows are a ParameterError.
    """
    alpha = _check_order(alpha)
    _check_finite("g", g)
    vals = _rl_right_values(g, alpha, _distance_powers(g.cells, 1.0 - alpha, g.h),
                            _kernel_spectra(g.cells, 1.0 - alpha, g.h)).copy()
    _refuse_overflow("the right derivative of g", vals[:-1])
    return GridFunction(g.left, g.right, vals)


def _refined(fn: GridFunction, refine: int) -> GridFunction:
    """fn's piecewise-linear interpolant sampled on a grid `refine` times
    finer; a fine grid numpy cannot hold is a ParameterError."""
    if refine == 1:
        return fn
    nodes = fn.cells * refine + 1
    values = _allocate(lambda: np.interp(np.linspace(fn.left, fn.right, nodes),
                                         fn.nodes, fn.values),
                       f"a fine grid of {nodes} nodes")
    return GridFunction(fn.left, fn.right, values)


@functools.lru_cache(maxsize=8)
def _integrand_side(left: float, right: float, values: bytes, alpha: float,
                    refine: int) -> tuple:
    """Everything gls_integral reuses across drivers, read-only: the
    integrand's left derivative and the weight x^alpha at the refined
    grid's interior nodes, the right derivative's distance powers
    (j h)^-(1 - alpha), the outer rule's weights r1, r2 on the fine grid
    and, last, the right derivative's `_kernel_spectra`.

    Keyed on the integrand's exact bytes, so a changed array is a new key;
    the key fixes the fine grid, and with it the spectra's key.  Every
    rough driver paired with one integrand reuses the entry; 8 keys cover
    the four grid levels of a forward-sum comparison with room to spare.
    """
    f = _refined(GridFunction(left, right, np.frombuffer(values)), refine)
    n = f.cells
    dl = _rl_left_values(f, alpha, increment_kernel_sums(f.values, alpha, f.h))[1:n]
    # after f's derivative has freed its own spectra, so a miss holds one
    # set at a time; before the grid tables, the one such order that gave
    # fault-free warm passes in every heap layout tried
    kernel = _kernel_spectra(n, 1.0 - alpha, f.h)
    xa = (f.nodes - f.left)[1:n] ** alpha
    arrays = (dl, xa, _distance_powers(n, 1.0 - alpha, f.h),
              *_linear_weights(n, alpha, f.h))
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, kernel)


def gls_integral(f: GridFunction, g: GridFunction, alpha: float,
                 refine: int = 1) -> float:
    """Generalized Lebesgue-Stieltjes integral of f against dg on [a, b].

    Pairs the left derivative of f (order alpha) with the right derivative of
    g - g(b) (order 1 - alpha) node by node and integrates in x.  The outer
    rule absorbs the (x - a)^(-alpha) blow-up at the left endpoint into a
    product weight, with the smooth factor extrapolated linearly onto the two
    undefined endpoint nodes.

    Both derivatives here are the real bracket forms; the two complex branch
    factors they drop multiply to -1, so the pairing is negated to recover the
    forward-sum orientation (f constant must give g(b) - g(a)).

    refine > 1 re-evaluates the same piecewise-linear data on a finer grid
    before pairing.  The derivative kernels are exact for the data either
    way; only the outer x-integration sharpens, which matters when g is a
    rough path whose derivative oscillates between nodes.  The fine grid's
    node count must stay below the bound `GridSpec` puts on any grid.
    Finite data so large that the value overflows are a ParameterError.
    The value approximated is the Riemann-Stieltjes integral of the
    piecewise-linear data, which is exactly the trapezoid sum
    sum_k (f_k + f_(k+1))/2 (g_(k+1) - g_k) (Zaehle 1998).

    Everything but the driver's own work is cached per exact (grid,
    values, alpha, refine), 8 keys (`_integrand_side`): f's refined left
    derivative, the x^alpha weight, the right derivative's distance powers
    and kernel spectra, and the outer rule's weights.  So a call with an
    integrand seen before computes, for the driver, only g's interpolation,
    its kernel sums and the pairing; the result is bit for bit that of
    computing everything afresh.
    """
    _check_one_grid("grid functions", [f, g])
    _check_count("refine", refine, 1)
    refine = int(refine)        # a numpy integer would wrap in the node count
    if f.cells * refine + 1 >= _MAX_NODES:
        raise ParameterError(f"refine must keep the fine grid below {_MAX_NODES} nodes,"
                             f" got {refine} on {f.cells} cells")
    _check_finite("f", f)
    _check_finite("g", g)
    n = f.cells * refine
    if n < 4:
        raise ParameterError("gls_integral needs at least 4 cells")
    alpha = _check_order(alpha)
    # g first, so that a miss builds the entry while g's fine values are
    # held: built before them, it left glibc trimming and re-faulting the
    # heap on every warm c02 pass in 9 of 24 heap layouts tried
    g = _refined(g, refine)
    dl, xa, pow_, r1, r2, kernel = _integrand_side(f.left, f.right, f.values.tobytes(),
                                                   alpha, refine)
    dr = _rl_right_values(g, alpha, pow_, kernel)
    psi = np.empty(n + 1)
    psi[1:n] = dl * dr[1:n] * xa
    psi[0] = 2.0 * psi[1] - psi[2]
    psi[n] = 2.0 * psi[n - 1] - psi[n - 2]
    value = -weighted_linear_integral(psi, r1, r2, g.h)
    _refuse_overflow("gls_integral", value)
    return value


def forward_sum_integral(f: GridFunction, g: GridFunction) -> float:
    """Forward Riemann-Stieltjes sum: sum of f(t_k) (g(t_{k+1}) - g(t_k)),
    with the same bits at any BLAS thread count."""
    _check_one_grid("grid functions", [f, g])
    return _blocked_dot(f.values[:-1], np.diff(g.values))
