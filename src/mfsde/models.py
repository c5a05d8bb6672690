"""Built-in coefficient models.

Each entry builds a CoefficientSet whose declared constants are honest on
its sampling box (a few models, noted below, violate an assumption on
purpose so the violation machinery stays tested).  Names are stable:
they appear in run configs.  Models whose terminal value is known in
closed form carry it as `closed_form`, the oracle of convergence studies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .solver import CoefficientSet, SamplingBox

__all__ = ["MODELS", "build_model"]


def _zero(t, x):
    return x * 0.0


def _q_zero(t, x, y):
    return 0.0


def _q_add(t, x, y):
    return y


def zero_model() -> CoefficientSet:
    return CoefficientSet(
        name="zero",
        a=_zero, b=_zero, c=_zero, dc_dx=_zero, q=_q_zero,
        growth=0.0, lipschitz=0.0, time_holder=0.0, beta=0.8, b_bound=0.0,
        jump_gain=lambda y: 0.0,
        closed_form=lambda x0, w_t, z_t, jumps: x0,
    )


def additive_model() -> CoefficientSet:
    """No drift or Wiener term, unit rough-noise loading, additive jumps."""
    return CoefficientSet(
        name="additive",
        a=_zero, b=_zero, c=lambda t, x: 1.0, dc_dx=_zero, q=_q_add,
        growth=1.0, lipschitz=0.0, time_holder=0.0, beta=0.8, b_bound=0.0,
        jump_gain=lambda y: np.abs(y),
        closed_form=lambda x0, w_t, z_t, jumps: x0 + z_t + float(jumps.marks.sum()),
    )


def pure_jump_model() -> CoefficientSet:
    return CoefficientSet(
        name="pure_jump",
        a=_zero, b=_zero, c=_zero, dc_dx=_zero, q=_q_add,
        growth=0.0, lipschitz=0.0, time_holder=0.0, beta=0.8, b_bound=0.0,
        jump_gain=lambda y: np.abs(y),
        closed_form=lambda x0, w_t, z_t, jumps: x0 + float(jumps.marks.sum()),
    )


def linear_model(theta: float = 1.0, sigma_w: float = 0.5,
                 sigma_h: float = 0.5) -> CoefficientSet:
    """Mean-reverting drift, constant Wiener loading, linear rough loading."""
    return CoefficientSet(
        name="linear",
        a=lambda t, x: -theta * x,
        b=lambda t, x: sigma_w,
        c=lambda t, x: sigma_h * x,
        dc_dx=lambda t, x: sigma_h,
        q=_q_add,
        growth=theta + abs(sigma_w) + abs(sigma_h),
        lipschitz=theta,
        time_holder=0.0,
        beta=0.8,
        b_bound=abs(sigma_w),
        jump_gain=lambda y: np.abs(y),
    )


def trigonometric_model(a0: float = 1.0, b0: float = 0.5,
                        c0: float = 0.5) -> CoefficientSet:
    """Globally bounded smooth coefficients; every assumption holds on all
    of space, which makes this the default moment-experiment model."""
    return CoefficientSet(
        name="trigonometric",
        a=lambda t, x: a0 * np.sin(x),
        b=lambda t, x: b0 * np.cos(x),
        c=lambda t, x: c0 * np.sin(x),
        dc_dx=lambda t, x: c0 * np.cos(x),
        q=lambda t, x, y: y * np.cos(x),
        growth=abs(a0) + abs(b0) + abs(c0),
        lipschitz=abs(a0) + abs(b0) + abs(c0),
        time_holder=0.0,
        beta=0.8,
        b_bound=abs(b0),
        jump_gain=lambda y: np.abs(y),
    )


def logistic_drift_model(rate: float = 1.0, capacity: float = 1.0,
                         sigma_w: float = 0.3, sigma_h: float = 0.3,
                         box_half_width: float = 3.0) -> CoefficientSet:
    """Logistic drift with bounded noise loadings.

    The drift is quadratic, so the declared constants are only valid on
    |x| <= box_half_width, the model's sampling box.
    """
    r, k = rate, capacity
    bw = box_half_width
    if k <= 0:
        raise ParameterError("capacity must be positive")
    return CoefficientSet(
        name="logistic_drift",
        a=lambda t, x: r * x * (1.0 - x / k),
        b=lambda t, x: sigma_w,
        c=lambda t, x: sigma_h * np.sin(x),
        dc_dx=lambda t, x: sigma_h * np.cos(x),
        q=_q_add,
        growth=r * (1.0 + bw / k) + abs(sigma_w) + abs(sigma_h),
        lipschitz=r * (1.0 + 2.0 * bw / k),
        time_holder=0.0,
        beta=0.8,
        b_bound=abs(sigma_w),
        jump_gain=lambda y: np.abs(y),
        box=SamplingBox(x=(-bw, bw)),
    )


def mixed_geometric_model(sigma_w: float = 0.25,
                          sigma_h: float = 0.75) -> CoefficientSet:
    """Driftless geometric model with closed-form solution
    x0 * exp(sigma_w*W_t - sigma_w^2*t/2 + sigma_h*Z_t).

    Default loadings put most of the noise on the rough driver: its
    discretisation error concentrates per path, so refinement studies see
    the error shrink on nearly every seed instead of only on average.

    The Wiener loading is linear, so the boundedness assumption fails off
    any finite box; declared b_bound is deliberately 0 to surface that in
    assumption checks.
    """

    def closed_form(x0, w_t, z_t, jumps):
        """The solution at the horizon.  When its exponential overflows it
        is x0 itself for x0 == 0, else an infinity of x0's sign."""
        if jumps.rate > 0:
            raise ParameterError("the mixed_geometric closed form needs rate = 0")
        try:
            return x0 * math.exp(sigma_w * w_t - 0.5 * sigma_w ** 2 * jumps.horizon
                                 + sigma_h * z_t)
        except OverflowError:
            return x0 if x0 == 0 else math.copysign(math.inf, x0)

    return CoefficientSet(
        name="mixed_geometric",
        a=_zero,
        b=lambda t, x: sigma_w * x,
        c=lambda t, x: sigma_h * x,
        dc_dx=lambda t, x: sigma_h,
        q=_q_add,
        growth=abs(sigma_w) + abs(sigma_h),
        lipschitz=abs(sigma_w),
        time_holder=0.0,
        beta=0.8,
        b_bound=0.0,
        jump_gain=lambda y: np.abs(y),
        closed_form=closed_form,
    )


def explosive_model(scale: float = 2.0) -> CoefficientSet:
    """Cubic drift; solutions from x0 >= 1 blow up in finite time.  Exists
    to exercise the overflow guard; its infinite growth and Lipschitz
    declarations say that no such bound holds."""
    return CoefficientSet(
        name="explosive",
        a=lambda t, x: scale * x ** 3,
        b=_zero, c=_zero, dc_dx=_zero, q=_q_zero,
        growth=float("inf"),
        lipschitz=float("inf"),
        time_holder=0.0,
        beta=0.8,
        b_bound=0.0,
        jump_gain=lambda y: 0.0,
    )


MODELS = {
    "zero": zero_model,
    "additive": additive_model,
    "pure_jump": pure_jump_model,
    "linear": linear_model,
    "trigonometric": trigonometric_model,
    "logistic_drift": logistic_drift_model,
    "mixed_geometric": mixed_geometric_model,
    "explosive": explosive_model,
}


def build_model(name: str, **params) -> CoefficientSet:
    try:
        builder = MODELS[name]
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise ParameterError(f"unknown model {name!r}; known models: {known}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for model {name!r}: {exc}") from exc
