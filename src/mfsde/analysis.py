"""Statistical verification suites for the mixed-noise jump solver.

Each verifier draws a reproducible Monte Carlo sample and reduces it to a
small typed report carrying a `passed` flag, `lines()` with a key: value
summary, and `csv_rows()` for archival.  The mathematical statements being
probed are qualitative (moment finiteness, a pathwise growth bound,
distributional scaling of a roughness norm), so every numeric cutoff lives
in `Thresholds` as an explicit measurement convention, not a derived
constant.

Replica r of any ensemble draws its drivers from its own substream of the
root seed (`noise._replica_seeds`); reports are therefore pure functions
of their stated inputs and rerun bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ParameterError, RunFailure
from .noise import (
    FracParams,
    GridFunction,
    GridSpec,
    MarkLaw,
    Seed,
    TwoPointMarks,
    _check_count,
    _check_jump_mean,
    _check_positive,
    _csv_row,
    _replica_seeds,
    gen_driving_stack,
    gen_driving_triple,
    gen_fbm_stack,
    gen_jump_train,
)
from .norms import norm_0_interval_stack, norm_inf_stack
from .solver import (
    CoefficientSet,
    ito_integral_path,
    pathwise_bound_rhs,
    solve_with_jumps_stack,
)


@dataclass(frozen=True)
class Thresholds:
    """PASS cutoffs shared by the verification suites."""

    se_multiplier: float = 4.0            # Monte Carlo vs closed form
    stability_se_multiplier: float = 3.0  # half ensemble vs full ensemble
    holdout_pass_fraction: float = 0.95
    ks_pvalue_min: float = 0.01
    ratio_slack: float = 1e-3             # quadrature inequality tolerance

    def __post_init__(self):
        for name, ok, rule in (
                ("se_multiplier", self.se_multiplier > 0.0, "> 0"),
                ("stability_se_multiplier", self.stability_se_multiplier > 0.0, "> 0"),
                ("holdout_pass_fraction", 0.0 <= self.holdout_pass_fraction <= 1.0,
                 "in [0, 1]"),
                ("ks_pvalue_min", 0.0 <= self.ks_pvalue_min <= 1.0, "in [0, 1]"),
                ("ratio_slack", self.ratio_slack >= 0.0, ">= 0")):
            if not ok:
                raise ParameterError(f"{name} must be {rule}, got {getattr(self, name)}")


DEFAULT_THRESHOLDS = Thresholds()

# fewest replicas each suite can reduce; the moment, tail and lemma floors
# count kept (not blown-up) paths
LEMMA_MIN_REPLICAS = 4
SELFSIM_MIN_REPLICAS = 10
MOMENTS_MIN_REPLICAS = 100
TAIL_MIN_REPLICAS = 1000
JUMPS_MIN_REPLICAS = 16


def _num(x: float) -> str:
    return format(float(x), ".6g")


def _batch_se(x: np.ndarray) -> float:
    """Standard error of the mean by sqrt(n) batch means.

    Batching in replica order is deliberate: replicas are independent, so
    the split is arbitrary, and a fixed rule keeps reruns bit-identical.
    """
    m = x.size
    if m < 4:
        return 0.0
    nb = max(int(round(math.sqrt(m))), 2)
    bounds = np.linspace(0, m, nb + 1).astype(int)
    means = np.array([x[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])])
    return float(means.std(ddof=1) / math.sqrt(nb))


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class Ensemble:
    """Replicated solves plus everything needed to regenerate them.

    Replicas whose solve blew up are kept out of `paths` and recorded in
    `excluded` as (replica index, reason); `replica_ids` aligns the kept
    paths with their driver substreams.  sup|X| of each kept path is taken
    once, when the ensemble is built.
    """

    coeffs: CoefficientSet
    x0: float
    grid: GridSpec
    frac: FracParams
    rate: float
    marks: MarkLaw
    seed: Seed
    replica_ids: tuple
    paths: tuple
    excluded: tuple
    _sups: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sups = np.array([np.abs(p.values).max() for p in self.paths], dtype=float)
        sups.flags.writeable = False
        object.__setattr__(self, "_sups", sups)

    @property
    def size(self) -> int:
        return len(self.paths)

    @property
    def requested(self) -> int:
        return len(self.paths) + len(self.excluded)

    def drivers(self, replica: int):
        """Regenerate (wiener, fbm, jumps) for one replica, bit for bit;
        an index outside range(requested) raises ParameterError."""
        if replica not in range(self.requested):
            raise ParameterError(f"replica must be in range({self.requested}), got {replica!r}")
        [child] = _replica_seeds(self.seed, [replica])
        return gen_driving_triple(self.grid, self.frac.hurst, self.rate,
                                  self.marks, child)

    def sup_values(self) -> np.ndarray:
        """sup over nodes of |X| per kept path, left limits included, as a
        read-only array."""
        return self._sups


def simulate_ensemble(coeffs: CoefficientSet, x0: float, grid: GridSpec,
                      frac: FracParams, seed: Seed, replicas: int,
                      rate: float = 0.0, marks: MarkLaw | None = None) -> Ensemble:
    """Solve `replicas` independent copies of the equation.

    The replicas go through one batched jump-restart solve
    (`solve_with_jumps_stack`), which draws each block's drivers as one
    `gen_driving_stack` just before solving it.  Each path equals the
    width-1 solve `solve_with_jumps(coeffs, x0, *ens.drivers(r))` bit for
    bit.  A
    blown-up replica is excluded and recorded with its BlowUpError text,
    and the rest carry on; the moment suite flags any nonzero exclusion
    rate.
    """
    _check_count("replicas", replicas, 1)
    if marks is None:
        if rate > 0.0:
            raise ParameterError("a mark law is required when rate > 0")
        marks = TwoPointMarks()
    seeds = _replica_seeds(seed, range(replicas))
    draw = lambda rows: gen_driving_stack(grid, frac.hurst, rate, marks, seeds[rows])
    ids, paths, excluded = [], [], []
    for r, sol in enumerate(solve_with_jumps_stack(coeffs, x0, grid, draw, replicas)):
        if isinstance(sol, BlowUpError):
            excluded.append((r, str(sol)))
            continue
        ids.append(r)
        paths.append(sol)
    return Ensemble(coeffs, x0, grid, frac, rate, marks, seed,
                    tuple(ids), tuple(paths), tuple(excluded))


def _require_kept(ens: Ensemble, floor: int, message: str) -> None:
    """Refuse an ensemble with fewer than `floor` kept paths."""
    if ens.size >= floor:
        return
    if ens.requested >= floor:
        # a valid request whose solves blew up: a run failure, not bad input
        raise RunFailure(f"{message}: {len(ens.excluded)} of {ens.requested}"
                         " replicas blew up")
    raise ParameterError(message)


# ---------------------------------------------------------------------------
# moments


@dataclass(frozen=True)
class MomentRow:
    power: float
    value: float
    std_error: float
    half_value: float
    half_std_error: float
    stable: bool


@dataclass(frozen=True)
class MomentTable:
    """Empirical moments of sup|X| with a half-vs-full stability check.

    Instability or a nonzero exclusion rate fails the table: both are the
    signatures of mass escaping to infinity that the finiteness claim
    rules out.
    """

    rows: tuple
    sample_size: int
    excluded: int
    multiplier: float

    CSV_HEADER = "p,moment,std_error,half_moment,half_std_error,stable"

    @property
    def exclusion_rate(self) -> float:
        total = self.sample_size + self.excluded
        return self.excluded / total if total else 0.0

    @property
    def stable(self) -> bool:
        return all(row.stable for row in self.rows)

    @property
    def passed(self) -> bool:
        return self.stable and self.excluded == 0

    def lines(self) -> list:
        out = ["suite: moments",
               f"replicas kept: {self.sample_size}",
               f"replicas excluded: {self.excluded}"]
        if self.excluded:
            out.append(f"WARNING: nonzero exclusion rate {self.exclusion_rate:.3g}"
                       " (blow-ups removed from the sample)")
        for row in self.rows:
            out.append(
                f"p={_num(row.power)}: {_num(row.value)} +- {_num(row.std_error)}"
                f" | half {_num(row.half_value)} +- {_num(row.half_std_error)}"
                f" | stable {'yes' if row.stable else 'NO'}")
        out.append(f"stability multiplier: {_num(self.multiplier)}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def csv_rows(self) -> list:
        return [_csv_row(row.power, row.value, row.std_error, row.half_value,
                         row.half_std_error, row.stable) for row in self.rows]


def _moment_orders(p_list) -> tuple:
    """The moment orders as floats; refused unless there is one and each is
    positive and finite."""
    orders = tuple(float(p) for p in p_list)
    if not orders:
        raise ParameterError("moment orders must not be empty")
    for p in orders:
        _check_positive("moment orders", p)
    return orders


def estimate_moments(ens: Ensemble, p_list, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> MomentTable:
    """Empirical E[sup|X|^p] with batch-means errors and stability check.

    The half ensemble must agree with the full one within
    `stability_se_multiplier` combined standard errors for every p; a
    drifting mean between the two is how an almost-surely-finite-looking
    sample reveals an infinite moment.  A moment or standard error that
    overflows a float is a RunFailure naming its order, not a table row.
    """
    _require_kept(ens, MOMENTS_MIN_REPLICAS,
                  f"moment estimation needs >= {MOMENTS_MIN_REPLICAS} kept replicas,"
                  f" got {ens.size}")
    orders = _moment_orders(p_list)
    sups = ens.sup_values()
    half = sups[:sups.size // 2]
    rows = []
    for p in orders:
        with np.errstate(over="ignore", invalid="ignore"):
            full_vals = sups ** p
            half_vals = half ** p
            value, err = float(full_vals.mean()), _batch_se(full_vals)
            hvalue, herr = float(half_vals.mean()), _batch_se(half_vals)
        if not all(map(math.isfinite, (value, err, hvalue, herr))):
            raise RunFailure(f"the moment table overflows a float at p={_num(p)}:"
                             f" {_num(value)} +- {_num(err)}")
        combined = math.hypot(err, herr)
        stable = abs(hvalue - value) <= thresholds.stability_se_multiplier * combined
        rows.append(MomentRow(p, value, err, hvalue, herr, stable))
    return MomentTable(tuple(rows), ens.size, len(ens.excluded),
                       thresholds.stability_se_multiplier)


@dataclass(frozen=True)
class TailReport:
    """Log-log tail slope of the sup|X| survival function.

    A fitted slope above p_max + 1 is the empirical signature that
    moments up to order p_max converge; a degenerate sample has an
    infinitely steep tail and is trivially supported.
    """

    p_max: float
    slope: float
    supported: bool
    sample_size: int
    tail_count: int
    tail_values: tuple
    tail_survival: tuple

    CSV_HEADER = "sup_value,survival"

    @property
    def passed(self) -> bool:
        return self.supported

    def lines(self) -> list:
        return ["suite: tail",
                f"replicas: {self.sample_size}",
                f"tail points: {self.tail_count}",
                f"fitted tail slope: {_num(self.slope)}",
                f"required slope: > {_num(self.p_max + 1.0)}",
                f"result: {'PASS' if self.passed else 'FAIL'}"]

    def csv_rows(self) -> list:
        return [_csv_row(v, s) for v, s in zip(self.tail_values, self.tail_survival)]


def tail_diagnostic(ens: Ensemble, p_max: float) -> TailReport:
    """Fit the survival-function slope over the top decile of sup|X|."""
    _check_positive("p_max", p_max)
    _require_kept(ens, TAIL_MIN_REPLICAS,
                  f"tail diagnostic needs >= {TAIL_MIN_REPLICAS} kept replicas,"
                  f" got {ens.size}")
    sups = np.sort(ens.sup_values())
    m = sups.size
    k = max(m // 10, 20)
    xs = sups[m - k:]
    surv = (m - np.arange(m - k, m)) / m   # P(sup >= x), never zero
    span = xs[-1] - xs[0]
    if span <= 1e-12 * max(1.0, abs(xs[-1])):
        # degenerate sample: vertical tail
        return TailReport(float(p_max), math.inf, True, m, k,
                          tuple(xs), tuple(surv))
    keep = xs > 0
    slope_fit = np.polyfit(np.log(xs[keep]), np.log(surv[keep]), 1)[0]
    slope = -float(slope_fit)
    return TailReport(float(p_max), slope, slope > p_max + 1.0, m, k,
                      tuple(xs), tuple(surv))


# ---------------------------------------------------------------------------
# pathwise growth bound


@dataclass(frozen=True)
class LemmaReport:
    """Holdout validation of the exponential pathwise growth bound.

    K is fitted as the smallest constant making the bound an equality on
    each training path (principal Lambert W branch) and then maxed over
    the training half; the holdout half must satisfy the bound at the
    fitted K on at least `holdout_pass_fraction` of its paths.
    """

    alpha: float
    sample_size: int
    train_size: int
    fitted_k: float
    k_envelope: tuple
    holdout_rate: float
    threshold: float
    replica_ids: tuple
    lhs: tuple
    lam: tuple
    ito_norm: tuple
    k_min: tuple
    satisfied: tuple

    CSV_HEADER = "replica,lhs,capital_lambda,ito_norm,k_min,satisfied"

    @property
    def passed(self) -> bool:
        return self.holdout_rate >= self.threshold

    def lines(self) -> list:
        return ["suite: pathwise-bound",
                f"alpha: {_num(self.alpha)}",
                f"paths: {self.sample_size} (train {self.train_size},"
                f" holdout {self.sample_size - self.train_size})",
                f"fitted K: {_num(self.fitted_k)}",
                f"holdout satisfaction: {_num(self.holdout_rate)}",
                f"required fraction: {_num(self.threshold)}",
                f"result: {'PASS' if self.passed else 'FAIL'}"]

    def csv_rows(self) -> list:
        return [_csv_row(*row) for row in zip(self.replica_ids, self.lhs, self.lam,
                                              self.ito_norm, self.k_min, self.satisfied)]


def _minimal_k(lhs: float, lam_pow: float, jb: float) -> float:
    # smallest K with K*exp(K*lam_pow)*(1+jb) = lhs, via W0
    from scipy.special import lambertw

    ratio = lhs / (1.0 + jb)
    if ratio <= 0.0:
        return 0.0
    return float(lambertw(ratio * lam_pow).real / lam_pow)


def verify_pathwise_lemma(ens: Ensemble,
                          thresholds: Thresholds = DEFAULT_THRESHOLDS) -> LemmaReport:
    """Fit-and-holdout check of sup-norm growth against the driver norm.

    The first half of the paths (rounded) trains K, at the ensemble's
    alpha.  Per path: lhs is the solution's combined sup and
    increment-kernel norm, Lambda the (floored) roughness norm of the rough
    driver, and ito_norm the same combined norm of the accumulated Wiener
    integral of b along the path.
    """
    if any(p.train.count for p in ens.paths):
        raise ParameterError("pathwise bound suite needs a jump-free ensemble")
    _require_kept(ens, LEMMA_MIN_REPLICAS,
                  f"need at least {LEMMA_MIN_REPLICAS} paths to split, got {ens.size}")
    alpha = ens.frac.alpha
    horizon = ens.grid.horizon
    times = ens.grid.times
    lam_pow_exp = 1.0 / (1.0 - alpha)

    wieners, fbm_values, _ = gen_driving_stack(ens.grid, ens.frac.hurst, ens.rate, ens.marks,
                                               _replica_seeds(ens.seed, ens.replica_ids))
    fbms = [GridFunction(0.0, horizon, v) for v in fbm_values]
    xs, itos = [], []
    for w, path in zip(wieners, ens.paths):
        xs.append(GridFunction(0.0, horizon, path.values))
        b_vals = np.broadcast_to(ens.coeffs.b(times, path.values), times.shape)
        itos.append(ito_integral_path(b_vals, GridFunction(0.0, horizon, w)))
    lhs = norm_inf_stack(xs, horizon, alpha).tolist()
    # Lambda: the roughness norm floored at 1, as in capital_lambda
    lam = np.maximum(norm_0_interval_stack(fbms, 0.0, horizon, alpha), 1.0).tolist()
    jb = norm_inf_stack(itos, horizon, alpha).tolist()
    kmin = [_minimal_k(lhs_i, lam_i ** lam_pow_exp, jb_i)
            for lhs_i, lam_i, jb_i in zip(lhs, lam, jb)]

    n_train = round(ens.size / 2)
    envelope = np.maximum.accumulate(np.array(kmin[:n_train]))
    k_fit = float(envelope[-1])

    satisfied = []
    for lhs_i, lam_i, jb_i in zip(lhs, lam, jb):
        if k_fit > 0.0:
            rhs = pathwise_bound_rhs(lam_i, jb_i, alpha, k_fit)
        else:
            rhs = 0.0
        # 1e-9 relative slack absorbs the lambertw/exp round trip on
        # paths whose fitted K is the binding one
        satisfied.append(lhs_i <= rhs * (1.0 + 1e-9))
    holdout = satisfied[n_train:]
    rate = float(np.mean(holdout)) if holdout else 1.0
    return LemmaReport(alpha, ens.size, n_train, k_fit, tuple(envelope),
                       rate, thresholds.holdout_pass_fraction,
                       tuple(ens.replica_ids), tuple(lhs), tuple(lam),
                       tuple(jb), tuple(kmin), tuple(satisfied))


# ---------------------------------------------------------------------------
# quadrature estimates


def _quad_checked(fn, lo: float, hi: float, issues: list, label: str, **kw) -> float:
    from scipy.integrate import quad

    res = quad(fn, lo, hi, full_output=1, limit=200, **kw)
    if len(res) > 3:
        issues.append(f"{label}: {res[3].splitlines()[0]}")
    return float(res[0])


@dataclass(frozen=True)
class KernelReport:
    """Quadrature check of the two singular-kernel inequalities.

    (i) the exponentially weighted power kernel is dominated by
    gamma(1-alpha) * lambda^(alpha-1) uniformly in the endpoint;
    (ii) the two-power convolution is dominated by
    B(1-alpha, 2*alpha) * (t-u)^(-2*alpha) on the (u, t) triangle.
    """

    alpha: float
    weighted_rows: tuple    # (lambda, sup ratio, s at sup)
    beta_ratio: float
    beta_argmax: tuple
    grid_size: int
    slack: float
    issues: tuple

    CSV_HEADER = "check,param_a,param_b,ratio"

    @property
    def passed(self) -> bool:
        ok = all(r <= 1.0 + self.slack for _, r, _ in self.weighted_rows)
        return ok and self.beta_ratio <= 1.0 + self.slack and not self.issues

    def lines(self) -> list:
        out = ["suite: kernel-estimates", f"alpha: {_num(self.alpha)}"]
        for lam, ratio, s_at in self.weighted_rows:
            out.append(f"lambda={_num(lam)}: sup ratio {_num(ratio)}"
                       f" at s={_num(s_at)}")
        u, t = self.beta_argmax
        out.append(f"beta bound: max ratio {_num(self.beta_ratio)}"
                   f" at (u={_num(u)}, t={_num(t)})"
                   f" on {self.grid_size}x{self.grid_size} grid")
        out.append(f"allowed ratio: <= 1 + {_num(self.slack)}")
        for issue in self.issues:
            out.append(f"quadrature issue: {issue}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def csv_rows(self) -> list:
        weighted = [_csv_row("weighted", lam, s_at, ratio)
                    for lam, ratio, s_at in self.weighted_rows]
        return weighted + [_csv_row("beta", *self.beta_argmax, self.beta_ratio)]


# nodes per axis of the (u, t) grid the beta bound is maximized over
_KERNEL_GRID = 20


def verify_kernel_estimates(alpha: float, lambda_list,
                            thresholds: Thresholds = DEFAULT_THRESHOLDS) -> KernelReport:
    """Check both kernel inequalities by adaptive quadrature on the unit
    interval.

    The weighted kernel integral is evaluated in the form
    int_0^s exp(-lambda*v) (s-v)^(-alpha) dv so the exponential stays
    bounded and the algebraic endpoint singularity is handled by the
    quadrature weight; sup over s is taken on a log-spaced grid fine
    enough to straddle the 1/lambda transition.
    """
    if not 0.0 < alpha < 0.5:
        raise ParameterError(f"alpha must lie in (0, 1/2), got {alpha}")
    lambda_list = list(lambda_list)
    if not lambda_list:
        raise ParameterError("need at least one lambda value")
    issues: list = []

    weighted_rows = []
    gamma_factor = math.gamma(1.0 - alpha)
    for lam in lambda_list:
        lam = float(lam)
        _check_positive("lambda values", lam)
        bound = gamma_factor * lam ** (alpha - 1.0)
        s_lo = min(0.01 / lam, 0.25)
        best, best_s = -math.inf, math.nan
        for s in np.geomspace(s_lo, 1.0, 64):
            val = _quad_checked(lambda v: math.exp(-lam * v), 0.0, s, issues,
                                f"weighted lambda={lam} s={s:.4g}",
                                weight="alg", wvar=(0.0, -alpha))
            ratio = val / bound
            if ratio > best:
                best, best_s = ratio, float(s)
        weighted_rows.append((lam, best, best_s))

    from scipy.special import beta

    beta_factor = beta(1.0 - alpha, 2.0 * alpha)
    fracs = np.linspace(1.0, _KERNEL_GRID, _KERNEL_GRID) / (_KERNEL_GRID + 1.0)
    t_vals = np.linspace(1.0 / _KERNEL_GRID, 1.0, _KERNEL_GRID)
    beta_best, beta_arg = -math.inf, (math.nan, math.nan)
    for t in t_vals:
        for frac in fracs:
            u = frac * t
            val = _quad_checked(lambda s: (t - s) ** (-1.0 - alpha), 0.0, u,
                                issues, f"beta u={u:.4g} t={t:.4g}",
                                weight="alg", wvar=(0.0, -alpha))
            ratio = val / (beta_factor * (t - u) ** (-2.0 * alpha))
            if ratio > beta_best:
                beta_best, beta_arg = ratio, (float(u), float(t))
    return KernelReport(alpha, tuple(weighted_rows), beta_best,
                        beta_arg, _KERNEL_GRID, thresholds.ratio_slack,
                        tuple(issues))


# ---------------------------------------------------------------------------
# interval scaling of the roughness norm


@dataclass(frozen=True)
class SelfSimReport:
    """Two-sample KS check of the interval-scaling identity.

    The normalized statistic (b-a)^(-kappa) * ||B^H||_{0;[a,b]}^(1/(1-alpha))
    must match the law of the unit-interval statistic; kappa_scale != 1
    runs the same seeds with a deliberately wrong exponent to confirm the
    test would notice.
    """

    hurst: float
    alpha: float
    kappa: float
    kappa_scale: float
    sample_size: int
    rows: tuple      # (a, b, cells, pvalue)
    threshold: float

    CSV_HEADER = "a,b,cells,ks_pvalue"

    @property
    def passed(self) -> bool:
        return all(p > self.threshold for _, _, _, p in self.rows)

    def lines(self) -> list:
        out = ["suite: self-similarity",
               f"hurst: {_num(self.hurst)}",
               f"alpha: {_num(self.alpha)}",
               f"kappa: {_num(self.kappa)} (below 1 for every admissible pair;"
               " only the distributional identity is checked)"]
        if self.kappa_scale != 1.0:
            out.append(f"kappa_scale: {_num(self.kappa_scale)} (control run)")
        for a, b, cells, pval in self.rows:
            out.append(f"interval [{_num(a)}, {_num(b)}] ({cells} cells):"
                       f" KS p={_num(pval)}")
        out.append(f"required p: > {_num(self.threshold)}")
        out.append(f"replicas: {self.sample_size}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def csv_rows(self) -> list:
        return [_csv_row(*row) for row in self.rows]


def _interval_cells(intervals, steps: int) -> list:
    """(a, b, cells) of each interval [a, b] of a grid of `steps` cells on
    [0, 1]; refused unless there is one and each lies in [0, 1] with
    endpoints on the grid."""
    if not intervals:
        raise ParameterError("need at least one interval")
    dt = 1.0 / steps
    out = []
    for a, b in intervals:
        a, b = float(a), float(b)
        if not 0.0 <= a < b <= 1.0:
            raise ParameterError(f"bad interval [{a}, {b}]")
        cells = int(round((b - a) / dt))
        if abs(a / dt - round(a / dt)) > 1e-9 or abs((b - a) / dt - cells) > 1e-9:
            raise ParameterError(f"interval [{a}, {b}] must align with the grid")
        out.append((a, b, cells))
    return out


def _selfsim_setup(hurst: float, alpha: float, interval_list, replicas: int,
                   steps: int, kappa_scale: float) -> tuple:
    """verify_self_similarity's rules, applied before anything is drawn:
    (grid, [(a, b, cells)], kappa, interval scales), or ParameterError."""
    FracParams(hurst, alpha)    # refuses a hurst or alpha out of range
    grid_full = GridSpec(1.0, steps)
    intervals = _interval_cells(list(interval_list), steps)
    _check_count("replicas", replicas, SELFSIM_MIN_REPLICAS)
    if not math.isfinite(kappa_scale):
        raise ParameterError(f"kappa_scale must be finite, got {kappa_scale}")
    kappa = (alpha + hurst - 1.0) / (1.0 - alpha)
    kappa_used = kappa_scale * kappa
    try:
        scales = [(b - a) ** (-kappa_used) for a, b, _ in intervals]
    except OverflowError:
        raise ParameterError(f"kappa_scale = {kappa_scale} is too large: an interval"
                             " scale (b - a)^-kappa overflows a float") from None
    return grid_full, intervals, kappa, scales


# the largest size at which scipy's ks_2samp takes its exact p-value
_KS_EXACT_MAX = 10000


def _ks_pvalue(sample: np.ndarray, reference: np.ndarray) -> float:
    """scipy.stats.ks_2samp(sample, reference).pvalue, two-sided, bit for bit.

    Two finite samples of one size up to 10,000 take a port of scipy's
    exact path, in its own operation order: the ECDF difference via
    searchsorted, h = round(D n), and the Horner form of scipy's
    _compute_prob_outside_square.  Any other pair, or an exact probability
    outside [0, 1], goes to scipy itself, so scipy.stats loads only then.
    """
    a, b = np.sort(sample), np.sort(reference)
    n = a.size
    if 0 < n == b.size <= _KS_EXACT_MAX and np.isfinite(a).all() and np.isfinite(b).all():
        both = np.concatenate([a, b])
        diffs = (np.searchsorted(a, both, side="right") / n
                 - np.searchsorted(b, both, side="right") / n)
        low = np.clip(-diffs[np.argmin(diffs)], 0, 1)
        high = diffs[np.argmax(diffs)]
        h = int(np.round((low if low > high else high) * n))
        if h == 0:
            return 1.0
        prob = 0.0
        for k in range(n // h, -1, -1):
            term = 1.0
            for j in range(h):
                term = (n - k * h - j) * term / (n + k * h + j + 1)
            prob = term * (1.0 - prob)
        prob = 2 * prob
        if 0.0 <= prob <= 1.0:
            return prob
    from scipy.stats import ks_2samp
    return float(ks_2samp(sample, reference).pvalue)


def verify_self_similarity(hurst: float, alpha: float, interval_list, replicas: int,
                           seed: Seed, steps: int = 256, kappa_scale: float = 1.0,
                           thresholds: Thresholds = DEFAULT_THRESHOLDS) -> SelfSimReport:
    """Sample the scaled interval statistic against its unit-interval law.

    The reference sample is drawn on a unit-interval grid with the same
    number of cells as the interval under test, so the two discrete
    statistics share their exact law and the KS comparison carries no
    discretization bias.  Intervals lie in [0, 1], with endpoints on the
    grid of `steps` cells.  A kappa_scale whose interval scale overflows a
    float is a ParameterError.
    """
    grid_full, intervals, kappa, scales = _selfsim_setup(
        hurst, alpha, interval_list, replicas, steps, kappa_scale)
    expo = 1.0 / (1.0 - alpha)
    rows = []
    for k, ((a, b, cells), scale) in enumerate(zip(intervals, scales)):
        grid_ref = GridSpec(1.0, cells)
        bhs = [GridFunction(0.0, 1.0, v) for v in gen_fbm_stack(
            grid_full, hurst, [seed.child(2 * k).child(r) for r in range(replicas)])]
        refs = [GridFunction(0.0, 1.0, v) for v in gen_fbm_stack(
            grid_ref, hurst, [seed.child(2 * k + 1).child(r) for r in range(replicas)])]
        # Python float powers: numpy's array power differs from them in the
        # last bit for some inputs
        sample = np.array([scale * v ** expo
                           for v in norm_0_interval_stack(bhs, a, b, alpha).tolist()])
        reference = np.array([v ** expo
                              for v in norm_0_interval_stack(refs, 0.0, 1.0, alpha).tolist()])
        pval = _ks_pvalue(sample, reference)
        rows.append((a, b, cells, pval))
    return SelfSimReport(hurst, alpha, kappa, kappa_scale, replicas,
                         tuple(rows), thresholds.ks_pvalue_min)


# ---------------------------------------------------------------------------
# compound-Poisson product moment


@dataclass(frozen=True)
class JumpMomentReport:
    """Monte Carlo check of the product-of-jump-gains expectation.

    E[prod g(mark)^(4p) over jumps up to T] has the closed form
    exp(rate * T * (E[g(Y)^(4p)] - 1)) for a finite-activity train; the
    empirical mean must land within `se_multiplier` batch-means standard
    errors of it.
    """

    rate: float
    power: float
    horizon: float
    sample_size: int
    empirical: float
    std_error: float
    exact: float
    z_score: float
    threshold: float

    CSV_HEADER = "rate,power,horizon,replicas,empirical,std_error,exact,z"

    @property
    def passed(self) -> bool:
        return self.z_score <= self.threshold

    def lines(self) -> list:
        return ["suite: jump-product",
                f"rate: {_num(self.rate)}",
                f"gain exponent: {_num(self.power)}",
                f"replicas: {self.sample_size}",
                f"empirical: {_num(self.empirical)} +- {_num(self.std_error)}",
                f"exact: {_num(self.exact)}",
                f"z: {_num(self.z_score)} (allowed <= {_num(self.threshold)})",
                f"result: {'PASS' if self.passed else 'FAIL'}"]

    def csv_rows(self) -> list:
        return [_csv_row(self.rate, self.power, self.horizon, self.sample_size,
                         self.empirical, self.std_error, self.exact, self.z_score)]


def _jump_closed_form(rate: float, marks: MarkLaw, gain, p: float, horizon: float,
                      replicas: int) -> tuple:
    """verify_jump_product_moment's rules, applied before anything is drawn:
    (the gain exponent 4p, the closed form), or ParameterError."""
    _check_jump_mean(rate, horizon)
    if not math.isfinite(p):
        raise ParameterError(f"p must be finite, got {p}")
    _check_count("replicas", replicas, JUMPS_MIN_REPLICAS)
    power = 4.0 * float(p)
    try:
        mean_gain = marks.expect(lambda y: float(np.asarray(gain(y), dtype=float)) ** power)
        exact = math.exp(rate * horizon * (mean_gain - 1.0))
    except OverflowError:
        raise ParameterError(f"p = {p} is too large: the gain moment E[g(Y)^{power:g}]"
                             f" or its closed form overflows a float") from None
    return power, exact


def verify_jump_product_moment(rate: float, marks: MarkLaw, gain, p: float,
                               horizon: float, replicas: int, seed: Seed,
                               thresholds: Thresholds = DEFAULT_THRESHOLDS) -> JumpMomentReport:
    """Compare the empirical jump-gain product moment with its closed form.

    `gain` must accept an ndarray of marks; the exponent applied is 4p.
    An empty train contributes the empty product 1, which is also the
    closed form at rate 0.  The closed form is computed before any train
    is drawn, and one that overflows a float is a ParameterError.
    """
    power, exact = _jump_closed_form(rate, marks, gain, p, horizon, replicas)
    prods = np.empty(replicas)
    for r, child in enumerate(_replica_seeds(seed, range(replicas))):
        train = gen_jump_train(rate, marks, horizon, child)
        if train.count:
            gains = np.asarray(gain(train.marks), dtype=float)
            prods[r] = float(np.prod(gains ** power))
        else:
            prods[r] = 1.0
    empirical = float(prods.mean())
    err = _batch_se(prods)
    if err > 0.0:
        z = abs(empirical - exact) / err
    else:
        z = 0.0 if empirical == exact else math.inf
    return JumpMomentReport(rate, power, horizon, replicas, empirical, err,
                            exact, z, thresholds.se_multiplier)
