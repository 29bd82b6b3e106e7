"""Equilibrium-average inequalities for the shifted oscillator.

For a nonnegative even interaction V the partition-function ratio

    R(h) = E exp(-int_0^beta V(x(t) + h) dt)

is dominated by its value at h = 0 (Gaussian domination), and the Gibbs
average <q^2> under the full Hamiltonian obeys the Falk-Bruch bound
(1/(2 m omega)) coth(beta omega / 2), i.e. the free-oscillator value.  Both
are checked by seeded Monte Carlo with ratio estimators; the shifted
representation of R(h) (weight moved onto a linear tilt of the paths) gives
an independent second estimator of the same quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import functionals, sampler
from .params import MeasureParams, ParameterError
from .potentials import Potential, validate_symmetric_nonnegative


def r_of_h(p: MeasureParams, v_pot: Potential, h: float, n_paths: int = 100_000,
           n_grid: int = sampler.DEFAULT_GRID, seed: int = 0,
           method: str = "direct", threads: int = 1) -> sampler.EstimateReport:
    """Monte Carlo estimate of R(h).

    ``method="direct"`` averages exp(-int V(x + h)); ``method="shifted"``
    averages exp(-beta m omega^2 h^2 / 2) * exp(-int V(x)) * exp(h m omega^2
    int x dt), the image of the same integral under the shift x -> x + h.
    Agreement of the two is a nontrivial check of the measure's shift
    formula.
    """
    validate_symmetric_nonnegative(v_pot)
    if method == "direct":
        func = functionals.boltzmann_weight(v_pot, shift=h)
    elif method == "shifted":
        c = p.m * p.omega**2
        pref = math.exp(-0.5 * p.beta * c * h**2)

        def batch(t, vals):
            tilt = np.exp(h * c * np.trapezoid(vals, t, axis=1))
            return pref * np.exp(-np.trapezoid(v_pot(vals), t, axis=1)) * tilt

        func = functionals.PathFunctional(f"r_shifted(h={h})", batch)
    else:
        raise ParameterError(f"unknown method {method!r}")
    return sampler.estimate(p, func, method="finite", n_paths=n_paths,
                            n_grid=n_grid, seed=seed, threads=threads)


@dataclass(frozen=True)
class DominationReport:
    """R(h) against R(0) over a set of shifts."""

    h_values: np.ndarray
    r_values: np.ndarray = field(repr=False)
    r_errors: np.ndarray = field(repr=False)
    r_zero: float
    r_zero_error: float
    n_sigma: float
    dominated: bool


def domination_check(p: MeasureParams, v_pot: Potential, h_values,
                     n_paths: int = 100_000, n_grid: int = sampler.DEFAULT_GRID,
                     seed: int = 0, n_sigma: float = 3.0,
                     threads: int = 1) -> DominationReport:
    """Check R(h) <= R(0) for every shift, up to n_sigma combined errors.

    One pass over one stream of paths: each path gives the direct estimator
    exp(-int V(x + h)) of R(0) and of every R(h) as columns of the same
    ``mc_columns`` call, so the comparison is between correlated estimates
    and the domination holds samplewise for the direct estimator.  Each
    estimate equals ``r_of_h(..., method="direct")`` on the same seed up to
    the summation order.
    """
    validate_symmetric_nonnegative(v_pot)
    h_values = np.atleast_1d(np.asarray(h_values, dtype=float))
    weights = [functionals.boltzmann_weight(v_pot, shift=float(h))
               for h in (0.0, *h_values)]
    times, draw = sampler.finite_dim_drawer(p, n_grid)

    def eval_fn(t, vals):
        # one shift at a time, so no (shifts, paths, grid) array is built
        return np.stack([w.evaluate_batch(t, vals) for w in weights], axis=1)

    mean, cov_mean, _ = sampler.mc_columns(times, draw, eval_fn, n_paths, seed,
                                           threads=threads)
    errs = np.sqrt(np.maximum(np.diag(cov_mean), 0.0))
    r_zero, r_zero_error = float(mean[0]), float(errs[0])
    rs, errs = mean[1:], errs[1:]
    slack = n_sigma * np.hypot(errs, r_zero_error)
    return DominationReport(
        h_values=h_values, r_values=rs, r_errors=errs,
        r_zero=r_zero, r_zero_error=r_zero_error, n_sigma=n_sigma,
        dominated=bool(np.all(rs <= r_zero + slack)),
    )


@dataclass(frozen=True)
class RatioEstimate:
    """a/b with a delta-method standard error from the joint covariance."""

    value: float
    std_error: float
    numerator: float
    denominator: float
    n_samples: int
    seed: int


def mean_square_q(p: MeasureParams, v_pot: Potential, n_paths: int = 200_000,
                  n_grid: int = sampler.DEFAULT_GRID, seed: int = 0,
                  estimator: str = "time_average", threads: int = 1) -> RatioEstimate:
    """<q^2> under the interacting Hamiltonian:

        E[q^2 e^(-int V(x))] / E[e^(-int V(x))].

    ``estimator="t0"`` uses x(0)^2; ``"time_average"`` uses beta^-1 int x^2 dt
    (equal in mean by stationarity, smaller variance).  The standard error
    comes from the delta method on the joint numerator/denominator
    covariance; a denominator consistent with zero aborts.
    """
    validate_symmetric_nonnegative(v_pot)
    if estimator not in ("time_average", "t0"):
        raise ParameterError(f"unknown estimator {estimator!r}")
    times, draw = sampler.finite_dim_drawer(p, n_grid)

    def eval_fn(t, vals):
        w = np.exp(-np.trapezoid(v_pot(vals), t, axis=1))
        if estimator == "t0":
            q2 = vals[:, 0] ** 2
        else:
            q2 = np.trapezoid(vals**2, t, axis=1) / p.beta
        return np.stack([q2 * w, w], axis=1)

    mean, cov_mean, n_eff = sampler.mc_columns(times, draw, eval_fn, n_paths, seed,
                                               threads=threads)
    a, b = float(mean[0]), float(mean[1])
    if b <= 4.0 * math.sqrt(max(cov_mean[1, 1], 0.0)):
        raise ParameterError("denominator estimate consistent with zero; more paths needed")
    ratio = a / b
    var = ratio**2 * (cov_mean[0, 0] / a**2 - 2.0 * cov_mean[0, 1] / (a * b)
                      + cov_mean[1, 1] / b**2)
    return RatioEstimate(value=ratio, std_error=math.sqrt(max(var, 0.0)),
                         numerator=a, denominator=b, n_samples=int(n_eff), seed=seed)


@dataclass(frozen=True)
class FalkBruchBound:
    """Inputs and value of the bound g0 = (1/2) sqrt(c0 b0) coth(sqrt(c0/(4 b0)))."""

    b0: float
    c0: float
    g0: float
    free_value: float


def falk_bruch_bound(p: MeasureParams) -> FalkBruchBound:
    """b0 = 1/(beta m omega^2), c0 = beta/m; g0 reduces to the free-oscillator
    average (1/(2 m omega)) coth(beta omega/2)."""
    b0 = 1.0 / (p.beta * p.m * p.omega**2)
    c0 = p.beta / p.m
    g0 = 0.5 * math.sqrt(c0 * b0) / math.tanh(math.sqrt(c0 / (4.0 * b0)))
    return FalkBruchBound(b0=b0, c0=c0, g0=g0, free_value=p.marginal_variance)
