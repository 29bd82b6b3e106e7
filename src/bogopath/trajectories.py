"""Almost-sure trajectory statistics: quadratic variation and Holder sets.

The quadratic variation over the uniform N-partition concentrates at
beta/m; its first two moments have closed hyperbolic forms, checked here
against a direct pairing computation on the increment covariance matrix.
The measure of the two-point Holder set is an explicit Gaussian integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, sampler
from .params import MeasureParams, ParameterError


def quadratic_variation(path: sampler.PathSample, k: int | None = None) -> float:
    """S_k(x) = sum of squared increments over the uniform k-partition.

    k must divide the path's grid count (no resampling is done); defaults
    to the full grid.
    """
    n_grid = len(path.times) - 1
    if k is None:
        k = n_grid
    if k < 1 or n_grid % k != 0:
        raise ParameterError(f"partition size {k} does not divide the grid ({n_grid})")
    vals = path.values[:: n_grid // k]
    return float(np.sum(np.diff(vals) ** 2))


def qvar_exact_mean(p: MeasureParams, n: int) -> float:
    """E[S_N] = N * [cosh(b/2) - cosh(b/2 - b/N)] / (m*omega*sinh(b/2)), b = beta*omega.

    Evaluated as N (1 - e^-c)(1 - e^-(b - c)) / (m omega (1 - e^-b)), c = b/N,
    the same ratio after cosh(x + y) - cosh(x - y) = 2 sinh(x) sinh(y): no
    difference of cosh values (which cancels at large N) and no overflow.
    """
    if n < 1:
        raise ParameterError("partition size must be >= 1")
    b = p.beta * p.omega
    c = b / n
    return n * math.expm1(-c) * math.expm1(c - b) / (-p.m * p.omega * math.expm1(-b))


def qvar_exact_second_moment(p: MeasureParams, n: int) -> float:
    """E[S_N^2] in closed hyperbolic form (exact for every N >= 2)."""
    if n < 2:
        raise ParameterError("second-moment closed form needs N >= 2")
    b = p.beta * p.omega
    c = b / n
    pref = (2.0 * p.m * p.omega * math.sinh(0.5 * b)) ** -2
    bracket = (
        4.0 * n**2 * math.cosh(0.5 * b) ** 2
        + 4.0 * n**2 * math.cosh(0.5 * b - c) ** 2
        - 8.0 * n**2 * math.cosh(0.5 * b) * math.cosh(0.5 * b - c)
        + 6.0 * n**2
        - 8.0 * n**2 * math.cosh(c)
        + 2.0 * n * (n - 1) * math.cosh(2.0 * c)
        + 2.0 * n
        + 2.0 * n * math.cosh(b - 2.0 * c)
        + 6.0 * n * math.sinh(b) * math.cosh(c) / math.sinh(c)
        - 8.0 * n * math.sinh(b) / math.sinh(c)
        + 2.0 * n * math.sinh(b - c) / math.sinh(c)
    )
    return pref * bracket


def qvar_exact_i_n(p: MeasureParams, n: int) -> float:
    """I_N = E[(S_N - beta/m)^2]; decays like 2*beta^2/(m^2*N)."""
    bm = p.beta / p.m
    return qvar_exact_second_moment(p, n) - 2.0 * bm * qvar_exact_mean(p, n) + bm**2


def qvar_moments_bruteforce(p: MeasureParams, n: int) -> tuple[float, float]:
    """(E[S_N], E[S_N^2]) from the increment covariance matrix via pairings.

    With C the N x N covariance of the increments, E[S] = tr C and
    E[S^2] = (tr C)^2 + 2 * sum_ij C_ij^2.  Independent of the closed forms;
    O(N^2) and meant as a cross-check.
    """
    times = sampler.grid_times(p, n)
    b_mat = kernel.covariance_grid(p, times[:, None], times[None, :])
    d = np.zeros((n, n + 1))
    idx = np.arange(n)
    d[idx, idx + 1] = 1.0
    d[idx, idx] = -1.0
    c = d @ b_mat @ d.T
    tr = float(np.trace(c))
    return tr, tr**2 + 2.0 * float(np.sum(c**2))


@dataclass(frozen=True)
class QVarReport:
    """Monte Carlo quadratic variation against its closed-form law."""

    n_partition: int
    estimate: float
    std_error: float
    exact_mean: float
    exact_second_moment: float
    exact_deviation: float
    levy_limit: float
    n_samples: int
    seed: int


def qvar_report(p: MeasureParams, n: int, n_paths: int = 10_000, seed: int = 0,
                chunk_size: int = sampler.DEFAULT_CHUNK, threads: int = 1) -> QVarReport:
    """Sample S_N on the exact N-point grid marginal and compare with theory."""
    times, draw = sampler.finite_dim_drawer(p, n)

    def eval_fn(t, values):
        return np.sum(np.diff(values, axis=1) ** 2, axis=1)[:, None]

    mean, cov_mean, n_eff = sampler.mc_columns(times, draw, eval_fn, n_paths, seed,
                                               chunk_size, threads)
    return QVarReport(
        n_partition=n,
        estimate=float(mean[0]),
        std_error=float(math.sqrt(max(cov_mean[0, 0], 0.0))),
        exact_mean=qvar_exact_mean(p, n),
        exact_second_moment=qvar_exact_second_moment(p, n),
        exact_deviation=qvar_exact_i_n(p, n),
        levy_limit=p.beta / p.m,
        n_samples=int(n_eff),
        seed=seed,
    )


@dataclass(frozen=True)
class HolderSetMeasure:
    """Measure of {x : |x(t) - x(t')| <= h |t - t'|^gamma} and its linear bound."""

    a: float
    measure: float
    upper_bound: float


def holder_set_measure(p: MeasureParams, t: float, t_prime: float,
                       h: float, gamma: float) -> HolderSetMeasure:
    """Exact two-point Holder set measure erf(a/sqrt(2)) with a from the
    increment variance; the bound sqrt(2/pi)*a decays like |t-t'|^(gamma-1/2).
    """
    if h <= 0 or not (0.0 < gamma <= 1.0):
        raise ParameterError("need h > 0 and gamma in (0, 1]")
    if t == t_prime:
        raise ParameterError("Holder set needs two distinct times")
    var = kernel.increment_variance(p, t, t_prime)
    a = h * abs(t - t_prime) ** gamma / math.sqrt(var)
    return HolderSetMeasure(
        a=a,
        measure=math.erf(a / math.sqrt(2.0)),
        upper_bound=math.sqrt(2.0 / math.pi) * a,
    )
