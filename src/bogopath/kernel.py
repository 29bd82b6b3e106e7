"""Covariance kernel, spectral decomposition and grid covariance structures.

Closed forms implemented here:

* the kernel B(t, s) = cosh(omega*|t-s| - beta*omega/2)/(2*m*omega*sinh(beta*omega/2)),
  periodic in each argument with period beta;
* its eigen-decomposition over the real trigonometric basis on [0, beta]
  (constant mode, cosines for positive index, sines for negative index) with
  eigenvalues lambda_n = 1/(m*(omega^2 + (2*pi*n/beta)^2)).  On the uniform
  grid t_j = j*beta/g, modes n, n + g and g - n take the same values (sines
  up to sign), so the grid law of the truncated expansion has the aliased
  sums sum_{n mod g = +-k} lambda_n as the variances of its g Fourier
  coefficients; ``sampler.kl_drawer`` scales the normals of the shared
  spectral drawer by their square roots;
* the covariance matrix A of the path restricted to the uniform grid
  s_j = beta*(j-1)/N, together with closed forms for its inverse and the
  determinant of the inverse.

The inverse of A is cyclic tridiagonal: the nearest-neighbour coupling wraps
around between grid points 1 and N because the underlying paths are periodic.
Its determinant is det(A^-1) = 4 * (m*omega/sinh(beta*omega/N))^N * sinh^2(beta*omega/2).
Being cyclic, A is circulant, and its eigenvalues mu_k (k = 0..N-1, eigenvectors
the discrete Fourier modes) are closed-form as well: with x = beta*omega/N,

    1/mu_k = 2*m*omega*tanh(x/2) + 4*m*omega*sin^2(pi*k/N)/sinh(x).

All three closed forms are cross-checked against dense linear algebra in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import MeasureParams, ParameterError, cosh_over_sinh, coth


class DomainError(ValueError):
    """Raised when a time argument leaves [0, beta] or an ordering is violated."""


def _check_time(p: MeasureParams, *ts: float) -> None:
    for t in ts:
        if not (0.0 <= t <= p.beta):
            raise DomainError(f"time {t} outside [0, {p.beta}]")


def covariance(p: MeasureParams, t: float, s: float) -> float:
    """Kernel value B(t, s); symmetric in (t, s) and periodic on [0, beta]."""
    _check_time(p, t, s)
    c = p.half_bw
    return cosh_over_sinh(p.omega * abs(t - s) - c, c) / (2.0 * p.m * p.omega)


def covariance_grid(p: MeasureParams, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Vectorized B(t, s) on broadcastable arrays of times in [0, beta]."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if (t < 0).any() or (t > p.beta).any() or (s < 0).any() or (s > p.beta).any():
        raise DomainError("times outside [0, beta]")
    c = p.half_bw
    if c < 30.0:
        return np.cosh(p.omega * np.abs(t - s) - c) / (2.0 * p.m * p.omega * math.sinh(c))
    a = np.abs(p.omega * np.abs(t - s) - c)
    ratio = np.exp(a - c) * (1.0 + np.exp(-2.0 * a)) / (1.0 - math.exp(-2.0 * c))
    return ratio / (2.0 * p.m * p.omega)


def eigenvalue(p: MeasureParams, n: int | np.ndarray) -> float | np.ndarray:
    """lambda_n = 1/(m*(omega^2 + (2*pi*n/beta)^2)); even in n."""
    n = np.asarray(n, dtype=float)
    lam = 1.0 / (p.m * (p.omega**2 + (2.0 * np.pi * n / p.beta) ** 2))
    return float(lam) if lam.ndim == 0 else lam


def eigenfunction(p: MeasureParams, n: int | np.ndarray,
                  t: float | np.ndarray) -> float | np.ndarray:
    """Real orthonormal eigenfunction: cos for n > 0, sin for n < 0, constant
    for n = 0; broadcasts over arrays of n and t."""
    n = np.asarray(n)
    t = np.asarray(t, dtype=float)
    arg = 2.0 * np.pi * np.abs(n) * t / p.beta
    out = np.where(n == 0, math.sqrt(1.0 / p.beta),
                   math.sqrt(2.0 / p.beta) * np.where(n > 0, np.cos(arg), np.sin(arg)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair of the kernel: index n, eigenvalue, and the eigenfunction."""

    n: int
    lam: float
    params: MeasureParams = field(repr=False)

    def phi(self, t):
        return eigenfunction(self.params, self.n, t)


def eigen_system(p: MeasureParams, n_max: int) -> list[EigenPair]:
    """Eigenpairs for n = -n_max..n_max, ordered by index."""
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    return [EigenPair(n, eigenvalue(p, n), p) for n in range(-n_max, n_max + 1)]


def eigen_tail_bound(p: MeasureParams, n_max: int) -> float:
    """Analytic bound on sum_{|n|>n_max} lambda_n."""
    return p.beta**2 / (2.0 * math.pi**2 * p.m * n_max)


def truncated_kernel(p: MeasureParams, t, s, n_max: int):
    """Partial eigen-series sum_{|n|<=n_max} lambda_n*phi_n(t)*phi_n(s)."""
    n = np.arange(-n_max, n_max + 1)
    return _eigen_sum(p, n, eigenvalue(p, n), t, s)


def _eigen_sum(p: MeasureParams, n: np.ndarray, weights: np.ndarray, t, s):
    """sum_i weights_i*phi_{n_i}(t)*phi_{n_i}(s) over the index array n, for
    broadcastable arrays of times t and s."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    col_t = (-1,) + (1,) * t.ndim  # one index a row, the times broadcast after it
    col_s = (-1,) + (1,) * s.ndim
    terms_t = np.reshape(weights, col_t) * eigenfunction(p, n.reshape(col_t), t)
    acc = np.einsum("i...,i...->...", terms_t, eigenfunction(p, n.reshape(col_s), s))
    return float(acc) if acc.ndim == 0 else acc


@dataclass(frozen=True)
class GridCovariance:
    """Covariance structure of the path on the uniform grid s_j = beta*(j-1)/N.

    A is dense symmetric positive definite, A_inv is its exact cyclic
    tridiagonal inverse, det computed in log space so large N cannot overflow.
    """

    params: MeasureParams
    times: np.ndarray
    a: np.ndarray
    a_inv: np.ndarray
    log_det_a_inv: float

    @property
    def n(self) -> int:
        return len(self.times)


def grid_covariance(p: MeasureParams, n_grid: int) -> GridCovariance:
    """Closed-form A, A^-1 and det(A^-1) on the uniform N-point grid."""
    if n_grid < 2:
        raise ParameterError(f"grid size must be >= 2, got {n_grid}")
    times = p.beta * np.arange(n_grid) / n_grid
    a = covariance_grid(p, times[:, None], times[None, :])

    bw_n = p.beta * p.omega / n_grid
    c = p.m * p.omega / math.sinh(bw_n)
    a_inv = np.zeros((n_grid, n_grid))
    idx = np.arange(n_grid)
    a_inv[idx, idx] = 2.0 * math.cosh(bw_n) * c
    a_inv[idx, (idx + 1) % n_grid] -= c
    a_inv[idx, (idx - 1) % n_grid] -= c

    # det(A^-1) = 4 c^N sinh^2(beta*omega/2), from the cyclic eigenvalues
    # prod_k (2 cosh(bw/N) - 2 cos(2 pi k/N)) = 4 sinh^2(bw/2).
    half = p.half_bw
    if half < 30.0:
        log_sinh_half = math.log(math.sinh(half))
    else:
        log_sinh_half = half - math.log(2.0) + math.log1p(-math.exp(-2.0 * half))
    log_det = math.log(4.0) + n_grid * math.log(c) + 2.0 * log_sinh_half
    return GridCovariance(p, times, a, a_inv, log_det)


def grid_spectrum(p: MeasureParams, n_grid: int) -> np.ndarray:
    """Eigenvalues mu_0..mu_{N//2} of the circulant grid covariance A.

    mu_k = mu_{N-k}, so these are the values on the rfft frequencies.  Taken
    from the cyclic tridiagonal A^-1 rather than from a transform of A's first
    row, which cancels catastrophically at small omega.
    """
    if n_grid < 2:
        raise ParameterError(f"grid size must be >= 2, got {n_grid}")
    x = p.beta * p.omega / n_grid
    if x < 30.0:
        inv_sinh = 1.0 / math.sinh(x)
    else:
        inv_sinh = 2.0 * math.exp(-x) / (1.0 - math.exp(-2.0 * x))
    mw = p.m * p.omega
    sin2 = np.sin(np.pi * np.arange(n_grid // 2 + 1) / n_grid) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        mu = 1.0 / (2.0 * mw * math.tanh(0.5 * x) + 4.0 * mw * inv_sinh * sin2)
    if not np.isfinite(mu).all():
        raise ParameterError(f"grid spectrum overflows float64 at {p}, N={n_grid}")
    return mu


def increment_variance(p: MeasureParams, t1: float, t2: float) -> float:
    """Variance of x(t2) - x(t1) for 0 <= t1 <= t2 <= beta.

    Equals [cosh(beta*omega/2) - cosh(beta*omega/2 - omega*(t2-t1))]
    / (m*omega*sinh(beta*omega/2)); vanishes at t2 = t1 and t2 - t1 = beta.
    """
    _check_time(p, t1, t2)
    if t2 < t1:
        raise DomainError(f"need t1 <= t2, got t1={t1}, t2={t2}")
    c = p.half_bw
    diff = cosh_over_sinh(c, c) - cosh_over_sinh(c - p.omega * (t2 - t1), c)
    return diff / (p.m * p.omega)
