"""Semigroups attached to the path measure and the Feynman-Kac equation.

Three layers:

* the Ornstein-Uhlenbeck semigroup of the one-point marginal and its
  generator L = -x d/dx + (coth(beta*omega/2)/(2*m*omega)) d^2/dx^2;
* the time-integral (heat) semigroup with diffusion constant 1/(2*m*omega^2)
  and the transformed process y(t) = x(t)/omega + int_0^t x, which has
  independent increments of variance (t - s)/(m*omega^2);
* the fundamental solution u(beta, xi) of
  du/dbeta = (1/(2*m*omega^2)) u_xx - V(xi) u, u(0, .) = delta, computed
  from its Volterra integral form by product integration (the free-kernel
  time mass over each slice is integrated in closed form, which absorbs the
  (beta - tau)^(-1/2) endpoint singularity; the history of slices the xi
  grid resolves is carried by a one-term recursion per frequency, and the
  current slice is one banded solve with a matrix factored once per grid),
  cross-checked by a Crank-Nicolson finite-difference reference and by
  mollified Monte Carlo, and for a harmonic V checked against the
  closed-form Mehler kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.integrate
import scipy.linalg.lapack
import scipy.special

from . import sampler
from .params import MeasureParams, ParameterError, cosh_over_sinh, coth, sinh_over_sinh
from .potentials import Potential

_GH_ORDER = 80


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck semigroup of the marginal


def ou_apply(p: MeasureParams, f, t: float, x, gh_order: int = _GH_ORDER):
    """(T(t)f)(x) = E f(e^-t x + sqrt(1 - e^-2t) Y), Y ~ N(0, coth(b/2)/(2 m omega)).

    Gauss-Hermite quadrature in the Gaussian variable; f must be vectorized.
    """
    if t < 0:
        raise ParameterError("semigroup time must be >= 0")
    x = np.asarray(x, dtype=float)
    nodes, weights = np.polynomial.hermite.hermgauss(gh_order)
    sigma = math.sqrt(p.marginal_variance * (1.0 - math.exp(-2.0 * t)))
    args = math.exp(-t) * x[..., None] + math.sqrt(2.0) * sigma * nodes
    out = (f(args) * weights).sum(axis=-1) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


def ou_generator_check(p: MeasureParams, f, x: float,
                       t_values=(1e-2, 1e-3)) -> list[float]:
    """Residuals |(T(t)f - f)/t - Lf| at small t; should shrink linearly in t."""
    lf = ou_generator_apply(p, f, x)
    out = []
    for t in t_values:
        diff = (ou_apply(p, f, t, x) - float(np.asarray(f(x)))) / t
        out.append(abs(diff - lf))
    return out


def ou_generator_apply(p: MeasureParams, f, x, dx: float = 1e-4):
    """(Lf)(x) = -x f'(x) + (coth(beta*omega/2)/(2 m omega)) f''(x), derivatives
    by central differences."""
    x = np.asarray(x, dtype=float)
    fp = (f(x + dx) - f(x - dx)) / (2.0 * dx)
    fpp = (f(x + dx) - 2.0 * f(x) + f(x - dx)) / dx**2
    out = -x * fp + p.marginal_variance * fpp
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# time-integral semigroup and the independent-increment transform


def heat_apply(p: MeasureParams, f, beta_arg: float, x, gh_order: int = _GH_ORDER):
    """(T(beta)f)(x): Gaussian convolution with variance beta/(m*omega^2)."""
    if beta_arg < 0:
        raise ParameterError("semigroup time must be >= 0")
    x = np.asarray(x, dtype=float)
    if beta_arg == 0:
        out = np.asarray(f(x), dtype=float)
        return float(out) if out.ndim == 0 else out
    nodes, weights = np.polynomial.hermite.hermgauss(gh_order)
    sigma = math.sqrt(beta_arg / (p.m * p.omega**2))
    args = x[..., None] + math.sqrt(2.0) * sigma * nodes
    out = (f(args) * weights).sum(axis=-1) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


def transform_y_batch(p: MeasureParams, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """y(t) = x(t)/omega + int_0^t x(tau) dtau on the grid, for each path (row) of values."""
    running = scipy.integrate.cumulative_trapezoid(values, times, axis=1, initial=0.0)
    return values / p.omega + running


def y_covariance(p: MeasureParams, t: float, s: float) -> float:
    """E[y(t) y(s)] in closed form; the increments y(t) - y(s) are independent
    across disjoint intervals with variance (t - s)/(m*omega^2)."""
    for v in (t, s):
        if not 0.0 <= v <= p.beta:
            raise ParameterError("times must lie in [0, beta]")
    w, half = p.omega, p.half_bw

    def exp_over_sinh(a):  # e^a / sinh(half) with e^a = cosh(a) + sinh(a)
        return cosh_over_sinh(a, half) + sinh_over_sinh(a, half)

    bracket = (2.0 * (1.0 / w + min(s, t))
               + (exp_over_sinh(w * s - half) + exp_over_sinh(w * t - half)
                  - cosh_over_sinh(half, half)) / w)
    return bracket / (2.0 * p.m * w**2)


def y_increment_variance(p: MeasureParams, t: float, s: float) -> float:
    return abs(t - s) / (p.m * p.omega**2)


# ---------------------------------------------------------------------------
# Feynman-Kac fundamental solution


def fk_free(p: MeasureParams, beta_arg: float, xi) -> np.ndarray | float:
    """Free fundamental solution sqrt(m*omega^2/(2*pi*beta)) exp(-m*omega^2 xi^2/(2*beta))."""
    if beta_arg <= 0:
        raise ParameterError("need beta > 0 for the free kernel")
    xi = np.asarray(xi, dtype=float)
    c = p.m * p.omega**2
    out = np.sqrt(c / (2.0 * math.pi * beta_arg)) * np.exp(-c * xi**2 / (2.0 * beta_arg))
    return float(out) if out.ndim == 0 else out


def fk_harmonic(p: MeasureParams, kappa: float, beta_arg: float, xi) -> np.ndarray | float:
    """Mehler kernel, the fundamental solution for V = (kappa/2) xi^2:
    sqrt(M Omega/(2 pi sinh(Omega beta))) exp(-M Omega xi^2 coth(Omega beta)/2),
    M = m*omega^2, Omega = sqrt(kappa/M).

    log sinh(x) = x + log(-expm1(-2x)) - log 2 keeps the prefactor finite
    where sinh(Omega beta) alone would overflow.
    """
    if kappa <= 0 or beta_arg <= 0:
        raise ParameterError("need kappa > 0 and beta > 0 for the Mehler kernel")
    xi = np.asarray(xi, dtype=float)
    mass = p.m * p.omega**2
    freq = math.sqrt(kappa / mass)
    x = freq * beta_arg
    log_sinh = x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)
    out = (math.sqrt(mass * freq / (2.0 * math.pi)) * math.exp(-0.5 * log_sinh)
           * np.exp(-0.5 * mass * freq * coth(x) * xi**2))
    return float(out) if out.ndim == 0 else out


def _kernel_time_mass(p: MeasureParams, s_lo: float, s_hi: float, d: np.ndarray) -> np.ndarray:
    """int_{s_lo}^{s_hi} sqrt(c/(2 pi s)) exp(-c d^2/(2 s)) ds, c = m omega^2.

    With w = sqrt(s) and a = c d^2 / 2 the antiderivative is
    2 sqrt(c/(2 pi)) [w exp(-a/w^2) - sqrt(pi a) erfc(sqrt(a)/w)], finite at
    s_lo = 0, so the inverse-square-root endpoint singularity integrates
    exactly.
    """
    c = p.m * p.omega**2
    a = 0.5 * c * d**2

    def anti(w):
        if w == 0.0:
            return np.zeros_like(a)
        return w * np.exp(-a / w**2) - np.sqrt(math.pi * a) * scipy.special.erfc(
            np.sqrt(a) / w
        )

    return 2.0 * math.sqrt(c / (2.0 * math.pi)) * (anti(math.sqrt(s_hi)) - anti(math.sqrt(s_lo)))


@dataclass(frozen=True)
class FKSolution:
    """Fundamental solution on a (beta, xi) product grid."""

    betas: np.ndarray
    xi: np.ndarray
    u: np.ndarray = field(repr=False)  # shape (len(betas), len(xi))
    error_estimate: float

    def at(self, beta_arg: float, xi_val: float) -> float:
        i = int(np.argmin(np.abs(self.betas - beta_arg)))
        return float(np.interp(xi_val, self.xi, self.u[i]))


def _direct_lags(c: float, d_tau: float, d_xi: float, n_tau: int) -> int:
    """First slice lag >= 1 whose Nyquist factor exp(-lag d_tau pi^2/(2 c d_xi^2))
    is below 2^-60, capped at n_tau.

    From that lag on the xi grid resolves the free kernel: the transform of
    its samples is the continuous exp(-s k^2/(2c)) up to aliases below 2^-60
    of the zero-frequency mass.
    """
    nyquist = d_tau * math.pi**2 / (2.0 * c * d_xi**2)
    return 1 + int(min(60.0 * math.log(2.0) / nyquist, n_tau - 1))


def _volterra_grid(p: MeasureParams, v_pot: Potential, beta_max: float,
                   n_tau: int, xi: np.ndarray) -> np.ndarray:
    """Right-endpoint product integration of the Volterra equation.

    Convolutions in xi run in a shared zero-padded FFT space.  Once the grid
    resolves the free kernel, the transform M_i of its time mass over slice i
    is, at each frequency k, a factor shared by all slices times
    int exp(-s k^2/(2c)) ds over [i d_tau, (i+1) d_tau]; so from lag n_direct
    on (``_direct_lags``) M_(i+1) = r M_i, r = exp(-d_tau k^2/(2c)).
    Step k sums lags 1..n_direct-1 directly and carries every older slice in
    one vector, tail <- r tail + g_hat[k - n_direct], weighted by
    M_(n_direct) (the recursive convolution of Lubich and Schaedle,
    SIAM J. Sci. Comput. 24 (2002) 161): one inverse FFT and O(n_direct)
    frequency-space terms per step, not a sum over every past slice.  On a
    grid too coarse to resolve any lag, n_direct = n_tau and every lag is
    summed directly.

    The current slice enters through the same system at every step,
    (I + d_xi T0 diag V) u_k = rhs_k, T0[i, j] = m0[lo + i - j] the Toeplitz
    matrix of the slice-0 time mass m0: cut to the band where m0 >= 2^-60
    max m0, it is factored once (LAPACK dgbtrf) and each step is one dgbtrs.

    The directly summed masses are of the kernel cut at |offset| <= xi_max,
    while the recursion carries the uncut kernel; so a xi_max narrower than
    the default 8 sqrt(beta_max/c) moves u by at most the kernel's mass
    beyond xi_max.
    """
    c = p.m * p.omega**2
    d_tau = beta_max / n_tau
    n_xi = len(xi)
    d_xi = xi[1] - xi[0]
    v_vals = v_pot(xi)
    offsets = xi - xi[n_xi // 2]
    n_fft = scipy.fft.next_fast_len(2 * n_xi - 1)
    # same-mode slice of the full linear convolution for a centered kernel
    lo = n_xi // 2
    n_direct = _direct_lags(c, d_tau, d_xi, n_tau)
    # mass_hat[i - 1] holds M_i
    mass_hat = np.stack([
        np.fft.rfft(_kernel_time_mass(p, i * d_tau, (i + 1) * d_tau, offsets), n_fft)
        for i in range(1, n_direct + 1)
    ])
    k_freq = 2.0 * math.pi * np.arange(mass_hat.shape[1]) / (n_fft * d_xi)
    ratio = np.exp(-d_tau * k_freq**2 / (2.0 * c))

    m0 = _kernel_time_mass(p, 0.0, d_tau, offsets)
    bw = int(np.max(np.abs(np.flatnonzero(m0 >= 2.0**-60 * np.max(m0)) - lo)))
    # general band storage: A[i, j] sits at ab[2 bw + i - j, j]; the top bw
    # rows are dgbtrf's room for the fill-in of row pivoting
    ab = np.zeros((3 * bw + 1, n_xi), order="F")
    off = np.arange(-bw, bw + 1)[:, None]
    row = np.arange(n_xi) + off  # i of the entry A[i, j] in each band row
    ab[bw:] = np.where((row >= 0) & (row < n_xi), d_xi * m0[lo + off] * v_vals, 0.0)
    ab[2 * bw] += 1.0
    lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, bw, bw, overwrite_ab=1)
    if info > 0:
        raise ParameterError(f"the slice-0 system of the Volterra step is singular "
                             f"(zero pivot {info} of {n_xi}); take more time steps")

    tail = np.zeros(mass_hat.shape[1], dtype=complex)
    # at step k, recent[j] holds g_hat[k - n_direct + j], zero before slice 1
    recent = np.zeros((n_direct, mass_hat.shape[1]), dtype=complex)
    u = np.zeros((n_tau + 1, n_xi))
    for k in range(1, n_tau + 1):
        rhs = fk_free(p, k * d_tau, xi)
        if k > 1:
            tail = ratio * tail + recent[0]
            acc = mass_hat[-1] * tail + np.einsum(
                "ij,ij->j", mass_hat[:-1][::-1], recent[1:])
            rhs = rhs - d_xi * np.fft.irfft(acc, n_fft)[lo:lo + n_xi]
        u[k] = scipy.linalg.lapack.dgbtrs(lu, bw, bw, rhs, piv, overwrite_b=1)[0]
        recent[:-1] = recent[1:]
        recent[-1] = np.fft.rfft(v_vals * u[k], n_fft)
    if not np.all(np.isfinite(u)):
        raise ParameterError("the Volterra march is not finite")
    return u


def fk_solve_volterra(p: MeasureParams, v_pot: Potential, beta_max: float,
                      n_tau: int = 200, n_xi: int = 1025, xi_max: float | None = None,
                      richardson: bool = True) -> FKSolution:
    """Solve u = free - int V u K by product integration in time, FFT in space.

    n_xi must be odd, so the grid is centered at xi = 0, and d_xi at most
    sqrt(beta_max/(m omega^2)), the kernel's standard deviation at beta_max.
    The time stepping is first order; with ``richardson`` a halved-step solve
    is combined as 2*u(h/2) - u(h) for second order.

    ``error_estimate`` is the largest coarse/halved-step gap over all slices:
    the time-step error of the uncorrected coarse solve, not of the returned
    value, and blind to the xi spacing.  It is NaN without ``richardson``.
    """
    if beta_max <= 0 or n_tau < 2:
        raise ParameterError("need beta_max > 0 and n_tau >= 2")
    if n_xi < 3 or n_xi % 2 == 0:
        raise ParameterError("n_xi must be odd and >= 3 so the grid is centered at xi = 0")
    sigma = math.sqrt(beta_max / (p.m * p.omega**2))
    if xi_max is None:
        xi_max = 8.0 * sigma
    if not (math.isfinite(xi_max) and xi_max > 0):
        raise ParameterError("xi_max must be finite and > 0")
    xi = np.linspace(-xi_max, xi_max, n_xi)
    if xi[1] - xi[0] > sigma:
        raise ParameterError(
            f"xi spacing {xi[1] - xi[0]:.3g} exceeds the kernel's standard deviation "
            f"sqrt(beta_max/(m omega^2)) = {sigma:.3g} at beta_max; take more xi points")
    u = _volterra_grid(p, v_pot, beta_max, n_tau, xi)
    betas = (beta_max / n_tau) * np.arange(n_tau + 1)
    if not richardson:
        return FKSolution(betas=betas, xi=xi, u=u, error_estimate=float("nan"))
    u_fine = _volterra_grid(p, v_pot, beta_max, 2 * n_tau, xi)[::2]
    err = float(np.max(np.abs(u_fine - u)))
    return FKSolution(betas=betas, xi=xi, u=2.0 * u_fine - u, error_estimate=err)


def fk_reference_fd(p: MeasureParams, v_pot: Potential, beta_max: float,
                    n_tau: int = 4000, n_xi: int = 2001, xi_max: float | None = None,
                    beta_init: float = 1e-3) -> FKSolution:
    """Crank-Nicolson reference for the same equation, independent of the
    Volterra machinery.

    Starts at a small beta_init from free * exp(-beta_init * V) (the delta
    initial condition regularized by the short-time product formula) and
    marches to beta_max with zero boundary values.  The implicit matrix
    M = I + (d_tau/2)(-D Lap + diag V), D = 1/(2 m omega^2), is constant,
    symmetric and tridiagonal: it is factored once as L D L^T (LAPACK
    dpttrf) and each step is one explicit half-step and one dpttrs solve.
    M is positive definite whenever 1 + d_tau * min(V)/2 > 0, so for any
    V >= 0; a very negative d_tau * V can break this, and then
    ParameterError asks for more time steps.  Every max(1, n_tau // 200)-th
    step is kept, and always the last, so u[-1] is the solution at beta_max.
    """
    if n_tau < 1 or n_xi < 3 or not 0.0 < beta_init < beta_max:
        raise ParameterError("need n_tau >= 1, n_xi >= 3 and 0 < beta_init < beta_max")
    if xi_max is None:
        xi_max = 8.0 * math.sqrt(beta_max / (p.m * p.omega**2))
    xi = np.linspace(-xi_max, xi_max, n_xi)
    h = xi[1] - xi[0]
    d_tau = (beta_max - beta_init) / n_tau
    diff = 1.0 / (2.0 * p.m * p.omega**2)
    v_vals = v_pot(xi)
    if not np.all(np.isfinite(v_vals)):
        raise ParameterError("the potential is not finite on the xi grid")

    # implicit M = I - (d_tau/2) A and explicit I + (d_tau/2) A, with
    # A = diff * Lap - diag(V): diagonals diag and 2 - diag, off-diagonals -c and c
    c = 0.5 * d_tau * diff / h**2
    diag = 1.0 + d_tau * (diff / h**2 + 0.5 * v_vals)
    explicit_diag = 2.0 - diag
    l_diag, l_off, info = scipy.linalg.lapack.dpttrf(diag, np.full(n_xi - 1, -c))
    if info != 0:
        raise ParameterError(
            f"Crank-Nicolson matrix is not positive definite (d_tau * min V = "
            f"{d_tau * float(np.min(v_vals)):.3g}); take more time steps")

    u = fk_free(p, beta_init, xi) * np.exp(-beta_init * v_vals)
    rhs = np.empty(n_xi)
    keep = max(1, n_tau // 200)
    betas, frames = [beta_init], [u.copy()]
    # an overflow is reported once, by the finiteness check after the march
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_tau + 1):
            np.multiply(explicit_diag, u, out=rhs)
            rhs[1:-1] += c * (u[2:] + u[:-2])
            rhs[0] = rhs[-1] = 0.0
            # the solve overwrites rhs, which becomes the new u
            u, rhs = scipy.linalg.lapack.dpttrs(l_diag, l_off, rhs, overwrite_b=1)[0], u
            if step % keep == 0 or step == n_tau:
                betas.append(beta_init + step * d_tau)
                frames.append(u.copy())
    frames = np.stack(frames)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(frames))):
        raise ParameterError("Crank-Nicolson march is not finite")
    return FKSolution(betas=np.asarray(betas), xi=xi, u=frames,
                      error_estimate=float("nan"))


@dataclass(frozen=True)
class FKEstimate:
    """Monte Carlo values of u(beta, xi) with mollification width delta."""

    xi: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray
    delta: float
    n_samples: int
    seed: int


def fk_estimate_mc(p: MeasureParams, v_pot: Potential, xi,
                   delta: float = 0.05, n_paths: int = 200_000,
                   n_grid: int = sampler.DEFAULT_GRID, seed: int = 0,
                   chunk_size: int = sampler.DEFAULT_CHUNK,
                   threads: int = 1) -> FKEstimate:
    """Estimate u(beta, xi) = E[delta(y(beta) - y(0) - xi) exp(-int V(y - y(0)))]
    with the delta replaced by a centered Gaussian of width ``delta``.

    The measure parameter beta plays the role of the time argument.  The
    mollifier adds a bias of order delta^2 * u''/2 on top of the Monte Carlo
    error.
    """
    if delta <= 0:
        raise ParameterError("mollifier width must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    times, draw = sampler.finite_dim_drawer(p, n_grid)

    def eval_fn(t, values):
        y = transform_y_batch(p, t, values)
        y_rel = y - y[:, :1]
        weight = np.exp(-np.trapezoid(v_pot(y_rel), t, axis=1))
        spread = y_rel[:, -1][:, None] - xi[None, :]
        moll = np.exp(-0.5 * (spread / delta) ** 2) / (delta * math.sqrt(2.0 * math.pi))
        return moll * weight[:, None]

    mean, cov_mean, n_eff = sampler.mc_columns(times, draw, eval_fn, n_paths, seed,
                                               chunk_size, threads)
    return FKEstimate(
        xi=xi,
        estimate=mean,
        std_error=np.sqrt(np.clip(np.diag(cov_mean), 0.0, None)),
        delta=delta,
        n_samples=int(n_eff),
        seed=seed,
    )
