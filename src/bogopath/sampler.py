"""Path sampling and seeded Monte Carlo estimation.

Both samplers draw a path as the inverse real FFT of independent Gaussian
half-spectrum coefficients, through one drawer; only the coefficients'
standard deviations differ, and those come from two independent closed forms:

* ``sample_finite`` draws the exact grid marginal N(0, A).  A is circulant,
  so the discrete Fourier coefficients of a path are independent, with
  variances given by A's closed-form spectrum (``kernel.grid_spectrum``):
  g normals per path on g grid points, O(g log g) per path;
* ``sample_kl`` draws the truncated eigen-expansion
  sum_{|n| <= n_modes} sqrt(lambda_n) * xi_n * phi_n(t) on the grid.  There
  mode n takes the values of the grid frequency n mod g (folded to g - n mod g
  with a sign flip of the sine), so the expansion is a real trigonometric
  polynomial of at most g independent Gaussian coefficients, each with the
  summed lambda_n of the modes that fold onto it as variance.

Column j of a chunk's normals is the j-th coefficient in the order Re c_0,
Re c_1, Im c_1, Re c_2, ...; for both spectra the variance falls with the
frequency, so the leading columns carry the largest directions of the law.
Each sampler has a drawer (grid times and a ``draw(rng, count)`` closure) and
returns paths as ``(times, values)``: the shared grid of g + 1 times and one
path per row of ``values``.

Disagreement between the two beyond statistical tolerance flags a bug in
either the kernel closed forms or the sampling.

Every estimate goes through ``mc_columns``, one pass over the paths that
averages any number of per-path statistics (columns) on the same stream.

Reproducibility contract: draws are partitioned into fixed-size chunks, each
chunk owns a counter-based Philox stream keyed by (seed, chunk index), and
partial results are reduced in fixed chunk order.  The worker/thread count
therefore cannot change any digit of an estimate.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .params import MeasureParams, ParameterError

DEFAULT_GRID = 256
DEFAULT_MODES = 512
DEFAULT_CHUNK = 4096


class NonFiniteSamplesError(RuntimeError):
    """Too many non-finite functional values for a trustworthy estimate."""


@dataclass(frozen=True)
class PathSample:
    """One discretized trajectory on a uniform grid over [0, beta], periodic."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ParameterError("times and values must have equal length")
        if not np.isclose(self.values[0], self.values[-1], rtol=0, atol=1e-9 * (1 + abs(self.values[0]))):
            raise ParameterError("path must close periodically: values[0] == values[-1]")


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo estimate with standard error and full reproduction data."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int
    method: str


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _n_chunks(n_paths: int, chunk_size: int) -> int:
    if n_paths < 1 or chunk_size < 1:
        raise ParameterError(f"need n_paths >= 1 and chunk_size >= 1, "
                             f"got {n_paths} and {chunk_size}")
    return (n_paths + chunk_size - 1) // chunk_size


def grid_times(p: MeasureParams, g: int) -> np.ndarray:
    if g < 1:
        raise ParameterError(f"grid size must be >= 1, got {g}")
    return p.beta * np.arange(g + 1) / g


def _half_spectrum(re_sd: np.ndarray, im_sd: np.ndarray, d: int) -> np.ndarray:
    """Per-bin standard deviations of Re c_k and Im c_k as one vector in the
    order Re c_0, Re c_1, Im c_1, Re c_2, ... (Im c_0 left out: irfft ignores
    it), cut to its first d entries."""
    return np.delete(np.stack([re_sd, im_sd], axis=1).ravel(), 1)[:d]


def _spectral_drawer(sd: np.ndarray, g: int) -> Callable:
    """The draw(rng, count) -> values closure of both samplers.

    Column j of each chunk's normals, scaled by sd[j], is the j-th real
    half-spectrum coefficient in ``_half_spectrum`` order; the coefficients
    past len(sd) are zero.  One irfft gives the g grid values of each path,
    and the closing column repeats the first.  The normals are freed before
    the paths are allocated, so a chunk never holds all three arrays.
    """
    n_bins = g // 2 + 1
    d = len(sd)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        coeffs = rng.standard_normal((count, d))
        coeffs *= sd
        spec = np.zeros((count, n_bins), dtype=complex)
        flat = spec.view(float)
        flat[:, 0] = coeffs[:, 0]
        flat[:, 2:d + 1] = coeffs[:, 1:]
        del coeffs
        values = np.empty((count, g + 1))
        np.fft.irfft(spec, n=g, axis=1, out=values[:, :g])
        values[:, g] = values[:, 0]
        return values

    return draw


def finite_dim_drawer(p: MeasureParams, n_grid: int) -> tuple[np.ndarray, Callable]:
    """Times and a draw(rng, count) -> values closure for the exact grid sampler.

    A = F^-1 diag(mu) F, so the grid law N(0, A) is that of the irfft of
    independent half-spectrum coefficients: with c = rfft(x), Re c_k and
    Im c_k have variance N*mu_k/2, except that c_0 and c_{N/2} are real with
    variance N*mu_k.  That is N normals per path, one per coefficient.
    """
    mu = kernel.grid_spectrum(p, n_grid)
    edge = 2 * np.arange(len(mu)) % n_grid == 0  # bins 0 and N/2 are real
    sd = np.sqrt(n_grid * mu * np.where(edge, 1.0, 0.5))
    return grid_times(p, n_grid), _spectral_drawer(
        _half_spectrum(sd, np.where(edge, 0.0, sd), n_grid), n_grid)


def kl_drawer(p: MeasureParams, n_modes: int, g: int) -> tuple[np.ndarray, Callable]:
    """Times and a draw closure for the truncated eigen-expansion on g grid points.

    Mode n (cosine, or sine for -n) lands on rfft bin k = min(r, g - r) with
    r = n mod g.  On the grid, bin k's cosine coefficient is Gaussian with
    variance sum w_n*lambda_n over the modes folding onto it (w_0 = 1/beta,
    w_n = 2/beta), and its sine coefficient likewise over the sines, which
    vanish on the grid when r is 0 or g/2.  Each path takes one normal per
    coefficient of nonzero variance, min(g, 2*n_modes + 1) in all, and one
    irfft; its grid law is exactly that of the truncated expansion.
    """
    if n_modes < 0:
        raise ParameterError(f"n_modes must be >= 0, got {n_modes}")
    times = grid_times(p, g)
    n = np.arange(n_modes + 1)
    lam = kernel.eigenvalue(p, n) * np.where(n == 0, 1.0, 2.0) / p.beta
    r = n % g
    k = np.minimum(r, g - r)
    has_sine = 2 * r % g != 0  # sin(2 pi r j/g) vanishes on the grid for r = 0, g/2
    n_bins = g // 2 + 1
    # irfft(c)[j] = (c_0 + 2 sum_k Re(c_k e^{2 pi i jk/g}) [+ c_{g/2} (-1)^j]) / g
    scale = np.where(2 * np.arange(n_bins) % g == 0, g, g / 2)
    # in layout order the coefficients of nonzero variance are the first
    # min(g, 2*n_modes + 1); with g even, the last one, Im c_{g/2}, is zero
    sd = _half_spectrum(np.sqrt(np.bincount(k, lam, n_bins)) * scale,
                        np.sqrt(np.bincount(k, lam * has_sine, n_bins)) * scale,
                        min(g, 2 * n_modes + 1))
    return times, _spectral_drawer(sd, g)


def sample_finite(p: MeasureParams, n_grid: int, n_paths: int, seed: int,
                  chunk_size: int = DEFAULT_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of n_paths exact grid-marginal paths on the uniform
    N-point grid, drawn by FFT; values has shape (n_paths, N + 1)."""
    times, draw = finite_dim_drawer(p, n_grid)
    return times, _draw_all(draw, n_paths, seed, chunk_size)


def sample_kl(p: MeasureParams, n_modes: int, g: int, n_paths: int, seed: int,
              chunk_size: int = DEFAULT_CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of n_paths paths of the truncated eigen-expansion on g
    grid points; values has shape (n_paths, g + 1).

    The modes are folded onto the grid frequencies and synthesized by irfft
    (see ``kl_drawer``); the grid values have exactly the truncated law.
    """
    times, draw = kl_drawer(p, n_modes, g)
    return times, _draw_all(draw, n_paths, seed, chunk_size)


def _draw_all(draw: Callable, n_paths: int, seed: int, chunk_size: int) -> np.ndarray:
    parts = []
    for ci in range(_n_chunks(n_paths, chunk_size)):
        count = min(chunk_size, n_paths - ci * chunk_size)
        parts.append(draw(_chunk_rng(seed, ci), count))
    return np.concatenate(parts, axis=0)


def mc_columns(times: np.ndarray, draw: Callable, eval_fn: Callable,
               n_paths: int, seed: int, chunk_size: int = DEFAULT_CHUNK,
               threads: int = 1, max_bad_fraction: float = 1e-3):
    """Chunked Monte Carlo over paths for a vector-valued per-path statistic.

    eval_fn(times, values) must return an array of shape (count, q).  Returns
    (mean, cov_of_mean, n) where cov_of_mean is the q x q covariance of the
    estimated means.  Results are independent of ``threads`` by construction.
    """
    n_chunks = _n_chunks(n_paths, chunk_size)

    def run_chunk(ci: int):
        start = ci * chunk_size
        count = min(chunk_size, n_paths - start)
        values = draw(_chunk_rng(seed, ci), count)
        cols = np.atleast_2d(np.asarray(eval_fn(times, values), dtype=float))
        if cols.shape[0] != count:
            cols = cols.T
        finite = np.isfinite(cols).all(axis=1)
        bad = int(count - finite.sum())
        cols = np.where(finite[:, None], cols, 0.0)
        return cols.sum(axis=0), cols.T @ cols, bad, count

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, range(n_chunks)))
    else:
        results = [run_chunk(ci) for ci in range(n_chunks)]

    s1 = np.sum(np.stack([r[0] for r in results]), axis=0)
    s2 = np.sum(np.stack([r[1] for r in results]), axis=0)
    n_bad = sum(r[2] for r in results)
    n_eff = n_paths - n_bad
    if n_bad > max_bad_fraction * n_paths:
        raise NonFiniteSamplesError(
            f"{n_bad}/{n_paths} non-finite functional values exceeds "
            f"the {max_bad_fraction:.1%} abort threshold"
        )
    mean = s1 / n_eff
    cov = (s2 / n_eff - np.outer(mean, mean)) * n_eff / max(n_eff - 1, 1)
    return mean, cov / n_eff, n_eff


def estimate(p: MeasureParams, functional: Callable, method: str = "finite",
             n_paths: int = 10_000, n_grid: int = DEFAULT_GRID,
             n_modes: int = DEFAULT_MODES, seed: int = 0,
             chunk_size: int = DEFAULT_CHUNK, threads: int = 1) -> EstimateReport:
    """Mean and standard error of a path functional over i.i.d. draws.

    ``functional`` must have ``evaluate_batch(times, values)`` returning one
    number per path (every ``functionals.PathFunctional`` does); it is the
    single column of one ``mc_columns`` pass.  Deterministic for fixed
    (seed, method, sizes, chunk_size) regardless of the thread count.
    """
    if not hasattr(functional, "evaluate_batch"):
        raise ParameterError(f"functional {functional!r} has no evaluate_batch(times, values); "
                             "wrap a batch function in functionals.PathFunctional")
    if method in ("finite", "finite_dim"):
        times, draw = finite_dim_drawer(p, n_grid)
        method = "finite_dim"
    elif method == "kl":
        times, draw = kl_drawer(p, n_modes, n_grid)
    else:
        raise ParameterError(f"unknown sampling method {method!r}")

    mean, cov_mean, n_eff = mc_columns(times, draw,
                                       lambda t, v: functional.evaluate_batch(t, v)[:, None],
                                       n_paths, seed, chunk_size, threads)
    return EstimateReport(
        estimate=float(mean[0]),
        std_error=float(math.sqrt(max(cov_mean[0, 0], 0.0))),
        n_samples=int(n_eff),
        seed=seed,
        method=method,
    )
