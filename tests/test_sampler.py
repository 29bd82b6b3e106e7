import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bogopath import functionals, kernel, oracle, sampler
from bogopath.params import MeasureParams, ParameterError


def test_sample_finite_marginal_statistics(p111):
    _, values = sampler.sample_finite(p111, 32, 20_000, seed=1)
    var = values[:, 0].var(ddof=1)
    se = p111.marginal_variance * math.sqrt(2.0 / (len(values) - 1))
    assert abs(var - p111.marginal_variance) < 4.0 * se


def test_sample_finite_covariance_structure(p111):
    _, values = sampler.sample_finite(p111, 16, 50_000, seed=2)
    emp = np.cov(values[:, :16].T)
    gc = kernel.grid_covariance(p111, 16)
    assert np.max(np.abs(emp - gc.a)) < 0.02


def test_sample_kl_periodic_and_consistent(p111):
    times, values = sampler.sample_kl(p111, 64, 48, 50_000, seed=3)
    assert times.shape == (49,) and values.shape == (50_000, 49)
    assert np.all(values[:, 0] == values[:, -1])
    var = values[:, 0].var(ddof=1)
    trunc_var = kernel.truncated_kernel(p111, 0.0, 0.0, 64)
    se = trunc_var * math.sqrt(2.0 / (len(values) - 1))
    assert abs(var - trunc_var) < 4.0 * se


def test_path_sample_rejects_open_path(p111):
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ParameterError):
        sampler.PathSample(t, np.array([0.0, 1.0, 2.0, 1.0, 0.5]))
    with pytest.raises(ParameterError):
        sampler.PathSample(t, np.zeros(4))


def test_same_seed_reproduces_bitwise(p111):
    _, a = sampler.sample_finite(p111, 16, 5000, seed=42)
    _, b = sampler.sample_finite(p111, 16, 5000, seed=42)
    assert np.array_equal(a, b)
    _, c = sampler.sample_finite(p111, 16, 5000, seed=43)
    assert not np.array_equal(a, c)


def test_estimate_thread_count_invariance(p111):
    reps = [
        sampler.estimate(p111, functionals.exp_quadratic(0.5), method="kl",
                         n_paths=10_000, n_grid=32, n_modes=32, seed=5, threads=th)
        for th in (1, 2, 4)
    ]
    assert reps[0] == reps[1] == reps[2]


def test_estimate_exp_quadratic_matches_oracle(p111):
    closed = oracle.exp_quadratic(p111, 0.5)
    rep = sampler.estimate(p111, functionals.exp_quadratic(0.5), method="kl",
                           n_paths=50_000, seed=7)
    assert abs(rep.estimate - closed) < 4.0 * rep.std_error
    assert rep.n_samples == 50_000
    assert rep.method == "kl"


def test_estimate_exp_linear_mgf(p111):
    # E exp(theta int x dt) = exp(theta^2 * beta / (2 m omega^2)),
    # the moment generating function of N(0, beta/(m omega^2))
    theta = 0.8
    closed = math.exp(theta**2 * p111.beta / (2.0 * p111.m * p111.omega**2))
    rep = sampler.estimate(p111, functionals.exp_linear(theta), method="finite",
                           n_paths=50_000, n_grid=64, seed=8)
    assert abs(rep.estimate - closed) < 4.0 * rep.std_error


def test_estimate_ergodic_mean_square(p111):
    # E[(beta^-1 int x dt)^2] = 1/(beta m omega^2)
    closed = 1.0 / (p111.beta * p111.m * p111.omega**2)
    rep = sampler.estimate(p111, functionals.mean_value_squared(), method="finite",
                           n_paths=50_000, n_grid=64, seed=9)
    assert abs(rep.estimate - closed) < 4.0 * rep.std_error


def test_estimate_plain_callable_functional(p111):
    # a plain callable on one path is refused; its batch form is the functional
    with pytest.raises(ParameterError):
        sampler.estimate(p111, lambda path: float(path.values[0] ** 2),
                         method="finite", n_paths=2000, n_grid=16, seed=10)
    x0_squared = functionals.PathFunctional("x0_squared", lambda t, v: v[:, 0] ** 2)
    rep = sampler.estimate(p111, x0_squared, method="finite", n_paths=2000, n_grid=16,
                           seed=10)
    assert abs(rep.estimate - p111.marginal_variance) < 5.0 * rep.std_error


def test_estimate_unknown_method(p111):
    with pytest.raises(ParameterError):
        sampler.estimate(p111, functionals.const(), method="magic", seed=0)


def test_non_finite_samples_abort(p111):
    bad = functionals.PathFunctional(
        "bad", lambda t, v: np.where(v[:, 0] > 0, np.nan, 1.0))
    with pytest.raises(sampler.NonFiniteSamplesError):
        sampler.estimate(p111, bad, method="finite", n_paths=2000, n_grid=8, seed=0)


def _path_integral(path, f):
    """Trapezoidal int_0^beta f(x(t)) dt on the path's grid."""
    return float(np.trapezoid(f(path.values), path.times))


def test_path_integral_constant(p111):
    t = np.linspace(0.0, p111.beta, 11)
    path = sampler.PathSample(t, np.full(11, 2.0))
    assert _path_integral(path, lambda x: x) == pytest.approx(2.0 * p111.beta)


def test_mc_columns_multicolumn_shapes(p111):
    times, draw = sampler.finite_dim_drawer(p111, 8)

    def eval_fn(t, v):
        return np.stack([v[:, 0], v[:, 0] ** 2], axis=1)

    mean, cov, n = sampler.mc_columns(times, draw, eval_fn, 10_000, seed=11)
    assert mean.shape == (2,) and cov.shape == (2, 2) and n == 10_000
    assert abs(mean[0]) < 4.0 * math.sqrt(cov[0, 0])
    assert abs(mean[1] - p111.marginal_variance) < 4.0 * math.sqrt(cov[1, 1])


def test_kl_drawer_validation(p111):
    with pytest.raises(ParameterError):
        sampler.kl_drawer(p111, -1, 16)
    with pytest.raises(ParameterError):  # g = 0 would give NaN times and paths
        sampler.kl_drawer(p111, 8, 0)
    with pytest.raises(ParameterError):
        sampler.finite_dim_drawer(p111, 1)
    with pytest.raises(ParameterError):  # mu_0 = N/(m*omega^2*beta) overflows
        sampler.finite_dim_drawer(MeasureParams(m=1.0, omega=1e-170, beta=1.0), 8)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_estimate_rejects_empty_path_count(p111, n_paths):
    with pytest.raises(ParameterError):
        sampler.estimate(p111, functionals.const(), n_paths=n_paths, n_grid=8, seed=0)
    with pytest.raises(ParameterError):
        sampler.sample_finite(p111, 8, n_paths, seed=0)


def test_seed_outside_philox_key_range(p111):
    # -1 and 2**64 - 1 used to share one stream through a 64-bit mask
    _, top = sampler.sample_kl(p111, 4, 8, 10, seed=2**64 - 1)
    assert np.isfinite(top).all()
    for seed in (-1, 2**64):
        with pytest.raises(ParameterError):
            sampler.sample_kl(p111, 4, 8, 10, seed=seed)


class _IdentityRng:
    """Stands in for a Generator: its "normals" are the identity matrix."""

    def __init__(self, n: int):
        self.n = n

    def standard_normal(self, shape):
        assert shape == (self.n, self.n)
        return np.eye(self.n)


@pytest.mark.parametrize("m, omega, beta", [(1.0, 1.0, 1.0), (2.5, 0.3, 7.0),
                                            (0.1, 20.0, 3.0), (1.0, 1e-3, 1.0)])
@pytest.mark.parametrize("n", [7, 8, 64, 65])
def test_finite_drawer_covariance_is_exact(m, omega, beta, n):
    p = MeasureParams(m=m, omega=omega, beta=beta)
    _, draw = sampler.finite_dim_drawer(p, n)
    values = draw(_IdentityRng(n), n)
    assert np.array_equal(values[:, 0], values[:, -1])
    s = values[:, :n]  # row i is the path drawn from the i-th unit vector
    a = kernel.grid_covariance(p, n).a
    assert np.max(np.abs(s.T @ s - a)) <= 1e-12 * np.max(np.abs(a))

    mu = kernel.grid_spectrum(p, n)
    full = np.concatenate([mu, mu[1:(n + 1) // 2][::-1]])  # mu_k = mu_{N-k}
    eig = np.linalg.eigvalsh(a)
    assert np.max(np.abs(np.sort(full) - eig)) <= 1e-12 * eig[-1]


def test_finite_drawer_huge_grid_step_is_finite():
    # beta*omega/N = 1e4: sinh(beta*omega/N) alone would overflow
    p = MeasureParams(m=1.0, omega=1e4, beta=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mu = kernel.grid_spectrum(p, 8)
        _, draw = sampler.finite_dim_drawer(p, 8)
        values = draw(np.random.default_rng(0), 100)
    assert np.isfinite(mu).all() and (mu > 0).all()
    assert np.isfinite(values).all()


def test_finite_drawer_tiny_omega():
    # well-defined laws whose grid covariance is numerically singular at N=512
    for beta in (1e-9, 1.0):
        p = MeasureParams(m=1.0, omega=1e-9, beta=beta)
        _, values = sampler.sample_finite(p, 512, 20_000, seed=12)
        assert np.isfinite(values).all()
        var = values[:, 0].var(ddof=1)
        se = p.marginal_variance * math.sqrt(2.0 / (len(values) - 1))
        assert abs(var - p.marginal_variance) < 4.0 * se


def test_sample_finite_matches_reference_map(p111):
    # each chunk's normals written out as the half spectrum Re c_0, Re c_1,
    # Im c_1, ..., scaled by sqrt(N mu_k) (real bins 0, N/2) or sqrt(N mu_k/2)
    for n in (7, 8):
        _, values = sampler.sample_finite(p111, n, 700, seed=13, chunk_size=256)
        mu = kernel.grid_spectrum(p111, n)
        inner = np.arange(1, (n + 1) // 2)
        parts = []
        for ci, count in enumerate((256, 256, 188)):
            z = sampler._chunk_rng(13, ci).standard_normal((count, n))
            spec = np.zeros((count, n // 2 + 1), dtype=complex)
            spec.real[:, 0] = z[:, 0] * np.sqrt(n * mu[0])
            spec.real[:, inner] = z[:, 2 * inner - 1] * np.sqrt(n * mu[inner] / 2)
            spec.imag[:, inner] = z[:, 2 * inner] * np.sqrt(n * mu[inner] / 2)
            if n % 2 == 0:
                spec.real[:, n // 2] = z[:, n - 1] * np.sqrt(n * mu[n // 2])
            vals = np.fft.irfft(spec, n=n, axis=1)
            parts.append(np.concatenate([vals, vals[:, :1]], axis=1))
        assert np.array_equal(values, np.concatenate(parts))


def _reference_kl_draw(p, n_modes, g):
    """Reference KL draw: the folded spectrum with its own coefficient
    placement and irfft, written out apart from the sampler's drawer."""
    n = np.arange(n_modes + 1)
    lam = kernel.eigenvalue(p, n) * np.where(n == 0, 1.0, 2.0) / p.beta
    r = n % g
    k = np.minimum(r, g - r)
    has_sine = 2 * r % g != 0
    n_bins = g // 2 + 1
    var = np.stack([np.bincount(k, lam, n_bins), np.bincount(k, lam * has_sine, n_bins)],
                   axis=1)
    scale = np.where(2 * np.arange(n_bins) % g == 0, g, g / 2)
    sd = np.delete((np.sqrt(var) * scale[:, None]).ravel(), 1)[:min(g, 2 * n_modes + 1)]

    def draw(rng, count):
        coeffs = rng.standard_normal((count, len(sd)))
        coeffs *= sd
        spec = np.zeros((count, n_bins), dtype=complex)
        flat = spec.view(float)
        flat[:, 0] = coeffs[:, 0]
        flat[:, 2:len(sd) + 1] = coeffs[:, 1:]
        values = np.empty((count, g + 1))
        np.fft.irfft(spec, n=g, axis=1, out=values[:, :g])
        values[:, g] = values[:, 0]
        return values

    return draw


@pytest.mark.parametrize("n_modes, g", [(512, 256), (64, 48), (100, 7), (5, 1), (0, 8)])
def test_sample_kl_matches_reference_placement(n_modes, g):
    p = MeasureParams(m=2.5, omega=0.3, beta=7.0)
    _, values = sampler.sample_kl(p, n_modes, g, 700, seed=14, chunk_size=256)
    draw = _reference_kl_draw(p, n_modes, g)
    ref = np.concatenate([draw(sampler._chunk_rng(14, ci), count)
                          for ci, count in enumerate((256, 256, 188))])
    assert np.array_equal(values, ref)


def test_finite_draw_frees_normals_before_irfft(p111):
    # normals, half spectrum and paths are each about one output array; the
    # normals must be gone before the paths are allocated
    _, draw = sampler.finite_dim_drawer(p111, 4096)
    rng = sampler._chunk_rng(0, 0)
    draw(rng, 8)  # warm the FFT plan cache outside the measurement
    tracemalloc.start()
    try:
        values = draw(rng, 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (400, 4097)
    assert peak < 2.2 * values.nbytes


@pytest.mark.parametrize("m, omega, beta", [(1.0, 1.0, 1.0), (2.5, 0.3, 7.0),
                                            (0.1, 20.0, 3.0)])
@pytest.mark.parametrize("n_modes, g", [(512, 256), (64, 48), (32, 32), (10, 64),
                                        (4, 8), (3, 8), (100, 7), (5, 1), (0, 8)])
def test_kl_drawer_law_is_exact(m, omega, beta, n_modes, g):
    p = MeasureParams(m=m, omega=omega, beta=beta)
    times, draw = sampler.kl_drawer(p, n_modes, g)
    k = min(g, 2 * n_modes + 1)  # normals per path; _IdentityRng asserts the count
    values = draw(_IdentityRng(k), k)
    assert np.array_equal(values[:, 0], values[:, -1])
    s = values[:, :g]
    t = times[:g]
    trunc = kernel.truncated_kernel(p, t[:, None], t[None, :], n_modes)
    assert np.max(np.abs(s.T @ s - trunc)) <= 1e-12 * np.max(np.abs(trunc))


@pytest.mark.parametrize("m, omega, beta", [(1.0, 1.0, 1.0), (2.5, 0.3, 7.0)])
@pytest.mark.parametrize("g", [63, 64])
def test_kl_folded_spectrum_approaches_grid_spectrum(m, omega, beta, g):
    # The aliased eigenvalue sums and the closed-form spectrum of A are computed
    # independently; the modes beyond n_modes that the fold misses carry at most
    # (g/beta) * eigen_tail_bound of any bin's Fourier variance.
    p = MeasureParams(m=m, omega=omega, beta=beta)
    n_modes = 4096
    _, draw = sampler.kl_drawer(p, n_modes, g)
    s = draw(_IdentityRng(g), g)[:, :g]
    folded = (np.abs(np.fft.rfft(s, axis=1)) ** 2).sum(axis=0) / g  # diag of F S^T S F^H / g
    mu = kernel.grid_spectrum(p, g)
    gap = g / p.beta * kernel.eigen_tail_bound(p, n_modes)
    assert np.all(mu - folded >= -1e-12 * mu[0])
    assert np.all(mu - folded <= gap)
