import math
import warnings

import numpy as np
import pytest

from bogopath import kernel
from bogopath.params import MeasureParams, ParameterError

# reference values computed independently from the eigen-series
# sum_n lambda_n phi_n(t) phi_n(s) truncated at |n| = 2*10^5
B_03_07_SERIES = 0.9643189618684087   # m = omega = beta = 1
B_0_1_BETA2_SERIES = 0.42545906412092743  # m = omega = 1, beta = 2


def test_covariance_matches_eigen_series(p111, p112):
    assert kernel.covariance(p111, 0.3, 0.7) == pytest.approx(B_03_07_SERIES, abs=1e-9)
    assert kernel.covariance(p112, 0.0, 1.0) == pytest.approx(B_0_1_BETA2_SERIES, abs=1e-9)


def test_covariance_symmetry_and_periodicity(p111):
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    for _ in range(20):
        t, s = rng.uniform(0.0, p111.beta, size=2)
        assert kernel.covariance(p111, t, s) == pytest.approx(
            kernel.covariance(p111, s, t), rel=1e-14)
    for s in rng.uniform(0.0, p111.beta, size=10):
        assert kernel.covariance(p111, 0.0, s) == pytest.approx(
            kernel.covariance(p111, p111.beta, s), rel=1e-12)


def test_covariance_diagonal_is_marginal_variance(p111):
    assert kernel.covariance(p111, 0.4, 0.4) == pytest.approx(
        p111.marginal_variance, rel=1e-14)
    assert p111.marginal_variance == pytest.approx(
        0.5 / math.tanh(0.5), rel=1e-15)


def test_covariance_grid_matches_scalar(p111):
    t = np.linspace(0.0, 1.0, 7)
    mat = kernel.covariance_grid(p111, t[:, None], t[None, :])
    for i, ti in enumerate(t):
        for j, sj in enumerate(t):
            assert mat[i, j] == pytest.approx(kernel.covariance(p111, ti, sj), rel=1e-14)


def test_covariance_grid_large_arguments_stable():
    p = MeasureParams(m=1.0, omega=1.0, beta=200.0)
    t = np.array([0.0, 50.0, 100.0])
    mat = kernel.covariance_grid(p, t[:, None], t[None, :])
    assert np.isfinite(mat).all()
    assert mat[0, 0] == pytest.approx(0.5, rel=1e-12)  # coth(100)/2 -> 1/2


def test_domain_errors(p111):
    with pytest.raises(kernel.DomainError):
        kernel.covariance(p111, -0.1, 0.5)
    with pytest.raises(kernel.DomainError):
        kernel.covariance(p111, 0.2, 1.5)
    with pytest.raises(kernel.DomainError):
        kernel.increment_variance(p111, 0.8, 0.2)


def test_eigenvalues(p111):
    assert kernel.eigenvalue(p111, 0) == pytest.approx(1.0, rel=1e-15)
    assert kernel.eigenvalue(p111, 3) == pytest.approx(
        1.0 / (1.0 + (6.0 * math.pi) ** 2), rel=1e-14)
    assert kernel.eigenvalue(p111, -3) == kernel.eigenvalue(p111, 3)
    arr = kernel.eigenvalue(p111, np.array([-1, 0, 1]))
    assert arr[0] == arr[2]


def test_eigenfunctions_orthonormal(p111):
    # trapezoid on a fine grid; exact up to quadrature error for trig modes
    t = np.linspace(0.0, 1.0, 20001)
    for n1 in (-2, -1, 0, 1, 2):
        for n2 in (-2, -1, 0, 1, 2):
            ip = np.trapezoid(kernel.eigenfunction(p111, n1, t)
                          * kernel.eigenfunction(p111, n2, t), t)
            assert ip == pytest.approx(1.0 if n1 == n2 else 0.0, abs=1e-6)


def test_truncated_kernel_converges(p111):
    t, s = 0.25, 0.6
    exact = kernel.covariance(p111, t, s)
    errs = [abs(kernel.truncated_kernel(p111, t, s, n) - exact) for n in (10, 100, 1000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4


def test_eigen_system_and_tail_bound(p111):
    pairs = kernel.eigen_system(p111, 2)
    assert [ep.n for ep in pairs] == [-2, -1, 0, 1, 2]
    assert pairs[2].phi(0.7) == pytest.approx(1.0, rel=1e-15)
    n_max = 1000
    tail = sum(kernel.eigenvalue(p111, n) for n in range(n_max + 1, 200000))
    assert 2 * tail <= kernel.eigen_tail_bound(p111, n_max)


def _default_n_max(p, tail_fraction=1e-10, cap=1_000_000):
    """Truncation order making the eigenvalue tail below tail_fraction * Tr B,
    from the bound sum_{|n|>N} lambda_n < beta^2/(2*pi^2*m*N); capped, with a
    warning that reports the achieved tail fraction."""
    target = tail_fraction * p.trace_b
    needed = int(math.ceil(p.beta**2 / (2.0 * math.pi**2 * p.m * target)))
    if needed > cap:
        achieved = p.beta**2 / (2.0 * math.pi**2 * p.m * cap) / p.trace_b
        warnings.warn(f"eigen truncation capped at {cap}; tail fraction {achieved:.2e} "
                      f"instead of requested {tail_fraction:.2e}", RuntimeWarning)
        return cap
    return max(needed, 1)


def test_default_n_max_warns_at_cap(p111):
    assert _default_n_max(p111, tail_fraction=1e-3) >= 1
    with pytest.warns(RuntimeWarning):
        _default_n_max(p111, tail_fraction=1e-12, cap=100)


def test_grid_covariance_inverse_and_det(p111):
    for n in (2, 5, 16, 32):
        gc = kernel.grid_covariance(p111, n)
        assert np.max(np.abs(gc.a @ gc.a_inv - np.eye(n))) < 1e-10
        sign, logdet = np.linalg.slogdet(gc.a_inv)
        assert sign > 0
        assert gc.log_det_a_inv == pytest.approx(logdet, abs=1e-10)


def test_grid_covariance_inverse_is_cyclic_tridiagonal(p111):
    gc = kernel.grid_covariance(p111, 8)
    mask = np.zeros((8, 8), dtype=bool)
    idx = np.arange(8)
    mask[idx, idx] = mask[idx, (idx + 1) % 8] = mask[idx, (idx - 1) % 8] = True
    assert np.all(gc.a_inv[~mask] == 0.0)
    assert np.all(gc.a_inv[idx, idx] > 0.0)


def _det_a_inv(gc):
    """det(A^-1) from its log, inf with a warning where float64 overflows."""
    try:
        return math.exp(gc.log_det_a_inv)
    except OverflowError:
        warnings.warn(f"det(A^-1) overflows float64 at N={gc.n}; use log_det_a_inv",
                      RuntimeWarning)
        return math.inf


def test_grid_covariance_large_n_no_overflow(p111):
    gc = kernel.grid_covariance(p111, 2000)
    assert np.isfinite(gc.log_det_a_inv)
    with pytest.warns(RuntimeWarning):
        assert _det_a_inv(gc) == math.inf


def test_grid_covariance_rejects_tiny_grid(p111):
    with pytest.raises(ParameterError):
        kernel.grid_covariance(p111, 1)


def _marginal_log_density(gc, q):
    """Log density of the N-dimensional grid marginal at the point q (the
    periodic closure q_{N+1} = q_1 is structural, so no delta factor)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (gc.n,):
        raise ParameterError(f"expected point of shape ({gc.n},), got {q.shape}")
    quad = float(q @ gc.a_inv @ q)
    return -0.5 * gc.n * math.log(2.0 * math.pi) + 0.5 * gc.log_det_a_inv - 0.5 * quad


def test_marginal_log_density_matches_scipy(p111):
    from scipy.stats import multivariate_normal

    gc = kernel.grid_covariance(p111, 6)
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    q = rng.standard_normal(6)
    ref = multivariate_normal(mean=np.zeros(6), cov=gc.a).logpdf(q)
    assert _marginal_log_density(gc, q) == pytest.approx(ref, abs=1e-9)
    with pytest.raises(ParameterError):
        _marginal_log_density(gc, np.zeros(5))


def test_increment_variance_endpoints_and_interior(p111):
    assert kernel.increment_variance(p111, 0.3, 0.3) == 0.0
    assert kernel.increment_variance(p111, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)
    t1, t2 = 0.2, 0.5
    direct = (kernel.covariance(p111, t1, t1) + kernel.covariance(p111, t2, t2)
              - 2.0 * kernel.covariance(p111, t1, t2))
    assert kernel.increment_variance(p111, t1, t2) == pytest.approx(direct, rel=1e-12)


def test_params_validation():
    with pytest.raises(ParameterError):
        MeasureParams(m=0.0, omega=1.0, beta=1.0)
    with pytest.raises(ParameterError):
        MeasureParams(m=1.0, omega=-1.0, beta=1.0)
    with pytest.raises(ParameterError):
        MeasureParams(m=1.0, omega=1.0, beta=math.nan)
    with pytest.raises(ParameterError):
        MeasureParams(m=True, omega=1.0, beta=1.0)
    p = MeasureParams(np.int64(1), np.float32(1.0), 1)  # any real but a bool
    assert (type(p.m), type(p.omega), type(p.beta)) == (float, float, float)
    assert p.marginal_variance == MeasureParams(1.0, 1.0, 1.0).marginal_variance
