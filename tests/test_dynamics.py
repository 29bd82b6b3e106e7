import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from bogopath import dynamics, potentials, sampler
from bogopath.params import MeasureParams, ParameterError


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck semigroup


def test_ou_apply_quadratic_closed_form(p111):
    # T(t) x^2 = e^(-2t) x^2 + (1 - e^(-2t)) var; Gauss-Hermite is exact here
    var = p111.marginal_variance
    for t in (0.0, 0.3, 2.0):
        for x in (-1.2, 0.0, 0.7):
            expect = math.exp(-2 * t) * x**2 + (1 - math.exp(-2 * t)) * var
            assert dynamics.ou_apply(p111, lambda y: y**2, t, x) == pytest.approx(
                expect, rel=1e-12, abs=1e-12)


def test_ou_semigroup_law(p111):
    # T(s)T(t) f = T(s+t) f on a polynomial (quadrature-exact) test function
    f = lambda y: y**4 - 2.0 * y  # noqa: E731
    s, t, x = 0.4, 0.9, 0.6
    inner = lambda z: dynamics.ou_apply(p111, f, t, z)  # noqa: E731
    lhs = dynamics.ou_apply(p111, inner, s, np.asarray(x))
    rhs = dynamics.ou_apply(p111, f, s + t, x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_ou_invariant_measure(p111):
    # the marginal Gaussian is invariant: T(t) f averaged over it is constant
    var = p111.marginal_variance
    f = lambda y: y**2  # noqa: E731
    nodes, weights = np.polynomial.hermite.hermgauss(60)
    pts = math.sqrt(2 * var) * nodes
    avg0 = float((f(pts) * weights).sum() / math.sqrt(math.pi))
    ft = dynamics.ou_apply(p111, f, 0.8, pts)
    avg_t = float((ft * weights).sum() / math.sqrt(math.pi))
    assert avg_t == pytest.approx(avg0, rel=1e-10)


def test_ou_generator_residuals_shrink(p111):
    res = dynamics.ou_generator_check(p111, lambda y: np.cos(y), 0.4,
                                      t_values=(1e-2, 1e-3))
    assert res[1] < res[0]
    assert res[1] < 1e-2


def test_ou_rejects_negative_time(p111):
    with pytest.raises(ParameterError):
        dynamics.ou_apply(p111, lambda y: y, -0.1, 0.0)


# ---------------------------------------------------------------------------
# heat semigroup and the y-transform


def test_heat_apply_gaussian_algebra(p111):
    # convolving exp(-y^2/2) with N(0, s^2) gives
    # exp(-x^2/(2(1+s^2)))/sqrt(1+s^2)
    beta_arg = 0.7
    s2 = beta_arg / (p111.m * p111.omega**2)
    for x in (-0.8, 0.0, 1.3):
        expect = math.exp(-x**2 / (2 * (1 + s2))) / math.sqrt(1 + s2)
        got = dynamics.heat_apply(p111, lambda y: np.exp(-0.5 * y**2), beta_arg, x)
        assert got == pytest.approx(expect, rel=1e-10)
    assert dynamics.heat_apply(p111, lambda y: y**2, 0.0, 1.5) == pytest.approx(2.25)


def test_y_covariance_increment_identity(p111):
    # Var(y(t) - y(s)) from the closed covariance equals (t-s)/(m omega^2)
    rng = np.random.Generator(np.random.Philox(key=np.array([31, 0], dtype=np.uint64)))
    for _ in range(20):
        s, t = np.sort(rng.uniform(0.0, p111.beta, size=2))
        var = (dynamics.y_covariance(p111, t, t) + dynamics.y_covariance(p111, s, s)
               - 2.0 * dynamics.y_covariance(p111, t, s))
        assert var == pytest.approx(
            dynamics.y_increment_variance(p111, t, s), rel=1e-9, abs=1e-12)


def test_transform_y_matches_covariance_mc(p111):
    g = 256
    times, draw = sampler.finite_dim_drawer(p111, g)
    i1, i2 = g // 4, 3 * g // 4

    def eval_fn(t, values):
        y = dynamics.transform_y_batch(p111, t, values)
        return np.stack([y[:, i1] * y[:, i2], (y[:, i2] - y[:, i1]) ** 2], axis=1)

    mean, cov, _ = sampler.mc_columns(times, draw, eval_fn, 50_000, seed=17)
    se = np.sqrt(np.diag(cov))
    assert abs(mean[0] - dynamics.y_covariance(p111, times[i1], times[i2])) < 4 * se[0]
    assert abs(mean[1] - dynamics.y_increment_variance(
        p111, times[i2], times[i1])) < 4 * se[1]


def test_transform_y_single_path(p111):
    t = np.linspace(0.0, 1.0, 9)
    y = dynamics.transform_y_batch(p111, t, np.ones((1, 9)))
    # constant path: y(t) = 1/omega + t
    assert y.shape == (1, 9)
    assert np.allclose(y[0], 1.0 / p111.omega + t, atol=1e-12)


# ---------------------------------------------------------------------------
# Feynman-Kac


def test_fk_free_normalization(p111):
    xi = np.linspace(-10, 10, 4001)
    for b in (0.2, 1.0, 3.0):
        u = dynamics.fk_free(p111, b, xi)
        assert np.trapezoid(u, xi) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ParameterError):
        dynamics.fk_free(p111, 0.0, 0.0)


def test_volterra_zero_potential_is_exact(p111):
    sol = dynamics.fk_solve_volterra(p111, potentials.zero(), beta_max=1.0,
                                     n_tau=16, n_xi=129, richardson=False)
    for i in range(1, len(sol.betas)):
        assert np.max(np.abs(sol.u[i] - dynamics.fk_free(
            p111, sol.betas[i], sol.xi))) < 1e-10


def test_volterra_constant_potential(p111):
    # V = c shifts the solution by exp(-c beta) exactly
    c = 0.7
    sol = dynamics.fk_solve_volterra(p111, potentials.constant(c), beta_max=1.0,
                                     n_tau=40, n_xi=257)
    target = dynamics.fk_free(p111, 1.0, sol.xi) * math.exp(-c)
    rel = np.max(np.abs(sol.u[-1] - target)) / np.max(target)
    assert rel < 2e-4
    assert sol.error_estimate < 1e-2


def test_fk_harmonic_unit_parameters(p111):
    # V = xi^2/2 with diffusion 1/2: sqrt(1/(2 pi sinh b)) exp(-xi^2 cosh b / (2 sinh b))
    for b in (0.3, 1.0, 4.0):
        for x in (0.0, 0.7, -2.1):
            expect = math.sqrt(1.0 / (2 * math.pi * math.sinh(b))) * math.exp(
                -x**2 * math.cosh(b) / (2 * math.sinh(b)))
            assert dynamics.fk_harmonic(p111, 1.0, b, x) == pytest.approx(expect, rel=1e-14)


def test_fk_harmonic_limits_and_validation(p111):
    xi = np.linspace(-0.05, 0.05, 5)
    # short times: the potential has not acted yet
    assert np.allclose(dynamics.fk_harmonic(p111, 1.0, 1e-6, xi),
                       dynamics.fk_free(p111, 1e-6, xi), rtol=1e-6)
    # Omega beta = 1000: sinh alone overflows, the kernel is exp(-500)/sqrt(pi)
    assert dynamics.fk_harmonic(p111, 1.0, 1000.0, 0.0) == pytest.approx(
        math.exp(-500.0) / math.sqrt(math.pi), rel=1e-12)
    for kappa, b in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ParameterError):
            dynamics.fk_harmonic(p111, kappa, b, 0.0)


def test_volterra_harmonic_potential_closed_form(p111):
    sol = dynamics.fk_solve_volterra(p111, potentials.quadratic(1.0), beta_max=1.0,
                                     n_tau=80, n_xi=513)
    exact = dynamics.fk_harmonic(p111, 1.0, 1.0, sol.xi)
    rel = np.max(np.abs(sol.u[-1] - exact)) / np.max(exact)
    assert rel < 2e-4


@pytest.mark.parametrize("m, omega, kappa, beta", [
    (1.0, 1.0, 1.0, 1.0), (2.0, 0.7, 1.5, 0.8), (0.5, 2.0, 3.0, 1.3)])
def test_fd_reference_harmonic_closed_form(m, omega, kappa, beta):
    p = MeasureParams(m, omega, beta)
    ref = dynamics.fk_reference_fd(p, potentials.quadratic(kappa), beta_max=beta,
                                   n_tau=4000, n_xi=1025)
    exact = dynamics.fk_harmonic(p, kappa, beta, ref.xi)
    assert ref.betas[-1] == pytest.approx(beta, rel=1e-14)
    assert np.max(np.abs(ref.u[-1] - exact)) / np.max(exact) < 1e-4


def test_volterra_vs_fd_reference(p111):
    vq = potentials.quadratic(1.0)
    sol = dynamics.fk_solve_volterra(p111, vq, beta_max=1.0, n_tau=80, n_xi=513)
    ref = dynamics.fk_reference_fd(p111, vq, beta_max=1.0, n_tau=4000, n_xi=1025,
                                   xi_max=float(sol.xi[-1]))
    rel = np.max(np.abs(sol.u[-1] - ref.u[-1][::2])) / np.max(np.abs(ref.u[-1]))
    assert rel < 5e-4


def _k_term_grid(p, v_pot, beta_max, n_tau, xi):
    """Product integration with a k-term history sum over every past slice at
    step k, and the current slice by a dense LU solve of the full, uncut
    Toeplitz system: the reference for the history recursion and the banded
    slice-0 solve of dynamics._volterra_grid."""
    d_tau = beta_max / n_tau
    n_xi = len(xi)
    d_xi = xi[1] - xi[0]
    v_vals = v_pot(xi)
    offsets = xi - xi[n_xi // 2]
    n_fft = scipy.fft.next_fast_len(2 * n_xi - 1)
    lo = n_xi // 2
    mass_hat = np.stack([
        np.fft.rfft(dynamics._kernel_time_mass(p, i * d_tau, (i + 1) * d_tau, offsets), n_fft)
        for i in range(n_tau)
    ])
    m0 = dynamics._kernel_time_mass(p, 0.0, d_tau, offsets)
    idx = lo + np.arange(n_xi)[:, None] - np.arange(n_xi)[None, :]
    t0 = np.where((idx >= 0) & (idx < n_xi), m0[np.clip(idx, 0, n_xi - 1)], 0.0)
    slice0 = scipy.linalg.lu_factor(np.eye(n_xi) + d_xi * t0 * v_vals[None, :])
    g_hat = np.zeros((n_tau + 1, mass_hat.shape[1]), dtype=complex)
    u = np.zeros((n_tau + 1, n_xi))
    for k in range(1, n_tau + 1):
        rhs = dynamics.fk_free(p, d_tau * k, xi)
        if k > 1:
            acc = np.einsum("ij,ij->j", mass_hat[k - 1:0:-1], g_hat[1:k])
            rhs = rhs - d_xi * np.fft.irfft(acc, n_fft)[lo:lo + n_xi]
        u[k] = scipy.linalg.lu_solve(slice0, rhs)
        g_hat[k] = np.fft.rfft(v_vals * u[k], n_fft)
    return u


# n_direct per solved grid: 1 sends every lag through the recursion, n_tau none
@pytest.mark.parametrize("params, v_pot, n_tau, n_xi, richardson, n_direct", [
    ((1.0, 1.0, 1.0), potentials.quadratic(1.0), 160, 1025, True, (1, 1)),
    ((1.0, 1.0, 1.0), potentials.quadratic(1.0), 1000, 513, False, (9,)),
    ((1.0, 1.0, 1.0), potentials.constant(0.7), 8, 33, True, (8, 16)),
    ((1.0, 1.0, 1.0), potentials.constant(-3.0), 400, 513, False, (4,)),
    ((2.0, 0.7, 0.8), potentials.quadratic(1.0), 80, 513, True, (1, 2))],
    ids=["quadratic-160x1025", "quadratic-1000x513", "constant-8x33",
         "constant-neg3-400x513", "m2-quadratic-80x513"])
def test_volterra_history_recursion_matches_k_term_sum(params, v_pot, n_tau, n_xi,
                                                       richardson, n_direct):
    p = MeasureParams(*params)
    sol = dynamics.fk_solve_volterra(p, v_pot, beta_max=p.beta, n_tau=n_tau, n_xi=n_xi,
                                     richardson=richardson)
    d_xi = sol.xi[1] - sol.xi[0]
    grids = (n_tau, 2 * n_tau) if richardson else (n_tau,)
    assert tuple(dynamics._direct_lags(p.m * p.omega**2, p.beta / n, d_xi, n)
                 for n in grids) == n_direct
    ref = _k_term_grid(p, v_pot, p.beta, n_tau, sol.xi)
    if richardson:
        fine = _k_term_grid(p, v_pot, p.beta, 2 * n_tau, sol.xi)[::2]
        err = np.max(np.abs(fine - ref))
        ref = 2.0 * fine - ref
        assert abs(sol.error_estimate - err) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(sol.u - ref)) <= 1e-13 * np.max(np.abs(ref))


def _sinc_dvr_kernel(p, v_pot, beta_arg, half_width=6.0, n_points=241):
    """u(beta, 0) = sum_n exp(-beta E_n) psi_n(0)^2 / dx from the sinc
    discrete-variable representation of D d^2/dx^2 - V, D = 1/(2 m omega^2)
    (Colbert and Miller, J. Chem. Phys. 96 (1992) 1982)."""
    x = np.linspace(-half_width, half_width, n_points)
    dx = x[1] - x[0]
    lag = np.arange(n_points)[:, None] - np.arange(n_points)[None, :]
    off_diag = 2.0 * (-1.0) ** lag / np.where(lag == 0, 1, lag) ** 2
    kinetic = np.where(lag == 0, math.pi**2 / 3.0, off_diag) / dx**2
    energies, vecs = np.linalg.eigh(kinetic / (2.0 * p.m * p.omega**2) + np.diag(v_pot(x)))
    return float(np.sum(np.exp(-beta_arg * energies) * vecs[n_points // 2] ** 2) / dx)


def test_sinc_dvr_kernel_matches_mehler(p111):
    exact = dynamics.fk_harmonic(p111, 1.0, 1.0, 0.0)
    assert _sinc_dvr_kernel(p111, potentials.quadratic(1.0), 1.0) == pytest.approx(
        exact, rel=1e-11)


# u(1, 0) of the sinc-DVR kernel; the same 12 digits on [-7, 7] with 401 points
@pytest.mark.parametrize("g, xi_max, exact, rel", [(0.1, None, 0.395056835917, 1e-6),
                                                   (1.0, None, 0.366597709622, 1e-5),
                                                   (1.0, 4.0, 0.366597709622, 1e-5)],
                         ids=["quartic-0.1", "quartic", "quartic-xi_max=4"])
def test_volterra_quartic_against_sinc_dvr(p111, g, xi_max, exact, rel):
    # max V = 4096 g on the default grid: a fixed point on the current slice
    # would not contract there, the direct slice-0 solve does not care
    v_pot = potentials.quartic(g)
    assert _sinc_dvr_kernel(p111, v_pot, 1.0) == pytest.approx(exact, rel=1e-11)
    sol = dynamics.fk_solve_volterra(p111, v_pot, beta_max=1.0, n_tau=160, n_xi=1025,
                                     xi_max=xi_max)
    assert np.all(np.isfinite(sol.u))
    assert sol.at(1.0, 0.0) == pytest.approx(exact, rel=rel)


def test_volterra_rejects_grid_that_cannot_resolve_the_kernel(p111):
    # n_xi = 3 puts d_xi at 8 standard deviations of the kernel at beta_max
    with pytest.raises(ParameterError, match="xi spacing"):
        dynamics.fk_solve_volterra(p111, potentials.quadratic(1.0), beta_max=1.0,
                                   n_tau=160, n_xi=3)
    # n_xi = 17 is the coarsest default grid with d_xi <= sqrt(beta_max/c)
    sol = dynamics.fk_solve_volterra(p111, potentials.quadratic(1.0), beta_max=1.0,
                                     n_tau=8, n_xi=17)
    assert np.all(np.isfinite(sol.u))


def test_volterra_rejects_non_finite_values(p111):
    singular = potentials.Potential("pole", lambda x: np.where(x == 0.0, np.inf, 0.0),
                                    True, True)
    with pytest.raises(ParameterError, match="not finite"):
        dynamics.fk_solve_volterra(p111, singular, beta_max=1.0, n_tau=10, n_xi=101)


def _banded_march(p, v_pot, beta_max, n_tau, n_xi, beta_init=1e-3):
    """Crank-Nicolson with a new banded LU solve at every step: the unfactored
    reference for the dpttrf/dpttrs march of fk_reference_fd."""
    xi_max = 8.0 * math.sqrt(beta_max / (p.m * p.omega**2))
    xi = np.linspace(-xi_max, xi_max, n_xi)
    h = xi[1] - xi[0]
    d_tau = (beta_max - beta_init) / n_tau
    diff = 1.0 / (2.0 * p.m * p.omega**2)
    v_vals = v_pot(xi)
    lower = np.full(n_xi, -0.5 * d_tau * diff / h**2)
    diag = 1.0 + d_tau * (diff / h**2 + 0.5 * v_vals)
    ab = np.zeros((3, n_xi))
    ab[0, 1:] = lower[1:]
    ab[1] = diag
    ab[2, :-1] = lower[:-1]
    u = dynamics.fk_free(p, beta_init, xi) * np.exp(-beta_init * v_vals)
    keep = max(1, n_tau // 200)
    frames = [u.copy()]
    for step in range(1, n_tau + 1):
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        rhs = u + 0.5 * d_tau * (diff * lap - v_vals * u)
        rhs[0] = rhs[-1] = 0.0
        u = scipy.linalg.solve_banded((1, 1), ab, rhs)
        if step % keep == 0 or step == n_tau:
            frames.append(u.copy())
    return np.stack(frames)


@pytest.mark.parametrize("v_pot", [potentials.quartic(1.0), potentials.quadratic(-1.0),
                                   potentials.constant(-3.0), potentials.zero()],
                         ids=lambda v: v.name)
def test_fd_reference_factored_matches_banded_march(p111, v_pot):
    ref = dynamics.fk_reference_fd(p111, v_pot, beta_max=1.0, n_tau=400, n_xi=513)
    banded = _banded_march(p111, v_pot, beta_max=1.0, n_tau=400, n_xi=513)
    assert ref.u.shape == banded.shape == (201, 513)
    assert np.max(np.abs(ref.u - banded)) <= 1e-12 * np.max(np.abs(banded))


def test_fd_reference_keeps_final_step(p111):
    # the stride 401 // 200 = 2 misses step 401; u[-1] must still be at beta_max
    v_pot = potentials.quadratic(1.0)
    ref = dynamics.fk_reference_fd(p111, v_pot, beta_max=1.0, n_tau=401, n_xi=257)
    banded = _banded_march(p111, v_pot, beta_max=1.0, n_tau=401, n_xi=257)
    assert ref.u.shape == banded.shape == (202, 257)
    assert ref.betas[-1] == pytest.approx(1.0, rel=1e-14)
    assert np.max(np.abs(ref.u - banded)) <= 1e-12 * np.max(np.abs(banded))


def test_fd_reference_rejects_indefinite_matrix(p111):
    # d_tau * V / 2 = -5000: the march would alternate in sign without bound
    with pytest.raises(ParameterError, match="positive definite"):
        dynamics.fk_reference_fd(p111, potentials.constant(-1e5), beta_max=1.0, n_tau=10)


def test_fd_reference_rejects_non_finite_values(p111):
    # positive definite at every step, but u grows like exp(800 beta) and overflows
    with pytest.raises(ParameterError, match="not finite"):
        dynamics.fk_reference_fd(p111, potentials.constant(-800.0), beta_max=1.0,
                                 n_tau=4000, n_xi=101)
    singular = potentials.Potential("pole", lambda x: np.where(x == 0.0, np.inf, 0.0),
                                    True, True)
    with pytest.raises(ParameterError, match="not finite"):
        dynamics.fk_reference_fd(p111, singular, beta_max=1.0, n_tau=10, n_xi=101)


@pytest.mark.parametrize("kwargs", [
    {"n_tau": 0}, {"n_tau": -5}, {"n_xi": 1}, {"n_xi": 2},
    {"beta_init": 2.0}, {"beta_init": 1.0}, {"beta_init": 0.0}],
    ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_fd_reference_validation(p111, kwargs):
    args = {"n_tau": 10, "n_xi": 101, **kwargs}
    with pytest.raises(ParameterError):
        dynamics.fk_reference_fd(p111, potentials.zero(), beta_max=1.0, **args)


def test_fk_solution_at_interpolates(p111):
    sol = dynamics.fk_solve_volterra(p111, potentials.zero(), beta_max=1.0,
                                     n_tau=16, n_xi=129, richardson=False)
    assert sol.at(1.0, 0.0) == pytest.approx(dynamics.fk_free(p111, 1.0, 0.0),
                                             abs=1e-8)


def test_volterra_validation(p111):
    with pytest.raises(ParameterError):
        dynamics.fk_solve_volterra(p111, potentials.zero(), beta_max=1.0, n_xi=128)
    with pytest.raises(ParameterError):
        dynamics.fk_solve_volterra(p111, potentials.zero(), beta_max=-1.0)
    for kwargs in ({"n_xi": 1}, {"xi_max": 0.0}, {"xi_max": -1.0}, {"xi_max": math.inf},
                   {"xi_max": math.nan}):
        with pytest.raises(ParameterError):
            dynamics.fk_solve_volterra(p111, potentials.quadratic(1.0), beta_max=1.0,
                                       n_tau=8, **kwargs)


def test_fk_estimate_mc_free_kernel(p111):
    xi = np.array([0.0, 0.5])
    delta = 0.1
    est = dynamics.fk_estimate_mc(p111, potentials.zero(), xi, delta=delta,
                                  n_paths=50_000, n_grid=128, seed=19)
    target = dynamics.fk_free(p111, p111.beta, xi)
    # generous slack for the O(delta^2) mollifier bias on top of MC noise
    c = p111.m * p111.omega**2 / p111.beta
    bias = 0.5 * delta**2 * c * (np.abs(target * (c * xi**2 - 1.0))
                                 + math.sqrt(c / (2 * math.pi)))
    assert np.all(np.abs(est.estimate - target) <= 4.0 * est.std_error + bias)
    assert est.n_samples == 50_000


def test_fk_estimate_mc_validation(p111):
    with pytest.raises(ParameterError):
        dynamics.fk_estimate_mc(p111, potentials.zero(), [0.0], delta=0.0,
                                n_paths=10, seed=0)


def _y_covariance_cosh_sinh(p, t, s):
    # reference: the direct cosh/sinh form, valid until cosh overflows (beta*omega ~ 1420)
    w, half = p.omega, 0.5 * p.beta * p.omega
    bracket = (2.0 * (1.0 / w + min(s, t)) * math.sinh(half) - math.cosh(half) / w
               + (math.cosh(w * s - half) + math.sinh(w * s - half)) / w
               + (math.cosh(w * t - half) + math.sinh(w * t - half)) / w)
    return bracket / (2.0 * p.m * w**2 * math.sinh(half))


@pytest.mark.parametrize("m, omega, beta", [(1.0, 1500.0, 1.0), (2.0, 3000.0, 0.5)])
def test_y_covariance_large_beta_omega(m, omega, beta):
    p = MeasureParams(m, omega, beta)
    for s, t in ((0.0, 1.0), (0.3, 0.7), (0.5, 0.5), (0.1, 0.9)):
        s, t = s * beta, t * beta
        var = (dynamics.y_covariance(p, t, t) + dynamics.y_covariance(p, s, s)
               - 2.0 * dynamics.y_covariance(p, t, s))
        assert math.isfinite(var)
        assert var == pytest.approx(dynamics.y_increment_variance(p, t, s), rel=1e-12,
                                    abs=1e-300)


def test_y_covariance_unchanged_at_moderate_parameters(p111):
    for s, t in ((0.0, 0.0), (0.3, 0.7), (1.0, 1.0), (0.5, 0.2), (0.0, 1.0)):
        assert dynamics.y_covariance(p111, t, s) == pytest.approx(
            _y_covariance_cosh_sinh(p111, t, s), rel=4e-15)
