import math

import numpy as np
import pytest

from bogopath import kernel, quadrature
from bogopath.params import MeasureParams, ParameterError

# closed-form A for the weighted third-degree rule at m = omega = beta = 1,
# cross-checked against the partial sum of the A_k over |k| <= 10^6
# (0.39806161247613786, converging from below at rate 1/k)
THM4_A_CLOSED = 0.39806165929837145


def _rng(tag):
    return np.random.Generator(np.random.Philox(key=np.array([tag, 99], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# functional polynomials


def test_polynomial_degree_and_value(p111):
    poly = quadrature.FunctionalPolynomial(
        ((2.0, (0.1, 0.2)), (1.0, ()), (-0.5, (0.3,))))
    assert poly.degree == 2
    val = poly.value_on_path(lambda t: t + 1.0)
    assert val == pytest.approx(2.0 * 1.1 * 1.2 + 1.0 - 0.5 * 1.3, rel=1e-14)


def test_polynomial_gauss_expectation(p111):
    poly = quadrature.FunctionalPolynomial.monomial((0.2, 0.6), coeff=3.0)
    assert poly.gauss_expectation(p111) == pytest.approx(
        3.0 * kernel.covariance(p111, 0.2, 0.6), rel=1e-13)
    assert quadrature.FunctionalPolynomial.constant(2.5).gauss_expectation(p111) == 2.5


def _mean_square_polynomial(beta, n_grid):
    """(int_0^beta x dt)^2 as a quadratic monomial sum on a trapezoid grid."""
    t = beta * np.arange(n_grid + 1) / n_grid
    w = np.full(n_grid + 1, beta / n_grid)
    w[0] = w[-1] = 0.5 * beta / n_grid
    return quadrature.FunctionalPolynomial(tuple(
        (float(w[i] * w[j]), (float(t[i]), float(t[j])))
        for i in range(n_grid + 1) for j in range(n_grid + 1)))


def test_mean_square_polynomial(p111):
    # (int x dt)^2 has expectation int int B = beta/(m omega^2)
    poly = _mean_square_polynomial(p111.beta, n_grid=48)
    assert poly.gauss_expectation(p111) == pytest.approx(
        p111.beta / (p111.m * p111.omega**2), rel=1e-3)


def test_black_box_rejected(p111):
    with pytest.raises(quadrature.UnsupportedFunctionalError):
        quadrature.thm1_integrate(p111, lambda x: 1.0, 1)


# ---------------------------------------------------------------------------
# node polynomials


def test_qn_roots_small_degrees():
    assert quadrature.qn_roots(1) == pytest.approx([-1.0], abs=1e-12)
    r2 = np.sort_complex(quadrature.qn_roots(2))
    assert r2 == pytest.approx(np.sort_complex(np.array(
        [(-1 - 1j) / 2, (-1 + 1j) / 2])), abs=1e-12)


def test_qn_roots_vieta():
    for n in (3, 5, 8):
        roots = quadrature.qn_roots(n)
        assert np.sum(roots) == pytest.approx(-1.0, abs=1e-10)
        assert np.prod(roots) == pytest.approx(
            (-1.0) ** n / math.factorial(n), abs=1e-10)


def test_degree_nodes_power_sums():
    # sum c_j^2 = 1 and sum c_j^(2p) = 0 for 2 <= p <= n
    for n in (1, 2, 3, 4, 6):
        c2 = -quadrature.qn_roots(n)
        assert np.sum(c2) == pytest.approx(1.0, abs=1e-9)
        for pw in range(2, n + 1):
            assert np.sum(c2**pw) == pytest.approx(0.0, abs=1e-8)


def test_qn_degree_cap():
    with pytest.raises(ParameterError):
        quadrature.qn_roots(0)
    with pytest.raises(ParameterError):
        quadrature.qn_roots(13)


# ---------------------------------------------------------------------------
# kernel factorizations


def test_continuous_rho_reproduces_kernel(p111):
    rho = quadrature.ContinuousRho(p111)
    rng = _rng(1)
    for _ in range(20):
        t, s = rng.uniform(0.0, p111.beta, size=2)
        assert rho.moment((t, s)) == pytest.approx(
            kernel.covariance(p111, t, s), abs=1e-10)


def test_continuous_rho_pointwise(p111):
    rho = quadrature.ContinuousRho(p111)
    assert rho.rho(0.0, 0.5) == 0.0  # sgn(0) = 0
    assert rho.rho(0.3, 0.5) == -rho.rho(-0.3, 0.5)
    with pytest.raises(kernel.DomainError):
        rho.rho(2.0, 0.5)


def test_continuous_rho_odd_moment_vanishes(p111):
    rho = quadrature.ContinuousRho(p111)
    assert rho.moment((0.1, 0.2, 0.3)) == 0.0
    assert rho.moment(()) == 1.0
    with pytest.raises(kernel.DomainError):
        rho.moment((0.2, 1.5))


def test_discrete_rho_reproduces_truncated_kernel(p111):
    disc = quadrature.DiscreteRho(p111, n_bands=16)
    rng = _rng(2)
    for _ in range(20):
        t, s = rng.uniform(0.0, p111.beta, size=2)
        assert disc.moment((t, s)) == pytest.approx(
            disc.truncated_kernel(t, s), abs=1e-14)


def test_discrete_rho_moment_matches_band_loop():
    # the loop over bands through rho(band, t), in the same arithmetic order
    p = MeasureParams(2.0, 0.7, 0.8)
    disc = quadrature.DiscreteRho(p)
    rng = _rng(3)
    for j in (2, 4, 6):
        times = tuple(np.sort(rng.uniform(0.0, p.beta, size=j)))
        acc = 0.0
        for band in range(1, disc.n_bands + 1):
            prod = disc.weights[band - 1] * 2.0
            for t in times:
                prod *= disc.rho(band, t)
            acc += prod
        assert disc.moment(times) == pytest.approx(acc, rel=1e-15, abs=0.0)


def test_discrete_rho_weight_validation(p111):
    with pytest.raises(ParameterError):
        quadrature.DiscreteRho(p111, weights=np.array([0.5, 0.5]))  # 2*sum = 2
    with pytest.raises(ParameterError):
        quadrature.DiscreteRho(p111, weights=np.array([0.5, -0.25]))


def test_discrete_rho_band_layout(p111):
    disc = quadrature.DiscreteRho(p111, n_bands=5)
    assert disc.eigen_indices == [0, 1, -1, 2, -2]
    assert disc.rho(0.5, 0.3) == 0.0  # |u| < 1 carries no band
    assert disc.rho(1.5, 0.3) == -disc.rho(-1.5, 0.3)


# ---------------------------------------------------------------------------
# rule exactness


def test_thm1_exact_on_low_degree(p111):
    rho = quadrature.ContinuousRho(p111)
    rng = _rng(3)
    for n, bound in ((1, 3), (2, 5)):
        for degree in range(1, bound + 1):
            times = rng.uniform(0.0, p111.beta, size=degree)
            poly = quadrature.FunctionalPolynomial.monomial(times)
            exact = poly.gauss_expectation(p111)
            got = quadrature.thm1_integrate(p111, poly, n, rho)
            assert abs(got.real - exact) / (1.0 + abs(exact)) < 1e-8
            assert abs(got.imag) < 1e-8


def test_thm1_not_exact_beyond_degree_bound(p111):
    poly = quadrature.FunctionalPolynomial.monomial((0.3, 0.3, 0.3, 0.3))
    exact = poly.gauss_expectation(p111)
    got = quadrature.thm1_integrate(p111, poly, 1).real
    assert abs(got - exact) > 0.1  # degree 4 exceeds the n = 1 bound of 3


def test_thm2_exact_on_low_degree(p111):
    rho = quadrature.ContinuousRho(p111)
    rng = _rng(4)
    for n in (1, 2, 3):
        for degree in range(1, 2 * n + 2):
            times = rng.uniform(0.0, p111.beta, size=degree)
            poly = quadrature.FunctionalPolynomial.monomial(times)
            exact = poly.gauss_expectation(p111)
            got = quadrature.thm2_integrate(p111, poly, n, float(n + 1), rho)
            assert abs(got - exact) / (1.0 + abs(exact)) < 1e-8


def test_thm2_constant_weight_sum(p111):
    # the weights telescope to 1 on constants for every n and admissible A
    one = quadrature.FunctionalPolynomial.constant(1.0)
    for n in (1, 2, 3, 4):
        for a_const in (float(n), float(n) + 0.5, float(n + 2)):
            assert quadrature.thm2_integrate(p111, one, n, a_const) == pytest.approx(
                1.0, abs=1e-10)
    with pytest.raises(ParameterError):
        quadrature.thm2_integrate(p111, one, 3, 1.5)


def test_thm2_in_direct_equals_recursive(p111):
    rho = quadrature.ContinuousRho(p111)
    poly = quadrature.FunctionalPolynomial(
        ((1.0, (0.2, 0.7)), (0.5, (0.1, 0.4, 0.6, 0.9)), (2.0, ())))
    for n in (1, 2, 3, 4):
        for scaling in ("sqrt_shift", "sqrt_factorial"):
            direct = quadrature.thm2_integrate(p111, poly, n, float(n), rho, scaling)
            rec = quadrature.thm2_In_recursive(p111, poly, n, rho, scaling)
            assert direct == pytest.approx(rec, rel=1e-10, abs=1e-10)


def test_thm2_in_exactness_and_scaling_variants(p111):
    rho = quadrature.ContinuousRho(p111)
    rng = _rng(5)
    for n in (1, 2, 3):
        for degree in range(1, 2 * n + 2):
            times = rng.uniform(0.0, p111.beta, size=degree)
            poly = quadrature.FunctionalPolynomial.monomial(times)
            exact = poly.gauss_expectation(p111)
            got = quadrature.thm2_integrate(p111, poly, n, float(n), rho, "sqrt_shift")
            assert abs(got - exact) / (1.0 + abs(exact)) < 1e-8
    # the two scalings coincide for k <= 2 (1/sqrt(1), 1/sqrt(2)), so every
    # n <= 2 rule is identical; they differ from n = 3 on
    poly = quadrature.FunctionalPolynomial.monomial((0.2,) * 6)
    a = quadrature.thm2_integrate(p111, poly, 3, 3.0, rho, "sqrt_shift")
    b = quadrature.thm2_integrate(p111, poly, 3, 3.0, rho, "sqrt_factorial")
    assert abs(a - b) > 1e-6


def test_unknown_scaling(p111):
    one = quadrature.FunctionalPolynomial.constant(1.0)
    with pytest.raises(ParameterError):
        quadrature.thm2_integrate(p111, one, 1, 2.0, scaling="nope")


# ---------------------------------------------------------------------------
# weighted third-degree rules


def test_thm3_constant_functional(p111):
    # int (int x^2 dt) dmu = Tr B
    one = quadrature.FunctionalPolynomial.constant(1.0)
    assert quadrature.thm3_integrate(p111, one) == pytest.approx(
        p111.trace_b, rel=1e-9)


def test_thm3_quadratic_functional(p111):
    # E[(int x^2 dt) x(t1) x(t2)] = TrB * B(t1,t2) + 2 * B^2(t1,t2),
    # with B^2 the iterated kernel; computed here by eigen series
    t1, t2 = 0.2, 0.55
    n = np.arange(-20_000, 20_001)
    lam = kernel.eigenvalue(p111, n)
    ph1 = np.array([kernel.eigenfunction(p111, int(k), t1) for k in n])
    ph2 = np.array([kernel.eigenfunction(p111, int(k), t2) for k in n])
    target = p111.trace_b * float(np.sum(lam * ph1 * ph2)) + 2.0 * float(
        np.sum(lam**2 * ph1 * ph2))
    poly = quadrature.FunctionalPolynomial.monomial((t1, t2))
    assert quadrature.thm3_integrate(p111, poly, n_modes=2000) == pytest.approx(
        target, rel=1e-7)


def test_thm3_accepts_callable(p111):
    got = quadrature.thm3_integrate(p111, lambda x: 1.0 + 0.0 * x(0.0), n_modes=50)
    assert got == pytest.approx(p111.trace_b, rel=1e-10)
    with pytest.raises(ParameterError):
        quadrature.thm3_integrate(p111, quadrature.FunctionalPolynomial.constant(1.0),
                                  n_modes=10, a_weights=np.full(21, -1.0))


def test_thm4_constants(p111):
    consts = quadrature.thm4_constants(p111, 5)
    assert consts.trace_b == pytest.approx(p111.trace_b, rel=1e-14)
    assert consts.b_seq[0] == pytest.approx(p111.trace_b + 2.0, rel=1e-13)
    assert consts.a_total == pytest.approx(THM4_A_CLOSED, rel=1e-12)
    # partial sums of 2*A_k - A_0 converge to the closed-form A from below
    k = np.arange(0, 200_000)
    lam_free = p111.omega**2 + (2.0 * np.pi * k / p111.beta) ** 2
    a_k = 1.0 / (2.0 + (p111.beta / (2.0 * p111.omega)) * p111.coth_half_bw * lam_free)
    partial = float(2.0 * a_k.sum() - a_k[0])
    assert partial < consts.a_total
    assert consts.a_total - partial < 1e-4


def test_thm4_a_k_matches_quadrature_identity(p111):
    # A_k = B_k^-1 * (lambda_k + 2 lambda_k^2 / TrB) * TrB / (r-normalization):
    # check the defining ratio r_k / A_k = b_k^2 is consistent with positivity
    consts = quadrature.thm4_constants(p111, 10)
    assert np.all(consts.a_seq > 0)
    assert np.all(np.diff(consts.a_seq) < 0)  # decreasing in |k|


def test_continuous_rho_large_beta_omega():
    # e^(beta*omega) alone overflows past beta*omega ~ 709
    p = MeasureParams(m=1.0, omega=800.0, beta=1.0)
    rho = quadrature.ContinuousRho(p)
    u = np.linspace(-1.0, 1.0, 41)
    assert np.isfinite(rho.rho(u, 0.4)).all()
    for t, s in ((0.3, 0.3), (0.2, 0.21), (0.1, 0.105), (0.9, 0.95), (0.0, 1.0)):
        assert rho.moment((t, s)) == pytest.approx(kernel.covariance(p, t, s), rel=1e-13)
    # 50-digit value of the segment sum for these binary times; Gauss-Legendre
    # panels split at the kinks gave 2.46877e-261.  The exponent is about -600,
    # whose float64 ulp is 1.1e-13, which sets the bound.
    assert rho.moment((0.1, 0.37, 0.37, 0.9)) == pytest.approx(
        2.4689752417207178807e-261, rel=1e-12)


def _mp_moment(m, omega, beta, times):
    """40-digit mpmath quadrature of prod_i rho(u, t_i) over (0, beta), split
    at the kinks u = t_i, divided by beta."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        m, omega, beta = mpmath.mpf(m), mpmath.mpf(omega), mpmath.mpf(beta)
        ts = sorted(mpmath.mpf(t) for t in times)
        pref = mpmath.sqrt(beta / m) / -mpmath.expm1(-beta * omega)

        def integrand(u):
            out = mpmath.mpf(1)
            for t in ts:
                out *= pref * mpmath.exp(omega * (t - u) - (beta * omega if t >= u else 0))
            return out

        return float(mpmath.quad(integrand, [mpmath.mpf(0), *ts, beta]) / beta)


@pytest.mark.parametrize("m, omega, beta", [(1.0, 1.0, 1.0), (2.0, 0.7, 0.8),
                                            (1.0, 3.0, 5.0), (0.5, 0.1, 20.0)])
def test_continuous_rho_moments_match_mpmath(m, omega, beta):
    rho = quadrature.ContinuousRho(MeasureParams(m, omega, beta))
    rng = _rng(7)
    for j in (2, 4, 6, 8):
        times = tuple(rng.uniform(0.0, beta, size=j))
        assert rho.moment(times) == pytest.approx(_mp_moment(m, omega, beta, times),
                                                  rel=1e-13)


@pytest.mark.parametrize("omega", [1e-8, 1500.0])
def test_continuous_rho_moments_finite_at_extreme_beta_omega(omega):
    p = MeasureParams(1.0, omega, 1.0)
    rho = quadrature.ContinuousRho(p)
    assert rho.moment((0.2, 0.5)) == pytest.approx(kernel.covariance(p, 0.2, 0.5), rel=1e-13)
    for j in (2, 4, 8):
        value = rho.moment(tuple(np.linspace(0.45, 0.55, j)))
        assert math.isfinite(value) and value > 0.0


def test_continuous_rho_unchanged_at_moderate_parameters(p111):
    # reference: the two-exponential form, valid until e^(beta*omega) overflows (~709)
    rho = quadrature.ContinuousRho(p111)
    u, t = np.meshgrid(np.linspace(-1.0, 1.0, 21), np.linspace(0.0, 1.0, 11))
    bw = p111.beta * p111.omega
    old = (math.sqrt(p111.beta / p111.m) / math.expm1(bw) * np.exp(t - np.abs(u))
           * np.where(t >= np.abs(u), 1.0, math.exp(bw)) * np.sign(u))
    np.testing.assert_allclose(rho.rho(u, t), old, rtol=1e-15, atol=0)
