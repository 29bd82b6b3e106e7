import math

import pytest

from bogopath import kernel, oracle
from bogopath.params import MeasureParams, ParameterError

# reference values computed independently:
# - EXP_QUAD_HALF from the eigen-product prod (1 - lambda*lambda_n)^(-1/2)
#   truncated at 10^5 with the analytic tail correction;
# - MOMENT_M2 from (Tr B)^2 + 2 sum_n lambda_n^2 summed over |n| <= 2*10^5.
EXP_QUAD_HALF = 1.443616227295393    # lambda = 0.5, m = omega = beta = 1
MOMENT_M2 = 3.173323895284911        # m = omega = beta = 1


def test_wick_two_point_is_covariance(p111):
    spec = oracle.WickSpec((0.2, 0.6))
    assert oracle.wick_moment(p111, spec) == pytest.approx(
        kernel.covariance(p111, 0.2, 0.6), rel=1e-14)


def test_wick_fourth_moment_equal_times(p111):
    var = p111.marginal_variance
    spec = oracle.WickSpec((0.3, 0.3, 0.3, 0.3))
    assert oracle.wick_moment(p111, spec) == pytest.approx(3.0 * var**2, rel=1e-13)


def test_wick_odd_vanishes_and_empty_is_one(p111):
    assert oracle.wick_moment(p111, oracle.WickSpec((0.1, 0.2, 0.3))) == 0.0
    assert oracle.wick_moment(p111, oracle.WickSpec(())) == 1.0


def test_wick_six_point_isserlis(p111):
    # E[x(t)^6] = 15 var^3 for a centered Gaussian
    var = p111.marginal_variance
    spec = oracle.WickSpec((0.5,) * 6)
    assert oracle.wick_moment(p111, spec) == pytest.approx(15.0 * var**3, rel=1e-12)


def test_wick_combinatorial_cap(p111):
    with pytest.raises(oracle.CombinatorialExplosionError):
        oracle.wick_moment(p111, oracle.WickSpec((0.1,) * 14))
    with pytest.raises(ParameterError):
        oracle.wick_moment(p111, oracle.WickSpec((0.1, 0.2)), max_points=30)


def test_fredholm_det_basics(p111):
    assert oracle.fredholm_det(p111, 0.0).value == pytest.approx(1.0, rel=1e-15)
    res = oracle.fredholm_det(p111, 0.5)
    assert 0.0 < res.value < 1.0
    with pytest.raises(kernel.DomainError):
        oracle.fredholm_det(p111, 1.0)  # lambda = m*omega^2 is the boundary


@pytest.mark.parametrize("lam", [-5.3e5, -6e5, -1e300])
def test_fredholm_det_past_float64_raises(p111, lam):
    # D_B ~ exp(sqrt(-lam)) at (1, 1, 1): inf or a division by zero without the check
    with pytest.raises(ParameterError):
        oracle.fredholm_det(p111, lam)


def test_fredholm_det_finite_just_below_float64(p111):
    value = oracle.fredholm_det(p111, -5e5).value
    assert math.isfinite(value) and value > 1e307


def test_exp_quadratic_reference_value(p111):
    assert oracle.exp_quadratic(p111, 0.5) == pytest.approx(EXP_QUAD_HALF, rel=1e-7)


def test_exp_quadratic_fredholm_identity(p111):
    for lam in (-1.0, -0.2, 0.3, 0.9):
        assert oracle.exp_quadratic(p111, lam) ** -2 == pytest.approx(
            oracle.fredholm_det(p111, lam).value, rel=1e-12)
    assert oracle.exp_quadratic(p111, 0.0) == 1.0


def test_exp_quadratic_domain(p111):
    with pytest.raises(kernel.DomainError):
        oracle.exp_quadratic(p111, 1.0)


def test_moments(p111):
    assert oracle.moment_mk(p111, 0) == 1.0
    assert oracle.moment_mk(p111, 1) == pytest.approx(p111.trace_b, rel=1e-8)
    assert oracle.moment_mk(p111, 2) == pytest.approx(MOMENT_M2, rel=1e-6)
    with pytest.raises(ParameterError):
        oracle.moment_mk(p111, 7)
    with pytest.raises(ParameterError):
        oracle.moment_mk(p111, -1)


def test_moments_are_wick_consistent(p112):
    # m2 = E[(int x^2)^2] computed from pairings on a fine trapezoid grid
    import numpy as np

    t = np.linspace(0.0, p112.beta, 401)
    b = kernel.covariance_grid(p112, t[:, None], t[None, :])
    trb = float(np.trapezoid(np.diag(b), t))
    m2_grid = trb**2 + 2.0 * float(np.trapezoid(np.trapezoid(b**2, t, axis=1), t))
    assert oracle.moment_mk(p112, 2) == pytest.approx(m2_grid, rel=1e-5)


def test_exp_a_qsquared(p111):
    var = p111.marginal_variance
    for a in (-0.3, 0.0, 0.3):
        assert oracle.exp_a_qsquared(p111, a) == pytest.approx(
            1.0 / math.sqrt(1.0 - 2.0 * a * var), rel=1e-13)
    bound = math.tanh(0.5)
    with pytest.raises(kernel.DomainError):
        oracle.exp_a_qsquared(p111, bound)


def test_iterated_trace(p111):
    sv = oracle.iterated_trace(p111, 1, 100_000)
    assert sv.value == pytest.approx(p111.trace_b, abs=2.0 * sv.tail_bound)
    sv2 = oracle.iterated_trace(p111, 2, 10_000)
    assert sv2.tail_bound < 1e-10
    with pytest.raises(ParameterError):
        oracle.iterated_trace(p111, 0, 100)


def test_infinite_product_matches_closed_form():
    for a, b in ((0.5, 1.0), (2.0, 0.7), (-0.3, 1.2)):
        sv = oracle.infinite_product(a, b, 200_000)
        closed = oracle.infinite_product_closed_form(a, b)
        assert sv.value == pytest.approx(closed, rel=1e-5)
    with pytest.raises(ParameterError):
        oracle.infinite_product(1.0, -1.0, 100)
    with pytest.raises(kernel.DomainError):
        oracle.infinite_product(-2.0, 1.0, 100)


def test_infinite_product_fredholm_connection():
    # D_B(lambda) over the nonzero modes is the product with
    # a = -lambda*beta^2/(4 pi^2 m), b = beta*omega/(2 pi), squared
    p = MeasureParams(m=1.3, omega=0.8, beta=1.7)
    lam = 0.4
    a = -lam * p.beta**2 / (4.0 * math.pi**2 * p.m)
    b = p.beta * p.omega / (2.0 * math.pi)
    prod = oracle.infinite_product_closed_form(a, b) ** 2
    zero_mode = 1.0 - lam / (p.m * p.omega**2)
    assert zero_mode * prod == pytest.approx(
        oracle.fredholm_det(p, lam).value, rel=1e-10)
