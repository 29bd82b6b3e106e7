import math

import numpy as np
import pytest

from bogopath import sampler, trajectories
from bogopath.params import MeasureParams, ParameterError

# reference values computed independently from the increment covariance
# matrix C (E[S] = tr C, E[S^2] = (tr C)^2 + 2 sum C_ij^2) at N = 8,
# m = omega = beta = 1, with C built by direct numpy transcription
QVAR_MEAN_N8 = 0.8671829188447226
QVAR_SECOND_N8 = 0.9668840858210409

# E[S_N] at m = omega = beta = 1 from the cosh form in 60-digit arithmetic
QVAR_MEAN_60_DIGITS = {64: 0.9831344606021105, 16384: 0.9999339620034986}

# exact two-point Holder set measure at t = 0.2, t' = 0.35, h = 1,
# gamma = 0.5 (m = omega = beta = 1), via erf of the scaled increment
HOLDER_MEASURE = 0.7244371618904403


def test_exact_mean_reference(p111):
    assert trajectories.qvar_exact_mean(p111, 8) == pytest.approx(
        QVAR_MEAN_N8, rel=1e-13)


def test_exact_second_moment_reference(p111):
    assert trajectories.qvar_exact_second_moment(p111, 8) == pytest.approx(
        QVAR_SECOND_N8, rel=1e-12)


def test_exact_mean_degenerate_partition(p111):
    # the single-increment "partition" has x(beta) = x(0), so S_1 = 0
    assert trajectories.qvar_exact_mean(p111, 1) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ParameterError):
        trajectories.qvar_exact_mean(p111, 0)
    with pytest.raises(ParameterError):
        trajectories.qvar_exact_second_moment(p111, 1)


def test_closed_forms_match_bruteforce():
    rng = np.random.Generator(np.random.Philox(key=np.array([21, 0], dtype=np.uint64)))
    for _ in range(5):
        m, w, b = rng.uniform(0.5, 2.0, size=3)
        p = MeasureParams(m=float(m), omega=float(w), beta=float(b))
        for n in (2, 3, 8, 64):
            tr, second = trajectories.qvar_moments_bruteforce(p, n)
            assert trajectories.qvar_exact_mean(p, n) == pytest.approx(tr, rel=1e-11)
            # the closed-form bracket cancels ~6 digits at large N
            assert trajectories.qvar_exact_second_moment(p, n) == pytest.approx(
                second, rel=1e-8)


def test_i_n_consistency_and_decay(p111):
    for n in (2, 16, 256):
        i_n = trajectories.qvar_exact_i_n(p111, n)
        mean = trajectories.qvar_exact_mean(p111, n)
        second = trajectories.qvar_exact_second_moment(p111, n)
        bm = p111.beta / p111.m
        assert i_n == pytest.approx(second - 2 * bm * mean + bm**2, rel=1e-10)
        assert i_n > 0
    target = 2.0 * p111.beta**2 / p111.m**2
    for expo in (10, 12, 14):
        n = 2**expo
        assert n * trajectories.qvar_exact_i_n(p111, n) == pytest.approx(
            target, rel=0.05)


def test_quadratic_variation_on_explicit_path(p111):
    t = np.linspace(0.0, 1.0, 5)
    path = sampler.PathSample(t, np.array([0.0, 1.0, -1.0, 2.0, 0.0]))
    assert trajectories.quadratic_variation(path) == pytest.approx(
        1.0 + 4.0 + 9.0 + 4.0)
    assert trajectories.quadratic_variation(path, k=2) == pytest.approx(
        1.0 + 1.0)  # coarsened to values at t = 0, 1/2, 1
    with pytest.raises(ParameterError):
        trajectories.quadratic_variation(path, k=3)


def test_qvar_report_matches_theory(p111):
    rep = trajectories.qvar_report(p111, 32, n_paths=20_000, seed=13)
    assert abs(rep.estimate - rep.exact_mean) < 4.0 * rep.std_error
    assert rep.levy_limit == pytest.approx(p111.beta / p111.m)
    assert rep.n_samples == 20_000


def test_qvar_report_thread_invariance(p111):
    a = trajectories.qvar_report(p111, 16, n_paths=10_000, seed=14, threads=1)
    b = trajectories.qvar_report(p111, 16, n_paths=10_000, seed=14, threads=4)
    assert a == b


def test_holder_measure_reference(p111):
    res = trajectories.holder_set_measure(p111, 0.2, 0.35, h=1.0, gamma=0.5)
    assert res.measure == pytest.approx(HOLDER_MEASURE, rel=1e-12)
    assert res.measure <= res.upper_bound


def test_holder_measure_bound_and_monotonicity(p111):
    # sqrt(2/pi)*a always dominates erf(a/sqrt(2)); measure grows with h
    prev = 0.0
    for h in (0.1, 0.5, 1.0, 3.0):
        res = trajectories.holder_set_measure(p111, 0.1, 0.4, h=h, gamma=0.75)
        assert 0.0 < res.measure <= min(res.upper_bound, 1.0)
        assert res.measure > prev
        prev = res.measure


def test_holder_measure_validation(p111):
    with pytest.raises(ParameterError):
        trajectories.holder_set_measure(p111, 0.2, 0.2, h=1.0, gamma=0.5)
    with pytest.raises(ParameterError):
        trajectories.holder_set_measure(p111, 0.1, 0.2, h=-1.0, gamma=0.5)
    with pytest.raises(ParameterError):
        trajectories.holder_set_measure(p111, 0.1, 0.2, h=1.0, gamma=1.5)



@pytest.mark.parametrize("m, omega, beta", [(1.0, 1500.0, 1.0), (2.0, 3000.0, 0.5)])
def test_exact_mean_large_beta_omega(m, omega, beta):
    p = MeasureParams(m, omega, beta)
    for n in (2, 16, 64):
        mean = trajectories.qvar_exact_mean(p, n)
        assert math.isfinite(mean)
        assert mean == pytest.approx(trajectories.qvar_moments_bruteforce(p, n)[0], rel=1e-12)


def test_exact_mean_does_not_cancel_at_large_n(p111):
    # a difference of cosh values loses ~1e-12 here; the expm1 form keeps ~1 ulp
    for n, exact in QVAR_MEAN_60_DIGITS.items():
        assert trajectories.qvar_exact_mean(p111, n) == pytest.approx(exact, rel=1e-15)
