import math

import numpy as np
import pytest

from bogopath import equilibrium, potentials, sampler
from bogopath.params import MeasureParams, ParameterError

# Gibbs mean square of q for the free measure at m = omega = beta = 1:
# (1/(2 m omega)) coth(beta omega / 2)
FREE_Q2 = 1.0819767068693265


def test_r_of_zero_potential_is_one(p111):
    rep = equilibrium.r_of_h(p111, potentials.zero(), 0.7, n_paths=2000,
                             n_grid=16, seed=0)
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.std_error == pytest.approx(0.0, abs=1e-12)


def test_r_direct_vs_shifted_agree(p111):
    v4 = potentials.quartic(1.0)
    h = 0.5
    direct = equilibrium.r_of_h(p111, v4, h, n_paths=50_000, n_grid=64,
                                seed=23, method="direct")
    shifted = equilibrium.r_of_h(p111, v4, h, n_paths=50_000, n_grid=64,
                                 seed=24, method="shifted")
    combined = math.hypot(direct.std_error, shifted.std_error)
    assert abs(direct.estimate - shifted.estimate) < 4.0 * combined


def test_r_of_h_unknown_method(p111):
    with pytest.raises(ParameterError):
        equilibrium.r_of_h(p111, potentials.quartic(1.0), 0.5, n_paths=100,
                           n_grid=8, seed=0, method="sideways")


def test_r_of_h_rejects_asymmetric_potential(p111):
    bad = potentials.Potential("tilt", lambda x: np.abs(x + 1.0), False, True)
    with pytest.raises(ParameterError):
        equilibrium.r_of_h(p111, bad, 0.5, n_paths=100, n_grid=8, seed=0)


def test_domination_holds_for_quartic(p111):
    rep = equilibrium.domination_check(p111, potentials.quartic(1.0),
                                       [0.25, 0.5, 1.0], n_paths=20_000,
                                       n_grid=64, seed=25)
    assert rep.dominated
    # shared seed makes the comparison samplewise: strict ordering expected
    assert np.all(rep.r_values <= rep.r_zero)
    assert np.all(np.diff(rep.r_values) < 0)  # larger shift, smaller R


def test_domination_check_draws_each_path_once(p111, monkeypatch):
    build = sampler.finite_dim_drawer
    rows = []

    def counting_drawer(p, n_grid):
        times, draw = build(p, n_grid)

        def counted(rng, count):
            rows.append(count)
            return draw(rng, count)

        return times, counted

    monkeypatch.setattr(sampler, "finite_dim_drawer", counting_drawer)
    equilibrium.domination_check(p111, potentials.quartic(1.0), [0.25, 0.5, 1.0],
                                 n_paths=5000, n_grid=16, seed=3)
    assert sum(rows) == 5000  # R(0) and three shifts from one pass


def test_domination_check_matches_r_of_h(p111):
    v, hs = potentials.quartic(1.0), (0.25, 0.5, 1.0)
    rep = equilibrium.domination_check(p111, v, hs, n_paths=10_000, n_grid=32, seed=7)
    ref0 = equilibrium.r_of_h(p111, v, 0.0, 10_000, 32, seed=7, method="direct")
    assert rep.r_zero == pytest.approx(ref0.estimate, rel=1e-12)
    assert rep.r_zero_error == pytest.approx(ref0.std_error, rel=1e-12)
    for h, r, err in zip(hs, rep.r_values, rep.r_errors):
        ref = equilibrium.r_of_h(p111, v, h, 10_000, 32, seed=7, method="direct")
        assert r == pytest.approx(ref.estimate, rel=1e-12)
        assert err == pytest.approx(ref.std_error, rel=1e-12)


def test_mean_square_q_free_measure(p111):
    rep = equilibrium.mean_square_q(p111, potentials.zero(), n_paths=50_000,
                                    n_grid=64, seed=26)
    assert abs(rep.value - p111.marginal_variance) < 4.0 * rep.std_error
    assert rep.denominator == pytest.approx(1.0, abs=1e-12)


def test_mean_square_q_estimators_agree(p111):
    v4 = potentials.quartic(1.0)
    ta = equilibrium.mean_square_q(p111, v4, n_paths=50_000, n_grid=64, seed=27,
                                   estimator="time_average")
    t0 = equilibrium.mean_square_q(p111, v4, n_paths=50_000, n_grid=64, seed=28,
                                   estimator="t0")
    assert abs(ta.value - t0.value) < 4.0 * math.hypot(ta.std_error, t0.std_error)
    # interaction suppresses fluctuations below the free value
    assert ta.value < p111.marginal_variance


def test_mean_square_q_unknown_estimator(p111):
    with pytest.raises(ParameterError):
        equilibrium.mean_square_q(p111, potentials.zero(), n_paths=100,
                                  n_grid=8, seed=0, estimator="median")


def test_falk_bruch_reference_value(p111):
    fb = equilibrium.falk_bruch_bound(p111)
    assert fb.g0 == pytest.approx(FREE_Q2, rel=1e-13)
    assert fb.b0 == pytest.approx(1.0)
    assert fb.c0 == pytest.approx(1.0)


def test_falk_bruch_identity_random_params():
    rng = np.random.Generator(np.random.Philox(key=np.array([41, 0], dtype=np.uint64)))
    for _ in range(100):
        m, w, b = rng.uniform(0.5, 2.0, size=3)
        p = MeasureParams(m=float(m), omega=float(w), beta=float(b))
        fb = equilibrium.falk_bruch_bound(p)
        assert abs(fb.g0 - fb.free_value) < 1e-12


def test_quartic_q2_respects_falk_bruch(p111):
    rep = equilibrium.mean_square_q(p111, potentials.quartic(1.0), n_paths=50_000,
                                    n_grid=64, seed=29)
    fb = equilibrium.falk_bruch_bound(p111)
    assert rep.value <= fb.g0 + 4.0 * rep.std_error


def test_potential_validation():
    with pytest.raises(ParameterError):
        potentials.validate_symmetric_nonnegative(
            potentials.Potential("neg", lambda x: -np.ones_like(x), True, False))
    with pytest.raises(ParameterError):
        potentials.make("cubic")
    assert potentials.make("quadratic", kappa=2.0)(2.0) == pytest.approx(4.0)
    assert potentials.make("quartic", g=3.0)(-1.0) == pytest.approx(3.0)
