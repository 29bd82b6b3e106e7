"""Full-scale acceptance suite.

Each test runs one criterion of ``bogopath.verify`` at its production sample
sizes and tolerances and asserts a clean pass, attaching the measured
diagnostics on failure.  Runtimes range from seconds to a couple of minutes
for the Monte Carlo criteria.
"""

import json

from bogopath import verify


def _assert_passes(result):
    assert result.passed, f"{result.name} failed: {json.dumps(result.details, indent=2)}"


def test_criterion_1_closed_form_grid_covariance():
    res = verify.check_closed_forms(seed=0)
    _assert_passes(res)
    assert res.details["n_cases"] == 50
    assert res.details["max_inverse_rel_err"] <= 1e-8
    assert res.details["max_det_rel_err"] <= 1e-8


def test_criterion_2_exp_quadratic_three_ways():
    res = verify.check_exp_quadratic_three_ways(seed=0)
    _assert_passes(res)
    assert res.details["truncation"] == 100_000
    assert res.details["n_paths"] == 1_000_000
    assert res.details["product_rel_err"] <= 1e-8
    assert res.details["mc_sigmas"] <= 3.0


def test_criterion_3_quadrature_exactness():
    res = verify.check_quadrature_exactness(seed=0)
    _assert_passes(res)
    assert res.details["tuples_per_degree"] == 20
    assert res.details["max_scaled_err"] <= 1e-6


def test_criterion_4_rho_factorization():
    res = verify.check_rho_reproduction(seed=0)
    _assert_passes(res)
    assert res.details["n_pairs"] == 100
    assert res.details["max_continuous_err"] <= 1e-6
    assert res.details["max_discrete_err"] <= 1e-12


def test_criterion_5_quadratic_variation():
    res = verify.check_qvar_statistics(seed=0)
    _assert_passes(res)
    assert res.details["n_paths"] == 100_000
    assert res.details["mean_sigmas"] <= 4.0
    assert res.details["i_n_sigmas"] <= 4.0
    assert res.details["trend_max_rel_dev"] <= 0.05


def test_criterion_6_independent_increments():
    res = verify.check_independent_increments(seed=0)
    _assert_passes(res)
    assert res.details["n_paths"] == 100_000
    assert res.details["max_cov_sigmas"] <= 4.0
    assert res.details["max_var_sigmas"] <= 4.0


def test_criterion_7_feynman_kac():
    res = verify.check_feynman_kac(seed=0)
    _assert_passes(res)
    assert res.details["volterra_free_err"] <= 1e-6
    assert res.details["quadratic_rel_err_vs_fd"] <= 1e-4
    assert 0.0 < res.details["fd_rel_err_vs_exact"] <= 1e-4
    assert 0.0 < res.details["volterra_rel_err_vs_exact"] <= 1e-4
    # --quick runs neither solver, so it reports no solver errors rather than zeros
    quick = verify.check_feynman_kac(seed=0, quick=True)
    assert "quadratic_rel_err_vs_fd" not in quick.details
    assert "fd_rel_err_vs_exact" not in quick.details
    assert "volterra_rel_err_vs_exact" not in quick.details


def test_criterion_8_equilibrium_bounds():
    res = verify.check_equilibrium_bounds(seed=0)
    _assert_passes(res)
    assert res.details["n_paths"] == 1_000_000
    assert res.details["dominated"] is True
    assert res.details["identity_max_err"] <= 1e-12


def test_criterion_9_determinism():
    res = verify.check_determinism(seed=0)
    _assert_passes(res)
    # the full report machinery is itself bit-reproducible across runs
    a = json.dumps(verify.run(seed=0, names={"determinism"}), sort_keys=True)
    b = json.dumps(verify.run(seed=0, names={"determinism"}), sort_keys=True)
    assert a == b
