"""Acceptance suite: every stochastic estimate against a closed form or oracle.

Each criterion is a pure function returning a CriterionResult whose details
are plain JSON types.  Reports contain no timing or machine information and
all randomness is seeded, so a verify run is bit-reproducible; the worker
count never enters the report (the Monte Carlo reduction contract makes the
numbers independent of it, and criterion 9 checks that directly).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import (dynamics, equilibrium, functionals, kernel, oracle, potentials,
               quadrature, sampler, trajectories)
from .params import MeasureParams

SCHEMA_VERSION = 1

_P111 = MeasureParams(m=1.0, omega=1.0, beta=1.0)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _rng(tag: int, seed: int) -> np.random.Generator:
    return sampler._chunk_rng(seed, tag)  # the sampler's Philox keying and seed check


def _random_params(rng: np.random.Generator) -> MeasureParams:
    m, w, b = rng.uniform(0.5, 2.0, size=3)
    return MeasureParams(m=float(m), omega=float(w), beta=float(b))


# -- 1: grid covariance closed forms vs dense linear algebra ----------------


def check_closed_forms(seed: int = 0, quick: bool = False) -> CriterionResult:
    rng = _rng(1, seed)
    n_cases = 10 if quick else 50
    max_inv, max_det = 0.0, 0.0
    for _ in range(n_cases):
        p = _random_params(rng)
        n = int(rng.integers(2, 33))
        gc = kernel.grid_covariance(p, n)
        inv_dense = np.linalg.inv(gc.a)
        max_inv = max(max_inv, float(np.max(np.abs(gc.a_inv - inv_dense))
                                     / np.max(np.abs(inv_dense))))
        sign, logdet_dense = np.linalg.slogdet(gc.a_inv)
        max_det = max(max_det, abs(math.expm1(gc.log_det_a_inv - logdet_dense)))
        if sign <= 0:
            max_det = math.inf
    passed = max_inv <= 1e-8 and max_det <= 1e-8
    return CriterionResult("closed_form_grid_covariance", passed, {
        "n_cases": n_cases, "max_inverse_rel_err": max_inv,
        "max_det_rel_err": max_det, "tolerance": 1e-8,
    })


# -- 2: exponential-quadratic integral three ways ---------------------------


def check_exp_quadratic_three_ways(seed: int = 0, quick: bool = False) -> CriterionResult:
    p, lam = _P111, 0.5
    closed = oracle.exp_quadratic(p, lam)

    n_trunc = 10_000 if quick else 100_000
    n = np.arange(-n_trunc, n_trunc + 1)
    lam_n = kernel.eigenvalue(p, n)
    log_prod = -0.5 * float(np.sum(np.log1p(-lam * lam_n)))
    # integral-comparison tail of the log-product: (lambda/2) * sum_{|n|>N} lam_n
    tail = 0.5 * lam * p.beta**2 / (2.0 * math.pi**2 * p.m * n_trunc)
    product = math.exp(log_prod + tail)
    prod_err = abs(product / closed - 1.0)

    n_paths = 100_000 if quick else 1_000_000
    rep = sampler.estimate(p, functionals.exp_quadratic(lam), method="kl",
                           n_paths=n_paths, seed=seed)
    mc_sigmas = abs(rep.estimate - closed) / rep.std_error

    passed = prod_err <= 1e-8 and mc_sigmas <= 3.0
    return CriterionResult("exp_quadratic_three_ways", passed, {
        "closed_form": closed, "eigen_product": product, "product_rel_err": prod_err,
        "mc_estimate": rep.estimate, "mc_std_error": rep.std_error,
        "mc_sigmas": mc_sigmas, "n_paths": n_paths, "truncation": n_trunc,
    })


# -- 3: quadrature exactness vs the pairing oracle --------------------------


def check_quadrature_exactness(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    rng = _rng(3, seed)
    rho = quadrature.ContinuousRho(p)
    n_tuples = 5 if quick else 20
    worst = 0.0
    sweeps = []
    rules = [("thm1_n1", 3, lambda f: quadrature.thm1_integrate(p, f, 1, rho).real),
             ("thm1_n2", 5, lambda f: quadrature.thm1_integrate(p, f, 2, rho).real)]
    for n in (1, 2, 3):
        rules.append((
            f"thm2_n{n}", 2 * n + 1,
            lambda f, n=n: quadrature.thm2_integrate(p, f, n, float(n + 1), rho),
        ))
    for name, bound, rule in rules:
        rule_worst = 0.0
        for degree in range(1, bound + 1):
            for _ in range(n_tuples):
                times = rng.uniform(0.0, p.beta, size=degree)
                poly = quadrature.FunctionalPolynomial.monomial(times)
                exact = poly.gauss_expectation(p)
                err = abs(rule(poly) - exact) / (1.0 + abs(exact))
                rule_worst = max(rule_worst, err)
        sweeps.append({"rule": name, "max_scaled_err": rule_worst})
        worst = max(worst, rule_worst)
    return CriterionResult("quadrature_exactness", worst <= 1e-6, {
        "rules": sweeps, "max_scaled_err": worst, "tolerance": 1e-6,
        "tuples_per_degree": n_tuples,
    })


# -- 4: rho factorizations reproduce the kernel -----------------------------


def check_rho_reproduction(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    rng = _rng(4, seed)
    cont = quadrature.ContinuousRho(p)
    disc = quadrature.DiscreteRho(p, n_bands=24)
    n_pairs = 20 if quick else 100
    max_cont, max_disc = 0.0, 0.0
    for _ in range(n_pairs):
        t, s = rng.uniform(0.0, p.beta, size=2)
        max_cont = max(max_cont, abs(cont.moment((t, s)) - kernel.covariance(p, t, s)))
        max_disc = max(max_disc, abs(disc.moment((t, s)) - disc.truncated_kernel(t, s)))
    passed = max_cont <= 1e-6 and max_disc <= 1e-12
    return CriterionResult("rho_factorization", passed, {
        "n_pairs": n_pairs, "max_continuous_err": max_cont,
        "max_discrete_err": max_disc,
    })


# -- 5: quadratic-variation statistics --------------------------------------


def check_qvar_statistics(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    n_part = 64
    n_paths = 10_000 if quick else 100_000
    times, draw = sampler.finite_dim_drawer(p, n_part)
    bm = p.beta / p.m

    def eval_fn(t, values):
        s = np.sum(np.diff(values, axis=1) ** 2, axis=1)
        return np.stack([s, (s - bm) ** 2], axis=1)

    mean, cov_mean, _ = sampler.mc_columns(times, draw, eval_fn, n_paths, seed)
    se = np.sqrt(np.clip(np.diag(cov_mean), 0.0, None))
    mean_sig = abs(mean[0] - trajectories.qvar_exact_mean(p, n_part)) / se[0]
    i_n_sig = abs(mean[1] - trajectories.qvar_exact_i_n(p, n_part)) / se[1]

    trend_dev = 0.0
    target = 2.0 * p.beta**2 / p.m**2
    for expo in range(10, 15):
        n = 2**expo
        trend_dev = max(trend_dev, abs(n * trajectories.qvar_exact_i_n(p, n) / target - 1.0))

    passed = mean_sig <= 4.0 and i_n_sig <= 4.0 and trend_dev <= 0.05
    return CriterionResult("quadratic_variation", passed, {
        "mean_sigmas": float(mean_sig), "i_n_sigmas": float(i_n_sig),
        "trend_max_rel_dev": trend_dev, "n_paths": n_paths, "n_partition": n_part,
    })


# -- 6: independent increments of the y-transform ---------------------------


def check_independent_increments(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    g = 512
    n_paths = 10_000 if quick else 100_000
    rng = _rng(6, seed)
    quads = []
    for _ in range(10):
        idx = np.sort(rng.choice(np.arange(1, g), size=4, replace=False))
        quads.append(idx)
    times, draw = sampler.finite_dim_drawer(p, g)

    def eval_fn(t, values):
        y = dynamics.transform_y_batch(p, t, values)
        cols = []
        for i0, i1, i2, i3 in quads:
            cols.append((y[:, i1] - y[:, i0]) * (y[:, i3] - y[:, i2]))
        for i0, i1, _, _ in quads:
            cols.append((y[:, i1] - y[:, i0]) ** 2)
        return np.stack(cols, axis=1)

    mean, cov_mean, _ = sampler.mc_columns(times, draw, eval_fn, n_paths, seed)
    se = np.sqrt(np.clip(np.diag(cov_mean), 0.0, None))
    cov_sig = np.abs(mean[:10]) / se[:10]
    var_targets = np.array([
        dynamics.y_increment_variance(p, times[i1], times[i0]) for i0, i1, _, _ in quads
    ])
    var_sig = np.abs(mean[10:] - var_targets) / se[10:]
    passed = bool(np.all(cov_sig <= 4.0) and np.all(var_sig <= 4.0))
    return CriterionResult("independent_increments", passed, {
        "max_cov_sigmas": float(np.max(cov_sig)),
        "max_var_sigmas": float(np.max(var_sig)),
        "n_paths": n_paths, "grid": g,
    })


# -- 7: Feynman-Kac cross-validation ----------------------------------------


def check_feynman_kac(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    details: dict = {}

    sol_free = dynamics.fk_solve_volterra(p, potentials.zero(), beta_max=1.0,
                                          n_tau=32, n_xi=257, richardson=False)
    free_err = 0.0
    for i in range(1, len(sol_free.betas)):
        free_err = max(free_err, float(np.max(np.abs(
            sol_free.u[i] - dynamics.fk_free(p, sol_free.betas[i], sol_free.xi)
        ))))
    details["volterra_free_err"] = free_err

    xi_mc = np.array([0.0, 0.5, 1.0])
    delta = 0.05
    est = dynamics.fk_estimate_mc(p, potentials.zero(), xi_mc, delta=delta,
                                  n_paths=20_000 if quick else 200_000, seed=seed)
    target = dynamics.fk_free(p, p.beta, xi_mc)
    # mollifier bias bound: (delta^2/2) * max |u''| of the free Gaussian kernel
    c = p.m * p.omega**2 / p.beta
    bias = 0.5 * delta**2 * float(np.max(np.abs(target * c * (c * xi_mc**2 - 1.0)))
                                  + c * math.sqrt(c / (2 * math.pi)))
    mc_ok = bool(np.all(np.abs(est.estimate - target) <= 4.0 * est.std_error + bias))
    details["mc_max_abs_dev"] = float(np.max(np.abs(est.estimate - target)))
    details["mc_bias_bound"] = bias

    fd_ok = True
    if not quick:
        vq = potentials.quadratic(1.0)
        sol = dynamics.fk_solve_volterra(p, vq, beta_max=1.0, n_tau=160, n_xi=1025)
        ref = dynamics.fk_reference_fd(p, vq, beta_max=1.0, n_tau=8000, n_xi=2049,
                                       xi_max=float(sol.xi[-1]))
        rel = float(np.max(np.abs(sol.u[-1] - ref.u[-1][::2])) / np.max(np.abs(ref.u[-1])))
        fd_ok = rel <= 1e-4
        details["quadratic_rel_err_vs_fd"] = rel
        # the Mehler kernel is exact for this potential; reported, not gated
        exact = dynamics.fk_harmonic(p, 1.0, 1.0, ref.xi)
        details["fd_rel_err_vs_exact"] = float(
            np.max(np.abs(ref.u[-1] - exact)) / np.max(exact))
        details["volterra_rel_err_vs_exact"] = float(
            np.max(np.abs(sol.u[-1] - exact[::2])) / np.max(exact))

    passed = free_err <= 1e-6 and mc_ok and fd_ok
    return CriterionResult("feynman_kac", passed, details)


# -- 8: equilibrium inequalities --------------------------------------------


def check_equilibrium_bounds(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    v4 = potentials.quartic(1.0)
    n_paths = 50_000 if quick else 1_000_000
    g = 128
    dom = equilibrium.domination_check(p, v4, [0.25, 0.5, 1.0], n_paths=n_paths,
                                       n_grid=g, seed=seed, n_sigma=4.0)
    q2 = equilibrium.mean_square_q(p, v4, n_paths=n_paths, n_grid=g, seed=seed)
    fb = equilibrium.falk_bruch_bound(p)
    q2_ok = q2.value <= fb.g0 + 4.0 * q2.std_error

    rng = _rng(8, seed)
    id_err = 0.0
    for _ in range(100):
        pr = _random_params(rng)
        fbr = equilibrium.falk_bruch_bound(pr)
        id_err = max(id_err, abs(fbr.g0 - fbr.free_value))
    passed = dom.dominated and q2_ok and id_err <= 1e-12
    return CriterionResult("equilibrium_bounds", passed, {
        "dominated": dom.dominated, "r_zero": dom.r_zero,
        "r_values": dom.r_values.tolist(),
        "mean_square_q": q2.value, "mean_square_q_err": q2.std_error,
        "falk_bruch_g0": fb.g0, "identity_max_err": id_err, "n_paths": n_paths,
    })


# -- 9: determinism under thread-count changes ------------------------------


def check_determinism(seed: int = 0, quick: bool = False) -> CriterionResult:
    p = _P111
    reports = []
    for threads in (1, 4):
        rep = sampler.estimate(p, functionals.exp_quadratic(0.5), method="kl",
                               n_paths=20_000, n_grid=64, n_modes=64, seed=seed,
                               threads=threads)
        qv = trajectories.qvar_report(p, 32, n_paths=20_000, seed=seed, threads=threads)
        reports.append((rep, qv))
    passed = reports[0] == reports[1]
    return CriterionResult("determinism", passed, {
        "estimate": reports[0][0].estimate,
        "qvar_estimate": reports[0][1].estimate,
        "threads_compared": [1, 4],
    })


ALL_CRITERIA = {
    "closed_form_grid_covariance": check_closed_forms,
    "exp_quadratic_three_ways": check_exp_quadratic_three_ways,
    "quadrature_exactness": check_quadrature_exactness,
    "rho_factorization": check_rho_reproduction,
    "quadratic_variation": check_qvar_statistics,
    "independent_increments": check_independent_increments,
    "feynman_kac": check_feynman_kac,
    "equilibrium_bounds": check_equilibrium_bounds,
    "determinism": check_determinism,
}

QUICK_NAMES = {
    "closed_form_grid_covariance", "quadrature_exactness", "rho_factorization",
    "feynman_kac", "determinism",
}


def run(seed: int = 0, quick: bool = False, names: set[str] | None = None) -> dict:
    """Run the acceptance suite; returns a JSON-ready, bit-reproducible report."""
    if quick and names is None:
        names = QUICK_NAMES
    results = []
    for name, fn in ALL_CRITERIA.items():
        if names is not None and name not in names:
            continue
        res = fn(seed=seed, quick=quick)
        results.append(CriterionResult(res.name, bool(res.passed), res.details))
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "quick": quick,
        "passed": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
