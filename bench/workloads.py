"""The benchmark's workloads, each with its oracle check.

All run at (m, omega, beta) = (1, 1, 1), the parameters of the ``bogo verify``
gates.  ``build`` constructs the workload's operators (timed as set-up);
``rep(seed)`` is one repetition: it calls the package's public entry points
and checks the result against its oracle.  The seed drives only the Philox
Monte Carlo streams; the deterministic workload ignores it.

Why these four (see also BENCHMARK.json):

* kl_exp_quadratic - the truncated eigen-expansion sampler under the chunk
  thread pool (the only workload that runs it); time goes to the normals and
  the eigen-basis matmul.
* grid_equilibrium - the exact grid sampler on a small grid with many paths,
  drawn once per pass (five passes today) and weighted by a quartic
  Boltzmann factor; the single-threaded baseline.
* fk_quadrature - no random draws: Volterra product integration against
  Crank-Nicolson, and the quadrature rules against the pairing oracle.  A
  sampler change should leave it unchanged.
* fine_grid_qvar - the exact grid sampler at N = 4096, where the dense grid
  covariance and its Cholesky factor dominate rather than the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from bogopath import (dynamics, equilibrium, functionals, oracle, potentials,
                      quadrature, sampler, trajectories)
from bogopath.params import MeasureParams

P = MeasureParams(m=1.0, omega=1.0, beta=1.0)
N_SIGMA = 4.0


@dataclass(frozen=True)
class Outcome:
    """One repetition: its estimates, whether they pass the oracle, and the
    relative standard error behind time-to-solution (None when exact)."""

    estimates: tuple
    passed: bool
    rel_se: float | None
    detail: dict = field(default_factory=dict)


class KLExpQuadratic:
    """estimate(exp_quadratic(0.5), method="kl") against oracle.exp_quadratic."""

    name = "kl_exp_quadratic"
    threads = 2
    lam = 0.5

    def __init__(self, tiny: bool = False):
        self.sizes = {"n_paths": 8_192 if tiny else 40_960, "n_modes": 512, "n_grid": 256}
        self.paths_per_rep = self.sizes["n_paths"]

    def build(self) -> None:
        self.functional = functionals.exp_quadratic(self.lam)
        self.exact = oracle.exp_quadratic(P, self.lam)
        sampler.kl_drawer(P, self.sizes["n_modes"], self.sizes["n_grid"])

    def rep(self, seed: int) -> Outcome:
        s = self.sizes
        r = sampler.estimate(P, self.functional, method="kl", n_paths=s["n_paths"],
                             n_modes=s["n_modes"], n_grid=s["n_grid"], seed=seed,
                             threads=self.threads)
        sigmas = (r.estimate - self.exact) / r.std_error
        return Outcome((r.estimate, r.std_error), abs(sigmas) <= N_SIGMA,
                       r.std_error / abs(r.estimate), {"sigmas": sigmas})


class GridEquilibrium:
    """domination_check and mean_square_q for the quartic well, one thread."""

    name = "grid_equilibrium"
    threads = 1
    h_values = (0.25, 0.5, 1.0)

    def __init__(self, tiny: bool = False):
        self.sizes = {"n_paths": 4_096 if tiny else 20_480, "n_grid": 128}
        self.paths_per_rep = self.sizes["n_paths"]

    def build(self) -> None:
        self.potential = potentials.quartic(1.0)
        self.bound = equilibrium.falk_bruch_bound(P).g0
        sampler.finite_dim_drawer(P, self.sizes["n_grid"])

    def rep(self, seed: int) -> Outcome:
        s = self.sizes
        dom = equilibrium.domination_check(P, self.potential, self.h_values,
                                           n_paths=s["n_paths"], n_grid=s["n_grid"],
                                           seed=seed, n_sigma=N_SIGMA, threads=self.threads)
        q2 = equilibrium.mean_square_q(P, self.potential, n_paths=s["n_paths"],
                                       n_grid=s["n_grid"], seed=seed, threads=self.threads)
        rel = [dom.r_zero_error / dom.r_zero, q2.std_error / q2.value,
               *(dom.r_errors / dom.r_values)]
        passed = dom.dominated and q2.value <= self.bound + N_SIGMA * q2.std_error
        return Outcome((dom.r_zero, *dom.r_values, q2.value, q2.std_error), bool(passed),
                       float(max(rel)), {"mean_square_q": q2.value, "g0": self.bound})


class FKQuadrature:
    """Volterra against Crank-Nicolson, and the thm1/thm2 exactness sweep."""

    name = "fk_quadrature"
    threads = 1
    paths_per_rep = 0
    fk_tol = 1e-4
    quad_tol = 1e-6

    def __init__(self, tiny: bool = False):
        if tiny:
            self.sizes = {"n_tau": 40, "n_xi": 513, "fd_n_tau": 1000, "fd_n_xi": 1025,
                          "tuples_per_degree": 2}
        else:
            self.sizes = {"n_tau": 160, "n_xi": 1025, "fd_n_tau": 8000, "fd_n_xi": 2049,
                          "tuples_per_degree": 6}

    def build(self) -> None:
        self.potential = potentials.quadratic(1.0)
        # (rule, degree bound) as in the verify suite; monomial times come from
        # a golden-ratio sequence, so the sweep is fixed and needs no draws
        rules = [("thm1_integrate", 1, None, 3), ("thm1_integrate", 2, None, 5)]
        rules += [("thm2_integrate", n, float(n + 1), 2 * n + 1) for n in (1, 2, 3)]
        k = self.sizes["tuples_per_degree"]
        self.sweep, used = [], 0
        for rule, n, a_const, bound in rules:
            for degree in range(1, bound + 1):
                for _ in range(k):
                    times = P.beta * ((np.arange(used, used + degree) + 1) * 0.6180339887498949 % 1.0)
                    used += degree
                    self.sweep.append((rule, n, a_const,
                                       quadrature.FunctionalPolynomial.monomial(times)))

    def rep(self, seed: int) -> Outcome:
        s = self.sizes
        sol = dynamics.fk_solve_volterra(P, self.potential, beta_max=1.0,
                                         n_tau=s["n_tau"], n_xi=s["n_xi"])
        ref = dynamics.fk_reference_fd(P, self.potential, beta_max=1.0, n_tau=s["fd_n_tau"],
                                       n_xi=s["fd_n_xi"], xi_max=float(sol.xi[-1]))
        step = (s["fd_n_xi"] - 1) // (s["n_xi"] - 1)
        fk_rel = float(np.max(np.abs(sol.u[-1] - ref.u[-1][::step])) / np.max(np.abs(ref.u[-1])))

        rho = quadrature.ContinuousRho(P)
        worst = 0.0
        for rule, n, a_const, poly in self.sweep:
            # looked up per call, so a traced run sees its wrapper
            integrate = getattr(quadrature, rule)
            value = (integrate(P, poly, n, rho).real if a_const is None
                     else integrate(P, poly, n, a_const, rho))
            exact = poly.gauss_expectation(P)
            worst = max(worst, abs(value - exact) / (1.0 + abs(exact)))
        passed = fk_rel <= self.fk_tol and worst <= self.quad_tol
        return Outcome((fk_rel, worst), passed, None,
                       {"fk_rel_err": fk_rel, "quad_max_scaled_err": worst})


class FineGridQVar:
    """qvar_report on the exact N = 4096 grid marginal against qvar_exact_mean."""

    name = "fine_grid_qvar"
    threads = 1

    def __init__(self, tiny: bool = False):
        self.sizes = {"n_partition": 256 if tiny else 4096, "n_paths": 64 if tiny else 400}
        self.paths_per_rep = self.sizes["n_paths"]

    def build(self) -> None:
        self.exact = trajectories.qvar_exact_mean(P, self.sizes["n_partition"])
        sampler.finite_dim_drawer(P, self.sizes["n_partition"])

    def rep(self, seed: int) -> Outcome:
        s = self.sizes
        r = trajectories.qvar_report(P, s["n_partition"], n_paths=s["n_paths"], seed=seed,
                                     threads=self.threads)
        sigmas = (r.estimate - self.exact) / r.std_error
        return Outcome((r.estimate, r.std_error), abs(sigmas) <= N_SIGMA,
                       r.std_error / abs(r.estimate), {"sigmas": sigmas})


WORKLOADS = {w.name: w for w in (KLExpQuadratic, GridEquilibrium, FKQuadrature, FineGridQVar)}


def determinism_check(seed: int) -> bool:
    """The package's contract: a KL estimate has the same digits at 1 and 2 threads."""
    reports = [sampler.estimate(P, functionals.exp_quadratic(0.5), method="kl",
                                n_paths=3 * 1024, n_modes=64, n_grid=64, seed=seed,
                                chunk_size=1024, threads=threads)
               for threads in (1, 2)]
    return reports[0] == reports[1] and math.isfinite(reports[0].estimate)
