"""Approximate functional-integration rules exact for functional polynomials.

The rules replace the path integral by finitely many one-dimensional
integrals over an auxiliary variable u, through a factorization

    int rho(u, t) rho(u, s) dnu(u) = B(t, s)

of the covariance kernel.  Two factorizations are built: an absolutely
continuous one (normalized Lebesgue measure on [-beta, beta], piecewise
exponential rho with a kink at |u| = t) and a discrete one (atoms at the
integers, piecewise eigenfunction bands).

Degree-(2n+1) rules use node scalings c_j whose squares have power sums
S_1 = sum c_j^2 = 1 and S_p = sum c_j^(2p) = 0 for 2 <= p <= n; by Newton's
identities the c_j^2 are the roots of sum_k (-1)^k z^(n-k)/k!, i.e. the
negatives of the roots of Q_n(z) = sum_k z^(n-k)/k!.  (Using the roots of
Q_n directly flips the sign of every even moment, which the exactness sweep
against the pairing oracle rules out.)  Nodes are complex for n >= 2, so
rule evaluation is defined on functional polynomials, which extend
canonically to complex paths; black-box functionals are rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .params import MeasureParams, ParameterError

QN_DEGREE_CAP = 12


class UnsupportedFunctionalError(TypeError):
    """Rule evaluation needs a functional polynomial, not a black box."""


# ---------------------------------------------------------------------------
# functional polynomials


@dataclass(frozen=True)
class FunctionalPolynomial:
    """Finite sum of path monomials: sum_i coeff_i * x(t_i1)...x(t_ij).

    The canonical extension to complex-valued paths is the same algebraic
    expression, which is what the complex-node rules evaluate.
    """

    terms: tuple[tuple[float, tuple[float, ...]], ...]

    @classmethod
    def monomial(cls, times, coeff: float = 1.0) -> "FunctionalPolynomial":
        return cls(((float(coeff), tuple(float(t) for t in times)),))

    @classmethod
    def constant(cls, c: float = 1.0) -> "FunctionalPolynomial":
        return cls(((float(c), ()),))

    @classmethod
    def mean_square(cls, beta: float, n_grid: int = 24) -> "FunctionalPolynomial":
        """(int_0^beta x dt)^2 as a quadratic monomial sum on a trapezoid grid."""
        t = beta * np.arange(n_grid + 1) / n_grid
        w = np.full(n_grid + 1, beta / n_grid)
        w[0] = w[-1] = 0.5 * beta / n_grid
        terms = []
        for i in range(n_grid + 1):
            for j in range(n_grid + 1):
                terms.append((float(w[i] * w[j]), (float(t[i]), float(t[j]))))
        return cls(tuple(terms))

    @property
    def degree(self) -> int:
        return max((len(ts) for _, ts in self.terms), default=0)

    def value_on_path(self, x):
        """Evaluate on a path given as a callable t -> value (possibly complex)."""
        acc = 0.0
        for coeff, ts in self.terms:
            prod = coeff
            for t in ts:
                prod = prod * x(t)
            acc = acc + prod
        return acc

    def gauss_expectation(self, p: MeasureParams, max_points: int = 12) -> float:
        """Exact expectation under the path measure, via the pairing oracle."""
        from . import oracle

        acc = 0.0
        for coeff, ts in self.terms:
            acc += coeff * oracle.wick_moment(p, oracle.WickSpec(ts), max_points)
        return acc


def as_functional_polynomial(f) -> FunctionalPolynomial:
    if isinstance(f, FunctionalPolynomial):
        return f
    raise UnsupportedFunctionalError(
        "quadrature rules with auxiliary-measure nodes evaluate functional "
        "polynomials only; wrap the integrand as a FunctionalPolynomial "
        "(black-box functionals have no canonical extension to complex paths)"
    )


# ---------------------------------------------------------------------------
# kernel factorizations rho(u, t)


class ContinuousRho:
    """Absolutely continuous factorization on [-beta, beta].

    rho(u, t) = sqrt(beta/m) * (e^(beta*omega) - 1)^-1 * e^(omega*(t - |u|))
                * [theta(t - |u|) + e^(beta*omega) * theta(|u| - t)] * sgn(u)
              = sqrt(beta/m) * e^(omega*(t - |u|) - beta*omega*theta(t - |u|))
                / (1 - e^(-beta*omega)) * sgn(u)

    against dnu(u) = du/(2*beta), with sgn(0) = 0.  A product of j rho
    factors is one exponential in |u| between consecutive sorted times, so
    its u-integral is a sum of j + 1 closed-form terms (``moment``).
    """

    kind = "continuous_lebesgue"

    def __init__(self, p: MeasureParams):
        self.params = p
        self._moment_cache: dict[tuple[float, ...], float] = {}

    def rho(self, u, t):
        p = self.params
        u = np.asarray(u, dtype=float)
        t = np.asarray(t, dtype=float)
        if (np.abs(u) > p.beta).any() or (t < 0).any() or (t > p.beta).any():
            raise kernel.DomainError("need |u| <= beta and t in [0, beta]")
        au = np.abs(u)
        # the second form: exponent in [-beta*omega, 0], finite at any beta*omega
        bw = p.beta * p.omega
        pref = math.sqrt(p.beta / p.m) / -math.expm1(-bw)
        out = pref * np.exp(p.omega * (t - au) - bw * (t >= au)) * np.sign(u)
        return float(out) if out.ndim == 0 else out

    def moment(self, times: tuple[float, ...]) -> float:
        """int prod_i rho(u, t_i) dnu(u); zero for an odd number of factors.

        On (a_i, b_i), between consecutive sorted times (a_0 = 0, b_j = beta),
        the product is pref^j exp(omega sum t - j omega u - beta omega (j - i)),
        so each segment integrates in closed form.  Every exponent is a sum of
        terms <= 0 and pref^j is taken in logs: nothing overflows.
        """
        j = len(times)
        if j % 2 == 1:
            return 0.0
        if j == 0:
            return 1.0
        key = tuple(sorted(float(t) for t in times))
        if key not in self._moment_cache:
            p = self.params
            if key[0] < 0.0 or key[-1] > p.beta:
                raise kernel.DomainError("need t in [0, beta]")
            t = np.array(key)
            a = np.concatenate(([0.0], t))  # segment i is (a[i], b[i])
            b = np.append(t, p.beta)
            after = np.arange(j) >= np.arange(j + 1)[:, None]  # t_k >= u on segment i
            expo = p.omega * (t - a[:, None] - p.beta * after).sum(axis=1)
            log_pref = 0.5 * math.log(p.beta / p.m) - math.log(-math.expm1(-p.beta * p.omega))
            jw = j * p.omega
            terms = np.exp(j * log_pref - math.log(jw * p.beta) + expo) * -np.expm1(-jw * (b - a))
            self._moment_cache[key] = float(terms.sum())
        return self._moment_cache[key]


def _band_eigen_index(band: int) -> int:
    # band -> eigen index: 1 -> 0, 2 -> +1, 3 -> -1, 4 -> +2, 5 -> -2, ...
    if band < 1:
        raise ParameterError("bands are numbered from 1")
    if band == 1:
        return 0
    q, r = divmod(band - 2, 2)
    return (q + 1) if r == 0 else -(q + 1)


class DiscreteRho:
    """Jump-measure factorization with atoms at the integers +-1, +-2, ...

    Band n carries the n-th eigenpair of the kernel (enumerated 0, +1, -1,
    +2, -2, ...): rho vanishes for |u| < 1 and equals
    +-sqrt(lambda_(n)/(2*h_n)) * phi_(n)(t) on u in [n, n+1) / (-n-1, -n].
    Atom weights h_n are symmetric and sum to one over both signs; the atom
    sums reproduce the kernel truncated at the band count exactly.
    """

    kind = "discrete_jump"

    def __init__(self, p: MeasureParams, weights: np.ndarray | None = None, n_bands: int = 64):
        self.params = p
        if weights is None:
            w = 0.5 ** np.arange(1, n_bands + 1)
            weights = w / (2.0 * w.sum())
        weights = np.asarray(weights, dtype=float)
        if (weights <= 0).any():
            raise ParameterError("atom weights must be positive")
        if abs(2.0 * weights.sum() - 1.0) > 1e-10:
            raise ParameterError(
                "atom weights must sum to one over both signs (2 * sum h_n = 1)"
            )
        self.weights = weights
        self.n_bands = len(weights)
        self.eigen_indices = [_band_eigen_index(b) for b in range(1, self.n_bands + 1)]
        self._lam = np.array([kernel.eigenvalue(p, n) for n in self.eigen_indices])
        self._moment_cache: dict[tuple[float, ...], float] = {}

    def rho(self, u: float, t) -> float | np.ndarray:
        p = self.params
        t = np.asarray(t, dtype=float)
        if (t < 0).any() or (t > p.beta).any():
            raise kernel.DomainError("t outside [0, beta]")
        if abs(u) < 1.0:
            out = np.zeros_like(t)
            return float(out) if out.ndim == 0 else out
        band = int(math.floor(abs(u)))
        sign = 1.0 if u > 0 else -1.0
        if band > self.n_bands:
            out = np.zeros_like(t)
            return float(out) if out.ndim == 0 else out
        h = self.weights[band - 1]
        lam = self._lam[band - 1]
        n_eig = self.eigen_indices[band - 1]
        out = sign * math.sqrt(lam / (2.0 * h)) * kernel.eigenfunction(p, n_eig, t)
        return float(out) if np.ndim(out) == 0 else out

    def moment(self, times: tuple[float, ...]) -> float:
        """Atom sum of prod_i rho(u, t_i); zero for an odd number of factors."""
        j = len(times)
        if j % 2 == 1:
            return 0.0
        if j == 0:
            return 1.0
        key = tuple(sorted(float(t) for t in times))
        if key not in self._moment_cache:
            # one row a band, one column a time
            phi = kernel.eigenfunction(self.params, np.array(self.eigen_indices)[:, None],
                                       np.array(key))
            factors = np.sqrt(self._lam / (2.0 * self.weights))[:, None] * phi  # rho(band, t)
            prod = self.weights * 2.0  # atoms at +band and -band
            for col in factors.T:
                prod = prod * col
            # summed band by band in order, as a loop over the bands would
            self._moment_cache[key] = float(sum(prod.tolist()))
        return self._moment_cache[key]

    def truncated_kernel(self, t, s):
        """sum over represented bands of lambda * phi(t) * phi(s)."""
        acc = 0.0
        for lam, n_eig in zip(self._lam, self.eigen_indices):
            acc = acc + lam * kernel.eigenfunction(self.params, n_eig, t) \
                * kernel.eigenfunction(self.params, n_eig, s)
        return acc


# ---------------------------------------------------------------------------
# node polynomials and rule evaluation


def qn_polynomial_coeffs(n: int) -> np.ndarray:
    """Monic coefficients of Q_n(z) = sum_{k=0}^n z^(n-k)/k!."""
    return np.array([1.0 / math.factorial(k) for k in range(n + 1)])


def qn_roots(n: int) -> np.ndarray:
    """All n roots of Q_n, Newton-polished to residual <= 1e-12."""
    if not (1 <= n <= QN_DEGREE_CAP):
        raise ParameterError(f"degree must be in 1..{QN_DEGREE_CAP}, got {n}")
    coeffs = qn_polynomial_coeffs(n)
    roots = np.roots(coeffs)
    dcoeffs = np.polyder(coeffs)
    for _ in range(2):
        roots = roots - np.polyval(coeffs, roots) / np.polyval(dcoeffs, roots)
    return roots


def degree_nodes(n: int) -> np.ndarray:
    """Node scalings c_j for the degree-(2n+1) rule: c_j = sqrt(-z_j), Q_n(z_j) = 0."""
    return np.sqrt(-qn_roots(n).astype(complex))


def _nu_integral(poly: FunctionalPolynomial, node_coeffs, rho) -> complex:
    """int F(theta(u, .)) dnu_k(u) for theta(u, t) = sum_j d_j rho(u_j, t).

    Expands each monomial over the assignments of its factors to the k
    independent u-variables; factors sharing a u contribute one of the
    cached one-dimensional rho moments, and odd groups vanish.
    """
    node_coeffs = np.asarray(node_coeffs, dtype=complex)
    k = len(node_coeffs)
    total = 0.0 + 0.0j
    for coeff, ts in poly.terms:
        j = len(ts)
        if j == 0:
            total += coeff
            continue
        if j % 2 == 1:
            continue  # every assignment leaves at least one odd group
        term = 0.0 + 0.0j
        for assignment in itertools.product(range(k), repeat=j):
            groups: dict[int, list[float]] = {}
            for t, node in zip(ts, assignment):
                groups.setdefault(node, []).append(t)
            if any(len(g) % 2 for g in groups.values()):
                continue
            prod = 1.0 + 0.0j
            for node, g in groups.items():
                prod *= node_coeffs[node] ** len(g) * rho.moment(tuple(g))
            term += prod
        total += coeff * term
    return total


def thm1_integrate(p: MeasureParams, f, n: int, rho=None) -> complex:
    """Degree-(2n+1) rule with n auxiliary variables and complex node scalings."""
    poly = as_functional_polynomial(f)
    if rho is None:
        rho = ContinuousRho(p)
    return _nu_integral(poly, degree_nodes(n), rho)


def thm2_integrate(p: MeasureParams, f, n: int, a_const: float, rho=None,
                   scaling: str = "sqrt_shift") -> float:
    """Degree-(2n+1) rule with real nodes and a free constant A > n - 1.

    The k-variable term uses theta = s_k * sum_{j<=k} rho(u_j, .) with
    s_k = 1/sqrt(A - n + k).  With A = n the F(0) weight vanishes and the
    rule is I_n(F) = sum_{k=1}^n (-1)^(n-k) k^n/(k! (n-k)!) int F(theta_k)
    dnu_k, checked independently by ``thm2_In_recursive``.  The printed
    special case uses 1/sqrt(k!) in theta_k where the general rule gives
    1/sqrt(k); ``scaling="sqrt_factorial"`` substitutes it (only meaningful
    with A = n, where the two choices agree for k <= 2; the sqrt_shift one is
    the rule that passes the exactness sweep for n >= 3).
    """
    poly = as_functional_polynomial(f)
    if a_const <= n - 1:
        raise ParameterError(f"need A > n - 1 for real positive scalings, got A={a_const}")
    if rho is None:
        rho = ContinuousRho(p)
    total = ((-1.0) ** n) * (a_const - n) ** n / math.factorial(n) * _f_at_zero(poly)
    for k in range(1, n + 1):
        weight = ((-1.0) ** (n - k)) * (a_const - n + k) ** n / (
            math.factorial(k) * math.factorial(n - k)
        )
        s_k = _theta_scaling(k, n, a_const, scaling)
        val = _nu_integral(poly, np.full(k, s_k), rho)
        total += weight * val.real
    return float(total)


def _theta_scaling(k: int, n: int, a_const: float, scaling: str) -> float:
    if scaling == "sqrt_shift":
        return 1.0 / math.sqrt(a_const - n + k)
    if scaling == "sqrt_factorial":
        return 1.0 / math.sqrt(math.factorial(k))
    raise ParameterError(f"unknown scaling {scaling!r}")


def _f_at_zero(poly: FunctionalPolynomial) -> float:
    return sum(c for c, ts in poly.terms if len(ts) == 0)


def thm2_In_recursive(p: MeasureParams, f, n: int, rho=None,
                      scaling: str = "sqrt_shift") -> float:
    """I_n via the recursion I_n = (n^n/n!) J_n - sum_{k<n} k n^(n-1-k)/(n-k)! I_k."""
    poly = as_functional_polynomial(f)
    if rho is None:
        rho = ContinuousRho(p)
    j_vals = {}
    for k in range(1, n + 1):
        s_k = _theta_scaling(k, n, float(n), scaling)
        j_vals[k] = _nu_integral(poly, np.full(k, s_k), rho).real
    i_vals: dict[int, float] = {}
    for nn in range(1, n + 1):
        acc = nn**nn / math.factorial(nn) * j_vals[nn]
        for k in range(1, nn):
            acc -= k * nn ** (nn - 1 - k) / math.factorial(nn - k) * i_vals[k]
        i_vals[nn] = acc
    return float(i_vals[n])


# ---------------------------------------------------------------------------
# third-degree weighted rules


def thm3_integrate(p: MeasureParams, f, n_modes: int = 2000,
                   a_weights: np.ndarray | None = None) -> float:
    """Weighted rule for int (int x^2 dt) F(x) dmu, exact for cubic polynomials.

    Uses the eigen-factorization r(t, s) = sum_k (lambda_k + 2 lambda_k^2/TrB)
    * phi_k(t) phi_k(s) truncated at |k| <= n_modes.  F may be a functional
    polynomial or any callable accepting a path callable t -> x(t).
    """
    tr_b = p.trace_b
    indices = list(range(-n_modes, n_modes + 1))
    lam = np.array([kernel.eigenvalue(p, k) for k in indices])
    r_coeff = lam + 2.0 * lam**2 / tr_b
    if a_weights is None:
        # any positive summable choice works; lambda-proportional keeps the
        # large-|k| node amplitudes b_k bounded
        a_weights = lam / lam.sum()
    a_weights = np.asarray(a_weights, dtype=float)
    if (a_weights <= 0).any():
        raise ParameterError("node weights A_k must be positive")
    if len(a_weights) != len(indices):
        raise ParameterError("need one A_k per eigen index")
    a_total = float(a_weights.sum())
    b_amps = np.sqrt(r_coeff / a_weights)

    f_eval = _path_evaluator(f)
    total = tr_b * (1.0 - a_total) * f_eval(lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    for k_idx, a_k, b_k in zip(indices, a_weights, b_amps):
        path_plus = _scaled_eigenpath(p, k_idx, b_k)
        path_minus = _scaled_eigenpath(p, k_idx, -b_k)
        total += 0.5 * tr_b * a_k * (f_eval(path_plus) + f_eval(path_minus))
    return float(total)


def _scaled_eigenpath(p: MeasureParams, n_eig: int, amp: float):
    return lambda t: amp * kernel.eigenfunction(p, n_eig, t)


def _path_evaluator(f):
    if isinstance(f, FunctionalPolynomial):
        return f.value_on_path
    if callable(f):
        return f
    raise UnsupportedFunctionalError("F must be a FunctionalPolynomial or a callable on paths")


@dataclass(frozen=True)
class Thm4Constants:
    """Closed-form data of the rule weighted by V(x) = int x^2 dt with p == 1."""

    params: MeasureParams
    k_max: int
    trace_b: float
    b_seq: np.ndarray = field(repr=False)
    a_seq: np.ndarray = field(repr=False)
    a_total: float


def thm4_constants(p: MeasureParams, k_max: int) -> Thm4Constants:
    """B_k, A_k for k = 0..k_max (symmetric in +-k) and the closed-form A.

    B_k = Tr B + 2*lambda_k;
    A_k = (2 + (beta/(2*omega)) * coth(beta*omega/2) * [omega^2 + (2*pi*k/beta)^2])^-1;
    A   = coth(beta*omega*r/2) / (r * coth(beta*omega/2)),
          r = sqrt(1 + 4*tanh(beta*omega/2)/(beta*omega)).
    """
    k = np.arange(0, k_max + 1)
    lam = kernel.eigenvalue(p, k)
    b_seq = p.trace_b + 2.0 * lam
    coth_half = p.coth_half_bw
    a_seq = 1.0 / (2.0 + (p.beta / (2.0 * p.omega)) * coth_half
                   * (p.omega**2 + (2.0 * np.pi * k / p.beta) ** 2))
    bw = p.beta * p.omega
    r = math.sqrt(1.0 + 4.0 * math.tanh(p.half_bw) / bw)
    a_total = (1.0 / math.tanh(0.5 * bw * r)) / (r * coth_half)
    return Thm4Constants(p, k_max, p.trace_b, b_seq, a_seq, a_total)
