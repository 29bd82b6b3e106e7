"""Exact closed-form values of functional integrals against the path measure.

These serve as ground truth for every stochastic or quadrature estimate in
the package: Gaussian moment evaluation by pairing enumeration, the Fredholm
determinant of the kernel, the exponential-quadratic integral, moments of
the time integral of x^2, iterated-kernel traces and the hyperbolic
infinite-product identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .params import MeasureParams, ParameterError, sinh_over_sinh

#: hard ceiling on monomial degree for pairing enumeration; (2k-1)!! pairings
PAIRING_HARD_CAP = 20
#: default ceiling; 12 points = 10395 pairings, plenty for the tests
PAIRING_DEFAULT_CAP = 12


class CombinatorialExplosionError(ValueError):
    """Monomial degree too large for pairing enumeration."""


@dataclass(frozen=True)
class WickSpec:
    """Evaluation times t_1..t_n of the path monomial x(t_1)...x(t_n)."""

    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))


def _pairings(indices: tuple[int, ...]):
    """All pairings of the index set, matching the smallest unpaired index first."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings(remaining):
            yield ((first, partner),) + tail


def wick_moment(p: MeasureParams, spec: WickSpec, max_points: int = PAIRING_DEFAULT_CAP) -> float:
    """Gaussian moment of x(t_1)...x(t_n): sum over pairings of kernel products.

    Zero for odd n.  Enumeration cost is (n-1)!!, so n is capped at
    max_points (<= 20).
    """
    times = spec.times
    n = len(times)
    if max_points > PAIRING_HARD_CAP:
        raise ParameterError(f"max_points cannot exceed {PAIRING_HARD_CAP}")
    if n > max_points:
        raise CombinatorialExplosionError(
            f"{n} points means {n}-point pairing enumeration; cap is {max_points}"
        )
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    cov = {}
    for i in range(n):
        for j in range(i + 1, n):
            cov[(i, j)] = kernel.covariance(p, times[i], times[j])
    terms = []
    for pairing in _pairings(tuple(range(n))):
        prod = 1.0
        for i, j in pairing:
            prod *= cov[(i, j)]
        terms.append(prod)
    # fixed-order pairwise reduction so the sum is reproducible bit for bit
    return float(np.sum(np.asarray(terms)))


@dataclass(frozen=True)
class FredholmResult:
    """Fredholm determinant D_B(lambda) of the kernel; defined for lambda < m*omega^2."""

    lam: float
    value: float


def _check_lambda(p: MeasureParams, lam: float) -> None:
    if lam >= p.m * p.omega**2:
        raise kernel.DomainError(
            f"lambda={lam} not below m*omega^2={p.m * p.omega ** 2}"
        )


def fredholm_det(p: MeasureParams, lam: float) -> FredholmResult:
    """D_B(lambda) = sinh^2(beta*sqrt(omega^2 - lambda/m)/2) / sinh^2(beta*omega/2)."""
    _check_lambda(p, lam)
    shifted = 0.5 * p.beta * math.sqrt(p.omega**2 - lam / p.m)
    if lam <= 0:
        # D_B grows like exp(beta*sqrt(-lambda/m)): past 2^1024 it has no float64 value
        ratio = sinh_over_sinh(p.half_bw, shifted)
        value = 1.0 / ratio**2 if ratio > 2.0**-512 else math.inf
    else:
        value = sinh_over_sinh(shifted, p.half_bw) ** 2
    if not math.isfinite(value):
        raise ParameterError(f"D_B(lambda={lam}) is not finite in float64")
    return FredholmResult(lam, value)


def exp_quadratic(p: MeasureParams, lam: float) -> float:
    """Integral of exp((lambda/2) * int_0^beta x^2 dt): equals D_B(lambda)^(-1/2).

    Closed form sinh(beta*omega/2)/sinh(beta*sqrt(omega^2 - lambda/m)/2).
    """
    _check_lambda(p, lam)
    shifted = 0.5 * p.beta * math.sqrt(p.omega**2 - lam / p.m)
    if lam >= 0:
        return 1.0 / sinh_over_sinh(shifted, p.half_bw)
    return sinh_over_sinh(p.half_bw, shifted)


# central-difference coefficients for the k-th derivative, accuracy O(h^2);
# offsets run over -k//2-..k//2 style symmetric stencils
_CENTRAL_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
    5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
    6: ((-3, 1.0), (-2, -6.0), (-1, 15.0), (0, -20.0), (1, 15.0), (2, -6.0), (3, 1.0)),
}


def _derivative_at_zero(f, order: int, h: float) -> float:
    acc = 0.0
    for offset, coef in _CENTRAL_STENCILS[order]:
        acc += coef * f(offset * h)
    return acc / h**order


def moment_mk(p: MeasureParams, k: int) -> float:
    """k-th moment of int_0^beta x^2 dt, for 0 <= k <= 6.

    Obtained as 2^k d^k/dlambda^k D_B^(-1/2) at lambda = 0 via central
    differences with one Richardson step (h and h/2), error O(h^4).  Orders
    above 6 amplify rounding noise beyond usefulness and are rejected.
    """
    if k < 0:
        raise ParameterError("moment order must be >= 0")
    if k > 6:
        raise ParameterError("moment order capped at 6 (differentiation unstable beyond)")
    if k == 0:
        return 1.0
    scale = p.m * p.omega**2
    # step balances O(h^2) truncation against eps/h^k rounding for each order
    h = scale * 10.0 ** (-(8.0 / (k + 2.0)))
    f = lambda lam: exp_quadratic(p, lam)  # noqa: E731
    d_h = _derivative_at_zero(f, k, h)
    d_h2 = _derivative_at_zero(f, k, h / 2.0)
    richardson = (4.0 * d_h2 - d_h) / 3.0
    return 2.0**k * richardson


def exp_a_qsquared(p: MeasureParams, a: float) -> float:
    """Integral of exp(a*x(t)^2) at a fixed t: 1/sqrt(1 - a*coth(beta*omega/2)/(m*omega)).

    Requires -m*omega*tanh(beta*omega/2) <= a < m*omega*tanh(beta*omega/2).
    """
    bound = p.m * p.omega * math.tanh(p.half_bw)
    if not (-bound <= a < bound):
        raise kernel.DomainError(f"a={a} outside [-{bound}, {bound})")
    return 1.0 / math.sqrt(1.0 - a * p.coth_half_bw / (p.m * p.omega))


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of a series plus its truncation diagnostics."""

    value: float
    n_terms: int
    tail_bound: float

    def __float__(self) -> float:
        return self.value


def iterated_trace(p: MeasureParams, k: int, n_max: int) -> SeriesValue:
    """beta * B^(k)(t, t) = (1/m^k) * sum_n [omega^2 + (2*pi*n/beta)^2]^(-k).

    Truncated at |n| <= n_max; the tail is bounded by the integral comparison
    2 * (beta/(2*pi))^(2k) / ((2k-1) * n_max^(2k-1)) / m^k.
    """
    if k < 1:
        raise ParameterError("iterated-kernel order must be >= 1")
    n = np.arange(-n_max, n_max + 1)
    terms = 1.0 / (p.m**k * (p.omega**2 + (2.0 * np.pi * n / p.beta) ** 2) ** k)
    tail = 2.0 * (p.beta / (2.0 * math.pi)) ** (2 * k) / (
        p.m**k * (2 * k - 1) * max(n_max, 1) ** (2 * k - 1)
    )
    return SeriesValue(float(np.sum(terms)), 2 * n_max + 1, tail)


def infinite_product(a: float, b: float, n_max: int) -> SeriesValue:
    """Partial product prod_{n=1}^{n_max} (1 + a/(n^2 + b^2)).

    Converges to (1/sqrt(1 + a/b^2)) * sinh(pi*b*sqrt(1 + a/b^2))/sinh(pi*b)
    for a > -b^2, b > 0.  The log of the tail is bounded by |a|/n_max.
    """
    if b <= 0:
        raise ParameterError(f"b must be positive, got {b}")
    if a <= -(b**2):
        raise kernel.DomainError(f"need a > -b^2, got a={a}, b={b}")
    n = np.arange(1, n_max + 1)
    log_terms = np.log1p(a / (n**2 + b**2))
    value = float(np.exp(np.sum(log_terms)))
    tail = abs(a) / max(n_max, 1)
    return SeriesValue(value, n_max, tail)


def infinite_product_closed_form(a: float, b: float) -> float:
    """Limit of the product above, via the hyperbolic determinant identity."""
    if b <= 0:
        raise ParameterError(f"b must be positive, got {b}")
    if a <= -(b**2):
        raise kernel.DomainError(f"need a > -b^2, got a={a}, b={b}")
    r = math.sqrt(1.0 + a / b**2)
    if r == 0.0:
        return math.pi * b / math.sinh(math.pi * b)
    return sinh_over_sinh(math.pi * b * r, math.pi * b) / r if r <= 1.0 else (
        1.0 / (r * sinh_over_sinh(math.pi * b, math.pi * b * r))
    )
