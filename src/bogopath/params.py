"""Parameters of the periodic Gaussian path measure.

The measure lives on continuous paths x(t) on [0, beta] with x(0) = x(beta)
and covariance

    B(t, s) = cosh(omega*|t-s| - beta*omega/2) / (2*m*omega*sinh(beta*omega/2)).

Everything in this package is parametrized by the triple (m, omega, beta).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class ParameterError(ValueError):
    """Raised when measure parameters are invalid."""


@dataclass(frozen=True)
class MeasureParams:
    """Mass m, frequency omega and inverse temperature beta, all positive.

    Any real number but a bool is accepted (numpy scalars included) and
    stored as a Python float.
    """

    m: float
    omega: float
    beta: float

    def __post_init__(self):
        for name in ("m", "omega", "beta"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and not isinstance(v, bool)
                    and math.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be a positive finite real, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def half_bw(self) -> float:
        """beta*omega/2, the argument that appears in every hyperbolic ratio."""
        return 0.5 * self.beta * self.omega

    @property
    def coth_half_bw(self) -> float:
        return coth(self.half_bw)

    @property
    def marginal_variance(self) -> float:
        """Variance of x(t) at any fixed t: coth(beta*omega/2)/(2*m*omega)."""
        return self.coth_half_bw / (2.0 * self.m * self.omega)

    @property
    def trace_b(self) -> float:
        """Integral of B(t, t) over [0, beta]: (beta/(2*m*omega))*coth(beta*omega/2)."""
        return self.beta * self.marginal_variance


def coth(x: float) -> float:
    return 1.0 / math.tanh(x)


def cosh_over_sinh(a: float, c: float) -> float:
    """cosh(a)/sinh(c) for c > 0, |a| <= c, stable for large c.

    Large hyperbolic arguments overflow cosh/sinh individually around 710;
    the ratio itself stays bounded by ~1 for |a| <= c, so work with
    exp(|a| - c) when c is large.
    """
    if c <= 0:
        raise ParameterError(f"cosh_over_sinh needs c > 0, got {c}")
    a = abs(a)
    if c < 30.0:
        return math.cosh(a) / math.sinh(c)
    return math.exp(a - c) * (1.0 + math.exp(-2.0 * a)) / (1.0 - math.exp(-2.0 * c))


def sinh_over_sinh(a: float, c: float) -> float:
    """sinh(a)/sinh(c) for c > 0, |a| <= c, stable for large c."""
    if c <= 0:
        raise ParameterError(f"sinh_over_sinh needs c > 0, got {c}")
    sign = 1.0 if a >= 0 else -1.0
    a = abs(a)
    if c < 30.0:
        return sign * math.sinh(a) / math.sinh(c)
    return sign * math.exp(a - c) * (1.0 - math.exp(-2.0 * a)) / (1.0 - math.exp(-2.0 * c))
