"""Registry of interaction potentials V(x).

The set needed by the equilibrium and Feynman-Kac experiments: zero, a
constant, the quadratic well (kappa/2) x^2 and the quartic well g x^4.
Potentials are plain vectorized callables carrying a name and symmetry /
positivity flags used for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ParameterError


@dataclass(frozen=True)
class Potential:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    symmetric: bool
    nonnegative: bool

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def zero() -> Potential:
    return Potential("zero", lambda x: np.zeros_like(x), True, True)


def constant(c: float) -> Potential:
    return Potential(f"constant(c={c})", lambda x: np.full_like(x, c), True, c >= 0)


def quadratic(kappa: float = 1.0) -> Potential:
    return Potential(f"quadratic(kappa={kappa})", lambda x: 0.5 * kappa * x**2,
                     True, kappa >= 0)


def quartic(g: float = 1.0) -> Potential:
    return Potential(f"quartic(g={g})", lambda x: g * np.square(np.square(x)), True, g >= 0)


_BUILDERS = {
    "zero": zero,
    "constant": constant,
    "quadratic": quadratic,
    "quartic": quartic,
}


def make(name: str, **kwargs) -> Potential:
    if name not in _BUILDERS:
        raise ParameterError(f"unknown potential {name!r}; choices: {sorted(_BUILDERS)}")
    return _BUILDERS[name](**kwargs)


def validate_symmetric_nonnegative(v: Potential, scale: float = 3.0, n_points: int = 64) -> None:
    """Check V >= 0 and V(x) = V(-x) on sample points; raise on violation."""
    x = np.linspace(0.0, scale, n_points)
    vx, vmx = v(x), v(-x)
    if (vx < -1e-12).any() or (vmx < -1e-12).any():
        raise ParameterError(f"potential {v.name} is not nonnegative")
    if not np.allclose(vx, vmx, rtol=1e-10, atol=1e-12):
        raise ParameterError(f"potential {v.name} is not even")
