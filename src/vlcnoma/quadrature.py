"""Thin adaptive-quadrature layer used by the closed-form engine.

Wraps QUADPACK (scipy.integrate.quad) behind the toolkit's tolerance config.
SciPy is imported on the first integral, not with this module, so commands
that never integrate (``simulate``, ``plot``) do not pay for loading it.
Integrands here are piecewise smooth with kinks at analytically known radii
(clamp points of the effective-angle helpers, corner crossings of the
orientation CDF); callers pass those as breakpoints so the subdivision does
not have to hunt for them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


def __getattr__(name):
    """``integrate`` (scipy.integrate), imported on first access and then kept as a module attribute.

    ``integrate_adaptive`` reads the attribute at call time, so a replacement
    assigned to ``quadrature.integrate`` (a tracing proxy, say) is honoured.
    """
    if name != "integrate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import integrate

    globals()["integrate"] = integrate
    return integrate


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("need at least 10 subdivisions")

    def halved(self):
        return QuadratureConfig(self.abs_tol / 2.0, self.rel_tol / 2.0, self.max_subdivisions)


def integrate_adaptive(f, a, b, config, breakpoints=()):
    """Integral of f over [a, b] with an error estimate; raises on non-convergence.

    ``breakpoints`` are pre-split locations (values outside (a, b) are dropped).
    Returns (value, error_estimate).  QuadratureError is raised when QUADPACK
    flags the result and the estimate exceeds 100 times the requested
    tolerance (and 1e-7); a flagged result within that margin is returned.
    """
    if b <= a:
        return 0.0, 0.0
    pts = np.asarray([p for p in breakpoints if a < p < b], float)
    pts = np.unique(pts) if pts.size else None
    # with full_output QUADPACK's flag comes back as a trailing message instead of a warning
    value, err, _, *message = sys.modules[__name__].integrate.quad(
        f, a, b,
        full_output=1,
        epsabs=config.abs_tol,
        epsrel=config.rel_tol,
        limit=config.max_subdivisions,
        points=pts,
    )
    bound = max(config.abs_tol, config.rel_tol * abs(value))
    if message and err > max(bound * 100.0, 1e-7):
        raise QuadratureError(
            f"quadrature did not converge: estimate {err:.3e} for value {value:.6e} ({message[0]})")
    return value, err
