"""Random user positions/orientations and the exact vertical-angle distributions.

Each user independently draws a horizontal distance d ~ U[d_min, d_max] and a
mean vertical angle pm ~ U[mean_phi_min, mean_phi_max]; the instantaneous
vertical angle then fluctuates uniformly inside [pm - delta_phi, pm + delta_phi].
The marginal of the instantaneous angle is therefore the convolution of two
uniforms (a trapezoidal law), which the analytic engine needs in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MobilityConfig:
    """Sampling ranges for user positions and orientations (radians, meters)."""

    d_min: float
    d_max: float
    mean_phi_min: float
    mean_phi_max: float
    delta_phi: float
    num_users: int

    def __post_init__(self):
        if not self.d_min < self.d_max:
            raise ValueError("need d_min < d_max")
        if self.d_min < 0.0:
            raise ValueError("distances must be nonnegative")
        if self.mean_phi_min > self.mean_phi_max:
            raise ValueError("need mean_phi_min <= mean_phi_max")
        if self.delta_phi < 0.0:
            raise ValueError("delta_phi must be nonnegative")
        if self.mean_phi_min - self.delta_phi < -1e-12 or self.mean_phi_max + self.delta_phi > math.pi + 1e-12:
            raise ValueError("instantaneous angle support must stay within [0, pi]")
        if self.num_users < 2:
            raise ValueError("need at least two users")

    @classmethod
    def from_degrees(cls, d_min, d_max, mean_phi_min_deg, mean_phi_max_deg, delta_phi_deg, num_users):
        return cls(
            d_min,
            d_max,
            math.radians(mean_phi_min_deg),
            math.radians(mean_phi_max_deg),
            math.radians(delta_phi_deg),
            num_users,
        )

    @property
    def d_span(self):
        return self.d_max - self.d_min

    @property
    def mean_phi_span(self):
        return self.mean_phi_max - self.mean_phi_min


def sample_user_arrays(config, rng, size):
    """Draw ``size`` i.i.d. users (an int or a shape); returns (d, mean_phi, phi) arrays.

    Draw order (d, then mean angle, then deviation) is fixed so that runs with
    equal streams stay bitwise reproducible.
    """
    d = rng.uniform(config.d_min, config.d_max, size)
    mean_phi = rng.uniform(config.mean_phi_min, config.mean_phi_max, size)
    phi = mean_phi + rng.uniform(-config.delta_phi, config.delta_phi, size)
    return d, mean_phi, phi


def conditional_phi_cdf(mean_phi, delta_phi, x):
    """CDF of the instantaneous angle given its mean: U[mean - delta, mean + delta].

    delta_phi = 0 degenerates to the unit step at mean_phi.
    """
    x = np.asarray(x, float)
    if delta_phi == 0.0:
        return (x >= mean_phi).astype(float)
    # np.minimum/np.maximum give np.clip's values without its dispatch overhead
    return np.minimum(np.maximum((x - (mean_phi - delta_phi)) / (2.0 * delta_phi), 0.0), 1.0)


def deviation_cdf_integral(t, half_width):
    """Antiderivative G with G'(t) = CDF of U[-half_width, half_width] at t, G(-hw) = 0.

    Integrating the conditional CDF at t over mean angles in [a, b] gives
    G(t - a) - G(t - b); both the marginal law below and the mean-report group
    bands of the closed form are built on it.
    """
    if half_width == 0.0:
        return np.where(t > 0.0, t, 0.0)
    # np.square, not ** 2: the scalar power of a float misses the squaring of an array in the last bit at some points
    return np.where(t <= -half_width, 0.0, np.where(t >= half_width, t, np.square(t + half_width) / (4.0 * half_width)))


def marginal_phi_cdf(config, x):
    """Marginal CDF of the instantaneous vertical angle at x, elementwise over an array x (trapezoidal closed form).

    The angle is mean + deviation with mean ~ U[mean_phi_min, mean_phi_max] and
    deviation ~ U[-delta_phi, delta_phi]; integrating the conditional CDF over
    the mean gives [G(x - lo) - G(x - hi)] / (hi - lo) with G above.  Degenerate
    layers (delta_phi = 0 and/or lo = hi) reduce to uniform / step CDFs.
    """
    lo, hi, dphi = config.mean_phi_min, config.mean_phi_max, config.delta_phi
    if hi == lo and dphi == 0.0:
        return np.asarray(x >= lo, float)
    if hi == lo:
        value = (x - lo + dphi) / (2.0 * dphi)
    else:
        G = deviation_cdf_integral
        value = (G(x - lo, dphi) - G(x - hi, dphi)) / (hi - lo)
    return np.minimum(np.maximum(value, 0.0), 1.0)


def noisy_estimate_arrays(d, mean_phi, phi, sigma_d, sigma_phi, rng):
    """Vectorized noisy estimates (d_hat, mean_phi_hat, phi_hat) for arrays of users.

    Every entry of the distance, instantaneous-angle and mean-angle arrays (of
    any one shape, for example (trials, K)) receives its own zero-mean real
    Gaussian error; negative noisy distances are clamped at zero.  The
    true channel is never evaluated on the estimates.  Draw order: distance
    errors, instantaneous-angle errors, mean-angle errors.
    """
    if sigma_d < 0.0 or sigma_phi < 0.0:
        raise ValueError("noise standard deviations must be nonnegative")
    shape = np.shape(d)
    d_hat = np.maximum(0.0, d + sigma_d * rng.standard_normal(shape))
    phi_hat = phi + sigma_phi * rng.standard_normal(shape)
    mean_phi_hat = mean_phi + sigma_phi * rng.standard_normal(shape)
    return d_hat, mean_phi_hat, phi_hat
