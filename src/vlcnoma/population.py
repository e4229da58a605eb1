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


def unit_clip(value):
    """``value`` clipped to [0, 1]: in place when it is an array, which the caller must own.

    An angle law clips the fresh result of its own arithmetic, so writing into
    it costs no temporary; a large out-of-place np.minimum(np.maximum(...))
    pays for two.  A 0-d value (a float or NumPy scalar, as in the band
    masses) takes that cheap out-of-place pair instead.  np.maximum then
    np.minimum either way, so both paths give the same bits, -0.0 and NaN
    included (np.clip keeps -0.0 where np.maximum returns 0.0).
    """
    if np.ndim(value) == 0:
        return np.minimum(np.maximum(value, 0.0), 1.0)
    np.maximum(value, 0.0, out=value)
    return np.minimum(value, 1.0, out=value)


def conditional_phi_cdf(mean_phi, delta_phi, x):
    """CDF of the instantaneous angle given its mean: U[mean - delta, mean + delta].

    delta_phi = 0 degenerates to the unit step at mean_phi.
    """
    x = np.asarray(x, float)
    if delta_phi == 0.0:
        return (x >= mean_phi).astype(float)
    value = x - (mean_phi - delta_phi)
    value /= 2.0 * delta_phi
    return unit_clip(value)


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
    the mean gives [G(x - lo) - G(x - hi)] / (hi - lo) with G above.  A
    degenerate mean range (lo = hi) is the conditional law at that mean.
    """
    lo, hi, dphi = config.mean_phi_min, config.mean_phi_max, config.delta_phi
    if hi == lo:
        return conditional_phi_cdf(lo, dphi, x)
    G = deviation_cdf_integral
    value = G(x - lo, dphi) - G(x - hi, dphi)
    value /= hi - lo
    return unit_clip(value)


def noisy_estimate_arrays(d, mean_phi, phi, sigma_d, sigma_phi, rng):
    """Vectorized noisy estimates (d_hat, mean_phi_hat, phi_hat) for arrays of users.

    Every entry of the distance, instantaneous-angle and mean-angle arrays (of
    any one shape, for example (trials, K)) receives its own zero-mean real
    Gaussian error; negative noisy distances are clamped at zero.  The
    true channel is never evaluated on the estimates.  Draw order: distance
    errors, instantaneous-angle errors, mean-angle errors.
    """
    shape = np.shape(d)
    d_hat = np.maximum(0.0, d + sigma_d * rng.standard_normal(shape))
    phi_hat = phi + sigma_phi * rng.standard_normal(shape)
    mean_phi_hat = mean_phi + sigma_phi * rng.standard_normal(shape)
    return d_hat, mean_phi_hat, phi_hat
