"""SINR thresholds, gain thresholds and sum-rate arithmetic for a two-user NOMA pair plus OMA.

Power-domain superposition with successive interference cancellation: the
stronger user first decodes the weaker user's message (cross SINR), removes it,
then decodes its own interference-free.  Rates use the optical-intensity
capacity form R = 1/2 * log2(1 + (e/2pi) * SINR), so a target rate Rt maps to
the SINR threshold eps = (2^(2*Rt) - 1) * (2*pi/e).

Both outage conditions reduce to squared-gain thresholds:

    weak user   h^2 > eta_weak  = (eps_w/gamma) / (share_w - share_s*eps_w)
    strong user h^2 > eta_strong = max(eta_weak, (eps_s/gamma)/share_s)

with share_s = 1 - share_w, feasible only while share_w - share_s*eps_w > 0;
NomaConfig refuses any other pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RATE_SCALE = math.e / (2.0 * math.pi)  # SINR prefactor of the intensity-channel rate
# the target rates lie below this: from it on, epsilon_threshold(2 * rate) of the OMA rate overflows a float
RATE_END = math.log2(np.finfo(float).max * RATE_SCALE) / 4.0


class InfeasibleAllocationError(ValueError):
    """The weak user's target rate is unreachable under the given power split."""


def epsilon_threshold(target_rate):
    """SINR threshold (2^(2*rate) - 1) * 2*pi/e for a spectral-efficiency target."""
    return (2.0 ** (2.0 * target_rate) - 1.0) / RATE_SCALE


@dataclass(frozen=True)
class NomaConfig:
    """One NOMA pair: the weak user's power share (beta_w^2) and the two QoS target rates [bit/s/Hz].

    The strong user gets the rest of the power, share_strong = 1 - share_weak.
    A pair whose split cannot serve the weak user's rate at any gain is refused
    with InfeasibleAllocationError.
    """

    share_weak: float
    rate_weak: float
    rate_strong: float

    def __post_init__(self):
        if self._margin <= 0.0:
            raise InfeasibleAllocationError(
                "weak user's rate is unreachable at any gain: "
                f"share_weak - share_strong*eps_weak = {self._margin:.6g} <= 0"
            )

    @property
    def share_strong(self):
        return 1.0 - self.share_weak

    @property
    def eps_weak(self):
        return epsilon_threshold(self.rate_weak)

    @property
    def eps_strong(self):
        return epsilon_threshold(self.rate_strong)

    @property
    def _margin(self):
        return self.share_weak - self.share_strong * self.eps_weak


def eta_thresholds(noma, gamma):
    """Squared-gain thresholds (eta_weak, eta_strong) of the pair ``noma`` equivalent to the SINR outage conditions.

    Elementwise over the transmit SNR ``gamma``: an array gives two arrays of its shape.
    """
    gamma = np.asarray(gamma, float)
    eta_weak = (noma.eps_weak / gamma) / noma._margin
    return eta_weak, np.maximum(eta_weak, (noma.eps_strong / gamma) / noma.share_strong)


def noma_sum_rate(outage_probs, noma):
    """Sum over the pair of (1 - outage) * target rate."""
    p_weak, p_strong = outage_probs
    _check_probability(p_weak)
    _check_probability(p_strong)
    return (1.0 - p_weak) * noma.rate_weak + (1.0 - p_strong) * noma.rate_strong


@dataclass(frozen=True)
class CurvePoint:
    """One (transmit SNR, sum rate) sample with its uncertainty and outage detail.

    ``ci_halfwidth`` is the sum rate's uncertainty: from the Monte Carlo
    engine, ``stats.Z_CI`` standard errors of the per-trial sum rate over the
    kept trials; from the closed form, the propagated quadrature error
    R_w*e_w + R_s*e_s, with no z.
    """

    gamma_db: float
    sum_rate: float
    ci_halfwidth: float
    outage_weak: float
    outage_strong: float
    conditioning_rate: float


def oma_gain_thresholds(noma, gamma):
    """Squared-gain outage thresholds (eta_weak, eta_strong) for the OMA baseline, elementwise over ``gamma``.

    The two users of the pair each hold the channel alone for half of the
    frame, so meeting the target overall requires rate 2*Rt while active:
    h^2 > epsilon_threshold(2*Rt)/gamma.
    """
    gamma = np.asarray(gamma, float)
    return epsilon_threshold(2.0 * noma.rate_weak) / gamma, epsilon_threshold(2.0 * noma.rate_strong) / gamma


def _check_probability(p):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
