"""SINR thresholds, gain thresholds and sum-rate arithmetic for a two-user NOMA pair plus OMA.

Power-domain superposition with successive interference cancellation: the
stronger user first decodes the weaker user's message (cross SINR), removes it,
then decodes its own interference-free.  Rates use the optical-intensity
capacity form R = 1/2 * log2(1 + (e/2pi) * SINR), so a target rate Rt maps to
the SINR threshold eps = (2^(2*Rt) - 1) * (2*pi/e).

Both outage conditions reduce to squared-gain thresholds:

    weak user   h^2 > eta_weak  = (eps_w/gamma) / (share_w - share_s*eps_w)
    strong user h^2 > eta_strong = max(eta_weak, (eps_s/gamma)/share_s)

feasible only while share_w - share_s*eps_w > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RATE_SCALE = math.e / (2.0 * math.pi)  # SINR prefactor of the intensity-channel rate


class InfeasibleAllocationError(ValueError):
    """The weak user's target rate is unreachable under the given power split."""


@dataclass(frozen=True)
class PowerAllocation:
    """Power shares (beta^2 values) of the weak and strong NOMA users."""

    share_weak: float
    share_strong: float

    def __post_init__(self):
        if abs(self.share_weak + self.share_strong - 1.0) > 1e-12:
            raise ValueError("power shares must sum to 1")
        if not (0.0 < self.share_strong < self.share_weak < 1.0):
            raise ValueError("need 0 < share_strong < share_weak < 1")


def epsilon_threshold(target_rate):
    """SINR threshold (2^(2*rate) - 1) * 2*pi/e for a spectral-efficiency target."""
    if target_rate < 0.0:
        raise ValueError("target rate must be nonnegative")
    return (2.0 ** (2.0 * target_rate) - 1.0) / RATE_SCALE


@dataclass(frozen=True)
class TargetRates:
    """Per-user QoS target rates [bit/s/Hz]; SINR thresholds derive from them."""

    rate_weak: float
    rate_strong: float

    def __post_init__(self):
        if self.rate_weak < 0.0 or self.rate_strong < 0.0:
            raise ValueError("target rates must be nonnegative")

    @property
    def eps_weak(self):
        return epsilon_threshold(self.rate_weak)

    @property
    def eps_strong(self):
        return epsilon_threshold(self.rate_strong)


@dataclass(frozen=True)
class NomaConfig:
    """Power split plus target rates for one NOMA pair."""

    alloc: PowerAllocation
    targets: TargetRates


def eta_thresholds(targets, alloc, gamma):
    """Squared-gain thresholds (eta_weak, eta_strong) equivalent to the SINR outage conditions.

    Elementwise over the transmit SNR ``gamma``: an array gives two arrays of its shape.
    """
    eps_w = targets.eps_weak
    margin = alloc.share_weak - alloc.share_strong * eps_w
    if margin <= 0.0:
        raise InfeasibleAllocationError(
            "weak user's rate is unreachable at any gain: "
            f"share_weak - share_strong*eps_weak = {margin:.6g} <= 0"
        )
    gamma = np.asarray(gamma, float)
    eta_weak = (eps_w / gamma) / margin
    return eta_weak, np.maximum(eta_weak, (targets.eps_strong / gamma) / alloc.share_strong)


def noma_pair_outcome(h_weak_sq, h_strong_sq, eta_weak, eta_strong):
    """(weak_in_outage, strong_in_outage); success requires strictly exceeding eta."""
    return np.asarray(h_weak_sq, float) <= eta_weak, np.asarray(h_strong_sq, float) <= eta_strong


def noma_sum_rate(outage_probs, targets):
    """Sum over the pair of (1 - outage) * target rate."""
    p_weak, p_strong = outage_probs
    _check_probability(p_weak)
    _check_probability(p_strong)
    return (1.0 - p_weak) * targets.rate_weak + (1.0 - p_strong) * targets.rate_strong


@dataclass(frozen=True)
class CurvePoint:
    """One (transmit SNR, sum rate) sample with its uncertainty and outage detail."""

    gamma_db: float
    sum_rate: float
    ci_halfwidth: float
    outage_weak: float
    outage_strong: float
    conditioning_rate: float


def oma_gain_thresholds(targets, gamma):
    """Squared-gain outage thresholds (eta_weak, eta_strong) for the OMA baseline, elementwise over ``gamma``.

    The two users of the pair each hold the channel alone for half of the
    frame, so meeting the target overall requires rate 2*Rt while active:
    h^2 > epsilon_threshold(2*Rt)/gamma.
    """
    gamma = np.asarray(gamma, float)
    if not np.all(gamma > 0.0):
        raise ValueError("transmit SNR must be positive")
    return epsilon_threshold(2.0 * targets.rate_weak) / gamma, epsilon_threshold(2.0 * targets.rate_strong) / gamma


def _check_probability(p):
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p!r}")
