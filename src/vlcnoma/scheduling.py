"""Feedback encodings and user selection for the NOMA transmitter.

Individual scheduling ranks all users by a per-user quality report and serves
the users at two configured ranks; the ranking report is one of

  * full CSI        -- instantaneous gain, zero-gain users excluded,
  * mean angle      -- gain recomputed at the mean vertical angle,
  * distance only   -- farthest user ranks weakest, nobody excluded.

Group scheduling quantizes each user's report to bits: a two-bit report
thresholds distance and |incidence|, a one-bit report thresholds distance only.
Users reporting all-ones form the strong candidate group, all-zeros the weak
group, and one member of each group is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .channel import incidence_angle


class FeedbackKind(Enum):
    FULL_CSI = "full-csi"
    MEAN_ANGLE = "mean-angle"
    DISTANCE_ONLY = "distance"
    TWO_BIT_INSTANT = "two-bit-instant"
    TWO_BIT_MEAN = "two-bit-mean"
    ONE_BIT_DISTANCE = "one-bit"


TWO_BIT_KINDS = (FeedbackKind.TWO_BIT_INSTANT, FeedbackKind.TWO_BIT_MEAN)


@dataclass(frozen=True)
class FeedbackScheme:
    """Feedback kind plus the thresholds the quantized kinds require."""

    kind: FeedbackKind
    d_threshold: Optional[float] = None
    theta_threshold: Optional[float] = None

    def __post_init__(self):
        if self.kind in TWO_BIT_KINDS:
            if self.d_threshold is None or self.theta_threshold is None:
                raise ValueError(f"{self.kind.value} needs d_threshold and theta_threshold")
        if self.kind is FeedbackKind.ONE_BIT_DISTANCE and self.d_threshold is None:
            raise ValueError("one-bit feedback needs d_threshold")


def order_by_gain_arrays(gains):
    """Ascending order of a raw (possibly estimated) 1-D gain array, zeros excluded.

    The stable sort breaks ties by ascending user index.
    """
    gains = np.asarray(gains, float)
    idx = (gains > 0.0).nonzero()[0]
    return idx[gains[idx].argsort(kind="stable")]


def order_by_distance_array(d):
    """All users, farthest (presumed weakest) first; no FOV information used."""
    return (-np.asarray(d, float)).argsort(kind="stable")


def select_individual(ordering, rank_weak, rank_strong):
    """(weak, strong) user indices at the two ranks, or (None, None) if too few candidates.

    The ranks satisfy 1 <= rank_weak < rank_strong (config.build_experiment checks),
    so two filled slots name different users.
    """
    if len(ordering) < rank_strong:
        return None, None
    return int(ordering[rank_weak - 1]), int(ordering[rank_strong - 1])


def two_bit_feedback(d, angle, scheme, geom):
    """Two bits (distance below threshold, |incidence| below threshold).

    ``scheme`` is a two-bit scheme (``run_trial`` calls this only for the
    two-bit kinds), and ``angle`` is the instantaneous vertical angle for the
    instantaneous kind and the mean vertical angle for the mean kind; the
    boundary counts as inside (Pi[x] = 1 iff |x| <= 1).  Array friendly.
    """
    d = np.asarray(d, float)
    theta = incidence_angle(d, angle, geom.ell)
    return d <= scheme.d_threshold, np.abs(theta) <= scheme.theta_threshold


def one_bit_feedback(d, d_threshold):
    """Single distance bit: 1 iff d <= d_threshold."""
    return np.asarray(d, float) <= d_threshold


def group_users(bit_d, bit_theta):
    """(weak, strong) ascending member indices of 1-D bit arrays: the all-zeros and the all-ones reporters.

    Mixed reports (0,1)/(1,0) join neither group and are never scheduled.
    """
    bit_d = np.asarray(bit_d, bool)
    bit_theta = np.asarray(bit_theta, bool)
    return (~(bit_d | bit_theta)).nonzero()[0], (bit_d & bit_theta).nonzero()[0]


def group_users_one_bit(bit_d):
    """One-bit (weak, strong) ascending member indices: distance bit 0 -> weak, 1 -> strong."""
    bit_d = np.asarray(bit_d, bool)
    return (~bit_d).nonzero()[0], bit_d.nonzero()[0]


def _pick(group, u):
    """Member of ``group`` at uniform ``u`` in [0, 1); ``None`` for an empty group."""
    n = len(group)
    return int(group[min(int(u * n), n - 1)]) if n else None


def select_group_pair(groups, u):
    """(weak, strong): one uniform member per group of the (weak, strong) pair ``groups``.

    An empty group leaves its slot None.  ``u`` holds two uniforms in [0, 1),
    the weak pick's then the strong pick's; a group of n members serves member
    min(int(u * n), n - 1).  The groups are disjoint, so two filled slots name
    different users.
    """
    weak, strong = groups
    return _pick(weak, u[0]), _pick(strong, u[1])
