"""Line-of-sight optical channel between a ceiling LED and tilted mobile receivers.

The LED points straight down from height ``ell`` above the user plane.  A
receiver at horizontal distance ``d`` whose detector normal makes the vertical
angle ``phi`` sees the ray under the incidence angle

    theta = pi - atan(ell / d) - phi        (signed, atan(ell/0) := pi/2)

With a Lambertian LED of order m facing down, the irradiance cosine is
ell/sqrt(ell^2 + d^2), so the DC gain of a detector of area A_r factors into
a distance part and an orientation part:

    h = g(d) * cos(theta),   g(d) = h_c^2 / (ell^2 + d^2)^((m+2)/2),
    h_c^2 = (m+1) * A_r * ell^m / (2*pi),

gated to zero whenever |theta| exceeds the detector half field of view.  Both
engines use this one law: the simulator evaluates it in ``channel_gain``, and
the closed form inverts it through ``LedGeometry.channel_constant`` and
``LedGeometry.gain_factor``.

All angles are radians, distances meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


def lambertian_order(hpbw):
    """Beam-shape exponent -1/log2(cos(hpbw)) of a half-power beamwidth hpbw [rad]."""
    return -1.0 / math.log2(math.cos(hpbw))


def incidence_angle(d, phi, ell):
    """Signed incidence angle at the detector; arctan2 handles d = 0 as pi/2."""
    return math.pi - np.arctan2(ell, d) - phi


@dataclass(frozen=True)
class LedGeometry:
    """Fixed transmitter/photodetector parameters.

    ell            LED height above the user plane [m]
    hpbw           half-power beamwidth [rad]
    detector_area  photodetector area [m^2]
    half_fov       half field of view of the detector [rad]
    """

    ell: float
    hpbw: float
    detector_area: float
    half_fov: float

    @classmethod
    def from_degrees(cls, ell, hpbw_deg, detector_area, half_fov_deg):
        return cls(ell, math.radians(hpbw_deg), detector_area, math.radians(half_fov_deg))

    @cached_property
    def m(self):
        """Lambertian order of the LED beam."""
        return lambertian_order(self.hpbw)

    @cached_property
    def channel_constant(self):
        """h_c^2 = (m+1) * A_r * ell^m / (2*pi), the distance-free part of g(d)."""
        return (self.m + 1.0) * self.detector_area * self.ell**self.m / TWO_PI

    def gain_factor(self, d):
        """FOV-independent factor g(d) so that h = g(d)*cos(theta) inside the FOV."""
        return self.channel_constant / (self.ell**2 + np.asarray(d, float) ** 2) ** ((self.m + 2.0) / 2.0)


def channel_gain(geom, d, phi):
    """Instantaneous DC channel gain; exactly 0 outside the FOV.  Array friendly."""
    theta = incidence_angle(d, phi, geom.ell)
    return geom.gain_factor(d) * np.cos(theta) * (np.abs(theta) <= geom.half_fov)


def mean_channel_gain(geom, d, mean_phi):
    """Gain at the mean vertical angle: the report that mean-angle feedback ranks by."""
    return channel_gain(geom, d, mean_phi)
