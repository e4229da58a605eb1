import math

import numpy as np
import pytest
from helpers import PAPER

from vlcnoma.channel import channel_gain, incidence_angle, lambertian_order, mean_channel_gain
from vlcnoma.config import ConfigError, build_experiment, merge


def peak_gain(geom):
    """Gain ceiling (m+1)*A_r/(2*pi*ell^2), attained under the LED at theta = 0."""
    return (geom.m + 1.0) * geom.detector_area / (2.0 * math.pi * geom.ell**2)


class TestLambertianOrder:
    def test_60_degrees(self):
        assert lambertian_order(math.radians(60.0)) == pytest.approx(1.0, abs=1e-12)

    def test_45_degrees(self):
        # cos 45 = 2^(-1/2) forces the exponent to 2 exactly
        assert lambertian_order(math.radians(45.0)) == pytest.approx(2.0, abs=1e-12)

    def test_30_degrees(self):
        assert lambertian_order(math.radians(30.0)) == pytest.approx(4.8188, abs=1e-4)

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2.0, math.pi, -0.1])
    def test_domain_errors(self, bad):
        # a beamwidth outside lambertian_order's domain (0, pi/2) never reaches it: config refuses the key
        with pytest.raises(ConfigError, match="geometry.hpbw_deg"):
            build_experiment(merge({"geometry.hpbw_deg": repr(math.degrees(bad))}))


class TestIncidenceAngle:
    def test_under_led_pointing_up(self):
        assert incidence_angle(0.0, math.pi / 2.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert incidence_angle(2.0, math.pi / 2.0, 2.0) == pytest.approx(math.pi / 4.0, abs=1e-12)

    def test_far_field_limit(self):
        assert abs(incidence_angle(1e9, math.pi, 2.0)) < 1e-8

    def test_sign_can_be_negative(self):
        assert incidence_angle(0.0, math.pi * 0.75, 2.0) < 0.0


class TestChannelGain:
    # the paper geometry: LED 2 m above the user plane, 60 deg half-power beamwidth, 1 cm^2 detector, 50 deg half FOV
    def test_peak_below_led(self):
        # (m+1) A_r / (2 pi ell^2) with m = 1
        assert channel_gain(PAPER.geom, 0.0, math.pi / 2.0) == pytest.approx(7.9577e-6, rel=1e-4)
        assert channel_gain(PAPER.geom, 0.0, math.pi / 2.0) == pytest.approx(peak_gain(PAPER.geom), rel=1e-12)

    def test_fov_gate_zero(self):
        # theta = 90 deg - 0 = ... pick phi so |theta| > 50 deg
        assert channel_gain(PAPER.geom, 0.0, math.radians(30.0)) == 0.0

    def test_hand_value_at_2m(self):
        assert channel_gain(PAPER.geom, 2.0, math.pi / 2.0) == pytest.approx(1.9894e-6, rel=1e-4)

    def test_gate_boundary_inclusive(self):
        # |theta| exactly at the half FOV still passes the gate
        phi = math.pi / 2.0 - PAPER.geom.half_fov  # theta = +half_fov at d = 0
        assert channel_gain(PAPER.geom, 0.0, phi) > 0.0

    def test_factorization_inside_fov(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.0, 10.0, 500)
        phi = rng.uniform(0.0, math.pi, 500)
        theta = incidence_angle(d, phi, PAPER.geom.ell)
        h = channel_gain(PAPER.geom, d, phi)
        inside = np.abs(theta) <= PAPER.geom.half_fov
        # the Lambertian form, with irradiance cosine ell / sqrt(ell^2 + d^2)
        ell, m, area = PAPER.geom.ell, PAPER.geom.m, PAPER.geom.detector_area
        expected = ((m + 1.0) * area / (2.0 * math.pi * (ell**2 + d**2))
                    * (ell / np.sqrt(ell**2 + d**2)) ** m * np.cos(theta))
        assert np.allclose(h[inside], expected[inside], rtol=1e-12, atol=0.0)
        assert np.all(h[~inside] == 0.0)

    def test_gain_bounded_by_peak(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(0.0, 10.0, 2000)
        phi = rng.uniform(0.0, math.pi, 2000)
        h = channel_gain(PAPER.geom, d, phi)
        assert np.all(h >= 0.0)
        assert np.all(h <= peak_gain(PAPER.geom) * (1.0 + 1e-12))

    def test_gain_factor_strictly_decreasing(self):
        d = np.linspace(0.0, 10.0, 200)
        g = PAPER.geom.gain_factor(d)
        assert np.all(np.diff(g) < 0.0)
        assert np.all(g > 0.0)


class TestMeanChannelGain:
    def test_matches_instantaneous_at_same_angle(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 10.0, 1000)
        phi = rng.uniform(0.0, math.pi, 1000)
        assert np.array_equal(mean_channel_gain(PAPER.geom, d, phi), channel_gain(PAPER.geom, d, phi))

    def test_below_led(self):
        assert mean_channel_gain(PAPER.geom, 0.0, math.pi / 2.0) == pytest.approx(7.9577e-6, rel=1e-4)

    def test_fov_gate_on_mean_angle(self):
        # mean incidence 60 deg > 50 deg half FOV
        assert mean_channel_gain(PAPER.geom, 0.0, math.radians(30.0)) == 0.0

    def test_at_2m(self):
        assert mean_channel_gain(PAPER.geom, 2.0, math.pi / 2.0) == pytest.approx(1.9894e-6, rel=1e-4)


class TestGeometryValidation:
    # LedGeometry takes checked values: config refuses each geometry key by name
    def test_rejects_bad_height(self):
        with pytest.raises(ConfigError, match="geometry.ell_m"):
            build_experiment(merge({"geometry.ell_m": "0"}))

    def test_rejects_bad_fov(self):
        with pytest.raises(ConfigError, match="geometry.half_fov_deg"):
            build_experiment(merge({"geometry.half_fov_deg": "120"}))

    def test_rejects_bad_area(self):
        with pytest.raises(ConfigError, match="geometry.detector_area_cm2"):
            build_experiment(merge({"geometry.detector_area_cm2": "-1"}))

    def test_channel_constant_matches_definition(self):
        expected = (PAPER.geom.m + 1.0) * PAPER.geom.detector_area * PAPER.geom.ell**PAPER.geom.m / (2.0 * math.pi)
        assert PAPER.geom.channel_constant == pytest.approx(expected, rel=1e-15)
