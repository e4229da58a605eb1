import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import PAPER, paper_model, snapshot
from scipy import integrate

from vlcnoma import stats
from vlcnoma.channel import channel_gain
from vlcnoma.config import ConfigError, build_experiment, merge
from vlcnoma.population import (
    MobilityConfig,
    conditional_phi_cdf,
    marginal_phi_cdf,
    noisy_estimate_arrays,
    sample_user_arrays,
)
from vlcnoma.scheduling import order_by_gain_arrays
from vlcnoma.simulate import _CHUNK, _collect_chunk, trial_rng


def oracle_marginal_cdf(x, mobility=PAPER.mobility):
    """Independent oracle: the conditional angle CDF integrated over the mean layer."""
    lo, hi = mobility.mean_phi_min, mobility.mean_phi_max
    kinks = [m for m in (x - mobility.delta_phi, x + mobility.delta_phi) if lo < m < hi]
    val, _ = integrate.quad(
        lambda m: conditional_phi_cdf(m, mobility.delta_phi, x), lo, hi, epsabs=1e-12, limit=200, points=kinks or None
    )
    return val / mobility.mean_phi_span


class TestSampling:
    def test_zero_deviation_pins_phi_to_mean(self):
        snap = snapshot(0, paper_model(0.0).mobility)
        assert np.array_equal(snap.phi, snap.mean_phi)

    def test_full_span_support(self):
        rng = np.random.default_rng(1)
        _, _, phi = sample_user_arrays(PAPER.mobility, rng, 1_000_000)
        deg = np.degrees(phi)
        assert deg.min() >= 0.0 and deg.max() <= 180.0
        assert deg.min() < 2.0 and deg.max() > 178.0

    def test_uniform_distance_mean(self):
        rng = np.random.default_rng(2)
        d, _, _ = sample_user_arrays(PAPER.mobility, rng, 1_000_000)
        assert d.mean() == pytest.approx(5.0, abs=0.01)

    def test_deviation_and_range_invariants(self):
        for seed in range(5):
            snap = snapshot(seed)
            assert np.all(np.abs(snap.phi - snap.mean_phi) <= PAPER.mobility.delta_phi)
            assert np.all((snap.d >= PAPER.mobility.d_min) & (snap.d <= PAPER.mobility.d_max))
            assert np.all((snap.phi >= 0.0) & (snap.phi <= math.pi))

    def test_determinism(self):
        a, b = snapshot(77), snapshot(77)
        for name, x in vars(a).items():  # the user arrays and their gains
            assert np.array_equal(x, getattr(b, name)), name

    def test_gains_consistent_with_channel(self):
        # trial t records the channel's squared gains of the users in row t of its chunk's draws
        rows = _collect_chunk(replace(PAPER, trials=10, root_seed=5), 0, 10)[:, 0]  # the one scheme, full CSI
        d_chunk, _, phi_chunk = sample_user_arrays(PAPER.mobility, trial_rng(5, 0), (_CHUNK, PAPER.mobility.num_users))
        scheduled_trials = 0
        for t in range(10):
            gains = channel_gain(PAPER.geom, d_chunk[t], phi_chunk[t])
            order = order_by_gain_arrays(gains)
            scheduled, h2_weak, h2_strong = rows[t]
            assert scheduled == (len(order) >= 10)
            if scheduled:
                scheduled_trials += 1
                assert (h2_weak, h2_strong) == (gains[order[0]] ** 2, gains[order[9]] ** 2)
        assert scheduled_trials > 0


class TestConditionalCdf:
    def test_half_at_mean(self):
        assert conditional_phi_cdf(1.0, 0.3, 1.0) == pytest.approx(0.5)

    def test_zero_below_support(self):
        assert conditional_phi_cdf(1.0, 0.3, 0.69) == 0.0

    def test_linear_value(self):
        got = conditional_phi_cdf(math.radians(90.0), math.radians(25.0), math.radians(102.5))
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_degenerate_step(self):
        assert conditional_phi_cdf(1.0, 0.0, 0.999) == 0.0
        assert conditional_phi_cdf(1.0, 0.0, 1.0) == 1.0


class TestMarginalCdf:
    def test_symmetric_midpoint(self):
        assert marginal_phi_cdf(PAPER.mobility, math.pi / 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_support_edges(self):
        assert marginal_phi_cdf(PAPER.mobility, 0.0) == 0.0
        assert marginal_phi_cdf(PAPER.mobility, math.pi) == 1.0

    def test_against_convolution_quadrature(self):
        for deg in (5.0, 45.0, 60.0, 90.0, 120.0, 170.0):
            x = math.radians(deg)
            assert marginal_phi_cdf(PAPER.mobility, x) == pytest.approx(oracle_marginal_cdf(x), abs=1e-9)

    def test_reduces_to_uniform_when_degenerate(self):
        mob = paper_model(0.0).mobility
        for x in np.linspace(0.0, math.pi, 50):
            assert marginal_phi_cdf(mob, x) == pytest.approx(x / math.pi, abs=1e-12)

    @pytest.mark.parametrize("delta_phi_deg", (25.0, 0.0))
    def test_a_degenerate_mean_range_is_the_law_at_that_mean(self, delta_phi_deg):
        # mean range [m, m]: uniform on [m - delta, m + delta], or the unit step at m when delta = 0
        mob = MobilityConfig.from_degrees(0.0, 10.0, 90.0, 90.0, delta_phi_deg, 20)
        m, delta = mob.mean_phi_min, mob.delta_phi
        x = np.concatenate(([m - delta, m, m + delta, 0.0, math.pi], np.linspace(-0.2, math.pi + 0.2, 401)))
        if delta:
            expected = np.clip((x - (m - delta)) / (2.0 * delta), 0.0, 1.0)
        else:
            expected = (x >= m).astype(float)
        assert marginal_phi_cdf(mob, x) == pytest.approx(expected, abs=1e-15)

    def test_dkw_bound(self):
        n = 1_000_000
        _, _, phi = sample_user_arrays(PAPER.mobility, np.random.default_rng(3), n)
        xs = np.quantile(phi, np.linspace(0.001, 0.999, 400))
        emp = np.searchsorted(np.sort(phi), xs, side="right") / n
        sup = np.max(np.abs(emp - np.array([marginal_phi_cdf(PAPER.mobility, x) for x in xs])))
        assert sup <= stats.dkw_bound(n, 1e-3)

    @given(x=st.floats(-1.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_convolution_anywhere(self, x):
        assert marginal_phi_cdf(PAPER.mobility, x) == pytest.approx(oracle_marginal_cdf(x), abs=1e-9)

    def test_monotone_nondecreasing(self):
        vals = [marginal_phi_cdf(PAPER.mobility, x) for x in np.linspace(-0.2, math.pi + 0.2, 500)]
        assert np.all(np.diff(vals) >= -1e-15)


class TestNoisyEstimates:
    def test_zero_sigma_is_identity(self):
        snap = snapshot(0)
        user = snap.d, snap.mean_phi, snap.phi
        est = noisy_estimate_arrays(*user, 0.0, 0.0, np.random.default_rng(0))
        for got, true in zip(est, user):
            assert np.array_equal(got, true)

    def test_gaussian_calibration(self):
        n = 100_000
        d = np.full(n, 5.0)
        d_hat, _, _ = noisy_estimate_arrays(d, np.full(n, 1.5), np.full(n, 1.5), 0.05, 0.0, np.random.default_rng(4))
        devs = d_hat - d
        assert devs.std() == pytest.approx(0.05, abs=0.001)
        assert devs.mean() == pytest.approx(0.0, abs=0.001)

    def test_distance_clamped_at_zero(self):
        n = 2000
        d_hat, _, _ = noisy_estimate_arrays(np.full(n, 0.001), np.full(n, 1.5), np.full(n, 1.5), 0.05, 0.0,
                                            np.random.default_rng(5))
        assert d_hat.min() == 0.0  # clamping visibly active for a near-zero distance

    def test_two_dimensional_input_gets_noise_per_entry(self):
        shape = (3000, 20)
        d_hat, mean_phi_hat, phi_hat = noisy_estimate_arrays(np.full(shape, 5.0), np.full(shape, 1.5),
                                                             np.full(shape, 1.5), 0.05, 0.1, np.random.default_rng(6))
        for est, true, sigma in ((d_hat, 5.0, 0.05), (phi_hat, 1.5, 0.1), (mean_phi_hat, 1.5, 0.1)):
            assert est.shape == shape
            devs = (est - true) / sigma
            assert devs.std() == pytest.approx(1.0, abs=0.02)
            # entries of one row, and the rows of one column, are uncorrelated
            assert abs(np.corrcoef(devs[:, 0], devs[:, 1])[0, 1]) < 0.08
            assert abs(np.corrcoef(devs[:-1, 0], devs[1:, 0])[0, 1]) < 0.08
        # the draws fill the array in row-major order, as a flat call of the same size would
        flat = noisy_estimate_arrays(np.full(60_000, 5.0), np.full(60_000, 1.5), np.full(60_000, 1.5), 0.05, 0.1,
                                     np.random.default_rng(6))
        for got, want in zip((d_hat, mean_phi_hat, phi_hat), flat):
            assert np.array_equal(got.ravel(), want)

    def test_one_dimensional_draws_unchanged(self):
        # the 1-D call draws exactly what standard_normal(len(d)) three times drew
        snap = snapshot(8)
        d, mean_phi, phi = snap.d, snap.mean_phi, snap.phi
        d_hat, mean_phi_hat, phi_hat = noisy_estimate_arrays(d, mean_phi, phi, 0.05, 0.04, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        e_d, e_phi, e_mean = (rng.standard_normal(len(d)) for _ in range(3))
        assert np.array_equal(d_hat, np.maximum(0.0, d + 0.05 * e_d))
        assert np.array_equal(phi_hat, phi + 0.04 * e_phi)
        assert np.array_equal(mean_phi_hat, mean_phi + 0.04 * e_mean)

    def test_rejects_negative_sigma(self):
        # noisy_estimate_arrays takes checked deviations: config refuses each noise key by name
        with pytest.raises(ConfigError, match="noise.sigma_phi_deg"):
            build_experiment(merge({"noise.sigma_d_m": "0", "noise.sigma_phi_deg": "-0.1"}))


class TestMobilityValidation:
    # MobilityConfig takes checked values: config refuses each mobility key by name
    def test_rejects_inverted_distances(self):
        with pytest.raises(ConfigError, match="mobility.d_min_m"):
            build_experiment(merge({"mobility.d_min_m": "5", "mobility.d_max_m": "1"}))

    def test_rejects_support_overflow(self):
        # 20 - 25 < 0: instantaneous angle would leave [0, 180] deg
        with pytest.raises(ConfigError, match="mobility.mean_phi_min_deg"):
            build_experiment(merge({"mobility.mean_phi_min_deg": "20", "mobility.delta_phi_deg": "25"}))

    def test_rejects_negative_distance(self):
        with pytest.raises(ConfigError, match="mobility.d_min_m"):
            build_experiment(merge({"mobility.d_min_m": "-1"}))

    def test_rejects_single_user(self):
        with pytest.raises(ConfigError, match="mobility.num_users"):
            build_experiment(merge({"mobility.num_users": "1"}))
