import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import PAPER, rate_from_sinr, sic_success, sinr_cross, sinr_own

from vlcnoma.config import ConfigError, build_experiment, merge, parse_gamma_grid, resolve_groups
from vlcnoma.link import (
    InfeasibleAllocationError,
    NomaConfig,
    epsilon_threshold,
    eta_thresholds,
    noma_sum_rate,
    oma_gain_thresholds,
)
from vlcnoma.simulate import _success_counts


class TestSinr:
    def test_cross_saturates_at_share_ratio(self):
        assert sinr_cross(1.0, PAPER.noma, 1e30) == pytest.approx(63.0, rel=1e-9)

    def test_cross_zero_gain(self):
        assert sinr_cross(0.0, PAPER.noma, 100.0) == 0.0

    def test_cross_direct_arithmetic(self):
        h_sq, gamma = 6.333e-11, 1e12
        expected = h_sq * (63.0 / 64.0) / (h_sq * (1.0 / 64.0) + 1.0 / gamma)
        assert sinr_cross(h_sq, PAPER.noma, gamma) == pytest.approx(expected, rel=1e-14)

    def test_own_strongest_cancellation(self):
        assert sinr_own(1.0, PAPER.noma, 64.0, is_strongest=True) == pytest.approx(1.0, rel=1e-12)

    def test_own_zero_gain(self):
        assert sinr_own(0.0, PAPER.noma, 10.0, is_strongest=True) == 0.0

    def test_weak_own_equals_cross(self):
        h_sq = 3.3e-12
        assert sinr_own(h_sq, PAPER.noma, 1e14, is_strongest=False) == sinr_cross(h_sq, PAPER.noma, 1e14)

    @given(h=st.floats(1e-16, 1e-8), scale=st.floats(1.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_cross_increasing_and_bounded(self, h, scale):
        lo = sinr_cross(h, PAPER.noma, 1e12)
        hi = sinr_cross(h * scale, PAPER.noma, 1e12)
        assert hi >= lo
        assert hi <= 63.0


class TestRates:
    def test_rate_zero(self):
        assert rate_from_sinr(0.0) == 0.0

    def test_rate_two(self):
        assert rate_from_sinr((2.0 * math.pi / math.e) * 15.0) == pytest.approx(2.0, rel=1e-12)

    def test_rate_one(self):
        assert rate_from_sinr((2.0 * math.pi / math.e) * 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_epsilon_examples(self):
        assert epsilon_threshold(2.0) == pytest.approx(34.672, abs=1e-3)
        assert epsilon_threshold(0.0) == 0.0
        assert epsilon_threshold(10.0) == pytest.approx(2.4237e6, rel=1e-4)

    @given(rate=st.floats(0.0, 12.0))
    @settings(max_examples=200, deadline=None)
    def test_epsilon_and_rate_are_inverses(self, rate):
        assert rate_from_sinr(epsilon_threshold(rate)) == pytest.approx(rate, abs=1e-9)

    def test_targets_expose_thresholds(self):
        assert PAPER.noma.eps_weak == pytest.approx(epsilon_threshold(2.0))
        assert PAPER.noma.eps_strong == pytest.approx(epsilon_threshold(10.0))


class TestEtaThresholds:
    def test_paper_weak_threshold(self):
        eta_weak, _ = eta_thresholds(PAPER.noma, 1.0)
        assert eta_weak == pytest.approx(78.33, rel=1e-3)

    def test_paper_strong_threshold(self):
        _, eta_strong = eta_thresholds(PAPER.noma, 1.0)
        assert eta_strong == pytest.approx(1.5512e8, rel=1e-4)

    def test_zero_rate_weak(self):
        eta_weak, _ = eta_thresholds(NomaConfig(63.0 / 64.0, 0.0, 10.0), 1.0)
        assert eta_weak == 0.0

    def test_monotone_in_gamma(self):
        (w1, w2), (s1, s2) = eta_thresholds(PAPER.noma, np.array([1e15, 1e16]))
        assert w2 < w1 and s2 < s1

    @pytest.mark.parametrize("noma", [PAPER.noma, NomaConfig(63.0 / 64.0, 2.0, 0.25)], ids=["paper", "max-binds"])
    def test_snr_array_is_bit_for_bit_the_one_point_calls(self, noma):
        # the curve table takes each slot's thresholds over the whole grid in one call
        grid = build_experiment(resolve_groups("fig2", {}, {})[0][1]).gamma_db_grid
        gammas = [10.0 ** (gamma_db / 10.0) for gamma_db in grid]
        for thresholds in (lambda g: eta_thresholds(noma, g), lambda g: oma_gain_thresholds(noma, g)):
            whole, points = thresholds(np.array(gammas)), [thresholds(g) for g in gammas]
            for slot in (0, 1):
                assert whole[slot].shape == (len(gammas),)
                assert whole[slot].tobytes() == np.array([point[slot] for point in points]).tobytes()
        # at the paper's rates the strong user's own term sets eta_strong; at 0.25 bit/s/Hz the max takes eta_weak
        eta_weak, eta_strong = eta_thresholds(noma, np.array(gammas))
        assert np.all(eta_strong == eta_weak) == (noma is not PAPER.noma)
        assert np.all(eta_strong >= eta_weak)


def success_counts(h2_weak, h2_strong, thresholds):
    """The simulator's count reduction, (kept, weak, strong, both successes) at each grid point, of kept trials."""
    return _success_counts(np.column_stack((np.ones(len(h2_weak)), h2_weak, h2_strong)), thresholds)


class TestPairOutcome:
    def test_zero_gains_both_outage(self):
        thr = eta_thresholds(PAPER.noma, np.array([1e15]))
        assert success_counts(np.zeros(1), np.zeros(1), thr).tolist() == [[1], [0], [0], [0]]

    def test_double_threshold_succeeds(self):
        eta_weak, eta_strong = eta_thresholds(PAPER.noma, np.array([1e15]))
        assert success_counts(2.0 * eta_weak, 2.0 * eta_strong, (eta_weak, eta_strong)).tolist() == [[1], [1], [1], [1]]

    def test_equality_counts_as_outage(self):
        # gains equal to the thresholds of the middle grid point fail there and succeed from the next point on
        eta_weak, eta_strong = eta_thresholds(PAPER.noma, np.array([1e14, 1e15, 1e16]))
        counts = success_counts(eta_weak[1:2], eta_strong[1:2], (eta_weak, eta_strong))
        assert counts.tolist() == [[1, 1, 1], [0, 0, 1], [0, 0, 1], [0, 0, 1]]

    def test_gamma_monotonicity_never_creates_outage(self):
        # trial by trial, a slot that succeeds at one SNR succeeds at every higher one
        rng = np.random.default_rng(0)
        h_w = 10.0 ** rng.uniform(-15, -10, 2000)
        h_s = 10.0 ** rng.uniform(-15, -10, 2000)
        thr = eta_thresholds(PAPER.noma, np.geomspace(1e13, 1e16, 7))
        for i in range(2000):
            counts = success_counts(h_w[i : i + 1], h_s[i : i + 1], thr)
            assert np.all(np.diff(counts[1:], axis=1) >= 0)

    def test_matches_rate_conditions_brute_force(self):
        # independent oracle: evaluate the SIC rate conditions directly, at every grid point
        rng = np.random.default_rng(1)
        n = 20_000
        h_w = 10.0 ** rng.uniform(-16, -9, n)
        h_s = 10.0 ** rng.uniform(-16, -9, n)
        gammas = np.sort(10.0 ** rng.uniform(12, 21, 20))
        kept, weak, strong, both = success_counts(h_w, h_s, eta_thresholds(PAPER.noma, gammas))
        assert np.all(kept == n)
        for g, gamma in enumerate(gammas):
            weak_rate_ok, strong_rate_ok = sic_success(h_w, h_s, PAPER.noma, gamma)
            assert (weak[g], strong[g], both[g]) == (weak_rate_ok.sum(), strong_rate_ok.sum(), (weak_rate_ok & strong_rate_ok).sum())


class TestSumRates:
    def test_zero_outage_hits_target_ceiling(self):
        assert noma_sum_rate((0.0, 0.0), PAPER.noma) == 12.0

    def test_total_outage(self):
        assert noma_sum_rate((1.0, 1.0), PAPER.noma) == 0.0

    def test_linear_form(self):
        assert noma_sum_rate((0.5, 0.5), PAPER.noma) == pytest.approx(6.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            noma_sum_rate((1.2, 0.0), PAPER.noma)

    def test_oma_same_ceiling(self):
        # OMA curves take their sum rate from the same linear form as NOMA's
        assert noma_sum_rate((0.0, 0.0), PAPER.noma) == PAPER.noma.rate_weak + PAPER.noma.rate_strong == 12.0

    def test_oma_thresholds_embed_time_share(self):
        # each user of the pair holds the channel for half of the frame, so it needs twice its rate
        eta_weak, eta_strong = oma_gain_thresholds(PAPER.noma, 1.0)
        assert eta_weak == pytest.approx(epsilon_threshold(4.0), rel=1e-12)
        assert eta_strong == pytest.approx(epsilon_threshold(20.0), rel=1e-12)

    def test_oma_thresholds_dominate_noma(self):
        # the baseline pays the slot penalty: its gain thresholds exceed NOMA's
        gamma = 1e15
        noma_weak, noma_strong = eta_thresholds(PAPER.noma, gamma)
        oma_weak, oma_strong = oma_gain_thresholds(PAPER.noma, gamma)
        assert oma_weak > noma_weak
        assert oma_strong > noma_strong

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.array([1e15, 0.0]), np.array([1e15, -1e15, 1e16])])
    def test_oma_thresholds_refuse_a_nonpositive_snr(self, gamma):
        # oma_gain_thresholds takes a positive SNR: no dB grid that config accepts maps to a nonpositive one
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = ",".join(f"{v:.17g}" for v in 10.0 * np.log10(np.atleast_1d(gamma)))
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            parse_gamma_grid(raw)


class TestNomaConfig:
    def test_strong_share_is_the_rest_of_the_power(self):
        assert PAPER.noma.share_strong == 1.0 / 64.0
        assert NomaConfig(0.6, 0.1, 1.0).share_strong == 0.4

    @pytest.mark.parametrize("share_weak", [0.2, 0.5, 1.0, 1.5, math.nan])
    def test_rejects_inverted_shares(self, share_weak):
        # config refuses every share outside (0.5, 1) by key; the margin of NomaConfig also refuses those <= 1/2
        with pytest.raises(ConfigError, match="noma.power_weak"):
            build_experiment(merge({"noma.power_weak": repr(share_weak), "noma.rate_weak": "2",
                                    "noma.rate_strong": "10"}))
        if share_weak <= 0.5:
            with pytest.raises(ValueError, match="share_weak"):
                NomaConfig(share_weak, 2.0, 10.0)

    @pytest.mark.parametrize("rates", [(-1.0, 10.0), (2.0, -0.5), (math.nan, 10.0)])
    def test_rejects_a_negative_rate(self, rates):
        # NomaConfig takes checked rates: config refuses each rate key by name
        with pytest.raises(ConfigError, match="noma.rate_"):
            build_experiment(merge({"noma.rate_weak": repr(rates[0]), "noma.rate_strong": repr(rates[1])}))

    def test_infeasible_allocation_raises(self):
        # eps_weak = 34.67 > share_weak/share_strong = 1.5 makes the margin negative
        with pytest.raises(InfeasibleAllocationError):
            NomaConfig(0.6, 2.0, 10.0)
