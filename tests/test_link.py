import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma.link import (
    InfeasibleAllocationError,
    PowerAllocation,
    TargetRates,
    epsilon_threshold,
    eta_thresholds,
    noma_pair_outcome,
    noma_sum_rate,
    oma_gain_thresholds,
)

PAPER_ALLOC = PowerAllocation(63.0 / 64.0, 1.0 / 64.0)
PAPER_TARGETS = TargetRates(2.0, 10.0)


# Independent SIC oracle: the SINR and rate conditions that eta_thresholds
# reduces to squared-gain thresholds, evaluated directly.  Criterion A9 imports it.


def rate_from_sinr(sinr):
    """Achievable spectral efficiency 1/2 * log2(1 + (e/2pi)*sinr) of the intensity channel."""
    return 0.5 * np.log2(1.0 + math.e / (2.0 * math.pi) * np.asarray(sinr, float))


def sinr_cross(h_strong_sq, alloc, gamma):
    """SINR at the strong user while decoding the weak user's message."""
    h_sq = np.asarray(h_strong_sq, float)
    return h_sq * alloc.share_weak / (h_sq * alloc.share_strong + 1.0 / gamma)


def sinr_own(h_sq, alloc, gamma, is_strongest):
    """SINR of a user decoding its own message: interference-free after SIC, else the cross SINR."""
    if is_strongest:
        return np.asarray(h_sq, float) * alloc.share_strong * gamma
    return sinr_cross(h_sq, alloc, gamma)


def sic_success(h_weak_sq, h_strong_sq, alloc, targets, gamma):
    """(weak user decodes, strong user decodes), elementwise over gains and SNRs."""
    weak_ok = rate_from_sinr(sinr_own(h_weak_sq, alloc, gamma, is_strongest=False)) > targets.rate_weak
    strong_ok = (rate_from_sinr(sinr_cross(h_strong_sq, alloc, gamma)) > targets.rate_weak) & (
        rate_from_sinr(sinr_own(h_strong_sq, alloc, gamma, is_strongest=True)) > targets.rate_strong)
    return weak_ok, strong_ok


class TestSinr:
    def test_cross_saturates_at_share_ratio(self):
        assert sinr_cross(1.0, PAPER_ALLOC, 1e30) == pytest.approx(63.0, rel=1e-9)

    def test_cross_zero_gain(self):
        assert sinr_cross(0.0, PAPER_ALLOC, 100.0) == 0.0

    def test_cross_direct_arithmetic(self):
        h_sq, gamma = 6.333e-11, 1e12
        expected = h_sq * (63.0 / 64.0) / (h_sq * (1.0 / 64.0) + 1.0 / gamma)
        assert sinr_cross(h_sq, PAPER_ALLOC, gamma) == pytest.approx(expected, rel=1e-14)

    def test_own_strongest_cancellation(self):
        assert sinr_own(1.0, PAPER_ALLOC, 64.0, is_strongest=True) == pytest.approx(1.0, rel=1e-12)

    def test_own_zero_gain(self):
        assert sinr_own(0.0, PAPER_ALLOC, 10.0, is_strongest=True) == 0.0

    def test_weak_own_equals_cross(self):
        h_sq = 3.3e-12
        assert sinr_own(h_sq, PAPER_ALLOC, 1e14, is_strongest=False) == sinr_cross(h_sq, PAPER_ALLOC, 1e14)

    @given(h=st.floats(1e-16, 1e-8), scale=st.floats(1.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_cross_increasing_and_bounded(self, h, scale):
        lo = sinr_cross(h, PAPER_ALLOC, 1e12)
        hi = sinr_cross(h * scale, PAPER_ALLOC, 1e12)
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
        assert PAPER_TARGETS.eps_weak == pytest.approx(epsilon_threshold(2.0))
        assert PAPER_TARGETS.eps_strong == pytest.approx(epsilon_threshold(10.0))


class TestEtaThresholds:
    def test_paper_weak_threshold(self):
        thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1.0)
        assert thr.eta_weak == pytest.approx(78.33, rel=1e-3)

    def test_paper_strong_threshold(self):
        thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1.0)
        assert thr.eta_strong == pytest.approx(1.5512e8, rel=1e-4)

    def test_zero_rate_weak(self):
        thr = eta_thresholds(TargetRates(0.0, 10.0), PAPER_ALLOC, 1.0)
        assert thr.eta_weak == 0.0

    def test_infeasible_allocation_raises(self):
        # eps_weak = 34.67 > share_weak/share_strong = 1.5 makes the margin negative
        with pytest.raises(InfeasibleAllocationError):
            eta_thresholds(PAPER_TARGETS, PowerAllocation(0.6, 0.4), 1.0)

    def test_monotone_in_gamma(self):
        t1 = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e15)
        t2 = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e16)
        assert t2.eta_weak < t1.eta_weak and t2.eta_strong < t1.eta_strong


class TestPairOutcome:
    def test_zero_gains_both_outage(self):
        thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e15)
        assert noma_pair_outcome(0.0, 0.0, thr) == (True, True)

    def test_double_threshold_succeeds(self):
        thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e15)
        assert noma_pair_outcome(2.0 * thr.eta_weak, 2.0 * thr.eta_strong, thr) == (False, False)

    def test_equality_counts_as_outage(self):
        thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e15)
        assert noma_pair_outcome(thr.eta_weak, thr.eta_strong, thr) == (True, True)

    def test_gamma_monotonicity_never_creates_outage(self):
        rng = np.random.default_rng(0)
        h_w = 10.0 ** rng.uniform(-15, -10, 2000)
        h_s = 10.0 ** rng.uniform(-15, -10, 2000)
        lo = noma_pair_outcome(h_w, h_s, eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e14))
        hi = noma_pair_outcome(h_w, h_s, eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, 1e15))
        assert not np.any(~lo[0] & hi[0])
        assert not np.any(~lo[1] & hi[1])

    def test_matches_rate_conditions_brute_force(self):
        # independent oracle: evaluate the SIC rate conditions directly
        rng = np.random.default_rng(1)
        n = 20_000
        h_w = 10.0 ** rng.uniform(-16, -9, n)
        h_s = 10.0 ** rng.uniform(-16, -9, n)
        gammas = 10.0 ** rng.uniform(12, 21, n)
        for i in range(0, n, 1000):
            gamma = float(gammas[i])
            thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, gamma)
            hw, hs = h_w[i : i + 1000], h_s[i : i + 1000]
            weak_out, strong_out = noma_pair_outcome(hw, hs, thr)
            weak_rate_ok, strong_rate_ok = sic_success(hw, hs, PAPER_ALLOC, PAPER_TARGETS, gamma)
            assert np.array_equal(weak_out, ~weak_rate_ok)
            assert np.array_equal(strong_out, ~strong_rate_ok)


class TestSumRates:
    def test_zero_outage_hits_target_ceiling(self):
        assert noma_sum_rate((0.0, 0.0), PAPER_TARGETS) == 12.0

    def test_total_outage(self):
        assert noma_sum_rate((1.0, 1.0), PAPER_TARGETS) == 0.0

    def test_linear_form(self):
        assert noma_sum_rate((0.5, 0.5), PAPER_TARGETS) == pytest.approx(6.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            noma_sum_rate((1.2, 0.0), PAPER_TARGETS)

    def test_oma_same_ceiling(self):
        # OMA curves take their sum rate from the same linear form as NOMA's
        assert noma_sum_rate((0.0, 0.0), PAPER_TARGETS) == PAPER_TARGETS.rate_weak + PAPER_TARGETS.rate_strong == 12.0

    def test_oma_thresholds_embed_time_share(self):
        # each user of the pair holds the channel for half of the frame, so it needs twice its rate
        thr = oma_gain_thresholds(PAPER_TARGETS, 1.0)
        assert thr.eta_weak == pytest.approx(epsilon_threshold(4.0), rel=1e-12)
        assert thr.eta_strong == pytest.approx(epsilon_threshold(20.0), rel=1e-12)

    def test_oma_thresholds_dominate_noma(self):
        # the baseline pays the slot penalty: its gain thresholds exceed NOMA's
        gamma = 1e15
        noma_thr = eta_thresholds(PAPER_TARGETS, PAPER_ALLOC, gamma)
        oma_thr = oma_gain_thresholds(PAPER_TARGETS, gamma)
        assert oma_thr.eta_weak > noma_thr.eta_weak
        assert oma_thr.eta_strong > noma_thr.eta_strong


class TestPowerAllocation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PowerAllocation(0.9, 0.2)

    def test_rejects_inverted_shares(self):
        with pytest.raises(ValueError):
            PowerAllocation(0.2, 0.8)
