import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from test_analytic_bitwise import LEVELS, _group_models

from vlcnoma import analytic as an
from vlcnoma.analytic import AnalyticModel
from vlcnoma.channel import LedGeometry, channel_gain, incidence_angle
from vlcnoma.config import MAX_USERS
from vlcnoma.link import NomaConfig, PowerAllocation, TargetRates, eta_thresholds
from vlcnoma.population import MobilityConfig, conditional_phi_cdf, sample_user_arrays
from vlcnoma.quadrature import QuadratureConfig, integrate_adaptive
from vlcnoma.scheduling import FeedbackKind, FeedbackScheme
from vlcnoma.simulate import EmpiricalCdf, ExperimentConfig
from vlcnoma.validation import paper_model

GEOM = LedGeometry.from_degrees(2.0, 60.0, 1e-4, 50.0)
MOB = MobilityConfig.from_degrees(0.0, 10.0, 25.0, 155.0, 25.0, 20)
MODEL = AnalyticModel(geom=GEOM, mobility=MOB)
NOMA = NomaConfig(PowerAllocation(63.0 / 64.0, 1.0 / 64.0), TargetRates(2.0, 10.0))
THETA_TH = math.radians(5.0)


def model_with(delta_phi_deg=25.0, scheme=None):
    mob = MobilityConfig.from_degrees(0.0, 10.0, delta_phi_deg, 180.0 - delta_phi_deg, delta_phi_deg, 20)
    return AnalyticModel(geom=GEOM, mobility=mob, scheme=scheme)


def sweep(grid, *schemes, noma=NOMA):
    """Closed-form curves of the paper setup with ``schemes``; fails on any quadrature failure."""
    config = ExperimentConfig(geom=GEOM, mobility=MOB, noma=noma, schemes=schemes, gamma_db_grid=grid)
    curves, failures = an.sum_rate_sweep(config)
    assert not failures
    return curves


class TestQuadratureWrapper:
    def test_polynomial(self):
        val, err = integrate_adaptive(lambda x: 3.0 * x * x, 0.0, 2.0, QuadratureConfig())
        assert val == pytest.approx(8.0, abs=1e-10)
        assert err < 1e-8

    def test_empty_interval(self):
        assert integrate_adaptive(lambda x: 1.0, 2.0, 2.0, QuadratureConfig()) == (0.0, 0.0)

    def test_breakpoints_help_with_kinks(self):
        f = lambda x: 1.0 if x < 1.0 / 3.0 else 0.0
        val, _ = integrate_adaptive(f, 0.0, 1.0, QuadratureConfig(), breakpoints=(1.0 / 3.0,))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)


class TestFovProbability:
    def test_zero_half_angle(self):
        assert an.fov_probability(MODEL, 5.0, 0.0) == 0.0

    def test_full_half_angle(self):
        assert an.fov_probability(MODEL, 5.0, math.pi) == pytest.approx(1.0)

    def test_conditional_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        n = 400_000
        r = 5.0
        _, _, phi = sample_user_arrays(MOB, rng, n)
        theta = incidence_angle(np.full(n, r), phi, GEOM.ell)
        frac = (np.abs(theta) <= GEOM.half_fov).mean()
        pred = an.fov_probability(MODEL, r, GEOM.half_fov)
        assert abs(frac - pred) <= 3.0 * math.sqrt(pred * (1.0 - pred) / n)


class TestNonzeroProbability:
    def test_all_inside_config(self):
        # a tight cone around the boresight keeps every draw inside the FOV
        mob = MobilityConfig.from_degrees(0.0, 1.0, 85.0, 95.0, 2.0, 5)
        model = AnalyticModel(geom=GEOM, mobility=mob)
        assert an.nonzero_gain_probability(model)[0] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_layers_reduce_to_length_fraction(self):
        geom = LedGeometry.from_degrees(2.0, 60.0, 1e-4, 30.0)
        mob = MobilityConfig.from_degrees(0.0, 10.0, 120.0, 120.0, 0.0, 5)
        model = AnalyticModel(geom=geom, mobility=mob)
        # |teta| <= 30 deg at mean angle 120 deg requires atan(ell/r) >= 30 deg
        r_edge = 2.0 / math.tan(math.radians(30.0))
        assert an.nonzero_gain_probability(model)[0] == pytest.approx(r_edge / 10.0, abs=1e-9)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(1)
        n = 2_000_000
        d, _, phi = sample_user_arrays(MOB, rng, n)
        frac = (channel_gain(GEOM, d, phi) > 0.0).mean()
        pred, _ = an.nonzero_gain_probability(MODEL)
        assert abs(frac - pred) <= 3.0 * math.sqrt(pred * (1.0 - pred) / n)


def assert_close(got, want):
    """Elementwise within relative 1e-12 of the reference, or within 1e-300 where the reference is that small."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    tiny = np.abs(want) <= 1e-300
    assert np.all(np.abs(got - want)[tiny] <= 1e-300)
    assert np.all(np.abs(got - want)[~tiny] <= 1e-12 * np.abs(want)[~tiny])


class TestBinomial:
    """The binomial helpers of the closed form against scipy.stats.binom, up to config.MAX_USERS."""

    @pytest.mark.parametrize("K", (2, 20, MAX_USERS))
    @pytest.mark.parametrize("p", (0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0))
    def test_pmf_and_upper_tail_match_scipy(self, K, p):
        from scipy.stats import binom

        k = np.arange(K + 1)
        assert_close(an._binomial_pmf(k, K, p), binom.pmf(k, K, p))
        # Pr(X >= k) = binom.sf(k - 1)
        assert_close([an._binomial_tail(int(j), K, p) for j in k], binom.sf(k - 1, K, p))

    def test_tail_over_trial_counts_and_out_of_range_counts(self):
        from scipy.stats import binom

        n = np.arange(0, 31)
        assert_close(an._binomial_tail(10, n, 0.4), binom.sf(9, n, 0.4))
        assert_close(an._binomial_pmf([-1, 21], 20, 0.4), [0.0, 0.0])

    @pytest.mark.parametrize("K", (2, 20, MAX_USERS))
    def test_exact_at_certain_outcomes(self, K):
        k = np.arange(K + 1)
        assert an._binomial_pmf(k, K, 0.0).tolist() == [1.0] + [0.0] * K
        assert an._binomial_pmf(k, K, 1.0).tolist() == [0.0] * K + [1.0]
        assert [float(an._binomial_tail(int(j), K, 1.0)) for j in k] == [1.0] * (K + 1)
        assert [float(an._binomial_tail(int(j), K, 0.0)) for j in k] == [1.0] + [0.0] * K


class TestCountPmf:
    def test_untruncated_is_plain_binomial(self):
        from scipy.stats import binom

        p, _ = an.nonzero_gain_probability(MODEL)
        for k in (0, 3, 10, 20):
            assert an.nonzero_count_pmf(MODEL, k, 0) == pytest.approx(binom.pmf(k, 20, p), rel=1e-12)

    def test_normalization(self):
        total = sum(an.nonzero_count_pmf(MODEL, k, 10) for k in range(21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_below_minimum(self):
        assert an.nonzero_count_pmf(MODEL, 9, 10) == 0.0

    def test_conditional_histogram(self):
        rng = np.random.default_rng(2)
        n = 150_000
        d, _, phi = sample_user_arrays(MOB, rng, n * 20)
        counts = (channel_gain(GEOM, d.reshape(n, 20), phi.reshape(n, 20)) > 0.0).sum(axis=1)
        kept = counts[counts >= 10]
        for k in (10, 11, 12):
            q = an.nonzero_count_pmf(MODEL, k, 10)
            freq = (kept == k).mean()
            assert abs(freq - q) <= 3.0 * math.sqrt(q * (1.0 - q) / kept.size)


class TestBoundaryAngles:
    def test_zero_level_gives_cap(self):
        # every incidence clears a zero level, so the boundary sits at the arccos clamp
        assert an.gain_boundary_angle(GEOM, 0.0, 3.0) == pytest.approx(math.pi / 2.0)

    def test_saturated_level(self):
        x = GEOM.gain_factor(3.0) ** 2 * 1.5  # above the max squared gain at r = 3
        assert an.gain_boundary_angle(GEOM, float(x), 3.0) == 0.0

    def test_recovers_incidence_angle(self):
        # by construction h^2 / g^2 = cos^2(theta)
        target = math.radians(20.0)
        x = float(GEOM.gain_factor(4.0) ** 2) * math.cos(target) ** 2
        assert an.gain_boundary_angle(GEOM, x, 4.0) == pytest.approx(target, abs=1e-12)

    def test_boundary_distance_round_trip(self):
        x = 1e-13
        r = an.gain_boundary_distance(GEOM, x)
        assert float(GEOM.gain_factor(r) ** 2) == pytest.approx(x, rel=1e-10)
        assert an.gain_boundary_distance(GEOM, 1.0) == 0.0
        assert an.gain_boundary_distance(GEOM, 0.0) == math.inf


class TestUnorderedCdf:
    def test_zero_at_origin(self):
        assert an.unordered_gain_cdf(MODEL, 0.0)[0] == 0.0

    def test_one_beyond_support(self):
        # nothing is left to integrate above the support, so the value does not depend on the normalizer
        top = float(GEOM.gain_factor(MOB.d_min) ** 2)
        assert an.unordered_gain_cdf(MODEL, top * 1.0001) == (1.0, 0.0)

    def test_monte_carlo_sup_distance(self):
        rng = np.random.default_rng(3)
        d, _, phi = sample_user_arrays(MOB, rng, 400_000)
        g2 = channel_gain(GEOM, d, phi) ** 2
        sup = EmpiricalCdf(g2[g2 > 0.0]).sup_distance(lambda x: an.unordered_gain_cdf(MODEL, x)[0], 250)
        assert sup <= 0.008

    def test_monotone_on_grid(self):
        xs = np.geomspace(1e-17, 1e-9, 200)
        vals = [an.unordered_gain_cdf(MODEL, float(x))[0] for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestOrderedCdf:
    def test_forced_full_count_gives_max_power(self):
        x = 1e-12
        u, _ = an.unordered_gain_cdf(MODEL, x)
        assert an.ordered_gain_cdf(MODEL, x, 20, 20)[0] == pytest.approx(u**20, rel=1e-9)

    def test_one_beyond_support(self):
        top = float(GEOM.gain_factor(MOB.d_min) ** 2)
        value, err = an.ordered_gain_cdf(MODEL, top * 1.01, 10, 10)
        assert value == pytest.approx(1.0)
        assert err == 0.0

    def test_stochastic_ordering(self):
        xs = np.geomspace(1e-16, 1e-10, 40)
        for x in xs:
            f1, _ = an.ordered_gain_cdf(MODEL, float(x), 1, 10)
            f5, _ = an.ordered_gain_cdf(MODEL, float(x), 5, 10)
            f10, _ = an.ordered_gain_cdf(MODEL, float(x), 10, 10)
            assert f1 >= f5 - 1e-12 >= f10 - 2e-12

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            an.ordered_gain_cdf(MODEL, 1e-12, 0, 10)
        with pytest.raises(ValueError):
            an.ordered_gain_cdf(MODEL, 1e-12, 11, 10)


class TestGroupCdfs:
    def test_lower_edges(self):
        mi = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH))
        mm = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_MEAN, 1.0, THETA_TH))
        assert an.group_gain_cdf_instant(mi, 0.0, an.WEAK)[0] == 0.0
        assert an.group_gain_cdf_instant(mi, 0.0, an.STRONG)[0] == 0.0
        assert an.group_gain_cdf_mean(mm, -1e-30, an.WEAK) == (0.0, 0.0)
        # mean-report weak group keeps an atom at zero for nonzero deviation
        assert an.group_gain_cdf_mean(mm, 0.0, an.WEAK)[0] > 0.1
        assert an.group_gain_cdf_mean(mm, 0.0, an.STRONG)[0] == pytest.approx(0.0, abs=1e-12)

    def test_upper_edges(self):
        # each group's gain support ends at its nearest distance; above it the CDF is exactly 1 with no error
        for kind, cdf in ((FeedbackKind.TWO_BIT_INSTANT, an.group_gain_cdf_instant),
                          (FeedbackKind.TWO_BIT_MEAN, an.group_gain_cdf_mean)):
            model = model_with(scheme=FeedbackScheme(kind, 1.0, THETA_TH))
            for role, nearest in ((an.STRONG, 0.0), (an.WEAK, 1.0)):
                top = float(GEOM.gain_factor(nearest) ** 2)
                assert cdf(model, top, role)[0] == pytest.approx(1.0), (kind, role)
                assert cdf(model, top * 1.0001, role) == (1.0, 0.0), (kind, role)

    def test_static_deviation_collapses_mean_onto_instant(self):
        mi = model_with(0.0, FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH))
        mm = model_with(0.0, FeedbackScheme(FeedbackKind.TWO_BIT_MEAN, 1.0, THETA_TH))
        for x in np.geomspace(1e-16, 1e-10, 25):
            for role in (an.WEAK, an.STRONG):
                a, _ = an.group_gain_cdf_mean(mm, float(x), role)
                b, _ = an.group_gain_cdf_instant(mi, float(x), role)
                assert abs(a - b) <= 1e-6

    def test_static_deviation_collapses_mean_success_onto_instant(self):
        # the success probabilities read the same bands as the CDFs; 1e-6 is the bound of
        # validate's theorem-coincidence-zero-deviation check, over its level span
        base = paper_model(0.0)
        geom, mob = base.geom, base.mobility
        levels = LEVELS + tuple(np.geomspace(1e-17, 1e-10, 40))
        for thresholds in ("paper", "wide"):
            instant, mean = _group_models(geom, mob, thresholds)
            for x in levels:
                for role in (an.WEAK, an.STRONG):
                    a, _ = an.group_success_probability(mean, float(x), role)
                    b, _ = an.group_success_probability(instant, float(x), role)
                    assert abs(a - b) <= 1e-6, (thresholds, role, x)

    def test_strong_group_degeneracy_matches_unordered(self):
        scheme = FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, d_threshold=MOB.d_max, theta_threshold=GEOM.half_fov)
        mi = model_with(scheme=scheme)
        for x in np.geomspace(1e-16, 1e-10, 20):
            assert an.group_gain_cdf_instant(mi, float(x), an.STRONG)[0] == pytest.approx(
                an.unordered_gain_cdf(MODEL, float(x))[0], abs=1e-9
            )

    def test_requires_matching_scheme(self):
        mi = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH))
        with pytest.raises(ValueError):
            an.group_gain_cdf_mean(mi, 1e-12, an.WEAK)
        with pytest.raises(ValueError):
            an.group_gain_cdf_instant(MODEL, 1e-12, an.WEAK)

    def test_angle_threshold_cannot_exceed_fov(self):
        with pytest.raises(ValueError):
            model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, math.radians(60.0)))


def _quad_mean_band(model, r, inner, outer, y):
    """_mean_band by adaptive quadrature over the uniform mean angle of conditional_phi_cdf."""
    mob = model.mobility
    c, dphi = an.boresight_angle(model.geom, r), mob.delta_phi

    def in_band(m):
        return 1.0 if inner < abs(c - m) <= outer else 0.0

    def inside(m):
        return in_band(m) * (conditional_phi_cdf(m, dphi, c + y) - conditional_phi_cdf(m, dphi, c - y))

    kinks = [c + s * a + t * dphi for s in (-1.0, 1.0) for a in (inner, outer, y) for t in (-1.0, 0.0, 1.0)]
    lo, hi = mob.mean_phi_min, mob.mean_phi_max
    points = sorted({k for k in kinks if lo < k < hi})
    return quad(inside, lo, hi, points=points, limit=200, epsabs=1e-13, epsrel=1e-12)[0] / mob.mean_phi_span


class TestMeanBand:
    @settings(max_examples=150, deadline=None)
    @given(r=st.floats(0.0, 10.0), inner=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
           width=st.floats(0.0, math.pi), y=st.floats(0.0, math.pi / 2.0), dphi=st.sampled_from((0.0, 25.0)))
    def test_matches_quadrature_over_the_mean_angle(self, r, inner, width, y, dphi):
        model, outer = model_with(dphi), inner + width
        assert an._mean_band(model, r, inner, outer, y) == pytest.approx(_quad_mean_band(model, r, inner, outer, y),
                                                                         abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.0, 10.0), outer=st.floats(math.pi, 4.0), y=st.floats(0.0, math.pi / 2.0),
           dphi=st.sampled_from((0.0, 25.0)))
    def test_open_band_is_the_instantaneous_fov_probability(self, r, outer, y, dphi):
        model = model_with(dphi)
        assert an._mean_band(model, r, 0.0, outer, y) == pytest.approx(an.fov_probability(model, r, y), abs=1e-12)


def membership_probabilities(model):
    """(weak, strong) per-user membership probabilities of the model's two-bit groups, from the band masses."""
    scheme, mob = model.scheme, model.mobility
    th, d_th = scheme.theta_threshold, scheme.d_threshold
    p_w = an._band_mass(model, th, math.pi, d_th, mob.d_max)[0] / mob.d_span
    p_s = an._band_mass(model, 0.0, th, mob.d_min, d_th)[0] / mob.d_span
    return p_w, p_s


class TestGroupProbabilities:
    def test_strong_membership_plateau_value(self):
        # 10 deg window inside the flat part of the angle law: 0.1 * 10/130
        mi = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH))
        _, p_strong = membership_probabilities(mi)
        assert p_strong == pytest.approx(0.1 * 10.0 / 130.0, rel=1e-6)

    def test_membership_monte_carlo(self):
        mi = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH))
        p_weak, p_strong = membership_probabilities(mi)
        rng = np.random.default_rng(4)
        n = 500_000
        d, _, phi = sample_user_arrays(MOB, rng, n)
        theta = incidence_angle(d, phi, GEOM.ell)
        w = ((d > 1.0) & (np.abs(theta) > THETA_TH)).mean()
        s = ((d <= 1.0) & (np.abs(theta) <= THETA_TH)).mean()
        assert abs(w - p_weak) <= 3.0 * math.sqrt(p_weak * (1 - p_weak) / n)
        assert abs(s - p_strong) <= 3.0 * math.sqrt(p_strong * (1 - p_strong) / n)


def thresholds(gamma):
    return eta_thresholds(NOMA.targets, NOMA.alloc, gamma)


class TestOutage:
    def test_individual_high_snr_limit(self):
        pw, _, ps, _ = an.individual_outage(MODEL, thresholds(1e30), 1, 10)
        assert pw == pytest.approx(0.0, abs=1e-12)
        assert ps == pytest.approx(0.0, abs=1e-12)

    def test_individual_low_snr_limit(self):
        pw, _, ps, _ = an.individual_outage(MODEL, thresholds(1e-6), 1, 10)
        assert pw == pytest.approx(1.0, abs=1e-12)
        assert ps == pytest.approx(1.0, abs=1e-12)

    def test_individual_monte_carlo_midpoint(self):
        rng = np.random.default_rng(5)
        n = 150_000
        d, _, phi = sample_user_arrays(MOB, rng, n * 20)
        g2 = channel_gain(GEOM, d.reshape(n, 20), phi.reshape(n, 20)) ** 2
        masked = np.where(g2 > 0.0, g2, np.inf)
        masked.sort(axis=1)
        keep = (g2 > 0.0).sum(axis=1) >= 10
        w, s = masked[keep, 0], masked[keep, 9]
        for gdb in (160.0, 185.0):
            gamma = 10.0 ** (gdb / 10.0)
            thr = thresholds(gamma)
            pw, _, ps, _ = an.individual_outage(MODEL, thr, 1, 10)
            assert abs((w <= thr.eta_weak).mean() - pw) <= max(3.0 * math.sqrt(pw * (1 - pw) / w.size), 1e-4)
            assert abs((s <= thr.eta_strong).mean() - ps) <= max(3.0 * math.sqrt(ps * (1 - ps) / s.size), 1e-4)

    def test_group_high_snr_floor_is_fov_mismatch(self):
        mi = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH))
        pw, _, ps, _ = an.group_outage(mi, thresholds(1e28))
        # strong group members always have nonzero gain; weak keeps the out-of-FOV share
        assert ps == pytest.approx(0.0, abs=1e-9)
        d_max = mi.mobility.d_max
        den, _ = an._band_mass(mi, THETA_TH, math.pi, 1.0, d_max)
        num, _ = an._band_mass(mi, THETA_TH, GEOM.half_fov, 1.0, d_max)
        assert pw == pytest.approx(1.0 - num / den, abs=1e-9)

    def test_group_low_snr_limit(self):
        mm = model_with(scheme=FeedbackScheme(FeedbackKind.TWO_BIT_MEAN, 1.0, THETA_TH))
        pw, _, ps, _ = an.group_outage(mm, thresholds(1e-6))
        assert pw == pytest.approx(1.0, abs=1e-12)
        assert ps == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_allocation_propagates(self):
        from vlcnoma.link import InfeasibleAllocationError

        bad = NomaConfig(PowerAllocation(0.6, 0.4), TargetRates(2.0, 10.0))
        with pytest.raises(InfeasibleAllocationError):
            sweep((150.0,), FeedbackScheme(FeedbackKind.FULL_CSI), noma=bad)


GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


def adaptive_mean_angle(model, threshold, rank, min_count, panels=16):
    """The mean-angle success probability by an independent rule: (value, error of the distance integral).

    QUADPACK integrates over distance (abs 1e-14, rel 1e-12, 2000
    subdivisions), split only at the fixed kinks of ``an._breakpoints`` (no
    corners are passed), so it must find the moving ones itself.  At each
    distance a composite Gauss rule with ``panels`` panels per piece
    integrates over the mean angle m, split where the band probability kinks.  It shares the integrand's parts (the
    mean-gain CDF table, the rank density and the normalizer) with
    ``an.mean_angle_success_probability``, not its quadrature.
    """
    geom, mob, mean = model.geom, model.mobility, an._mean_model(model)
    theta, dphi = geom.half_fov, mob.delta_phi
    cdf, _ = an._mean_gain_cdf_table(mean)
    density, _ = an._rank_density(model, rank, min_count)
    steps = np.arange(panels)

    def inner(r):
        c = an.boresight_angle(geom, r)
        m_lo, m_hi = max(mob.mean_phi_min, c - theta), min(mob.mean_phi_max, c + theta)
        if m_hi <= m_lo:
            return 0.0
        cap = min(an.gain_boundary_angle(geom, threshold, r), theta)
        kinks = [c + s * cap + t * dphi for s in (-1.0, 1.0) for t in (-1.0, 1.0)]
        pieces = np.array(sorted({m_lo, m_hi, *[k for k in kinks if m_lo < k < m_hi]}))
        step = (pieces[1:] - pieces[:-1]) / panels
        edges = np.concatenate(((pieces[:-1, None] + step[:, None] * steps).ravel(), [m_hi]))
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        m = (mid[:, None] + half[:, None] * GAUSS_NODES).ravel()
        band = conditional_phi_cdf(m, dphi, c + cap) - conditional_phi_cdf(m, dphi, c - cap)
        weight = density(cdf(float(geom.gain_factor(r)) ** 2 * np.cos(c - m) ** 2))
        return float(((half[:, None] * GAUSS_WEIGHTS).ravel() * weight * band).sum())

    lo, hi = mob.d_min, min(mob.d_max, an.gain_boundary_distance(geom, threshold))
    if hi <= lo:
        return 0.0, 0.0
    points = an._breakpoints(mean, lo, hi, (theta,), threshold, (theta,))
    num, num_err = quad(inner, lo, hi, points=points or None, epsabs=1e-14, epsrel=1e-12, limit=2000,
                        full_output=1)[:2]
    scale = an._fov_normalizer(mean)[0] * mob.mean_phi_span
    return num / scale, num_err / scale


def assert_within_reported_error(model, threshold, rank):
    value, err = an.mean_angle_success_probability(model, threshold, rank, 10)
    ref, ref_err = adaptive_mean_angle(model, threshold, rank, 10)
    assert ref_err <= 0.1 * err, (threshold, rank, ref_err, err)
    assert abs(value - ref) <= err, (threshold, rank, value, ref, err)


class TestMeanAngleRoute:
    def test_zero_deviation_matches_full_csi(self):
        # without tilt deviation the mean angle is the instantaneous angle, so the
        # mean-angle ordering is the full-CSI ordering and success = 1 - ordered CDF
        model = model_with(0.0)
        assert an.nonzero_count_tail(an._mean_model(model), 10) == an.nonzero_count_tail(model, 10)
        for gdb in range(140, 216, 5):
            thr = eta_thresholds(NOMA.targets, NOMA.alloc, 10.0 ** (gdb / 10.0))
            for eta, rank in ((thr.eta_weak, 1), (thr.eta_strong, 10)):
                s, es = an.mean_angle_success_probability(model, eta, rank, 10)
                f, ef = an.ordered_gain_cdf(model, eta, rank, 10)
                assert abs((1.0 - s) - f) <= es + ef, (gdb, rank, 1.0 - s, f, es + ef)

    def test_monte_carlo_per_slot(self):
        rng = np.random.default_rng(7)
        n = 150_000
        d, mean_phi, phi = (a.reshape(n, 20) for a in sample_user_arrays(MOB, rng, n * 20))
        h2, mean_h2 = channel_gain(GEOM, d, phi) ** 2, channel_gain(GEOM, d, mean_phi) ** 2
        order = np.argsort(np.where(mean_h2 > 0.0, mean_h2, np.inf), axis=1, kind="stable")
        keep = (mean_h2 > 0.0).sum(axis=1) >= 10
        served = np.take_along_axis(h2, order[:, [0, 9]], axis=1)[keep]
        thr = eta_thresholds(NOMA.targets, NOMA.alloc, 10.0 ** (190.0 / 10.0))
        for col, eta, rank in ((0, thr.eta_weak, 1), (1, thr.eta_strong, 10)):
            p, _ = an.mean_angle_success_probability(MODEL, eta, rank, 10)
            freq = (served[:, col] > eta).mean()
            assert abs(freq - p) <= 3.0 * math.sqrt(p * (1.0 - p) / served.shape[0])

    def test_sweep_labels_and_conditioning(self):
        curves = sweep((215.0,), FeedbackScheme(FeedbackKind.MEAN_ANGLE))
        assert set(curves) == {"noma-mean-angle", "oma"}
        point = curves["noma-mean-angle"][0]
        assert point.conditioning_rate == pytest.approx(an.nonzero_count_tail(an._mean_model(MODEL), 10))
        # the plateau keeps the zero-true-gain loss of both slots, over 1 bit/s/Hz
        assert 10.0 < point.sum_rate < 11.0

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            an.mean_angle_success_probability(MODEL, 1e-12, 11, 10)

    def test_models_differing_only_in_deviation_share_one_table(self):
        static = AnalyticModel(geom=GEOM, mobility=replace(MOB, delta_phi=0.0))
        misses = an._mean_gain_cdf_table.cache_info().misses
        for model in (static, MODEL):
            an.mean_angle_success_probability(model, 1e-12, 1, 10)
        assert an._mean_gain_cdf_table.cache_info().misses - misses <= 1

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_within_reported_error_of_adaptive_rule_at_pinned_levels(self, dphi):
        # the levels and ranks of the mean_angle family of tests/test_analytic_bitwise.py
        model = paper_model(dphi)
        for x in (5e-15, 4e-13, 2e-11):
            for rank in (1, 10):
                assert_within_reported_error(model, x, rank)

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_within_reported_error_of_adaptive_rule_across_the_gain_range(self, dphi):
        # 40 levels from below the gain support (weak-user thresholds at high SNR) to above it
        # (strong-user thresholds at low SNR); each deviation takes every other one, at ranks 1 and 10
        levels = np.geomspace(1e-17, 1e-10, 40)[int(dphi > 0)::2]
        model = paper_model(dphi)
        for x in levels:
            for rank in (1, 10):
                assert_within_reported_error(model, float(x), rank)


class TestSweep:
    def test_individual_sweep_structure(self):
        grid = (150.0, 180.0, 215.0, 230.0)
        curves = sweep(grid, FeedbackScheme(FeedbackKind.FULL_CSI))
        assert set(curves) == {"noma-full-csi", "oma"}
        assert [p.gamma_db for p in curves["noma-full-csi"]] == list(grid)
        assert curves["noma-full-csi"][-2].sum_rate == pytest.approx(12.0, abs=0.01)
        assert curves["noma-full-csi"][-1].sum_rate == pytest.approx(12.0, abs=1e-4)
        for noma_pt, oma_pt in zip(curves["noma-full-csi"], curves["oma"]):
            assert noma_pt.sum_rate >= oma_pt.sum_rate - 1e-9

    def test_single_point_grid(self):
        curves = sweep((170.0,), FeedbackScheme(FeedbackKind.FULL_CSI))
        assert len(curves["noma-full-csi"]) == 1

    def test_group_sweep_conditioning_rate(self):
        scheme = FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, THETA_TH)
        curves = sweep((170.0, 215.0), scheme)
        both = an.both_groups_probability(model_with(scheme=scheme))
        assert curves["noma-two-bit-instant"][0].conditioning_rate == pytest.approx(both)

    def test_unknown_strategy(self):
        # a kind without a closed-form route is left out, and so is the OMA curve it serves
        assert sweep((170.0,), FeedbackScheme(FeedbackKind.DISTANCE_ONLY)) == {}
        distance_first = sweep((170.0,), FeedbackScheme(FeedbackKind.DISTANCE_ONLY), FeedbackScheme(FeedbackKind.FULL_CSI))
        assert set(distance_first) == {"noma-full-csi"}


class TestQuadratureStability:
    def test_halving_within_reported_error(self):
        half = AnalyticModel(geom=GEOM, mobility=MOB, quad=QuadratureConfig().halved())
        rng = np.random.default_rng(6)
        for x in 10.0 ** rng.uniform(-16, -10.5, 10):
            v1, e1 = an.unordered_gain_cdf(MODEL, float(x))
            v2, _ = an.unordered_gain_cdf(half, float(x))
            assert abs(v2 - v1) <= max(e1, 1e-14)


# the tight reference: tolerances far below QuadratureConfig's defaults, subdivisions far above
TIGHT = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-13, max_subdivisions=5000)
HONESTY_LEVELS = np.geomspace(1e-16, 10**-10.5, 150)
# ROADMAP direction 1: the mean-report integrand also kinks where c(r) +/- min(b, half_fov) +/- delta_phi
# meets a band edge or an end of the range, and no breakpoint marks those distances yet
MEAN_REPORT_KINKS = pytest.mark.xfail(strict=True, reason="ROADMAP direction 1 (mean-report kinks): the mean-report "
                                      "integrand's kinks are not breakpoints, so its error estimate is too small")


def assert_within_error_of_tight_reference(model, f, levels):
    """|f(model, x) - f at TIGHT| <= the error f reports, at every level."""
    tight = replace(model, quad=TIGHT)
    for x in levels:
        value, err = f(model, float(x))
        ref, _ = f(tight, float(x))
        assert abs(value - ref) <= err, (float(x), value, ref, err)


class TestErrorHonesty:
    """Every reported quadrature error covers the distance to a tight-tolerance reference, on the paper model."""

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_unordered_cdf(self, dphi):
        assert_within_error_of_tight_reference(paper_model(dphi), an.unordered_gain_cdf, HONESTY_LEVELS)

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    @pytest.mark.parametrize("role", (an.WEAK, an.STRONG))
    @pytest.mark.parametrize("family", ("group_gain_cdf_instant", "group_success_probability"))
    def test_instantaneous_report_groups(self, family, role, dphi):
        f = getattr(an, family)
        assert_within_error_of_tight_reference(paper_model(dphi, FeedbackKind.TWO_BIT_INSTANT),
                                               lambda m, x: f(m, x, role), HONESTY_LEVELS)

    # measured |value - reference| / reported error in the comments
    @pytest.mark.parametrize("family,dphi,index", [
        pytest.param("group_gain_cdf_mean", 0.0, 48, marks=MEAN_REPORT_KINKS),  # 20.4
        pytest.param("group_gain_cdf_mean", 25.0, 139, marks=MEAN_REPORT_KINKS),  # 2.68
        pytest.param("group_success_probability", 0.0, 85, marks=MEAN_REPORT_KINKS),  # 6.43
        pytest.param("group_success_probability", 25.0, 59, marks=MEAN_REPORT_KINKS),  # 11.4
    ])
    def test_mean_report_weak_group(self, family, dphi, index):
        f = getattr(an, family)
        assert_within_error_of_tight_reference(paper_model(dphi, FeedbackKind.TWO_BIT_MEAN),
                                               lambda m, x: f(m, x, an.WEAK), HONESTY_LEVELS[index:index + 1])
