import inspect
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import binom
from helpers import LEVELS, PAPER, group_models, paper_model

from vlcnoma import analytic as an
from vlcnoma import stats
from vlcnoma.analytic import AnalyticModel
from vlcnoma.channel import LedGeometry, channel_gain, incidence_angle
from vlcnoma.config import MAX_USERS, ConfigError, build_experiment, merge, resolve_groups
from vlcnoma.link import eta_thresholds
from vlcnoma.population import (MobilityConfig, conditional_phi_cdf, deviation_cdf_integral, marginal_phi_cdf,
                                sample_user_arrays)
from vlcnoma.quadrature import QuadratureConfig, QuadratureError, integrate_adaptive, integrate_levels
from vlcnoma.scheduling import TWO_BIT_KINDS, FeedbackKind, FeedbackScheme
from vlcnoma.simulate import EmpiricalCdf, NoiseConfig

INSTANT, MEAN = TWO_BIT_KINDS


def sweep(grid, *schemes):
    """Closed-form curves of the paper setup with ``schemes``; fails on any quadrature failure."""
    curves, failures, _ = an.sum_rate_sweep(replace(PAPER, schemes=schemes, gamma_db_grid=grid))
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

    def test_adaptive_is_one_row_of_the_level_rule_on_floats(self):
        # a kink at 1/3 marked, one at 0.6 hunted; the integrand sees Python floats only
        seen = set()

        def f(x):
            seen.add(type(x))
            return abs(x - 1.0 / 3.0) * (x - 0.6) * (x - 0.6) + (x > 0.6)

        config = QuadratureConfig()
        value, err = integrate_adaptive(f, 0.0, 1.0, config, breakpoints=(-1.0, 1.0 / 3.0, 1.0 / 3.0, 2.0))
        rows = lambda r, _: np.abs(r - 1.0 / 3.0) * (r - 0.6) * (r - 0.6) + (r > 0.6)
        values, errors = integrate_levels(rows, [0.0], [1.0], config, [[1.0 / 3.0]], str)
        assert seen == {float} and type(value) is float and type(err) is float
        assert (value, err) == (values[0], errors[0])
        assert abs(value - 0.42613168724279843) <= err <= config.rel_tol * value

    def test_config_validation(self):
        # no key sets the settings: they are the defaults or a halving of them, whose tolerances stay positive
        config = QuadratureConfig()
        for _ in range(60):
            halved = config.halved()
            assert (halved.abs_tol, halved.rel_tol) == (config.abs_tol / 2.0, config.rel_tol / 2.0)
            assert halved.max_subdivisions == config.max_subdivisions
            config = halved
        assert config.abs_tol > 0.0 and config.rel_tol > 0.0

    def test_level_rows_each_meet_their_own_tolerance(self):
        # one row per kink position c of sqrt|r - c| on [0, 3], kinks not passed: each row hunts its own
        c = np.array([0.3, 1.0, 2.5])
        config = QuadratureConfig()
        values, errors = integrate_levels(lambda r, rows: np.sqrt(np.abs(r - c[rows, None])), np.zeros(3),
                                          np.full(3, 3.0), config, [[], [], []], str)
        exact = (c**1.5 + (3.0 - c) ** 1.5) * 2.0 / 3.0
        assert np.all(np.abs(values - exact) <= errors)
        assert np.all(errors <= np.maximum(config.abs_tol, config.rel_tol * exact))

    def test_level_rows_split_at_their_breakpoints_and_empty_rows(self):
        steps = np.array([1.0 / 3.0, 0.5])
        values, errors = integrate_levels(lambda r, rows: (r < steps[rows, None]).astype(float), np.zeros(3),
                                          np.array([1.0, 1.0, 0.0]), QuadratureConfig(), [[steps[0]], [steps[1]], []],
                                          str)
        assert values[:2] == pytest.approx(steps, abs=1e-12)
        assert (values[2], errors[2]) == (0.0, 0.0)
        # first panels come from one pass over all rows: ragged breakpoints, empty rows (hi < lo, hi = lo) and
        # root_end rows, given as lists and as a padded array, each with its one-row bits
        lo = np.array([0.0, 0.5, 1.0, 0.0, 2.0, 0.2, 1.0])
        hi = np.array([3.0, 2.0, 0.5, 2.5, 2.0, 1.9, 3.0])
        kinks = [[1.0, 1.5, 2.0], [], [0.7], [0.4, 2.2], [], [1.0], [2.0]]
        root = np.array([False, True, True, True, False, False, True])
        f = lambda r, rows: np.sqrt(np.abs(r - 0.3 * rows[:, None])) * np.sqrt(np.maximum(hi[rows, None] - r, 0.0))
        config = QuadratureConfig()
        got = integrate_levels(f, lo, hi, config, kinks, str, root)
        padded = np.array([k + [h] * (3 - len(k)) for k, h in zip(kinks, hi)])
        assert np.array_equal(np.array(got), np.array(integrate_levels(f, lo, hi, config, padded, str, root)))
        for i in range(lo.size):
            one = integrate_levels(lambda r, rows: f(r, rows + i), lo[i:i + 1], hi[i:i + 1], config, kinks[i:i + 1],
                                   str, root[i:i + 1])
            assert [float(v[i]).hex() for v in got] == [float(v[0]).hex() for v in one], i
        assert (got[0][2], got[1][2], got[0][4], got[1][4]) == (0.0, 0.0, 0.0, 0.0)
        # a call in which no row has a panel returns floats too
        empty = integrate_levels(f, np.array([1.0, 2.0]), np.array([0.5, 2.0]), config, [[], []], str)
        assert [v.dtype for v in empty] == [np.float64, np.float64]

    def test_error_densities_join_the_error_but_not_the_bisection(self):
        # a density of 1 per unit length adds hi - lo to the error; were it bisected on, no row would stop short of 200
        config = QuadratureConfig()
        f = lambda r, rows: np.sqrt(np.abs(r - 0.3))
        plain = integrate_levels(f, np.zeros(2), np.array([1.0, 2.0]), config, [[], [0.3]], str)
        dense = integrate_levels(lambda r, rows: (f(r, rows), np.ones_like(r)), np.zeros(2), np.array([1.0, 2.0]),
                                 config, [[], [0.3]], str)
        assert np.array_equal(dense[0], plain[0])
        assert dense[1] - plain[1] == pytest.approx([1.0, 2.0], rel=1e-12)
        # a root_end row takes the density in t as well: the integral of 2 t over [0, 1] is still hi - lo
        root = integrate_levels(lambda r, rows: (f(r, rows), np.ones_like(r)), np.zeros(1), np.ones(1), config, [[]],
                                str, np.array([True]))
        assert root[1][0] - integrate_levels(f, np.zeros(1), np.ones(1), config, [[]], str, np.array([True]))[1][0] \
            == pytest.approx(1.0, rel=1e-12)

    def test_root_end_rows_integrate_a_square_root_edge_sharply(self):
        # sqrt(1 - r) * (1 + r) on [0, 1], plus sqrt(1 - r) past the breakpoint 0.5
        f = lambda r, rows: np.sqrt(np.maximum(1.0 - r, 0.0)) * np.where(r < 0.5, 1.0 + r, 2.0 + r)
        exact = 14.0 / 15.0 + 2.0 / 3.0 * 0.5**1.5
        config = QuadratureConfig()
        loose, tight = (integrate_levels(f, np.zeros(1), np.ones(1), config, [[0.5]], str, root)
                        for root in (None, np.array([True])))
        assert abs(tight[0][0] - exact) <= tight[1][0] <= 1e-13
        assert abs(loose[0][0] - exact) <= loose[1][0]
        assert tight[1][0] < loose[1][0] / 100.0

    def test_failure_names_the_label_and_the_distance_interval(self):
        rough = lambda r, rows: np.sin(1e7 * r)
        with pytest.raises(QuadratureError, match=r"^level 1: quadrature did not converge on \[") as failure:
            integrate_levels(rough, np.zeros(2), np.array([0.0, 2.0]), QuadratureConfig(), [[], []],
                             lambda row: f"level {row}", np.array([False, True]))
        interval = str(failure.value).split(" did not converge on [", 1)[1].split("] m", 1)[0]
        lo, hi = (float(v) for v in interval.split(", "))
        assert 0.0 <= lo < hi <= 2.0


class TestFovProbability:
    def test_zero_half_angle(self):
        assert an.fov_probability(paper_model(), 5.0, 0.0) == 0.0

    def test_full_half_angle(self):
        assert an.fov_probability(paper_model(), 5.0, math.pi) == pytest.approx(1.0)

    def test_conditional_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        n = 400_000
        r = 5.0
        _, _, phi = sample_user_arrays(PAPER.mobility, rng, n)
        theta = incidence_angle(np.full(n, r), phi, PAPER.geom.ell)
        frac = (np.abs(theta) <= PAPER.geom.half_fov).mean()
        pred = an.fov_probability(paper_model(), r, PAPER.geom.half_fov)
        assert abs(frac - pred) <= stats.binomial_tolerance(pred, n)


class TestNonzeroProbability:
    def test_all_inside_config(self):
        # a tight cone around the boresight keeps every draw inside the FOV
        mob = MobilityConfig.from_degrees(0.0, 1.0, 85.0, 95.0, 2.0, 5)
        model = AnalyticModel(geom=PAPER.geom, mobility=mob)
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
        d, _, phi = sample_user_arrays(PAPER.mobility, rng, n)
        frac = (channel_gain(PAPER.geom, d, phi) > 0.0).mean()
        pred, _ = an.nonzero_gain_probability(paper_model())
        assert abs(frac - pred) <= stats.binomial_tolerance(pred, n)


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

        p, _ = an.nonzero_gain_probability(paper_model())
        for k in (0, 3, 10, 20):
            assert an.nonzero_count_pmf(paper_model(), k, 0) == pytest.approx(binom.pmf(k, 20, p), rel=1e-12)

    def test_normalization(self):
        total = sum(an.nonzero_count_pmf(paper_model(), k, 10) for k in range(21))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalization_down_to_the_smallest_normal_tail(self):
        # at K = 1000 the tail Pr(count >= 960) is 3.2e-303, still a normal float
        model = replace(paper_model(), mobility=replace(PAPER.mobility, num_users=MAX_USERS))
        weights = an.nonzero_count_pmf(model, np.arange(960, MAX_USERS + 1), 960)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_zero_below_minimum(self):
        assert an.nonzero_count_pmf(paper_model(), 9, 10) == 0.0

    def test_zero_outside_the_user_count(self):
        # counts below 0 or above K = 20 have no mass, at any truncation
        for k_min in (0, 10):
            assert an.nonzero_count_pmf(paper_model(), np.array([-1, 21, 40]), k_min).tolist() == [0.0, 0.0, 0.0]

    def test_conditional_histogram(self):
        rng = np.random.default_rng(2)
        n = 150_000
        d, _, phi = sample_user_arrays(PAPER.mobility, rng, n * 20)
        counts = (channel_gain(PAPER.geom, d.reshape(n, 20), phi.reshape(n, 20)) > 0.0).sum(axis=1)
        kept = counts[counts >= 10]
        for k in (10, 11, 12):
            q = an.nonzero_count_pmf(paper_model(), k, 10)
            freq = (kept == k).mean()
            assert abs(freq - q) <= stats.binomial_tolerance(q, kept.size)


class TestBoundaryAngles:
    def test_zero_level_gives_cap(self):
        # every incidence clears a zero level, so the boundary sits at the arccos clamp
        assert an.gain_boundary_angle(PAPER.geom, 0.0, 3.0) == pytest.approx(math.pi / 2.0)

    def test_saturated_level(self):
        x = PAPER.geom.gain_factor(3.0) ** 2 * 1.5  # above the max squared gain at r = 3
        assert an.gain_boundary_angle(PAPER.geom, float(x), 3.0) == 0.0

    def test_recovers_incidence_angle(self):
        # by construction h^2 / g^2 = cos^2(theta)
        target = math.radians(20.0)
        x = float(PAPER.geom.gain_factor(4.0) ** 2) * math.cos(target) ** 2
        assert an.gain_boundary_angle(PAPER.geom, x, 4.0) == pytest.approx(target, abs=1e-12)

    def test_boundary_distance_round_trip(self):
        x = 1e-13
        r = an.gain_boundary_distance(PAPER.geom, x)
        assert float(PAPER.geom.gain_factor(r) ** 2) == pytest.approx(x, rel=1e-10)
        assert an.gain_boundary_distance(PAPER.geom, 1.0) == 0.0
        assert an.gain_boundary_distance(PAPER.geom, 0.0) == math.inf


def assert_float_is_array_entry(law, points, *args):
    """``law(v, *args)`` at each float v of ``points`` is bit for bit entry i of ``law(points, *args)``.

    The array is read-only, so a law that writes into its argument fails, and
    it must come back unchanged.  Each point is also passed as ``np.float64``
    and as a 0-d array; every 0-d result must behave as a float.
    """
    points = np.array(points, float)
    kept = points.copy()
    points.setflags(write=False)
    whole = np.broadcast_to(law(points, *args), points.shape)
    assert np.array_equal(points.view(np.int64), kept.view(np.int64)), law.__name__
    want = [v.hex() for v in whole.tolist()]
    for kind in (float, np.float64, np.array):
        results = [law(kind(v), *args) for v in points.tolist()]
        assert all(np.ndim(one) == 0 and isinstance(one + 0.0, float) for one in results), (law.__name__, kind)
        assert [float(one).hex() for one in results] == want, (law.__name__, kind)


class TestOnePathPerLaw:
    """Every angle law has one NumPy path: a float is its 0-d case, with the bits of the same point in an array.

    The clipping laws clip their own result in place, never their argument.
    """

    POINTS = 1000

    def uniform(self, lo, hi, seed=11):
        return np.random.default_rng(seed).uniform(lo, hi, self.POINTS)

    def test_boresight_and_boundary_angles(self):
        geom = paper_model(25.0).geom
        r = np.concatenate(([0.0, 1.0, 10.0], self.uniform(0.0, 10.0)))
        assert_float_is_array_entry(lambda v: incidence_angle(v, 0.0, geom.ell), r)
        # levels of 0 to 1.5 times the squared gain at r = 1: the boundary angle's pi/2 and 0 clamps included
        top = float(geom.gain_factor(1.0) ** 2)
        for scale in (0.0, 0.3, 1.0, 1.5):
            assert_float_is_array_entry(lambda v, x=top * scale: an.gain_boundary_angle(geom, x, v), r)
        x = 10.0 ** self.uniform(-17.0, -9.0, seed=12)
        assert_float_is_array_entry(lambda v: an.gain_boundary_angle(geom, v, 3.0), x)

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_fov_probability(self, dphi):
        model = paper_model(dphi)
        mob, theta = model.mobility, model.geom.half_fov
        # the distances where c(r) +/- half_fov crosses a corner of the angle CDF, and the range ends
        kinks = an._breakpoints(model, mob.d_min, mob.d_max, (theta,))[0]
        r = np.concatenate(([mob.d_min, mob.d_max], kinks, self.uniform(mob.d_min, mob.d_max)))
        for half_angle in (0.0, 0.5 * theta, theta, math.pi):
            assert_float_is_array_entry(lambda v, y=half_angle: an.fov_probability(model, v, y), r)

    @pytest.mark.parametrize("dphi", (0.0, 0.2))
    def test_conditional_phi_cdf(self, dphi):
        # both signs of zero and points clipped at either end; a mean of delta_phi puts the lower edge at +0.0,
        # so x = -0.0 gives the unclipped value -0.0, which the clip must turn into +0.0 in an array too
        x = np.concatenate(([-0.0, 0.0, -1.0, 1.0, 4.0], self.uniform(-0.5, math.pi + 0.5)))
        for mean in (dphi, 1.0):
            assert_float_is_array_entry(lambda v, m=mean: conditional_phi_cdf(m, dphi, v), x)

    @pytest.mark.parametrize("mob", (
        PAPER.mobility,
        MobilityConfig.from_degrees(0.0, 10.0, 25.0, 155.0, 0.0, 20),
        MobilityConfig.from_degrees(0.0, 10.0, 90.0, 90.0, 25.0, 20),
        MobilityConfig.from_degrees(0.0, 10.0, 90.0, 90.0, 0.0, 20),
    ))
    def test_marginal_phi_cdf(self, mob):
        x = np.concatenate((an._corners(mob), [0.0, math.pi], self.uniform(-0.2, math.pi + 0.2)))
        assert_float_is_array_entry(lambda v: marginal_phi_cdf(mob, v), x)

    @pytest.mark.parametrize("half_width", (0.0, math.radians(25.0), 1.0))
    def test_deviation_cdf_integral(self, half_width):
        t = np.concatenate(([-half_width, half_width, 0.0], self.uniform(-2.0, 2.0)))
        assert_float_is_array_entry(deviation_cdf_integral, t, half_width)


class TestUnorderedCdf:
    def test_zero_at_origin(self):
        assert an.unordered_gain_cdf(paper_model(), np.array([0.0]))[0] == 0.0

    def test_one_beyond_support(self):
        # nothing is left to integrate above the support, so the value does not depend on the normalizer
        top = float(PAPER.geom.gain_factor(PAPER.mobility.d_min) ** 2)
        assert an.unordered_gain_cdf(paper_model(), np.array([top * 1.0001])) == (1.0, 0.0)

    def test_monte_carlo_sup_distance(self):
        rng = np.random.default_rng(3)
        d, _, phi = sample_user_arrays(PAPER.mobility, rng, 400_000)
        g2 = channel_gain(PAPER.geom, d, phi) ** 2
        sup = EmpiricalCdf(g2[g2 > 0.0]).sup_distance(lambda x: an.unordered_gain_cdf(paper_model(), x)[0], 250)
        assert sup <= 0.008

    def test_monotone_on_grid(self):
        vals, _ = an.unordered_gain_cdf(paper_model(), np.geomspace(1e-17, 1e-9, 200))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((0.0 <= vals) & (vals <= 1.0))


class TestOrderedCdf:
    def test_forced_full_count_gives_max_power(self):
        x = np.array([1e-12])
        u, _ = an.unordered_gain_cdf(paper_model(), x)
        assert an.ordered_gain_cdf(paper_model(), x, 20, 20)[0] == pytest.approx(u**20, rel=1e-9)

    def test_one_beyond_support(self):
        top = float(PAPER.geom.gain_factor(PAPER.mobility.d_min) ** 2)
        value, err = an.ordered_gain_cdf(paper_model(), np.array([top * 1.01]), 10, 10)
        assert value == pytest.approx(1.0)
        assert err == 0.0

    def test_stochastic_ordering(self):
        xs = np.geomspace(1e-16, 1e-10, 40)
        f1, f5, f10 = (an.ordered_gain_cdf(paper_model(), xs, rank, 10)[0] for rank in (1, 5, 10))
        assert np.all(f1 >= f5 - 1e-12) and np.all(f5 - 1e-12 >= f10 - 2e-12)

    def test_rank_validation(self):
        # the ranks reach ordered_gain_cdf from config, which refuses a rank outside [1, K]
        with pytest.raises(ConfigError, match="strategy.rank_weak"):
            build_experiment(merge({"strategy.rank_weak": "0"}))
        with pytest.raises(ConfigError, match="strategy.rank_strong"):
            build_experiment(merge({"mobility.num_users": "10", "strategy.rank_strong": "11"}))


class TestGroupCdfs:
    def test_lower_edges(self):
        mi, mm = (paper_model(kind=kind) for kind in TWO_BIT_KINDS)
        assert an.group_gain_cdf_instant(mi, np.array([0.0]), an.WEAK)[0] == 0.0
        assert an.group_gain_cdf_instant(mi, np.array([0.0]), an.STRONG)[0] == 0.0
        assert an.group_gain_cdf_mean(mm, np.array([-1e-30]), an.WEAK) == (0.0, 0.0)
        # mean-report weak group keeps an atom at zero for nonzero deviation
        assert an.group_gain_cdf_mean(mm, np.array([0.0]), an.WEAK)[0] > 0.1
        assert an.group_gain_cdf_mean(mm, np.array([0.0]), an.STRONG)[0] == pytest.approx(0.0, abs=1e-12)

    def test_upper_edges(self):
        # each group's gain support ends at its nearest distance; above it the CDF is exactly 1 with no error
        for kind, cdf in ((FeedbackKind.TWO_BIT_INSTANT, an.group_gain_cdf_instant),
                          (FeedbackKind.TWO_BIT_MEAN, an.group_gain_cdf_mean)):
            model = paper_model(kind=kind)
            for role, nearest in ((an.STRONG, model.mobility.d_min), (an.WEAK, model.scheme.d_threshold)):
                top = np.array([float(model.geom.gain_factor(nearest) ** 2)])
                assert cdf(model, top, role)[0] == pytest.approx(1.0), (kind, role)
                assert cdf(model, top * 1.0001, role) == (1.0, 0.0), (kind, role)

    def test_static_deviation_collapses_mean_onto_instant(self):
        mi, mm = (paper_model(0.0, kind) for kind in TWO_BIT_KINDS)
        xs = np.geomspace(1e-16, 1e-10, 25)
        for role in (an.WEAK, an.STRONG):
            assert np.all(np.abs(an.group_gain_cdf_mean(mm, xs, role)[0] - an.group_gain_cdf_instant(mi, xs, role)[0])
                          <= 1e-6)

    def test_static_deviation_collapses_mean_success_onto_instant(self):
        # the success probabilities read the same bands as the CDFs; 1e-6 is the bound of
        # validate's theorem-coincidence-zero-deviation check, over its level span
        base = paper_model(0.0)
        geom, mob = base.geom, base.mobility
        levels = np.array(LEVELS + tuple(np.geomspace(1e-17, 1e-10, 40)))
        for thresholds in ("paper", "wide"):
            instant, mean = group_models(geom, mob, thresholds)
            for role in (an.WEAK, an.STRONG):
                a, _ = an.group_success_probability(mean, levels, role)
                b, _ = an.group_success_probability(instant, levels, role)
                assert np.all(np.abs(a - b) <= 1e-6), (thresholds, role, levels[np.abs(a - b) > 1e-6])

    def test_strong_group_degeneracy_matches_unordered(self):
        model = paper_model()
        scheme = FeedbackScheme(INSTANT, d_threshold=model.mobility.d_max, theta_threshold=model.geom.half_fov)
        mi = replace(model, scheme=scheme)
        xs = np.geomspace(1e-16, 1e-10, 20)
        assert an.group_gain_cdf_instant(mi, xs, an.STRONG)[0] == pytest.approx(an.unordered_gain_cdf(model, xs)[0],
                                                                                abs=1e-9)

    def test_angle_threshold_cannot_exceed_fov(self):
        # 60 deg against the 50 deg half FOV: config refuses the coefficient before a model is built
        with pytest.raises(ConfigError, match="schemes.theta_threshold_coeff"):
            build_experiment(merge({"schemes.list": "two-bit-instant", "schemes.theta_threshold_coeff": "1.2"}))

    def test_requires_matching_scheme(self, monkeypatch):
        # the group families trust their model's scheme to be two-bit: sum_rate_sweep hands each route a model
        # carrying that route's own scheme, and only the two-bit kinds reach the group route
        assert {kind for kind, route in an.ROUTES.items() if route is an._group_route} == set(TWO_BIT_KINDS)
        seen = []

        def recorder(kind):
            def route(model, rank_weak, rank_strong):
                seen.append((kind, model.scheme.kind, rank_weak, rank_strong))
                return 1.0, *(lambda x: (np.zeros_like(x), np.zeros_like(x)),) * 2
            return route

        for kind in an.ROUTES:
            monkeypatch.setitem(an.ROUTES, kind, recorder(kind))
        schemes = tuple(paper_model(kind=kind).scheme for kind in (FeedbackKind.FULL_CSI, FeedbackKind.MEAN_ANGLE,
                                                                   *TWO_BIT_KINDS))
        sweep((170.0, 200.0), *schemes)
        assert sorted(seen, key=str) == sorted(((s.kind, s.kind, 1, 10) for s in schemes), key=str)


def _quad_mean_band(model, r, inner, outer, y):
    """_mean_band by adaptive quadrature over the uniform mean angle of conditional_phi_cdf."""
    mob = model.mobility
    c, dphi = incidence_angle(r, 0.0, model.geom.ell), mob.delta_phi

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
        model, outer = paper_model(dphi), inner + width
        assert an._mean_band(model, r, inner, outer, y) == pytest.approx(_quad_mean_band(model, r, inner, outer, y),
                                                                         abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(0.0, 10.0), outer=st.floats(math.pi, 4.0), y=st.floats(0.0, math.pi / 2.0),
           dphi=st.sampled_from((0.0, 25.0)))
    def test_open_band_is_the_instantaneous_fov_probability(self, r, outer, y, dphi):
        model = paper_model(dphi)
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
        _, p_strong = membership_probabilities(paper_model(kind=INSTANT))
        assert p_strong == pytest.approx(0.1 * 10.0 / 130.0, rel=1e-6)

    def test_membership_monte_carlo(self):
        mi = paper_model(kind=INSTANT)
        p_weak, p_strong = membership_probabilities(mi)
        rng = np.random.default_rng(4)
        n = 500_000
        d, _, phi = sample_user_arrays(mi.mobility, rng, n)
        theta = incidence_angle(d, phi, mi.geom.ell)
        d_th, th = mi.scheme.d_threshold, mi.scheme.theta_threshold
        w = ((d > d_th) & (np.abs(theta) > th)).mean()
        s = ((d <= d_th) & (np.abs(theta) <= th)).mean()
        assert abs(w - p_weak) <= stats.binomial_tolerance(p_weak, n)
        assert abs(s - p_strong) <= stats.binomial_tolerance(p_strong, n)

    def test_mean_report_groups_need_a_mean_angle_range(self):
        # one mean angle leaves the mean-report memberships undefined, as it leaves the group CDFs
        one_angle = replace(PAPER.mobility, mean_phi_min=math.pi / 2.0, mean_phi_max=math.pi / 2.0, delta_phi=0.0)
        mm = replace(paper_model(kind=MEAN), mobility=one_angle)
        with pytest.raises(an.UndefinedLawError, match="mobility.mean_phi_min_deg"):
            an.both_groups_probability(mm)


def thresholds(*gammas):
    """The NOMA (eta_weak, eta_strong) arrays at the transmit SNRs ``gammas``."""
    return eta_thresholds(PAPER.noma, np.array(gammas, float))


def route_outage(model, kind, thresholds):
    """(p_weak, err_weak, p_strong, err_strong) arrays of the closed-form route of ``kind`` at ranks 1 and 10."""
    _, weak, strong = an.ROUTES[kind](model, 1, 10)
    eta_weak, eta_strong = thresholds
    return (*weak(eta_weak), *strong(eta_strong))


class TestOutage:
    def test_individual_high_snr_limit(self):
        pw, _, ps, _ = (v[0] for v in route_outage(paper_model(), FeedbackKind.FULL_CSI, thresholds(1e30)))
        assert pw == pytest.approx(0.0, abs=1e-12)
        assert ps == pytest.approx(0.0, abs=1e-12)

    def test_individual_low_snr_limit(self):
        pw, _, ps, _ = (v[0] for v in route_outage(paper_model(), FeedbackKind.FULL_CSI, thresholds(1e-6)))
        assert pw == pytest.approx(1.0, abs=1e-12)
        assert ps == pytest.approx(1.0, abs=1e-12)

    def test_individual_monte_carlo_midpoint(self):
        rng = np.random.default_rng(5)
        n = 150_000
        d, _, phi = sample_user_arrays(PAPER.mobility, rng, n * 20)
        g2 = channel_gain(PAPER.geom, d.reshape(n, 20), phi.reshape(n, 20)) ** 2
        masked = np.where(g2 > 0.0, g2, np.inf)
        masked.sort(axis=1)
        keep = (g2 > 0.0).sum(axis=1) >= 10
        w, s = masked[keep, 0], masked[keep, 9]
        eta_weak, eta_strong = thresholds(*(10.0 ** (gdb / 10.0) for gdb in (160.0, 185.0)))
        outage = route_outage(paper_model(), FeedbackKind.FULL_CSI, (eta_weak, eta_strong))
        for tw, ts, pw, ps in zip(eta_weak, eta_strong, outage[0], outage[2]):
            assert abs((w <= tw).mean() - pw) <= stats.binomial_tolerance(pw, w.size, tol_floor=1e-4)
            assert abs((s <= ts).mean() - ps) <= stats.binomial_tolerance(ps, s.size, tol_floor=1e-4)

    def test_group_high_snr_floor_is_fov_mismatch(self):
        mi = paper_model(kind=INSTANT)
        pw, _, ps, _ = (v[0] for v in route_outage(mi, INSTANT, thresholds(1e28)))
        # strong group members always have nonzero gain; weak keeps the out-of-FOV share
        assert ps == pytest.approx(0.0, abs=1e-9)
        th, d_th, d_max = mi.scheme.theta_threshold, mi.scheme.d_threshold, mi.mobility.d_max
        den, _ = an._band_mass(mi, th, math.pi, d_th, d_max)
        num, _ = an._band_mass(mi, th, mi.geom.half_fov, d_th, d_max)
        assert pw == pytest.approx(1.0 - num / den, abs=1e-9)

    def test_group_low_snr_limit(self):
        pw, _, ps, _ = (v[0] for v in route_outage(paper_model(kind=MEAN), MEAN, thresholds(1e-6)))
        assert pw == pytest.approx(1.0, abs=1e-12)
        assert ps == pytest.approx(1.0, abs=1e-12)


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
        c = incidence_angle(r, 0.0, geom.ell)
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


def assert_within_reported_error(model, levels, rank):
    """The route is within its reported error of the oracle, and so within its quadrature part alone.

    The quadrature part is the reported error less the table term (the rank
    weight's variation times the table error), which the oracle shares.
    """
    values, errors = an.mean_angle_success_probability(model, np.asarray(levels, float), rank, 10)
    _, cdf_err = an._mean_gain_cdf_table(an._mean_model(model))
    table = an._rank_density(model, rank, 10)[1] * cdf_err
    for threshold, value, err in zip(levels, values.tolist(), errors.tolist()):
        ref, ref_err = adaptive_mean_angle(model, float(threshold), rank, 10)
        assert ref_err <= 0.1 * err, (threshold, rank, ref_err, err)
        assert abs(value - ref) <= err, (threshold, rank, value, ref, err)
        assert abs(value - ref) <= err - table, (threshold, rank, value, ref, err - table)


class TestMeanAngleRoute:
    def test_zero_deviation_matches_full_csi(self):
        # without tilt deviation the mean angle is the instantaneous angle, so the
        # mean-angle ordering is the full-CSI ordering and success = 1 - ordered CDF
        model = paper_model(0.0)
        assert an.nonzero_count_tail(an._mean_model(model), 10) == an.nonzero_count_tail(model, 10)
        grid = range(140, 216, 5)
        eta_weak, eta_strong = thresholds(*(10.0 ** (gdb / 10.0) for gdb in grid))
        for eta, rank in ((eta_weak, 1), (eta_strong, 10)):
            s, es = an.mean_angle_success_probability(model, eta, rank, 10)
            f, ef = an.ordered_gain_cdf(model, eta, rank, 10)
            for gdb, outage, cdf, tol in zip(grid, (1.0 - s).tolist(), f.tolist(), (es + ef).tolist()):
                assert abs(outage - cdf) <= tol, (gdb, rank, outage, cdf, tol)

    def test_monte_carlo_per_slot(self):
        rng = np.random.default_rng(7)
        n = 150_000
        d, mean_phi, phi = (a.reshape(n, 20) for a in sample_user_arrays(PAPER.mobility, rng, n * 20))
        h2, mean_h2 = channel_gain(PAPER.geom, d, phi) ** 2, channel_gain(PAPER.geom, d, mean_phi) ** 2
        order = np.argsort(np.where(mean_h2 > 0.0, mean_h2, np.inf), axis=1, kind="stable")
        keep = (mean_h2 > 0.0).sum(axis=1) >= 10
        served = np.take_along_axis(h2, order[:, [0, 9]], axis=1)[keep]
        eta_weak, eta_strong = eta_thresholds(PAPER.noma, 10.0 ** (190.0 / 10.0))
        for col, eta, rank in ((0, eta_weak, 1), (1, eta_strong, 10)):
            [p], _ = an.mean_angle_success_probability(paper_model(), np.array([eta]), rank, 10)
            freq = (served[:, col] > eta).mean()
            assert abs(freq - p) <= stats.binomial_tolerance(p, served.shape[0])

    def test_sweep_labels_and_conditioning(self):
        curves = sweep((215.0,), FeedbackScheme(FeedbackKind.MEAN_ANGLE))
        assert set(curves) == {"noma-mean-angle", "oma"}
        point = curves["noma-mean-angle"][0]
        assert point.conditioning_rate == pytest.approx(an.nonzero_count_tail(an._mean_model(paper_model()), 10))
        # the plateau keeps the zero-true-gain loss of both slots, over 1 bit/s/Hz
        assert 10.0 < point.sum_rate < 11.0

    def test_rank_validation(self):
        # the ranks reach mean_angle_success_probability from config, which refuses rank_weak >= rank_strong
        with pytest.raises(ConfigError, match="strategy.rank_strong"):
            build_experiment(merge({"schemes.list": "mean-angle", "strategy.rank_weak": "5",
                                    "strategy.rank_strong": "5"}))
        with pytest.raises(ConfigError, match="strategy.rank_weak"):
            build_experiment(merge({"schemes.list": "mean-angle", "mobility.num_users": "10",
                                    "strategy.rank_weak": "10"}))

    def test_models_differing_only_in_deviation_share_one_table(self):
        paper = paper_model()
        static = replace(paper, mobility=replace(paper.mobility, delta_phi=0.0))
        misses = an._mean_gain_cdf_table.cache_info().misses
        for model in (static, paper):
            an.mean_angle_success_probability(model, np.array([1e-12]), 1, 10)
        assert an._mean_gain_cdf_table.cache_info().misses - misses <= 1

    # (rank, min_count): no power of u (rank 1), no power of 1 - u (rank = min_count), both, and both of exponent 1
    @pytest.mark.parametrize("rank,min_count", ((1, 10), (10, 10), (20, 20), (3, 5), (2, 3)))
    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_rank_density_is_the_binomial_mixture_and_bounds_its_variation(self, dphi, rank, min_count):
        model = paper_model(dphi)
        density, variation = an._rank_density(model, rank, min_count)
        n = np.arange(min_count, model.mobility.num_users + 1)
        weights = an.nonzero_count_pmf(an._mean_model(model), n, min_count)
        u = np.linspace(0.0, 1.0, 200_001)
        want = sum(w * k * binom.pmf(rank - 1, k - 1, u) for w, k in zip(weights.tolist(), n.tolist()))
        got = density(u)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        # the grid's total variation, summed over 200 000 steps, is exact to about 1e-15 relative
        grid = float(np.abs(np.diff(got)).sum())
        assert variation >= grid * (1.0 - 1e-12), (variation, grid)
        if (rank, min_count) in ((1, 10), (20, 20)):  # W is monotone: its variation is |W(1) - W(0)|
            assert variation == pytest.approx(grid, rel=1e-9)

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_weighted_band_is_an_exact_zero_where_the_band_is_empty(self, dphi):
        # the rank weight is evaluated at every node, an empty band's too: there the product must stay an exact 0
        model = paper_model(dphi)
        geom, mob = model.geom, model.mobility
        cdf, _ = an._mean_gain_cdf_table(an._mean_model(model))
        density, _ = an._rank_density(model, 10, 10)
        peak = float(density(np.linspace(0.0, 1.0, 200_001)).max())
        r = np.linspace(mob.d_min, mob.d_max, 301)
        u = np.linspace(-geom.half_fov, geom.half_fov, 401)
        dead_band = dead_row = 0
        # the pinned levels of the mean-angle rule, and one above g(d_min)^2, whose band is empty everywhere
        for level in (5e-15, 4e-13, 2e-11, 1e-9):
            cap = np.minimum(an.gain_boundary_angle(geom, np.full(r.size, level), r), geom.half_fov)[:, None]
            got = an._weighted_band(cdf, density, mob.delta_phi, geom.gain_factor(r)[:, None] ** 2, cap, u)
            band = conditional_phi_cdf(0.0, mob.delta_phi, u + cap) - conditional_phi_cdf(0.0, mob.delta_phi, u - cap)
            empty = band == 0.0
            assert np.all(got[empty] == 0.0), level
            assert np.all((got >= 0.0) & (got <= band * peak * (1.0 + 1e-12))), level
            dead_band += int(np.count_nonzero(empty))
            dead_row += int(np.count_nonzero(np.all(empty, axis=1)))
        # the rows hold empty bands beside live nodes, and whole rows without a live node
        assert dead_band > dead_row * u.size and dead_row

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_table_lookup_holds_its_ends_and_steps_within_its_error_at_panel_starts(self, dphi):
        mean = an._mean_model(paper_model(dphi))
        cdf, err = an._mean_gain_cdf_table(mean)
        panels = inspect.getclosurevars(cdf).nonlocals
        lo, hi, starts = panels["lo"], panels["hi"], panels["starts"]
        # beyond the table's range the lookup is the end value, within the error of the CDF there
        ends = an.unordered_gain_cdf(mean, np.exp([lo, hi]))[0]
        below, above = np.linspace(lo - 5.0, lo - 1e-9, 50), np.linspace(hi + 1e-9, hi + 5.0, 50)
        for beyond, end in ((below, ends[0]), (above, ends[1])):
            got = cdf(np.exp(beyond))
            assert np.unique(got).size == 1 and abs(float(got[0]) - end) <= err, (got[0], end, err)
        # the two panels at a start each miss the continuous CDF by at most the error, so they meet within twice it
        left, right = cdf(np.exp(starts - 1e-12)), cdf(np.exp(starts + 1e-12))
        step = np.abs(right - left)
        assert np.all(step <= 2.0 * err), (float(step.max()), err)

    @pytest.mark.parametrize("mobility,x", [
        (paper_model(0.0).mobility, np.geomspace(1e-16, 4e-11, 40)),
        (paper_model(25.0).mobility, np.geomspace(1e-16, 4e-11, 40)),
        # a 0.5 degree corner: many of its kinks lie within 5 cm of the LED
        (MobilityConfig.from_degrees(0.0, 10.0, 10.5, 150.0, 10.0, 20), np.geomspace(1e-22, 4e-11, 60)),
        # a 90 degree corner: cos t is about 6e-17 there, so the turning points' quadratic loses its square term
        (MobilityConfig.from_degrees(0.0, 10.0, 80.0, 100.0, 10.0, 20), np.geomspace(1e-22, 4e-11, 60)),
    ], ids=["0.0", "25.0", "corner=0.5deg", "corner=90deg"])
    def test_moving_kinks_are_corner_crossings_to_the_last_float(self, mobility, x):
        # the route's call; a moving kink is a sign change of cos^2(t - c(r)) - x / g(r)^2 for a corner t
        model = AnalyticModel(geom=paper_model().geom, mobility=mobility)
        geom, mob, mean = model.geom, model.mobility, an._mean_model(model)
        theta = geom.half_fov
        his = np.array([max(mob.d_min, min(mob.d_max, an.gain_boundary_distance(geom, level))) for level in x])
        caps = (theta, abs(theta - mob.delta_phi))
        found = an._breakpoints(mean, mob.d_min, his, (theta,), x, caps, an._corners(mob))
        fixed = an._breakpoints(mean, mob.d_min, his, (theta,), x, caps)
        corners = np.array(an._corners(mob))[:, None]
        moving = 0
        for level, points, known in zip(x.tolist(), found, fixed):
            for root in sorted(set(points) - set(known)):
                r = np.array([np.nextafter(root, -np.inf), root, np.nextafter(root, np.inf)])
                gap = ((r * np.cos(corners) - geom.ell * np.sin(corners)) ** 2 / (geom.ell**2 + r * r)
                       - level * an.inverse_squared_gain(geom, r))
                sign = np.signbit(gap)
                assert np.any((sign[:, 0] != sign[:, 1]) | (sign[:, 1] != sign[:, 2])), (level, root)
                moving += 1
        assert moving

    def test_every_corner_crossing_is_found(self):
        # the instantaneous rows' call at weak-user thresholds, where a level crosses a corner twice, under 2.5 cm
        # apart, around ell tan t; a fine scan of the same sign around each zero ell tan t finds every crossing,
        # and each must lie within one scan step of a returned kink
        model = paper_model(25.0)
        geom, mob = model.geom, model.mobility
        theta = geom.half_fov
        x = np.geomspace(1e-20, 1e-17, 7)
        found = an._breakpoints(model, mob.d_min, mob.d_max, (theta,), x, (theta,), an._corners(mob))
        crossings = 0
        for t in an._corners(mob):
            zero = geom.ell * math.tan(t)
            if not mob.d_min < zero < mob.d_max:
                continue
            r = np.linspace(zero - 0.05, zero + 0.05, 100_001)
            step = r[1] - r[0]
            for level, points in zip(x.tolist(), found):
                gap = ((r * math.cos(t) - geom.ell * math.sin(t)) ** 2 / (geom.ell**2 + r * r)
                       - level * an.inverse_squared_gain(geom, r))
                sign = np.signbit(gap)
                for i in np.flatnonzero(sign[:-1] != sign[1:]).tolist():
                    assert np.min(np.abs(np.array(points) - r[i])) <= step, (t, level, r[i])
                    crossings += 1
        assert crossings == 14

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_within_reported_error_of_adaptive_rule_at_pinned_levels(self, dphi):
        # the levels and ranks of the mean_angle family of tests/test_analytic_bitwise.py
        model = paper_model(dphi)
        for rank in (1, 10):
            assert_within_reported_error(model, (5e-15, 4e-13, 2e-11), rank)

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_within_reported_error_of_adaptive_rule_across_the_gain_range(self, dphi):
        # 40 levels from below the gain support (weak-user thresholds at high SNR) to above it
        # (strong-user thresholds at low SNR); each deviation takes every other one, at ranks 1 and 10
        levels = np.geomspace(1e-17, 1e-10, 40)[int(dphi > 0)::2]
        model = paper_model(dphi)
        for rank in (1, 10):
            assert_within_reported_error(model, levels, rank)

    @pytest.mark.parametrize("mobility,levels", [
        (paper_model(0.0).mobility, 2001),
        (paper_model(25.0).mobility, 2001),
        # a model off the paper's: at 2001 levels its worst miss is 0.995 of the reported error under the
        # cubic-peak factor alone
        (MobilityConfig.from_degrees(0.0, 10.0, 40.0, 120.0, 10.0, 20), 2001),
        # a model whose remainder has an even, quartic part: with the cubic-peak factor alone its worst miss
        # over 20001 levels is 1.0002 of the reported error (9.954e-8 against 9.952e-8), 0.9991 with the even term
        (MobilityConfig.from_degrees(1.0, 6.0, 60.0, 90.0, 0.0, 20), 20001),
    ], ids=["paper-dphi=0", "paper-dphi=25", "dphi=10,mean=40-120", "d=1-6,mean=60-90,dphi=0"])
    def test_table_error_bounds_its_interpolation_miss(self, mobility, levels):
        mean = an._mean_model(AnalyticModel(geom=paper_model().geom, mobility=mobility))
        geom, mob = mean.geom, mean.mobility
        cdf, err = an._mean_gain_cdf_table(mean)
        # the table's range, [g(d_max)^2 cos^2(half_fov), g(d_min)^2]
        lo = float(geom.gain_factor(mob.d_max)) ** 2 * math.cos(geom.half_fov) ** 2
        x = np.geomspace(lo, float(geom.gain_factor(mob.d_min)) ** 2, levels)
        miss = np.abs(cdf(x) - an.unordered_gain_cdf(mean, x)[0])
        assert np.all(miss <= err), (float(miss.max()), err, int(np.sum(miss > err)))


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
        model = paper_model(kind=INSTANT)
        curves = sweep((170.0, 215.0), model.scheme)
        both = an.both_groups_probability(model)
        assert curves["noma-two-bit-instant"][0].conditioning_rate == pytest.approx(both)

    def test_unknown_strategy(self):
        # a kind without a closed-form route is left out, and so is the OMA curve it serves
        assert sweep((170.0,), FeedbackScheme(FeedbackKind.DISTANCE_ONLY)) == {}
        distance_first = sweep((170.0,), FeedbackScheme(FeedbackKind.DISTANCE_ONLY), FeedbackScheme(FeedbackKind.FULL_CSI))
        assert set(distance_first) == {"noma-full-csi"}

    def test_estimation_noise_is_refused_naming_the_keys(self):
        # no route models noisy reports, so a noisy config must not come back as the noiseless curves
        config = replace(PAPER, gamma_db_grid=(170.0,), noise=NoiseConfig(sigma_d=0.05, sigma_phi=0.0))
        curves, failures, skipped = an.sum_rate_sweep(config)
        assert curves == {} and failures == {}
        assert len(skipped) == 1 and "noise.sigma_d_m, noise.sigma_phi_deg" in skipped[0]

    def test_fig3_run_group_skips_the_one_bit_scheme(self):
        (_, flat), _ = resolve_groups("fig3", {}, {"sweep.gamma_db": "170"})
        curves, failures, skipped = an.sum_rate_sweep(build_experiment(flat))
        assert skipped == ["no closed-form route for scheme 'one-bit'"]
        assert set(curves) == {"noma-two-bit-instant", "noma-two-bit-mean", "oma"} and not failures


class TestQuadratureStability:
    def test_halving_within_reported_error(self):
        model = paper_model()
        half = replace(model, quad=QuadratureConfig().halved())
        xs = 10.0 ** np.random.default_rng(6).uniform(-16, -10.5, 10)
        v1, e1 = an.unordered_gain_cdf(model, xs)
        v2, _ = an.unordered_gain_cdf(half, xs)
        assert np.all(np.abs(v2 - v1) <= np.maximum(e1, 1e-14))


BATCH_LEVELS = np.concatenate(([0.0], np.geomspace(1e-17, 1e-10, 63)))


def level_families(dphi):
    """{name: f(levels)} of every level family of the closed form, on the paper models at ``dphi``."""
    base = paper_model(dphi)
    instant, mean = (paper_model(dphi, kind) for kind in TWO_BIT_KINDS)
    out = {"unordered": lambda x: an.unordered_gain_cdf(base, x)}
    for rank in (1, 10):
        out[f"ordered-{rank}"] = lambda x, rank=rank: an.ordered_gain_cdf(base, x, rank, 10)
    for role in (an.WEAK, an.STRONG):
        out[f"group-cdf-instant-{role}"] = lambda x, role=role: an.group_gain_cdf_instant(instant, x, role)
        out[f"group-cdf-mean-{role}"] = lambda x, role=role: an.group_gain_cdf_mean(mean, x, role)
        for name, model in (("instant", instant), ("mean", mean)):
            out[f"group-success-{name}-{role}"] = lambda x, role=role, m=model: an.group_success_probability(m, x, role)
    return out


@lru_cache(maxsize=None)
def one_level_at_a_time(dphi, name):
    """float.hex() of (value, error) of family ``name`` at each of BATCH_LEVELS, each from its one-element call."""
    f = level_families(dphi)[name]
    return [tuple(float(v[0]).hex() for v in f(BATCH_LEVELS[i:i + 1])) for i in range(BATCH_LEVELS.size)]


class TestBatchInvariance:
    """A level's (value, error) does not depend on which other levels share its call, nor on their order."""

    @settings(max_examples=20, deadline=None)
    @given(dphi=st.sampled_from((0.0, 25.0)),
           rows=st.lists(st.integers(0, BATCH_LEVELS.size - 1), min_size=1, max_size=BATCH_LEVELS.size, unique=True))
    def test_each_level_is_bitwise_its_one_element_call(self, dphi, rows):
        for name, f in level_families(dphi).items():
            values, errors = f(BATCH_LEVELS[rows])
            got = [(float(v).hex(), float(e).hex()) for v, e in zip(values, errors)]
            want = [one_level_at_a_time(dphi, name)[i] for i in rows]
            assert got == want, name

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_mean_angle_level_is_bitwise_its_one_element_call(self, dphi):
        # zero, two levels below the gain support, three inside, two above, shuffled; outside the hypothesis
        # loop, as each mean-angle level takes about 10 ms
        rows = [40, 0, 63, 10, 55, 1, 25, 62]
        model = paper_model(dphi)
        for rank in (1, 10):
            values, errors = an.mean_angle_success_probability(model, BATCH_LEVELS[rows], rank, 10)
            got = [(float(v).hex(), float(e).hex()) for v, e in zip(values, errors)]
            want = []
            for i in rows:
                [v], [e] = an.mean_angle_success_probability(model, BATCH_LEVELS[i:i + 1], rank, 10)
                want.append((float(v).hex(), float(e).hex()))
            assert got == want, rank


class TestQuadratureFailure:
    def test_message_names_family_level_and_interval(self, monkeypatch):
        # a planted fault: the boundary angle oscillates far faster than any panel can resolve
        boundary = an.gain_boundary_angle
        monkeypatch.setattr(an, "gain_boundary_angle", lambda geom, x, r: boundary(geom, x, r) + 0.2 * np.sin(1e7 * r))
        with pytest.raises(QuadratureError) as failure:
            an.unordered_gain_cdf(paper_model(25.0), np.array([1e-13, 2e-13]))
        message = str(failure.value)
        assert "unordered_gain_cdf" in message
        assert "level x=1e-13" in message
        interval = message.split(" did not converge on [", 1)[1].split("] m", 1)[0]
        lo, hi = (float(v) for v in interval.split(", "))
        assert 0.0 <= lo < hi <= paper_model(25.0).mobility.d_max

    def test_mean_angle_inner_failure_names_level_distance_and_mean_incidence(self, monkeypatch):
        # a planted fault in the inner integrand: a band that oscillates far faster than any panel over u
        law = an.conditional_phi_cdf
        monkeypatch.setattr(an, "conditional_phi_cdf", lambda m, d, t: law(m, d, t) + 0.2 * np.sin(1e7 * t))
        model = paper_model(25.0)
        with pytest.raises(QuadratureError) as failure:
            an.mean_angle_success_probability(model, np.array([1e-13]), 1, 10)
        message = str(failure.value)
        assert message.startswith("mean_angle_success_probability at level x=1e-13, distance r=")
        distance = float(message.split(", distance r=", 1)[1].split(" m,", 1)[0])
        assert model.mobility.d_min <= distance <= model.mobility.d_max
        assert ", mean incidence: quadrature did not converge on [" in message
        interval, whole = message.split(" did not converge on [", 1)[1].split("] rad of [", 1)
        lo, hi = (float(v) for v in interval.split(", "))
        u_lo, u_hi = (float(v) for v in whole.split("] rad", 1)[0].split(", "))
        fov = float(f"{model.geom.half_fov:.9g}")  # the message rounds to 9 digits
        assert -fov <= u_lo <= lo < hi <= u_hi <= fov

    def test_band_mass_failure_names_a_distance_interval_inside_the_range(self, monkeypatch):
        # a planted fault in the band-mass integrand: a FOV probability that oscillates far faster than any panel
        fov = an.fov_probability
        monkeypatch.setattr(an, "fov_probability", lambda model, r, y: fov(model, r, y) + 0.2 * y * math.sin(1e7 * r))
        model = paper_model(17.0)  # a model of its own, so no band mass of it is cached
        with pytest.raises(QuadratureError) as failure:
            an.nonzero_gain_probability(model)
        message = str(failure.value)
        # the band of the nonzero-gain law, (0, half FOV], and its strip, the whole distance range
        assert f"band mass of (0, {model.geom.half_fov:.9g}] rad over the strip [0, 10] m: " in message
        interval = message.split(" did not converge on [", 1)[1].split("] m", 1)[0]
        lo, hi = (float(v) for v in interval.split(", "))
        assert model.mobility.d_min <= lo < hi <= model.mobility.d_max


# the tight reference: tolerances far below QuadratureConfig's defaults, subdivisions far above
TIGHT = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-13, max_subdivisions=5000)
HONESTY_LEVELS = np.geomspace(1e-16, 10**-10.5, 150)
# ROADMAP direction 1: the mean-report integrand also kinks where c(r) +/- min(b, half_fov) +/- delta_phi
# meets a band edge or an end of the range, and no breakpoint marks those distances yet
MEAN_REPORT_KINKS = pytest.mark.xfail(strict=True, reason="ROADMAP direction 1 (mean-report kinks): the mean-report "
                                      "integrand's kinks are not breakpoints, so its error estimate is too small")


def quadpack(f, lo, hi, config, breakpoints):
    """(value, error) of f over [lo, hi] by QUADPACK (``scipy.integrate.quad``) split at ``breakpoints``, on ``config``.

    The reference rule of ``TestErrorHonesty``, independent of the package's
    Gauss-Kronrod rule: it has Wynn's epsilon extrapolation, and it fails
    when QUADPACK flags a result whose estimate exceeds 100 times the
    tolerance (and 1e-7).
    """
    if hi <= lo:
        return 0.0, 0.0
    points = sorted({p for p in breakpoints if lo < p < hi}) or None
    value, err, _, *message = quad(f, lo, hi, full_output=1, epsabs=config.abs_tol, epsrel=config.rel_tol,
                                   limit=config.max_subdivisions, points=points)
    assert not (message and err > max(100.0 * max(config.abs_tol, config.rel_tol * abs(value)), 1e-7)), message
    return value, err


def quadpack_members(model, inner, outer, lo, hi):
    """``an._members`` by QUADPACK: the band mass on the report law, split at its kinks of ``an._breakpoints``."""
    report = an._report_model(model)

    def band(r):
        top = 1.0 if outer >= math.pi else an.fov_probability(report, r, outer)
        return top - an.fov_probability(report, r, inner)

    return quadpack(band, lo, hi, model.quad, an._breakpoints(report, lo, hi, an._band_edges(inner, outer))[0])


def quadpack_mass_above(model, x, inner, outer, lo, hi):
    """``an._mass_above`` at one level by QUADPACK, level by level.

    An independent rule for the batched Gauss-Kronrod one: the same integrand
    written on floats, split at the level's kinks of ``an._breakpoints``,
    integrated by QUADPACK with ``model.quad``.
    """
    geom, theta, report = model.geom, model.geom.half_fov, an._report_model(model)
    hi = min(hi, an.gain_boundary_distance(geom, x))
    if report is not model:
        def above(r):
            return float(an._mean_band(model, r, inner, outer, min(an.gain_boundary_angle(geom, x, r), theta)))

        edges = an._band_edges(inner, outer)
        kinks = an._breakpoints(report, lo, hi, edges, x, (theta, *edges))[0]
    else:
        top = min(outer, theta)

        def above(r):
            b = an.gain_boundary_angle(geom, x, r)
            if b <= inner:
                return 0.0
            return an.fov_probability(model, r, min(b, top)) - (an.fov_probability(model, r, inner) if inner else 0.0)

        edges = an._band_edges(inner, top)
        kinks = an._breakpoints(model, lo, hi, edges, x, edges, an._corners(model.mobility))[0]
    return quadpack(above, lo, hi, model.quad, kinks)


def quadpack_family(model, family, role=None):
    """Level by level, the value of ``an.<family>`` from ``quadpack_mass_above`` over ``quadpack_members``."""
    theta, mob = model.geom.half_fov, model.mobility
    band = (0.0, math.pi, mob.d_min, mob.d_max) if role is None else an._role_band(model, role)
    cdf = family != "group_success_probability"
    if cdf:
        band = (band[0], min(band[1], theta), *band[2:])
    members = quadpack_members(model, *band)[0]

    def value(x):
        q = min(max(quadpack_mass_above(model, float(x), *band)[0] / members, 0.0), 1.0)
        return 1.0 - q if cdf else q

    return value


def assert_within_error_of_tight_reference(model, family, levels, role=None):
    """|an.<family> at every level - the QUADPACK reference at TIGHT| <= the error the family reports there."""
    args = () if role is None else (role,)
    values, errors = getattr(an, family)(model, levels, *args)
    reference = quadpack_family(replace(model, quad=TIGHT), family, role)
    for x, value, err in zip(levels, values, errors):
        ref = reference(x)
        assert abs(value - ref) <= err, (float(x), value, ref, err)


class TestErrorHonesty:
    """Every reported quadrature error covers the distance to a tight QUADPACK reference, on the paper model.

    The reference calls ``scipy.integrate.quad`` itself for both integrals of
    a level, so it shares no rule with the package.
    """

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    def test_unordered_cdf(self, dphi):
        assert_within_error_of_tight_reference(paper_model(dphi), "unordered_gain_cdf", HONESTY_LEVELS)

    @pytest.mark.parametrize("dphi", (0.0, 25.0))
    @pytest.mark.parametrize("role", (an.WEAK, an.STRONG))
    @pytest.mark.parametrize("family", ("group_gain_cdf_instant", "group_success_probability"))
    def test_instantaneous_report_groups(self, family, role, dphi):
        assert_within_error_of_tight_reference(paper_model(dphi, FeedbackKind.TWO_BIT_INSTANT), family,
                                               HONESTY_LEVELS, role)

    # each mark sits on its family's worst level of the 150-level scan; measured
    # |value - reference| / reported error in the comments
    @pytest.mark.parametrize("family,dphi,index", [
        pytest.param("group_gain_cdf_mean", 0.0, 48, marks=MEAN_REPORT_KINKS),  # 20.4
        pytest.param("group_gain_cdf_mean", 25.0, 139, marks=MEAN_REPORT_KINKS),  # 2.68
        pytest.param("group_success_probability", 0.0, 82, marks=MEAN_REPORT_KINKS),  # 1.93
        pytest.param("group_success_probability", 25.0, 139, marks=MEAN_REPORT_KINKS),  # 2.74
    ])
    def test_mean_report_weak_group(self, family, dphi, index):
        assert_within_error_of_tight_reference(paper_model(dphi, FeedbackKind.TWO_BIT_MEAN), family,
                                               HONESTY_LEVELS[index:index + 1], an.WEAK)
