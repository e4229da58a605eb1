import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import PAPER, paper_model, snapshot

from vlcnoma import simulate, stats
from vlcnoma.channel import incidence_angle
from vlcnoma.config import ConfigError, build_experiment, merge
from vlcnoma.scheduling import (
    TWO_BIT_KINDS,
    FeedbackKind,
    FeedbackScheme,
    group_users,
    group_users_one_bit,
    one_bit_feedback,
    order_by_distance_array,
    order_by_gain_arrays,
    select_group_pair,
    select_individual,
    two_bit_feedback,
)


class TestOrderings:
    def test_full_csi_excludes_zeros(self):
        order = order_by_gain_arrays([0.0, 3e-6, 1e-6])
        assert order.tolist() == [2, 1]

    def test_full_csi_all_zero(self):
        assert order_by_gain_arrays([0.0, 0.0]).tolist() == []

    def test_full_csi_matches_naive_sort(self):
        snap = snapshot(0)
        order = order_by_gain_arrays(snap.gains)
        naive = sorted((g, i) for i, g in enumerate(snap.gains) if g > 0.0)
        assert order.tolist() == [i for _, i in naive]

    def test_ties_break_by_index(self):
        order = order_by_gain_arrays([2e-6, 1e-6, 1e-6])
        assert order.tolist() == [1, 2, 0]

    def test_distance_descending(self):
        assert order_by_distance_array([1.0, 9.0, 5.0]).tolist() == [1, 2, 0]

    def test_distance_ties_break_by_index(self):
        assert order_by_distance_array([5.0, 5.0, 1.0]).tolist() == [0, 1, 2]

    def test_distance_keeps_everyone(self):
        snap = snapshot(1)
        order = order_by_distance_array(snap.d)
        assert len(order) == len(snap.d)
        assert order[0] == int(np.argmax(snap.d))

    def test_mean_ordering_equals_full_when_static(self):
        for seed in range(20):
            snap = snapshot(seed, paper_model(0.0).mobility)
            assert order_by_gain_arrays(snap.mean_gains).tolist() == order_by_gain_arrays(snap.gains).tolist()

    def test_mean_ordering_differs_when_dynamic(self):
        differs = 0
        for seed in range(50):
            snap = snapshot(seed)
            if order_by_gain_arrays(snap.mean_gains).tolist() != order_by_gain_arrays(snap.gains).tolist():
                differs += 1
        assert differs > 10

    def test_mean_ordering_can_schedule_dead_user(self):
        # a user ranked by its mean gain may still have zero true gain
        found = False
        for seed in range(200):
            snap = snapshot(seed)
            order = order_by_gain_arrays(snap.mean_gains)
            if len(order) and np.any(snap.gains[order] == 0.0):
                found = True
                break
        assert found

    def test_scale_invariance(self):
        snap = snapshot(3)
        assert order_by_gain_arrays(snap.gains).tolist() == order_by_gain_arrays(snap.gains * 17.5).tolist()
        assert order_by_gain_arrays(snap.mean_gains).tolist() == order_by_gain_arrays(snap.mean_gains * 17.5).tolist()

    def test_full_csi_weak_never_stronger(self):
        for seed in range(30):
            snap = snapshot(seed)
            order = order_by_gain_arrays(snap.gains)
            if len(order) >= 10:
                weak, strong = select_individual(order, 1, 10)
                assert snap.gains[weak] <= snap.gains[strong]


class TestSelectIndividual:
    def test_too_few_candidates(self):
        assert select_individual(np.arange(9), 1, 10) == (None, None)

    def test_selects_requested_ranks(self):
        assert select_individual(np.arange(100, 115), 1, 10) == (100, 109)

    def test_exact_fit(self):
        assert select_individual(np.array([4, 7]), 1, 2) == (4, 7)


class TestTwoBitFeedback:
    def scheme(self, kind=FeedbackKind.TWO_BIT_INSTANT):
        return paper_model(kind=kind).scheme

    def test_boundary_inclusive(self):
        scheme = self.scheme()
        # place the receiver so |theta| is exactly the threshold at d = d_th
        c = math.pi - math.atan2(PAPER.geom.ell, 1.0)
        bit_d, bit_t = two_bit_feedback(1.0, c - scheme.theta_threshold, scheme, PAPER.geom)
        assert bool(bit_d) and bool(bit_t)

    def test_weak_signature(self):
        scheme = self.scheme()
        c = math.pi - math.atan2(PAPER.geom.ell, 5.0)
        bit_d, bit_t = two_bit_feedback(5.0, c - math.radians(20.0), scheme, PAPER.geom)
        assert not bool(bit_d) and not bool(bit_t)

    def test_paper_thresholds_inside(self):
        scheme = self.scheme()
        c = math.pi - math.atan2(PAPER.geom.ell, 0.5)
        bit_d, bit_t = two_bit_feedback(0.5, c - math.radians(3.0), scheme, PAPER.geom)
        assert bool(bit_d) and bool(bit_t)

    def test_mean_kind_uses_mean_angle(self):
        scheme_i = self.scheme()
        scheme_m = self.scheme(FeedbackKind.TWO_BIT_MEAN)
        snap = snapshot(0)
        bits_i = two_bit_feedback(snap.d, snap.phi, scheme_i, PAPER.geom)
        bits_m = two_bit_feedback(snap.d, snap.mean_phi, scheme_m, PAPER.geom)
        assert np.array_equal(bits_i[0], bits_m[0])  # distance bit agrees
        theta = incidence_angle(snap.d, snap.phi, PAPER.geom.ell)
        theta_bar = incidence_angle(snap.d, snap.mean_phi, PAPER.geom.ell)
        assert np.array_equal(bits_i[1], np.abs(theta) <= scheme_i.theta_threshold)
        assert np.array_equal(bits_m[1], np.abs(theta_bar) <= scheme_m.theta_threshold)

    def test_static_orientation_kinds_coincide(self):
        for seed in range(20):
            snap = snapshot(seed, paper_model(0.0).mobility)
            bits_i = two_bit_feedback(snap.d, snap.phi, self.scheme(), PAPER.geom)
            bits_m = two_bit_feedback(snap.d, snap.mean_phi, self.scheme(FeedbackKind.TWO_BIT_MEAN), PAPER.geom)
            assert np.array_equal(bits_i[1], bits_m[1])

    def test_requires_two_bit_scheme(self, monkeypatch):
        # two_bit_feedback trusts its scheme to carry both thresholds: run_trial calls it for the two-bit kinds only
        kinds = []

        def recorded(d, angle, scheme, geom):
            kinds.append(scheme.kind)
            return two_bit_feedback(d, angle, scheme, geom)

        monkeypatch.setattr(simulate, "two_bit_feedback", recorded)
        config = build_experiment(merge({"schemes.list": ",".join(kind.value for kind in FeedbackKind),
                                         "sweep.trials": "20"}))
        simulate._collect_chunk(config, 0, 20)
        assert sorted(kinds, key=str) == sorted(TWO_BIT_KINDS * 20, key=str)

    def test_membership_implies_conditions(self):
        scheme = self.scheme()
        snap = snapshot(9)
        theta = incidence_angle(snap.d, snap.phi, PAPER.geom.ell)
        weak, strong = group_users(*two_bit_feedback(snap.d, snap.phi, scheme, PAPER.geom))
        assert np.all(snap.d[weak] > scheme.d_threshold)
        assert np.all(np.abs(theta[weak]) > scheme.theta_threshold)
        assert np.all(snap.d[strong] <= scheme.d_threshold)
        assert np.all(np.abs(theta[strong]) <= scheme.theta_threshold)

    def test_mean_membership_discrepancy_bounded(self):
        scheme = self.scheme(FeedbackKind.TWO_BIT_MEAN)
        snap = snapshot(10)
        theta = incidence_angle(snap.d, snap.phi, PAPER.geom.ell)
        theta_bar = incidence_angle(snap.d, snap.mean_phi, PAPER.geom.ell)
        assert np.all(np.abs(theta - theta_bar) <= PAPER.mobility.delta_phi + 1e-12)


class TestGrouping:
    def test_all_strong_leaves_weak_empty(self):
        weak, strong = group_users([True, True], [True, True])
        assert weak.size == 0
        assert strong.tolist() == [0, 1]

    def test_mixed_reports_unscheduled(self):
        weak, strong = group_users([False, True, True], [False, True, False])
        assert weak.tolist() == [0]
        assert strong.tolist() == [1]

    def test_one_bit_examples(self):
        assert bool(one_bit_feedback(0.0, 1.0))
        assert not bool(one_bit_feedback(2.0, 1.0))
        assert bool(one_bit_feedback(0.99, 1.0))

    def test_one_bit_grouping(self):
        weak, strong = group_users_one_bit(one_bit_feedback(np.array([0.5, 2.0, 0.2]), 1.0))
        assert weak.tolist() == [1]
        assert strong.tolist() == [0, 2]


class TestSelectGroupPair:
    def test_singletons_deterministic(self):
        assert select_group_pair((np.array([3]), np.array([7])), (0.0, 0.5)) == (3, 7)

    def test_empty_strong_leaves_slot_open(self):
        groups = (np.array([3, 4]), np.array([], dtype=int))
        assert select_group_pair(groups, (0.7, 0.2)) == (4, None)  # int(0.7 * 2) = 1

    def test_uniform_pick_frequencies(self):
        groups = (np.arange(5), np.array([9]))
        rng = np.random.default_rng(11)
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[select_group_pair(groups, rng.random(2))[0]] += 1
        assert np.all(np.abs(counts / n - 0.2) <= stats.binomial_tolerance(0.2, n))

    def test_largest_uniform_picks_last_member(self):
        # the largest uniform below 1 picks the last member, never index n
        u = np.nextafter(1.0, 0.0)
        for n in range(1, 65):
            members = np.arange(100, 100 + n)
            assert select_group_pair((members, members + 1000), (u, u)) == (100 + n - 1, 1100 + n - 1)


UNIFORM = st.floats(0.0, 1.0, exclude_max=True)
LAST_UNIFORM = float(np.nextafter(1.0, 0.0))  # the largest uniform below 1
BIT_PAIRS = st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40)
# reported gains with zeros of both signs and ties, as channel_gain returns them outside the FOV and at equal gains
GAINS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1e-12, 2e-12, 3e-12]), st.floats(1e-15, 1e-5)), max_size=40)


class TestPrimitivesAgainstNaiveStatements:
    """Each per-trial primitive returns what a plain Python statement of its rule returns."""

    @settings(max_examples=300, deadline=None)
    @given(bits=BIT_PAIRS)
    @example(bits=[])
    @example(bits=[(True, True)] * 7)
    @example(bits=[(False, False)] * 7)
    def test_groups_are_the_ascending_all_zeros_and_all_ones_sets(self, bits):
        bit_d = np.array([b for b, _ in bits], bool)
        bit_theta = np.array([t for _, t in bits], bool)
        for groups, want in (
            (group_users(bit_d, bit_theta), ([i for i, (b, t) in enumerate(bits) if not b and not t],
                                             [i for i, (b, t) in enumerate(bits) if b and t])),
            (group_users_one_bit(bit_d), ([i for i, (b, _) in enumerate(bits) if not b],
                                          [i for i, (b, _) in enumerate(bits) if b])),
        ):
            assert [g.tolist() for g in groups] == list(want)
            assert all(g.ndim == 1 and g.dtype == np.intp for g in groups)

    @settings(max_examples=300, deadline=None)
    @given(gains=GAINS)
    @example(gains=[])
    @example(gains=[0.0, -0.0, 0.0])
    @example(gains=[2e-12] * 7)
    def test_gain_order_is_the_naive_sort_by_gain_then_index_of_nonzero_gains(self, gains):
        want = [i for _, i in sorted((g, i) for i, g in enumerate(gains) if g > 0.0)]
        assert order_by_gain_arrays(gains).tolist() == want
        assert order_by_gain_arrays(np.array(gains, float)).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(d=st.lists(st.sampled_from([0.0, 1.5, 4.0, 10.0]) | st.floats(0.0, 10.0), max_size=40))
    def test_distance_order_is_the_naive_sort_by_descending_distance_then_index(self, d):
        assert order_by_distance_array(d).tolist() == [i for _, i in sorted((-x, i) for i, x in enumerate(d))]

    @settings(max_examples=300, deadline=None)
    @given(sizes=st.tuples(st.integers(0, 64), st.integers(0, 64)), u=st.tuples(UNIFORM, UNIFORM))
    @example(sizes=(64, 1), u=(LAST_UNIFORM, LAST_UNIFORM))
    @example(sizes=(3, 63), u=(LAST_UNIFORM, 0.0))
    @example(sizes=(0, 5), u=(0.5, LAST_UNIFORM))
    def test_pick_is_the_same_for_python_and_numpy_uniforms(self, sizes, u):
        groups = (np.arange(sizes[0]), np.arange(100, 100 + sizes[1]))
        as_python = select_group_pair(groups, [float(x) for x in u])
        assert as_python == select_group_pair(groups, np.array(u, float))  # np.float64 elements
        assert as_python == tuple(int(g[min(int(x * g.size), g.size - 1)]) if g.size else None
                                  for g, x in zip(groups, u))


class TestSlotInvariants:
    """A slot is None exactly when it has no candidate; filled slots name distinct members of their sets."""

    @settings(max_examples=200, deadline=None)
    @given(ordering=st.lists(st.integers(0, 999), unique=True, max_size=40), rank_weak=st.integers(1, 30),
           gap=st.integers(1, 30))
    def test_individual_slots(self, ordering, rank_weak, gap):
        rank_strong = rank_weak + gap
        weak, strong = select_individual(np.array(ordering, dtype=int), rank_weak, rank_strong)
        if len(ordering) < rank_strong:
            assert (weak, strong) == (None, None)
        else:
            assert weak in ordering and strong in ordering
            assert weak != strong

    @settings(max_examples=200, deadline=None)
    @given(bits=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40), u=st.tuples(UNIFORM, UNIFORM))
    def test_group_slots(self, bits, u):
        bit_d = np.array([b for b, _ in bits], bool)
        bit_theta = np.array([b for _, b in bits], bool)
        for groups in (group_users(bit_d, bit_theta), group_users_one_bit(bit_d)):
            picks = select_group_pair(groups, u)
            for pick, members in zip(picks, groups):
                assert (pick is None) == (members.size == 0)
                assert pick is None or pick in members.tolist()
            if None not in picks:
                assert picks[0] != picks[1]


class TestSchemeValidation:
    def test_two_bit_requires_thresholds(self):
        with pytest.raises(ValueError):
            FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, d_threshold=1.0)

    def test_one_bit_requires_distance_threshold(self):
        with pytest.raises(ValueError):
            FeedbackScheme(FeedbackKind.ONE_BIT_DISTANCE)

    def test_thresholds_must_be_positive(self):
        # a -1 m distance threshold: config refuses the coefficient before a scheme is built
        with pytest.raises(ConfigError, match="schemes.d_threshold_coeff"):
            build_experiment(merge({"schemes.list": "two-bit-instant", "schemes.d_threshold_coeff": "-0.1"}))

    def test_plain_kinds_need_no_thresholds(self):
        # neither construction raises
        FeedbackScheme(FeedbackKind.FULL_CSI)
        FeedbackScheme(FeedbackKind.ONE_BIT_DISTANCE, d_threshold=1.0)
