import math

import numpy as np
import pytest

from vlcnoma import analytic as an
from vlcnoma.analytic import AnalyticModel
from vlcnoma.channel import LedGeometry
from vlcnoma.link import NomaConfig, PowerAllocation, TargetRates, eta_thresholds
from vlcnoma.population import MobilityConfig
from vlcnoma.scheduling import FeedbackKind, FeedbackScheme
from vlcnoma.simulate import (
    EmpiricalCdf,
    ExperimentConfig,
    NoiseConfig,
    collect_records,
    run_sweep,
    trial_rng,
)

GEOM = LedGeometry.from_degrees(2.0, 60.0, 1e-4, 50.0)
MOB = MobilityConfig.from_degrees(0.0, 10.0, 25.0, 155.0, 25.0, 20)
NOMA = NomaConfig(PowerAllocation(63.0 / 64.0, 1.0 / 64.0), TargetRates(2.0, 10.0))
INDIVIDUAL = (
    FeedbackScheme(FeedbackKind.FULL_CSI),
    FeedbackScheme(FeedbackKind.MEAN_ANGLE),
    FeedbackScheme(FeedbackKind.DISTANCE_ONLY),
)


def make_config(**kw):
    defaults = dict(
        geom=GEOM,
        mobility=MOB,
        noma=NOMA,
        schemes=INDIVIDUAL,
        gamma_db_grid=(160.0, 185.0, 215.0),
        trials=4000,
        root_seed=123,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestTrials:
    def test_deterministic_in_seed_and_index(self):
        # trial 17's record is the same in runs of different lengths, and differs
        # from trial 18's and from trial 17 under another seed
        def trial(records, t):
            rec = records[FeedbackKind.DISTANCE_ONLY]  # always scheduled
            return rec.scheduled[t], rec.h2_weak[t], rec.h2_strong[t]

        short = collect_records(make_config(trials=20))
        long = collect_records(make_config(trials=40))
        other_seed = collect_records(make_config(trials=20, root_seed=124))
        assert trial(short, 17) == trial(long, 17)
        assert trial(short, 17) != trial(short, 18)
        assert trial(short, 17) != trial(other_seed, 17)

    def test_distinct_trial_streams(self):
        a = trial_rng(1, 0).uniform(size=8)
        b = trial_rng(1, 1).uniform(size=8)
        c = trial_rng(2, 0).uniform(size=8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_high_snr_full_csi_succeeds_when_scheduled(self):
        config = make_config(trials=300)
        records = collect_records(config)
        rec = records[FeedbackKind.FULL_CSI]
        eta_weak, eta_strong = eta_thresholds(NOMA.targets, NOMA.alloc, 10.0 ** (230.0 / 10.0))
        ok = rec.scheduled
        assert ok.any()
        assert np.all(rec.h2_weak[ok] > eta_weak)
        assert np.all(rec.h2_strong[ok] > eta_strong)

    def test_distance_scheme_always_schedules(self):
        config = make_config(trials=200)
        records = collect_records(config)
        assert np.all(records[FeedbackKind.DISTANCE_ONLY].scheduled)

    def test_noise_only_touches_feedback(self):
        # zero-sigma noise reproduces the feedback exactly; group picks are drawn
        # before the noise, so no scheme's records may change
        schemes = INDIVIDUAL + (
            FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, math.radians(5.0)),
            FeedbackScheme(FeedbackKind.TWO_BIT_MEAN, 1.0, math.radians(5.0)),
            FeedbackScheme(FeedbackKind.ONE_BIT_DISTANCE, 1.0),
        )
        base = collect_records(make_config(schemes=schemes, trials=500))
        noisy = collect_records(make_config(schemes=schemes, trials=500, noise=NoiseConfig(sigma_d=0.0, sigma_phi=0.0)))
        for kind in base:
            assert np.array_equal(base[kind].scheduled, noisy[kind].scheduled)
            assert np.array_equal(base[kind].h2_weak, noisy[kind].h2_weak)
            assert np.array_equal(base[kind].h2_strong, noisy[kind].h2_strong)

    def test_group_trial_records(self):
        schemes = (
            FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, 1.0, math.radians(5.0)),
            FeedbackScheme(FeedbackKind.ONE_BIT_DISTANCE, 1.0),
        )
        config = make_config(schemes=schemes, trials=300)
        records = collect_records(config)
        two_bit = records[FeedbackKind.TWO_BIT_INSTANT]
        assert 0.05 < two_bit.scheduled.mean() < 0.3  # both-groups-formed fraction
        one_bit = records[FeedbackKind.ONE_BIT_DISTANCE]
        assert one_bit.scheduled.mean() > 0.8


class TestParallelism:
    def test_worker_count_is_bitwise_invariant(self):
        config = make_config(trials=9000)
        serial = collect_records(config, n_workers=1)
        parallel = collect_records(config, n_workers=3)
        for kind in serial:
            assert np.array_equal(serial[kind].scheduled, parallel[kind].scheduled)
            assert np.array_equal(serial[kind].h2_weak, parallel[kind].h2_weak)
            assert np.array_equal(serial[kind].h2_strong, parallel[kind].h2_strong)

    def test_records_are_a_prefix_of_longer_runs(self):
        # a trial's outcome depends on (seed, trial index) only, not on the trial count
        schemes = INDIVIDUAL + (FeedbackScheme(FeedbackKind.ONE_BIT_DISTANCE, 1.0),)
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=math.radians(2.5))
        short = collect_records(make_config(schemes=schemes, noise=noise, trials=5000))
        long = collect_records(make_config(schemes=schemes, noise=noise, trials=8192))
        for kind in short:
            assert np.array_equal(short[kind].scheduled, long[kind].scheduled[:5000])
            assert np.array_equal(short[kind].h2_weak, long[kind].h2_weak[:5000])
            assert np.array_equal(short[kind].h2_strong, long[kind].h2_strong[:5000])

    def test_sweep_reproducible(self):
        config = make_config(trials=2000)
        a = run_sweep(config)
        b = run_sweep(config)
        assert a == b


class TestSweepStatistics:
    def test_curve_labels(self):
        curves = run_sweep(make_config(trials=1000))
        assert set(curves) == {"noma-full-csi", "noma-mean-angle", "noma-distance", "oma"}

    def test_zero_outage_regime_hits_ceiling(self):
        curves = run_sweep(make_config(trials=2000, gamma_db_grid=(235.0,)))
        assert curves["noma-full-csi"][0].sum_rate == 12.0
        assert curves["noma-full-csi"][0].outage_weak == 0.0

    def test_single_trial_bernoulli_ci(self):
        curves = run_sweep(make_config(trials=1, gamma_db_grid=(170.0,), schemes=(INDIVIDUAL[2],)))
        pt = curves["noma-distance"][0]
        bound = 1.96 * math.sqrt((4.0 + 100.0) / 4.0)
        assert pt.ci_halfwidth == pytest.approx(bound)

    def test_paired_distance_never_beats_full_csi_strong(self):
        # on shared snapshots the distance ranking cannot see the FOV, so its
        # strong slot fails at least as often beyond 3-sigma noise
        config = make_config(trials=30_000, gamma_db_grid=(215.0,))
        records = collect_records(config)
        full = records[FeedbackKind.FULL_CSI]
        dist = records[FeedbackKind.DISTANCE_ONLY]
        both = full.scheduled & dist.scheduled
        fail_full = (full.h2_strong[both] == 0.0).mean()
        fail_dist = (dist.h2_strong[both] == 0.0).mean()
        sigma = math.sqrt(max(fail_dist * (1 - fail_dist), 1e-9) / both.sum())
        assert fail_dist >= fail_full - 3.0 * sigma
        assert fail_dist > fail_full  # strict at these sizes

    def test_conditioning_rate_matches_tail(self):
        config = make_config(trials=60_000)
        curves = run_sweep(config)
        model = AnalyticModel(geom=GEOM, mobility=MOB)
        pred = an.nonzero_count_tail(model, 10)
        got = curves["noma-full-csi"][0].conditioning_rate
        assert got == pytest.approx(pred, abs=3.0 * math.sqrt(pred * (1 - pred) / config.trials))

    def test_ci_calibration_against_analytic(self):
        # repeated small sweeps: the analytic value must land inside the 95% CI
        # in at least 90% of repetitions
        model = AnalyticModel(geom=GEOM, mobility=MOB)
        gamma_db = 160.0
        truth = None
        hits = 0
        reps = 40
        for rep in range(reps):
            config = make_config(trials=3000, gamma_db_grid=(gamma_db,), schemes=(INDIVIDUAL[0],), root_seed=500 + rep)
            pt = run_sweep(config, n_workers=1)["noma-full-csi"][0]
            if truth is None:
                eta_weak, eta_strong = eta_thresholds(NOMA.targets, NOMA.alloc, np.array([10.0 ** (gamma_db / 10.0)]))
                _, weak, strong = an.ROUTES[FeedbackKind.FULL_CSI](model, 1, 10)
                (pw, _), (ps, _) = weak(eta_weak), strong(eta_strong)
                truth = (1.0 - pw[0]) * 2.0 + (1.0 - ps[0]) * 10.0
            if abs(pt.sum_rate - truth) <= pt.ci_halfwidth:
                hits += 1
        assert hits >= int(0.9 * reps)


def read_only(a):
    a.flags.writeable = False
    return a


class TestEmpiricalCdf:
    def test_single_sample_step(self):
        cdf = EmpiricalCdf([2.5])
        assert cdf(2.4) == 0.0
        assert cdf(2.5) == 1.0
        assert cdf(3.0) == 1.0

    def test_uniform_dkw(self):
        rng = np.random.default_rng(0)
        n = 1_000_000
        cdf = EmpiricalCdf(rng.uniform(0.0, 1.0, n))
        sup = cdf.sup_distance(lambda x: np.clip(x, 0.0, 1.0), 2000)
        assert sup <= 0.002

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])

    def test_atom_handling(self):
        # reference with an atom of 0.5 at zero; sample matches it
        samples = np.concatenate([np.zeros(5000), np.random.default_rng(1).uniform(0, 1, 5000)])

        def ref(x):
            return np.where(x < 0.0, 0.0, 0.5 + 0.5 * np.clip(x, 0.0, 1.0))

        sup = EmpiricalCdf(samples).sup_distance(ref, 500)
        assert sup < 0.02

    def test_a_float64_array_is_sorted_in_place_and_kept(self):
        samples = np.random.default_rng(2).uniform(0.0, 1.0, 1000)
        expected = np.sort(samples)
        cdf = EmpiricalCdf(samples)
        assert np.shares_memory(cdf.sorted, samples)
        assert samples.tobytes() == expected.tobytes()

    def test_a_sorted_view_of_a_larger_buffer_sorts_only_the_view(self):
        buffer = np.random.default_rng(3).uniform(0.0, 1.0, 1000)
        tail = buffer[600:].copy()
        cdf = EmpiricalCdf(buffer[:600])
        assert np.shares_memory(cdf.sorted, buffer) and cdf.n == 600
        assert buffer[600:].tobytes() == tail.tobytes()

    @pytest.mark.parametrize("convert", [list, lambda a: a.astype(np.float32), read_only],
                             ids=["list", "float32", "read-only"])
    def test_other_inputs_are_copied_and_left_untouched(self, convert):
        samples = convert(np.random.default_rng(4).uniform(0.0, 1.0, 1000))
        before = np.array(samples).tobytes()
        cdf = EmpiricalCdf(samples)
        assert not np.shares_memory(cdf.sorted, samples)
        assert np.array(samples).tobytes() == before
        assert cdf.sorted.tobytes() == np.sort(np.asarray(samples, float)).tobytes()

    def test_reads_as_on_a_sorted_copy(self):
        rng = np.random.default_rng(5)
        samples = np.concatenate([np.zeros(300), rng.uniform(0.0, 1.0, 2000)])
        rng.shuffle(samples)
        copy = samples.copy()
        in_place, from_list = EmpiricalCdf(samples), EmpiricalCdf(copy.tolist())
        xs = np.linspace(-0.5, 1.5, 101)
        assert in_place(xs).tobytes() == from_list(xs).tobytes()

        def ref(x):
            return np.where(x < 0.0, 0.0, 0.1 + 0.9 * np.clip(x, 0.0, 1.0))

        assert in_place.sup_distance(ref, 400) == from_list.sup_distance(ref, 400)


class TestConfigValidation:
    def test_empty_gamma_grid(self):
        with pytest.raises(ValueError):
            make_config(gamma_db_grid=())

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError):
            make_config(gamma_db_grid=(170.0, 160.0))

    def test_bad_ranks(self):
        with pytest.raises(ValueError):
            make_config(rank_weak=10, rank_strong=10)
        with pytest.raises(ValueError):
            make_config(rank_strong=21)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(sigma_d=-0.1, sigma_phi=0.0)
