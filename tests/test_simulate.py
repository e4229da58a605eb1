import concurrent.futures
import math
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest
from helpers import PAPER, paper_model
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import analytic as an
from vlcnoma import simulate, stats
from vlcnoma.channel import channel_gain, incidence_angle
from vlcnoma.config import ConfigError, build_experiment, merge
from vlcnoma.link import CurvePoint, NomaConfig, eta_thresholds
from vlcnoma.population import noisy_estimate_arrays, sample_user_arrays
from vlcnoma.scheduling import FeedbackKind
from vlcnoma.simulate import (
    _CHUNK,
    EmpiricalCdf,
    NoiseConfig,
    _collect_chunk,
    _curve,
    _success_counts,
    collect_records,
    run_sweep,
    trial_rng,
)

SCHEMES = tuple(paper_model(kind=kind).scheme for kind in FeedbackKind)  # with the thresholds the CLI gives them
INDIVIDUAL, GROUP = SCHEMES[:3], SCHEMES[3:]  # full CSI, mean angle, distance; two-bit instant, two-bit mean, one-bit
# the paper experiment with the individual schemes, at a small size
SMALL = replace(PAPER, schemes=INDIVIDUAL, gamma_db_grid=(160.0, 185.0, 215.0), trials=4000, root_seed=123)


def make_config(**kw):
    return replace(SMALL, **kw)


def trial_records(config):
    """(scheduled, h2 weak, h2 strong) of every trial, keyed by scheme kind, from the rows each chunk computes."""
    spans = [(a, min(a + _CHUNK, config.trials)) for a in range(0, config.trials, _CHUNK)]
    rows = np.concatenate([_collect_chunk(config, a, b) for a, b in spans])
    return {s.kind: (rows[:, j, 0] != 0.0, rows[:, j, 1], rows[:, j, 2]) for j, s in enumerate(config.schemes)}


class TestTrials:
    def test_deterministic_in_seed_and_index(self):
        # trial 17's record is the same in runs of different lengths, and differs
        # from trial 18's and from trial 17 under another seed
        def trial(records, t):
            return tuple(column[t] for column in records[FeedbackKind.DISTANCE_ONLY])  # always scheduled

        short = trial_records(make_config(trials=20))
        long = trial_records(make_config(trials=40))
        other_seed = trial_records(make_config(trials=20, root_seed=124))
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
        ok, h2_weak, h2_strong = trial_records(config)[FeedbackKind.FULL_CSI]
        eta_weak, eta_strong = eta_thresholds(config.noma, 10.0 ** (230.0 / 10.0))
        assert ok.any()
        assert np.all(h2_weak[ok] > eta_weak)
        assert np.all(h2_strong[ok] > eta_strong)

    def test_distance_scheme_always_schedules(self):
        config = make_config(trials=200)
        scheduled, _, _ = trial_records(config)[FeedbackKind.DISTANCE_ONLY]
        assert np.all(scheduled)

    def test_noise_only_touches_feedback(self):
        # zero-sigma noise reproduces the feedback exactly; group picks are drawn
        # before the noise, so no scheme's records may change
        base = make_config(schemes=SCHEMES, trials=500)
        noisy = replace(base, noise=NoiseConfig(sigma_d=0.0, sigma_phi=0.0))
        assert _collect_chunk(base, 0, 500).tobytes() == _collect_chunk(noisy, 0, 500).tobytes()
        assert np.array_equal(collect_records(base), collect_records(noisy))

    def test_group_trial_records(self):
        config = make_config(schemes=(GROUP[0], GROUP[2]), trials=300)
        records = trial_records(config)
        two_bit, _, _ = records[FeedbackKind.TWO_BIT_INSTANT]
        assert 0.05 < two_bit.mean() < 0.3  # both-groups-formed fraction
        one_bit, _, _ = records[FeedbackKind.ONE_BIT_DISTANCE]
        assert one_bit.mean() > 0.8


class TestParallelism:
    def test_worker_count_is_bitwise_invariant(self):
        # the summed counts, and so every curve, are the same from this process and from a pool
        config = make_config(trials=9000, gamma_db_grid=tuple(np.arange(150.0, 230.0, 2.5)))
        serial = collect_records(replace(config, workers=1))
        parallel = collect_records(replace(config, workers=3))
        assert serial.dtype == parallel.dtype == np.int64
        assert serial.tobytes() == parallel.tobytes()

    @pytest.mark.parametrize("workers,trials,cpus,pool", [
        (4, 9000, 8, 3),  # 3 chunks
        (64, 5000, 64, 2),  # 2 chunks
        (4, 9000, 2, 2),
        (4, 9000, 1, None),  # one process in all: the chunks run here
        (4, 9000, None, 3),  # no affinity set: the CPU count, 8, binds none
    ])
    def test_pool_is_no_larger_than_its_work(self, monkeypatch, workers, trials, cpus, pool):
        # a forked pool starts every worker on its first submit, so max_workers is the count of processes started
        started = []

        class SerialPool(concurrent.futures.ThreadPoolExecutor):  # one thread: the chunks map in turn, no process
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 8)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        config = make_config(trials=trials)
        pooled = collect_records(replace(config, workers=workers))
        assert started == ([] if pool is None else [pool])
        assert collect_records(config).tobytes() == pooled.tobytes()

    def test_records_are_a_prefix_of_longer_runs(self):
        # a trial's outcome depends on (seed, trial index) only, not on the trial count
        schemes = INDIVIDUAL + GROUP[2:]
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=math.radians(2.5))
        short = make_config(schemes=schemes, noise=noise, trials=5000)
        long = replace(short, trials=8192)
        assert _collect_chunk(short, 0, _CHUNK).tobytes() == _collect_chunk(long, 0, _CHUNK).tobytes()
        assert _collect_chunk(short, _CHUNK, 5000).tobytes() == _collect_chunk(long, _CHUNK, 8192)[: 5000 - _CHUNK].tobytes()

    def test_sweep_reproducible(self):
        config = make_config(trials=2000)
        a = run_sweep(config)
        b = run_sweep(config)
        assert a == b



def nth_member(mask, u):
    """Per row of ``mask``, the index of True entry min(int(u n), n - 1) of its n, and whether n > 0."""
    n = mask.sum(axis=1)
    k = np.minimum((u * n).astype(np.int64), n - 1)
    return (np.cumsum(mask, axis=1) > k[:, None]).argmax(axis=1), n > 0


def chunk_reference(config):
    """Chunk 0's (scheduled, h2 weak, h2 strong) rows per scheme, from whole-chunk (_CHUNK, K) arrays.

    One gain evaluation on the whole chunk, then per scheme one stable sort
    (zero reported gains excluded) or two group masks and the pick rule.  The
    squares are taken as Python floats, as ``run_trial`` takes them: ``x ** 2``
    of a float is C ``pow``, which in about one gain in a thousand is one ulp
    off the ``x * x`` that an array's ``** 2`` computes.
    """
    mob, geom, schemes = config.mobility, config.geom, config.schemes
    rng = trial_rng(config.root_seed, 0)
    users = sample_user_arrays(mob, rng, (_CHUNK, mob.num_users))
    picks = rng.random((_CHUNK, len(schemes), 2))
    reports = users
    if config.noise is not None:
        reports = noisy_estimate_arrays(*users, config.noise.sigma_d, config.noise.sigma_phi, rng)
    (d, _, phi), (d_fb, mean_phi_fb, phi_fb) = users, reports
    gains, rows = channel_gain(geom, d, phi), np.arange(_CHUNK)
    out = np.zeros((_CHUNK, len(schemes), 3))
    for j, scheme in enumerate(schemes):
        kind = scheme.kind
        angles = mean_phi_fb if kind in (FeedbackKind.MEAN_ANGLE, FeedbackKind.TWO_BIT_MEAN) else phi_fb
        if kind in (FeedbackKind.FULL_CSI, FeedbackKind.MEAN_ANGLE, FeedbackKind.DISTANCE_ONLY):
            if kind is FeedbackKind.DISTANCE_ONLY:
                key, candidates = -d_fb, np.full(_CHUNK, mob.num_users)
            else:
                reported = channel_gain(geom, d_fb, angles)
                key, candidates = np.where(reported > 0.0, reported, np.inf), (reported > 0.0).sum(axis=1)
            order = key.argsort(axis=1, kind="stable")
            weak, strong = order[:, config.rank_weak - 1], order[:, config.rank_strong - 1]
            ok = candidates >= config.rank_strong
        else:
            bit_d = d_fb <= scheme.d_threshold
            if kind is FeedbackKind.ONE_BIT_DISTANCE:
                masks = (~bit_d, bit_d)
            else:
                bit_theta = np.abs(incidence_angle(d_fb, angles, geom.ell)) <= scheme.theta_threshold
                masks = (~bit_d & ~bit_theta, bit_d & bit_theta)
            (weak, weak_ok), (strong, strong_ok) = (nth_member(m, picks[:, j, slot]) for slot, m in enumerate(masks))
            ok = weak_ok & strong_ok
        out[ok, j, 0] = 1.0
        for slot, member in ((1, weak), (2, strong)):
            out[ok, j, slot] = [g ** 2 for g in gains[rows[ok], member[ok]].tolist()]
    return out


class TestRecordOracle:
    """Every trial row of a chunk, for all six kinds, is bitwise the whole-chunk reference."""

    @pytest.mark.parametrize("noise", [None, NoiseConfig(0.05, math.radians(2.5))], ids=["noiseless", "noisy"])
    def test_chunk_rows_are_bitwise_the_whole_chunk_reference(self, noise):
        config = make_config(schemes=SCHEMES, noise=noise, trials=_CHUNK)
        got, want = _collect_chunk(config, 0, _CHUNK), chunk_reference(config)
        assert got.shape == want.shape == (_CHUNK, len(SCHEMES), 3)
        wrong = np.argwhere(got.view(np.int64) != want.view(np.int64))
        assert wrong.size == 0, f"{len(wrong)} values differ; first (trial, scheme, column): {wrong[:5].tolist()}"
        kept = got[:, :, 0].mean(axis=0)
        # the distance scheme keeps every trial; every other kind keeps some trials and drops others
        assert kept[2] == 1.0 and np.all((kept[[0, 1, 3, 4, 5]] > 0.0) & (kept[[0, 1, 3, 4, 5]] < 1.0)), kept

def parent_curve(config, scheduled, h2_weak, h2_strong, thresholds):
    """The curve as it was built from per-trial records before the count reduction: a pass over the kept trials per point."""
    noma, mask = config.noma, scheduled
    n_cond = int(mask.sum())
    cond_rate = n_cond / config.trials
    h2_weak, h2_strong = h2_weak[mask], h2_strong[mask]
    worst = (noma.rate_weak**2 + noma.rate_strong**2) / 4.0  # each slot a coin flip
    points = []
    for gamma_db, eta_weak, eta_strong in zip(config.gamma_db_grid, *thresholds):
        ok_weak, ok_strong = ~(h2_weak <= eta_weak), ~(h2_strong <= eta_strong)
        per_trial_rate = ok_weak * noma.rate_weak + ok_strong * noma.rate_strong
        if n_cond >= 2:
            ci = stats.Z_CI * float(per_trial_rate.std(ddof=1)) / np.sqrt(n_cond)
        else:  # each kept trial is a value of its own, counted once
            ci = stats.mean_halfwidth(per_trial_rate[:, None], np.ones((n_cond, 1), int), 0.0, worst)[0]
        if n_cond == 0:
            points.append(CurvePoint(gamma_db, 0.0, ci, 1.0, 1.0, 0.0))
            continue
        points.append(CurvePoint(float(gamma_db), float(per_trial_rate.mean()), float(ci), float(1.0 - ok_weak.mean()),
                                 float(1.0 - ok_strong.mean()), cond_rate))
    return points


@st.composite
def kept_trials(draw):
    """A config, one of its curves' thresholds, and records whose gains include zeros and exact thresholds."""
    rate_weak, rate_strong = draw(st.sampled_from([(2.0, 10.0), (1.3, 7.7), (0.5, 0.5)]))
    steps = draw(st.lists(st.floats(0.01, 15.0), min_size=0, max_size=10))
    grid = tuple(np.cumsum([draw(st.floats(130.0, 220.0)), *steps]))
    kept = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 40)))
    dropped = draw(st.integers(1 if kept == 0 else 0, 4))
    config = replace(SMALL, noma=NomaConfig(PAPER.noma.share_weak, rate_weak, rate_strong), gamma_db_grid=grid,
                     schemes=(INDIVIDUAL[0],), trials=kept + dropped)
    thresholds = config.curves[draw(st.sampled_from([0, 1]))][2]  # the NOMA or the OMA curve
    exact = np.concatenate(thresholds).tolist()
    lo, hi = float(np.min(exact)) / 10.0, float(np.max(exact)) * 10.0
    gain = st.one_of(st.just(0.0), st.sampled_from(exact), st.floats(lo, hi))
    h2 = np.array(draw(st.lists(st.tuples(gain, gain), min_size=kept, max_size=kept)), float).reshape(kept, 2)
    order = np.array(draw(st.permutations(range(kept + dropped))), int)
    scheduled = (np.arange(kept + dropped) < kept)[order]
    h2_weak, h2_strong = (np.concatenate([h2[:, slot], np.zeros(dropped)])[order] for slot in (0, 1))  # dropped read 0
    return config, thresholds, scheduled, h2_weak, h2_strong


class TestSuccessCounts:
    @settings(max_examples=300, deadline=None)
    @given(case=kept_trials())
    def test_counts_and_curve_match_brute_force_and_the_per_trial_curve(self, case):
        config, (eta_weak, eta_strong), scheduled, h2_weak, h2_strong = case
        hw, hs = h2_weak[scheduled], h2_strong[scheduled]
        counts = _success_counts(np.column_stack((scheduled, h2_weak, h2_strong)), (eta_weak, eta_strong))
        ok_weak, ok_strong = hw[:, None] > eta_weak, hs[:, None] > eta_strong
        brute = [np.full(len(eta_weak), len(hw)), ok_weak.sum(0), ok_strong.sum(0), (ok_weak & ok_strong).sum(0)]
        assert counts.dtype == np.int64 and counts.tolist() == np.array(brute).tolist()
        scale = config.noma.rate_weak + config.noma.rate_strong
        for got, want in zip(_curve(config, counts), parent_curve(config, scheduled, h2_weak, h2_strong,
                                                                 (eta_weak, eta_strong))):
            assert (got.gamma_db, got.outage_weak, got.outage_strong, got.conditioning_rate) == (
                want.gamma_db, want.outage_weak, want.outage_strong, want.conditioning_rate)
            assert got.sum_rate == pytest.approx(want.sum_rate, rel=1e-12, abs=1e-12 * scale)
            assert got.ci_halfwidth == pytest.approx(want.ci_halfwidth, rel=1e-12, abs=1e-12 * scale)

    def test_memory_does_not_grow_with_trials(self):
        assert collect_records(make_config(trials=100)).nbytes == collect_records(make_config(trials=9000)).nbytes

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunk_counts_are_summed_as_they_arrive(self, monkeypatch, workers):
        # when a chunk is counted, no more than one earlier chunk's counts may still be held
        count_chunk, earlier = simulate._count_chunk, []

        def counted(config, start, stop):
            assert sum(ref() is not None for ref in earlier) <= 1
            counts = count_chunk(config, start, stop)
            earlier.append(weakref.ref(counts))
            return counts

        class LazyPool:  # maps in turn as the results are asked for, in this process
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return (fn(*args) for args in zip(*iterables))

        monkeypatch.setattr(simulate, "_count_chunk", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        config = make_config(trials=2 * _CHUNK + 1, workers=workers)
        total = collect_records(config)
        assert len(earlier) == 3
        monkeypatch.undo()
        assert total.tobytes() == collect_records(replace(config, workers=1)).tobytes()


class TestSweepStatistics:
    def test_curve_labels(self):
        curves = run_sweep(make_config(trials=1000))
        assert set(curves) == {"noma-full-csi", "noma-mean-angle", "noma-distance", "oma"}

    def test_zero_outage_regime_hits_ceiling(self):
        curves = run_sweep(make_config(trials=2000, gamma_db_grid=(235.0,)))
        assert curves["noma-full-csi"][0].sum_rate == 12.0
        assert curves["noma-full-csi"][0].outage_weak == 0.0

    @pytest.mark.parametrize("kept, rank_strong", [(1, 10), (0, PAPER.mobility.num_users + 1)])
    def test_single_trial_bernoulli_ci(self, kept, rank_strong):
        # under two kept trials the CI is the worst case: the slots' rates 2 and 10, each slot a coin flip
        config = make_config(trials=1, gamma_db_grid=(170.0,), schemes=(INDIVIDUAL[2],), rank_strong=rank_strong)
        pt = run_sweep(config)["noma-distance"][0]
        assert pt.conditioning_rate == kept
        assert pt.ci_halfwidth == pytest.approx(stats.Z_CI * math.sqrt((4.0 + 100.0) / 4.0))

    def test_paired_distance_never_beats_full_csi_strong(self):
        # on shared snapshots the distance ranking cannot see the FOV, so its
        # strong slot fails at least as often beyond 3-sigma noise
        config = make_config(trials=30_000, gamma_db_grid=(215.0,))
        records = trial_records(config)
        full_ok, _, full_strong = records[FeedbackKind.FULL_CSI]
        dist_ok, _, dist_strong = records[FeedbackKind.DISTANCE_ONLY]
        both = full_ok & dist_ok
        fail_full = (full_strong[both] == 0.0).mean()
        fail_dist = (dist_strong[both] == 0.0).mean()
        assert fail_dist >= fail_full - stats.binomial_tolerance(fail_dist, both.sum(), var_floor=1e-9)
        assert fail_dist > fail_full  # strict at these sizes

    def test_conditioning_rate_matches_tail(self):
        config = make_config(trials=60_000)
        curves = run_sweep(config)
        pred = an.nonzero_count_tail(paper_model(), 10)
        got = curves["noma-full-csi"][0].conditioning_rate
        assert got == pytest.approx(pred, abs=stats.binomial_tolerance(pred, config.trials))

    def test_ci_calibration_against_analytic(self):
        # repeated small sweeps: the analytic value must land inside the 95% CI
        # in at least 90% of repetitions
        model = paper_model()
        gamma_db = 160.0
        truth = None
        hits = 0
        reps = 40
        for rep in range(reps):
            config = make_config(trials=3000, gamma_db_grid=(gamma_db,), schemes=(INDIVIDUAL[0],), root_seed=500 + rep)
            pt = run_sweep(config)["noma-full-csi"][0]
            if truth is None:
                eta_weak, eta_strong = eta_thresholds(config.noma, np.array([10.0 ** (gamma_db / 10.0)]))
                _, weak, strong = an.ROUTES[FeedbackKind.FULL_CSI](model, 1, 10)
                (pw, _), (ps, _) = weak(eta_weak), strong(eta_strong)
                truth = (1.0 - pw[0]) * 2.0 + (1.0 - ps[0]) * 10.0
            if abs(pt.sum_rate - truth) <= pt.ci_halfwidth:
                hits += 1
        assert hits >= int(0.9 * reps)


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

    @pytest.mark.parametrize("convert", [list, lambda a: a.astype(np.float32)], ids=["list", "float32"])
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
    # ExperimentConfig and NoiseConfig take checked values: config refuses each key by name
    def test_empty_gamma_grid(self):
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            build_experiment(merge({"sweep.gamma_db": ""}))

    def test_non_increasing_grid(self):
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            build_experiment(merge({"sweep.gamma_db": "170,160"}))

    def test_bad_ranks(self):
        with pytest.raises(ConfigError, match="strategy.rank_strong"):
            build_experiment(merge({"strategy.rank_weak": "10", "strategy.rank_strong": "10"}))
        with pytest.raises(ConfigError, match="strategy.rank_strong"):
            build_experiment(merge({"strategy.rank_strong": "21"}))

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="noise.sigma_d_m"):
            build_experiment(merge({"noise.sigma_d_m": "-0.1", "noise.sigma_phi_deg": "0"}))
