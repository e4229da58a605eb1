"""Monte Carlo experiment engine: trial sampling, scheduling, outage statistics.

Trials run in fixed chunks of ``_CHUNK``.  Chunk c owns one random stream,
derived from ``SeedSequence((root_seed, c))`` (stream version 2), and draws
the whole chunk from it in a fixed order: the users of all ``_CHUNK`` rows
(distances, mean angles, angle deviations, each as a ``(_CHUNK, K)`` array),
then the group-pick uniforms ``(_CHUNK, n_schemes, 2)``, then, if the config
has estimation noise, the report noise on the ``(_CHUNK, K)`` arrays.  A
short last chunk draws full size and uses its first rows.  A trial's outcome
therefore depends only on (root_seed, trial index): a run of N trials is a
prefix of any longer run with the same seed, and results are bitwise
identical for any worker count.  Picks are drawn before noise, so a zero-sigma
noise model reproduces the noiseless records of every scheme.

Gains do not depend on the transmit SNR, so one pass over the trials collects
the scheduled pair's squared gains per scheme and every grid point reuses
them; the conditional outage frequencies then exclude trials whose scheduling
precondition failed (too few ranked candidates, or an empty candidate group).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import LedGeometry, channel_gain, mean_channel_gain
from .link import CurvePoint, NomaConfig, eta_thresholds, noma_pair_outcome, oma_gain_thresholds
from .population import MobilityConfig, noisy_estimate_arrays, sample_user_arrays
from .scheduling import (
    FeedbackKind,
    group_users,
    group_users_one_bit,
    one_bit_feedback,
    order_by_distance_array,
    order_by_gain_arrays,
    select_group_pair,
    select_individual,
    two_bit_feedback,
)

_CHUNK = 4096  # fixed trial chunk; parallelism must not change results
STREAM_VERSION = 2  # 1: one SeedSequence per trial; 2: one per chunk of _CHUNK trials


@dataclass(frozen=True)
class NoiseConfig:
    """Estimation-error model: real Gaussian std deviations for distance and angles."""

    sigma_d: float
    sigma_phi: float

    def __post_init__(self):
        if self.sigma_d < 0.0 or self.sigma_phi < 0.0:
            raise ValueError("noise standard deviations must be nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one Monte Carlo sweep."""

    geom: LedGeometry
    mobility: MobilityConfig
    noma: NomaConfig
    schemes: tuple
    gamma_db_grid: tuple
    rank_weak: int = 1
    rank_strong: int = 10
    trials: int = 100_000
    root_seed: int = 0
    noise: Optional[NoiseConfig] = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        grid = np.asarray(self.gamma_db_grid, float)
        if grid.size == 0:
            raise ValueError("gamma grid must not be empty")
        if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
            raise ValueError("gamma grid must be strictly increasing")
        if not 1 <= self.rank_weak < self.rank_strong <= self.mobility.num_users:
            raise ValueError("need 1 <= rank_weak < rank_strong <= num_users")
        if not self.schemes:
            raise ValueError("need at least one feedback scheme")
        for scheme in self.schemes:
            if scheme.theta_threshold is not None and scheme.theta_threshold > self.geom.half_fov + 1e-12:
                raise ValueError("angle threshold cannot exceed the detector half FOV")

    @property
    def curves(self):
        """The output curves as (label, scheme kind served, (eta_weak, eta_strong) arrays over the grid).

        One NOMA curve per scheme, plus the OMA baseline on the pairs that the
        first listed scheme schedules; both engines sweep this one table.  The
        dB grid becomes linear SNRs here and nowhere else.
        """
        targets, alloc = self.noma.targets, self.noma.alloc
        gammas = np.array([10.0 ** (gamma_db / 10.0) for gamma_db in self.gamma_db_grid])
        noma = eta_thresholds(targets, alloc, gammas)
        table = [(f"noma-{s.kind.value}", s.kind, noma) for s in self.schemes]
        table.append(("oma", self.schemes[0].kind, oma_gain_thresholds(targets, gammas)))
        return table


def trial_rng(root_seed, chunk_index):
    """Generator of one trial chunk; deterministic in (root_seed, chunk_index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(root_seed, chunk_index)))


def run_trial(config, users, reports, picks):
    """Schedule and evaluate one trial from its pre-drawn rows.

    ``users`` holds the K users' true (d, mean_phi, phi), ``reports`` the
    values they feed back (``users`` itself without estimation noise) and
    ``picks`` the (n_schemes, 2) group-pick uniforms, one row per configured
    scheme.  Returns one (scheduled, true squared gain weak, strong) per
    configured scheme, in order; a slot that could not be filled reports
    scheduled = False with zero gains.
    """
    d, _, phi = users
    d_fb, mean_phi_fb, phi_fb = reports
    gains = channel_gain(config.geom, d, phi)
    record = []
    for scheme, u in zip(config.schemes, picks):
        kind = scheme.kind
        if kind is FeedbackKind.FULL_CSI:
            reported = channel_gain(config.geom, d_fb, phi_fb) if config.noise is not None else gains
            weak, strong = select_individual(order_by_gain_arrays(reported), config.rank_weak, config.rank_strong)
        elif kind is FeedbackKind.MEAN_ANGLE:
            reported = mean_channel_gain(config.geom, d_fb, mean_phi_fb)
            weak, strong = select_individual(order_by_gain_arrays(reported), config.rank_weak, config.rank_strong)
        elif kind is FeedbackKind.DISTANCE_ONLY:
            weak, strong = select_individual(order_by_distance_array(d_fb), config.rank_weak, config.rank_strong)
        elif kind is FeedbackKind.ONE_BIT_DISTANCE:
            weak, strong = select_group_pair(group_users_one_bit(one_bit_feedback(d_fb, scheme.d_threshold)), u)
        else:  # the two-bit kinds
            angles = phi_fb if kind is FeedbackKind.TWO_BIT_INSTANT else mean_phi_fb
            bit_d, bit_theta = two_bit_feedback(d_fb, angles, scheme, config.geom)
            weak, strong = select_group_pair(group_users(bit_d, bit_theta), u)
        if weak is None or strong is None:
            record.append((False, 0.0, 0.0))
        else:
            record.append((True, float(gains[weak] ** 2), float(gains[strong] ** 2)))
    return record


@dataclass
class _Records:
    scheduled: np.ndarray
    h2_weak: np.ndarray
    h2_strong: np.ndarray


def _collect_chunk(config, start, stop):
    """Records of trials [start, stop); start is a chunk boundary (see the module docstring)."""
    mob = config.mobility
    rng = trial_rng(config.root_seed, start // _CHUNK)
    users = sample_user_arrays(mob, rng, (_CHUNK, mob.num_users))
    picks = rng.random((_CHUNK, len(config.schemes), 2))
    reports = users
    if config.noise is not None:
        reports = noisy_estimate_arrays(*users, config.noise.sigma_d, config.noise.sigma_phi, rng)
    out = np.empty((stop - start, len(config.schemes), 3))  # (scheduled, h2 weak, h2 strong) per trial and scheme
    rows = zip(zip(*users), zip(*reports), picks[: stop - start])  # stops after the chunk's first n rows
    for i, (user, report, u) in enumerate(rows):
        out[i] = run_trial(config, user, report, u)
    return out


def collect_records(config, n_workers=1):
    """Scheduled-pair squared gains for every trial, per scheme kind.

    Trials are processed in fixed chunks; the worker count only changes who
    computes a chunk, never its contents, so results are bitwise stable.
    """
    spans = [(s, min(s + _CHUNK, config.trials)) for s in range(0, config.trials, _CHUNK)]
    if n_workers <= 1 or len(spans) == 1:
        chunks = [_collect_chunk(config, a, b) for a, b in spans]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            chunks = list(pool.map(_collect_chunk, [config] * len(spans), *zip(*spans)))
    out = np.concatenate(chunks)
    return {s.kind: _Records(out[:, j, 0] != 0.0, out[:, j, 1], out[:, j, 2]) for j, s in enumerate(config.schemes)}


def _bernoulli_ci_bound(targets, n):
    # worst-case binomial variance per user, for degenerate sample sizes
    var = (targets.rate_weak**2 + targets.rate_strong**2) / 4.0
    return 1.96 * np.sqrt(var / max(n, 1))


def _curve(config, records, thresholds):
    targets, mask = config.noma.targets, records.scheduled
    n_cond = int(mask.sum())
    cond_rate = n_cond / config.trials
    h2_weak, h2_strong = records.h2_weak[mask], records.h2_strong[mask]
    points = []
    for gamma_db, eta_weak, eta_strong in zip(config.gamma_db_grid, *thresholds):
        if n_cond == 0:
            points.append(CurvePoint(gamma_db, 0.0, _bernoulli_ci_bound(targets, 0), 1.0, 1.0, 0.0))
            continue
        weak_out, strong_out = noma_pair_outcome(h2_weak, h2_strong, eta_weak, eta_strong)
        ok_weak, ok_strong = ~weak_out, ~strong_out
        per_trial_rate = ok_weak * targets.rate_weak + ok_strong * targets.rate_strong
        sum_rate = float(per_trial_rate.mean())
        if n_cond >= 2:
            ci = 1.96 * float(per_trial_rate.std(ddof=1)) / np.sqrt(n_cond)
        else:
            ci = _bernoulli_ci_bound(targets, n_cond)
        points.append(
            CurvePoint(
                gamma_db=float(gamma_db),
                sum_rate=sum_rate,
                ci_halfwidth=float(ci),
                outage_weak=float(1.0 - ok_weak.mean()),
                outage_strong=float(1.0 - ok_strong.mean()),
                conditioning_rate=cond_rate,
            )
        )
    return points


def run_sweep(config, n_workers=1):
    """Monte Carlo sum-rate curves of ``config.curves``, keyed by label.

    Sum rates and outage frequencies are conditional on the scheduling
    precondition of each scheme (enough ranked candidates, or both candidate
    groups nonempty); conditioning_rate reports the fraction of trials kept.
    """
    records = collect_records(config, n_workers=n_workers)
    return {label: _curve(config, records[kind], thresholds) for label, kind, thresholds in config.curves}


class EmpiricalCdf:
    """Right-continuous step CDF of a sample.

    The ECDF takes a float64 ndarray over: it sorts that array in place and
    keeps it as ``sorted``, so the caller must not read its samples after
    handing them over.  Any other input (a list, another dtype, a read-only
    array) is first copied into a new array.
    """

    def __init__(self, samples):
        samples = np.asarray(samples, float)
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if not samples.flags.writeable:
            samples = samples.copy()
        samples.sort()
        self.sorted = samples
        self.n = samples.size

    def __call__(self, x):
        return np.searchsorted(self.sorted, np.asarray(x, float), side="right") / self.n

    def sup_distance(self, cdf, num_points=1000):
        """Max |ECDF - cdf| over a quantile grid of evaluation points.

        Both one-sided gaps around each step are checked (the left side against
        the reference's left limit, so reference atoms are handled), making the
        measured value the Kolmogorov-Smirnov statistic up to the grid
        resolution ~1/num_points.  ``cdf`` maps an array of points to an array
        of values; it is called once, on the grid points and their left
        neighbours together.
        """
        idx = np.unique(np.linspace(0, self.n - 1, min(num_points, self.n)).astype(int))
        xs = self.sorted[idx]
        # resolve ties to the last occurrence so the inclusive step height is right
        high = np.searchsorted(self.sorted, xs, side="right") / self.n
        low = np.searchsorted(self.sorted, xs, side="left") / self.n
        target_high, target_low = np.split(np.asarray(cdf(np.concatenate((xs, np.nextafter(xs, -np.inf)))), float), 2)
        return float(np.max(np.maximum(np.abs(target_high - high), np.abs(target_low - low))))
