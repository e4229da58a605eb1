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

Gains do not depend on the transmit SNR, so each chunk reduces its trials, per
curve and grid point, to four integer counts: the trials kept (the scheduling
precondition held: enough ranked candidates, or both candidate groups
nonempty), and among them the weak, strong and both-slot successes.  The run
keeps one running sum of them, and the conditional sum rates, outage
frequencies and CIs are functions of the summed counts.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import LedGeometry, channel_gain, mean_channel_gain
from .link import CurvePoint, NomaConfig, eta_thresholds, oma_gain_thresholds
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
from .stats import mean_halfwidth

_CHUNK = 4096  # fixed trial chunk; parallelism must not change results
STREAM_VERSION = 2  # 1: one SeedSequence per trial; 2: one per chunk of _CHUNK trials


@dataclass(frozen=True)
class NoiseConfig:
    """Estimation-error model: real Gaussian std deviations for distance and angles."""

    sigma_d: float
    sigma_phi: float


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
    workers: int = 1  # processes that collect the trial chunks; the records do not depend on it

    @property
    def curves(self):
        """The output curves as (label, scheme kind served, (eta_weak, eta_strong) arrays over the grid).

        One NOMA curve per scheme, plus the OMA baseline on the pairs that the
        first listed scheme schedules; both engines sweep this one table.  The
        dB grid becomes linear SNRs here and nowhere else.
        """
        gammas = np.array([10.0 ** (gamma_db / 10.0) for gamma_db in self.gamma_db_grid])
        thresholds = eta_thresholds(self.noma, gammas)
        table = [(f"noma-{s.kind.value}", s.kind, thresholds) for s in self.schemes]
        table.append(("oma", self.schemes[0].kind, oma_gain_thresholds(self.noma, gammas)))
        return table


def trial_rng(root_seed, chunk_index):
    """Generator of one trial chunk; deterministic in (root_seed, chunk_index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(root_seed, chunk_index)))


def run_trial(config, users, reports, picks):
    """Schedule and evaluate one trial from its pre-drawn rows.

    ``users`` holds the K users' true (d, mean_phi, phi), ``reports`` the
    values they feed back (``users`` itself without estimation noise) and
    ``picks`` the group-pick uniforms, one (weak, strong) pair of floats per
    configured scheme.  Returns one (scheduled, true squared gain weak,
    strong) per configured scheme, in order; a slot that could not be filled
    reports scheduled = False with zero gains.  A squared gain is the Python
    float's ``** 2``, C ``pow``, which can differ by one ulp from an array's
    ``** 2`` (``x * x``); the golden hashes hold the ``pow`` squares.
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
            record.append((True, float(gains[weak]) ** 2, float(gains[strong]) ** 2))
    return record


def _collect_chunk(config, start, stop):
    """Rows (scheduled, h2 weak, h2 strong) of trials [start, stop) per scheme; start is a chunk boundary."""
    mob = config.mobility
    rng = trial_rng(config.root_seed, start // _CHUNK)
    users = sample_user_arrays(mob, rng, (_CHUNK, mob.num_users))
    picks = rng.random((_CHUNK, len(config.schemes), 2))
    reports = users
    if config.noise is not None:
        reports = noisy_estimate_arrays(*users, config.noise.sigma_d, config.noise.sigma_phi, rng)
    out = np.empty((stop - start, len(config.schemes), 3))  # (scheduled, h2 weak, h2 strong) per trial and scheme
    # a trial's picks become Python floats, which _pick multiplies faster than NumPy scalars, as its row is
    # read, so no chunk-sized list of floats is held; zip stops after the chunk's first n rows
    rows = zip(zip(*users), zip(*reports), map(np.ndarray.tolist, picks[: stop - start]))
    for i, (user, report, u) in enumerate(rows):
        out[i] = run_trial(config, user, report, u)
    return out


def _success_counts(rows, thresholds):
    """(kept, weak, strong and both-slot successes) at each of a curve's G grid points, as a (4, G) int64 array.

    ``rows`` are one scheme's (scheduled, h2 weak, h2 strong) trial rows and
    ``thresholds`` the curve's (eta_weak, eta_strong) arrays, which never rise
    along the grid.  A slot succeeds where h2 > eta, so its successes form a
    suffix of the grid that starts after the thresholds >= h2.
    """
    kept, grid = rows[rows[:, 0] != 0.0], len(thresholds[0])
    first = [np.searchsorted(-eta, -kept[:, slot], side="right") for slot, eta in enumerate(thresholds, 1)]
    first.append(np.maximum(*first))
    return np.stack([np.full(grid, len(kept)), *(np.cumsum(np.bincount(f, minlength=grid + 1))[:grid] for f in first)])


def _count_chunk(config, start, stop):
    """Success counts of trials [start, stop) per curve of ``config.curves``, as a (curves, 4, G) int64 array."""
    rows = _collect_chunk(config, start, stop)
    column = {s.kind: j for j, s in enumerate(config.schemes)}
    return np.stack([_success_counts(rows[:, column[kind]], thresholds) for _, kind, thresholds in config.curves])


def collect_records(config):
    """Success counts of all trials per curve of ``config.curves``: the sum of every chunk's ``_count_chunk``.

    Each chunk's counts join the sum as they arrive, so memory does not grow
    with the trial count; ``config.workers`` only changes who counts a chunk,
    and integer sums do not depend on their order.  A forked pool starts all
    its workers at once, so it gets no more than there are chunks and CPUs
    this process may run on.
    """
    spans = [(s, min(s + _CHUNK, config.trials)) for s in range(0, config.trials, _CHUNK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(config.workers, len(spans), cpus)
    if workers <= 1:
        return sum(_count_chunk(config, a, b) for a, b in spans)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_chunk, [config] * len(spans), *zip(*spans)))


def _curve(config, counts):
    """The curve's points from its (4, G) success counts; with no kept trial it reads as all outage.

    The per-trial rate takes four values, each with its count; its worst-case
    variance is that of two independent slots that each succeed with
    probability 1/2.
    """
    noma = config.noma
    kept, weak, strong, both = counts
    n = int(kept[0])
    m = max(n, 1)
    sum_rate = (weak * noma.rate_weak + strong * noma.rate_strong) / m
    rates = np.array([[0.0], [noma.rate_weak], [noma.rate_strong], [noma.rate_weak + noma.rate_strong]])
    classes = np.stack([n - weak - strong + both, weak - both, strong - both, both])
    ci = mean_halfwidth(rates, classes, sum_rate, (noma.rate_weak**2 + noma.rate_strong**2) / 4.0)
    columns = zip(config.gamma_db_grid, sum_rate, ci, 1.0 - weak / m, 1.0 - strong / m)
    return [CurvePoint(*map(float, point), n / config.trials) for point in columns]


def run_sweep(config):
    """Monte Carlo sum-rate curves of ``config.curves``, keyed by label.

    Sum rates and outage frequencies are conditional on the scheduling
    precondition of each scheme (enough ranked candidates, or both candidate
    groups nonempty); conditioning_rate reports the fraction of trials kept.
    """
    counts = collect_records(config)
    return {label: _curve(config, c) for (label, _, _), c in zip(config.curves, counts)}


class EmpiricalCdf:
    """Right-continuous step CDF of a sample.

    The ECDF takes a writeable float64 ndarray over: it sorts that array in
    place and keeps it as ``sorted``, so the caller must not read its samples
    after handing them over (``validation`` hands it only fresh arrays).  Any
    other input (a list, another dtype) is first copied into a new array.
    """

    def __init__(self, samples):
        samples = np.asarray(samples, float)
        if samples.size == 0:
            raise ValueError("need at least one sample")
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
