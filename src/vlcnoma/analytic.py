"""Closed-form distributions and outage probabilities, evaluated by quadrature.

Everything rests on two facts.  First, inside the FOV the squared gain at
distance r factors as h^2 = g(r)^2 * cos^2(theta), so "h^2 <= x" is an
incidence-angle band and all CDFs reduce to distance integrals of

    fov_probability(r, y) = Pr(|theta| <= y | d = r)
                          = F_phi(c(r) + y) - F_phi(c(r) - y),   c(r) = pi - atan(ell/r),

with F_phi the marginal (trapezoidal) law of the vertical angle.  The mean
angle that mean reports are formed on is the vertical angle of the same model
without tilt deviation (``_mean_model``), so its laws are these at
delta_phi = 0.  Second, the boundary angle where the squared gain crosses a
level x at distance r is

    angle = 1/2 * arccos(2 * min(x / g(r)^2, 1) - 1)   in [0, pi/2],

clamped so levels outside the gain support never fault.

Users are counted by a band of their reported incidence and a distance strip:
every membership mass is one integral ``_band_mass``, and the mass of members
whose squared gain exceeds x is one integral ``_mass_above``.  Each CDF is
1 - above / members and each group success probability above / members.  For
mean reports the average over the mean angle is closed form (``_mean_band``).
The nonzero-gain count is Binomial(K, p); order statistics of the scheduled
ranks mix the per-user CDF over a truncated Binomial count, whose one law
``nonzero_count_pmf`` refuses a truncation with a tail of 0 in float64.

Every closed-form probability and CDF returns (value, propagated quadrature
error estimate).  ``ROUTES[kind](model, rank_weak, rank_strong)`` gives one
scheme kind's (conditioning rate, weak, strong) on a model of that kind's
scheme, where ``weak`` and ``strong`` map an array of squared-gain thresholds
(one slot's thresholds over a curve's SNR grid) to that slot's (outage,
error) arrays; it is the one entry point of the sweep and of ``validation``.

One rule integrates: ``integrate_levels``, the batched adaptive
Gauss-Kronrod rule of ``quadrature``.  A band mass is its one-row case
(``integrate_adaptive``), whose integrand gets one distance at a time.
The level families (``unordered_gain_cdf``, ``ordered_gain_cdf``,
``group_gain_cdf_instant``, ``group_gain_cdf_mean``,
``group_success_probability``) take a 1-D array of levels and return
(values, errors) arrays: every level of a call is one row of a single
``integrate_levels`` pass, split at that level's own kinks, with its own
tolerance and its own summed error estimate.  The mean-angle family
(``mean_angle_success_probability``) takes a level array too: it is two
nested ``integrate_levels`` passes, one row per level over distance and,
inside it, one row per distance node over the mean incidence.  Every angle law
has one NumPy path, elementwise over arrays; a float argument is its 0-d
case, and an array result is clipped in place (``population.unit_clip``).  The
engine loads no SciPy module: its binomial laws are its own, and the
mean-gain table (``_mean_gain_cdf_table``) is quadratic panels of log level,
each accepted once and never moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .channel import LedGeometry, incidence_angle
from .link import CurvePoint, noma_sum_rate
from .population import MobilityConfig, conditional_phi_cdf, deviation_cdf_integral, marginal_phi_cdf, unit_clip
from .quadrature import QuadratureConfig, QuadratureError, integrate_adaptive, integrate_levels
from .scheduling import FeedbackKind, FeedbackScheme

WEAK, STRONG = "weak", "strong"


class UndefinedLawError(ValueError):
    """The configured mobility law leaves a closed form undefined; the message names the mobility keys that set it."""


@dataclass(frozen=True)
class AnalyticModel:
    """Geometry, mobility and (optionally) a feedback scheme plus quadrature config."""

    geom: LedGeometry
    mobility: MobilityConfig
    scheme: Optional[FeedbackScheme] = None
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)


def inverse_squared_gain(geom, r):
    """1/g(r)^2 = (ell^2 + r^2)^(m+2) / h_c^4; multiplied by h^2 it returns cos^2(theta)."""
    # np.power, not **: Python's pow of a float misses NumPy's array power in the last bit at some points
    return np.power(geom.ell**2 + r * r, geom.m + 2.0) / geom.channel_constant**2


def gain_boundary_angle(geom, x, r):
    """|incidence| at which the squared gain equals x at distance r, clamped to [0, pi/2]; elementwise over arrays."""
    scaled = x * inverse_squared_gain(geom, r)
    return 0.5 * np.arccos(2.0 * np.clip(scaled, 0.0, 1.0) - 1.0)


def gain_boundary_distance(geom, x, cos_sq_scale=1.0):
    """Distance where g(r)^2 * cos_sq_scale crosses the level x.

    Returns 0 when the level exceeds the scaled gain at r = 0 (no crossing at
    nonnegative distance) and +inf when x <= 0; callers clamp into their range.
    """
    if x <= 0.0:
        return math.inf
    t = (geom.channel_constant**2 * cos_sq_scale / x) ** (1.0 / (geom.m + 2.0)) - geom.ell**2
    if t <= 0.0:
        return 0.0
    return math.sqrt(t)


@lru_cache(maxsize=None)
def _mean_model(model):
    """The model of the mean angle: the same mobility without tilt deviation.

    A user's mean angle is its instantaneous angle when delta_phi = 0, so every
    law of the mean-angle report is the instantaneous law of this model.
    """
    return replace(model, mobility=replace(model.mobility, delta_phi=0.0))


# ---------------------------------------------------------------------------
# Orientation bands: probabilities, breakpoints, masses and the above-level integral
# ---------------------------------------------------------------------------


def fov_probability(model, r, half_angle):
    """Pr(|incidence angle| <= half_angle | d = r) for the instantaneous angle, elementwise; a float is the 0-d case."""
    c = incidence_angle(r, 0.0, model.geom.ell)
    mob = model.mobility
    return unit_clip(marginal_phi_cdf(mob, c + half_angle) - marginal_phi_cdf(mob, c - half_angle))


def _corners(mob):
    """The corners of the instantaneous angle CDF: each end of the mean-angle range +/- delta_phi."""
    return [m + t for m in (mob.mean_phi_min, mob.mean_phi_max) for t in (-mob.delta_phi, mob.delta_phi)]


_BISECTIONS = 69  # halvings of every bracket: one as wide as a 10 m range ends below 2e-20 m


def _merged(points, lo, hi):
    """``points`` inside (lo, hi), sorted; one within 1e-9 of the range of the last kept point or an end is dropped."""
    tol = 1e-9 * (hi - lo)
    kept = [lo]
    for r in sorted(points):
        if kept[-1] + tol < r < hi - tol:
            kept.append(r)
    return kept[1:]


def _breakpoints(model, lo, hi, half_angles, levels=None, caps=(), corners=()):
    """Every kink of a distance integrand inside (lo, hi), sorted and ``_merged``: one list per gain level.

    The fixed kinks are where c(r) +/- each of ``half_angles`` crosses a corner
    of the angle CDF and, for each gain level x of ``levels``, where its
    boundary angle b(r, x) reaches 0 or one of ``caps``.  The moving kinks of
    a level are where c(r) +/- b(r, x) meets one of ``corners``: there
    f(r) = (r cos t - ell sin t)^2 / (ell^2 + r^2)^(m+3) equals x / h_c^4 for
    a corner t.  f is 0 at r = ell tan t and turns only where
    -(m+2) cos t r^2 + (m+3) ell sin t r + ell^2 cos t = 0, whose discriminant
    is positive; between these points f is monotone, so each piece of a
    level's [lo, hi] (``hi`` has one entry per level, or one for all) holds at
    most one crossing.  The sign of f - x / h_c^4 is read at the piece ends,
    every distinct corner at once, and every sign change is bisected, all
    brackets together, _BISECTIONS times.  Roots where c(r) - t exceeds pi/2
    solve the squared equation only; they are kept as harmless extra splits.
    Without ``levels`` the one list holds the fixed kinks of the half angles.
    """
    geom = model.geom
    fixed = []
    for s in [a * sign for a in half_angles for sign in (1.0, -1.0)]:
        for t in _corners(model.mobility):
            beta = math.pi + s - t  # the corner is crossed where atan(ell/r) = beta
            if 1e-12 < beta < math.pi / 2.0 - 1e-12:
                fixed.append(geom.ell / math.tan(beta))
    if levels is None:
        return [_merged(fixed, lo, hi)]
    levels = np.atleast_1d(np.asarray(levels, float))
    his = np.broadcast_to(np.asarray(hi, float), levels.shape)
    scales = [1.0] + [math.cos(c) ** 2 for c in caps]
    pts = [fixed + [gain_boundary_distance(geom, x, scale) for scale in scales] for x in levels.tolist()]
    corners = np.array(list(dict.fromkeys(corners)), float)
    rows = np.flatnonzero((levels > 0.0) & (his > lo))
    cos_t, sin_t = np.cos(corners), np.sin(corners)
    # the turning points of f, by the cancellation-free form of the quadratic's roots
    square, linear, const = -(geom.m + 2.0) * cos_t, (geom.m + 3.0) * geom.ell * sin_t, geom.ell**2 * cos_t
    q = -0.5 * (linear + np.copysign(np.sqrt(linear**2 - 4.0 * square * const), linear))
    turns = np.sort(np.stack([geom.ell * sin_t / cos_t, q / square, const / q], axis=1), axis=1)

    def below(r, x, cos_c, sin_c):
        # cos^2(t - c(r)) < x / g(r)^2 for the corner t: the sign of f - x / h_c^4
        cos_sq = (r * cos_c - geom.ell * sin_c) ** 2 / (geom.ell**2 + r * r)
        return np.signbit(cos_sq - x * inverse_squared_gain(geom, r))

    # the piece ends of every (level, corner): lo, the turning points clipped into [lo, hi], hi
    row, t = np.repeat(rows, corners.size), np.tile(np.arange(corners.size), rows.size)
    ends = np.column_stack([np.full(row.size, lo), np.clip(turns[t], lo, his[row, None]), his[row]])
    x, cos_c, sin_c = levels[row], cos_t[t], sin_t[t]
    sign = below(ends, x[:, None], cos_c[:, None], sin_c[:, None])
    pair, col = np.nonzero(sign[:, :-1] != sign[:, 1:])
    row, x, cos_c, sin_c = row[pair], x[pair], cos_c[pair], sin_c[pair]
    a, b = ends[pair, col], ends[pair, col + 1]
    a_below = sign[pair, col]
    for _ in range(_BISECTIONS):
        mid = 0.5 * (a + b)
        left = below(mid, x, cos_c, sin_c) != a_below  # the sign changes in [a, mid]
        a, b = np.where(left, a, mid), np.where(left, mid, b)
    for i, root in zip(row.tolist(), (0.5 * (a + b)).tolist()):
        pts[i].append(root)
    return [_merged(p, lo, h) for p, h in zip(pts, his.tolist())]


def _band_edges(inner, outer):
    """The edges of the band inner < |incidence| <= outer that kink its probability: nonzero and below pi."""
    return tuple(a for a in (inner, outer) if 0.0 < a < math.pi)


@lru_cache(maxsize=None)
def _band_mass(model, inner, outer, lo, hi):
    """Integral over the distances [lo, hi] of Pr(inner < |incidence| <= outer | r), with its error.

    An ``outer`` of pi or more leaves the band open above.  Every membership
    mass of the closed form (the nonzero-gain law, both groups, the
    conditioning rates, every CDF and success denominator) is one of these
    integrals, on the law of ``_report_model``.  It is one
    ``integrate_adaptive`` integral, split at the fixed kinks of
    ``_breakpoints``; the integrand gets one float distance at a time, the
    0-d case of ``fov_probability``.  A QuadratureError names the band and
    the strip.
    """
    def band(r):
        top = 1.0 if outer >= math.pi else fov_probability(model, r, outer)
        return top - fov_probability(model, r, inner)

    try:
        return integrate_adaptive(band, lo, hi, model.quad, _breakpoints(model, lo, hi, _band_edges(inner, outer))[0])
    except QuadratureError as exc:
        raise QuadratureError(f"band mass of ({inner:.9g}, {outer:.9g}] rad over the strip [{lo:.9g}, {hi:.9g}] m: "
                              f"{exc}") from exc


def _report_model(model):
    """The model of the angle the reports are formed on: ``_mean_model`` under a mean-report scheme."""
    by_mean = model.scheme is not None and model.scheme.kind is FeedbackKind.TWO_BIT_MEAN
    return _mean_model(model) if by_mean else model


def _members(model, inner, outer, lo, hi):
    """Band mass of the users whose report lies in the band, on the law of ``_report_model``; raises when zero."""
    mass = _band_mass(_report_model(model), inner, outer, lo, hi)
    if mass[0] <= 0.0:
        raise UndefinedLawError("the band has zero probability under the angle law of mobility.mean_phi_min_deg, "
                                "mobility.mean_phi_max_deg and mobility.delta_phi_deg")
    return mass


def _fov_normalizer(model):
    """Integral of fov_probability(r, half_fov) over the distance range, with error."""
    mob = model.mobility
    return _band_mass(model, 0.0, model.geom.half_fov, mob.d_min, mob.d_max)


def _mean_band(model, r, inner, outer, y):
    """Pr(report in band and |incidence| <= y) at d = r, for mean-angle reports; elementwise over arrays r, y.

    The report band inner < |mean incidence| <= outer is at most two intervals
    [a, b] of the uniform mean angle m, one each side of the boresight c(r).
    Given m the instantaneous angle is U[m - delta_phi, m + delta_phi], so its
    CDF at t integrates over [a, b] to G(t - a) - G(t - b), with G the
    deviation-CDF antiderivative of ``population``.
    """
    mob = model.mobility
    c, dphi, G = incidence_angle(r, 0.0, model.geom.ell), mob.delta_phi, deviation_cdf_integral
    inside = 0.0
    for a, b in ((c - outer, c - inner), (c + inner, c + outer)):
        a, b = np.maximum(a, mob.mean_phi_min), np.minimum(b, mob.mean_phi_max)
        inside = inside + np.where(b > a, G(c + y - a, dphi) - G(c + y - b, dphi) - G(c - y - a, dphi)
                                   + G(c - y - b, dphi), 0.0)
    return inside / mob.mean_phi_span


def _mass_above(family, model, x, inner, outer, lo, hi):
    """Integrals over the distances [lo, hi] of Pr(inner < |band angle| <= outer and h^2 > x | r), with their errors.

    ``x`` is a 1-D array of gain levels; every level is one row of one
    ``integrate_levels`` call, split at its own kinks of ``_breakpoints``.
    A level whose integral does not converge raises QuadratureError naming
    the level and ``family``, the name of the closed form it serves.
    The band angle is the incidence the users are grouped by: the
    instantaneous one, or for a mean-report scheme the mean one while the gain
    stays instantaneous.  h^2 > x where |incidence| is below the boundary
    angle and inside the FOV, so beyond the level crossing g(r)^2 = x the
    integrand is zero and the integral stops there.  Near that crossing the
    boundary angle, and with it the integrand, vanishes like
    sqrt(crossing - r); under instantaneous reports a level whose crossing
    lies inside the strip is integrated in the square root of the distance
    to it (``root_end`` of ``integrate_levels``), which makes its error
    estimate sharp.  The mixed law of mean reports keeps the distance
    variable: its integrand kinks where c(r) +/- the boundary angle meets a
    mean-angle corner, no breakpoint marks those distances (ROADMAP
    direction 1), and only the looser estimate of the square-root edge
    covers them.  Every CDF and success probability of the closed form but
    the mean-angle route is one of these over a band mass.
    """
    geom, theta, report = model.geom, model.geom.half_fov, _report_model(model)
    his = np.array([min(hi, gain_boundary_distance(geom, level)) for level in x.tolist()])
    if report is not model:
        # the one mixed law: membership by the mean angle, gain by the instantaneous one
        def above(r, rows):
            return _mean_band(model, r, inner, outer, np.minimum(gain_boundary_angle(geom, x[rows, None], r), theta))

        edges = _band_edges(inner, outer)
        kinks = _breakpoints(report, lo, his, edges, x, (theta, *edges))
        root_end = None
    else:
        top = min(outer, theta)

        def above(r, rows):
            b = gain_boundary_angle(geom, x[rows, None], r)
            inside = fov_probability(model, r, np.minimum(b, top))
            if inner:
                inside = inside - fov_probability(model, r, inner)
            return np.where(b > inner, inside, 0.0)

        edges = _band_edges(inner, top)
        kinks = _breakpoints(model, lo, his, edges, x, edges, _corners(model.mobility))
        root_end = his < hi
    return integrate_levels(above, np.full(x.shape, float(lo)), his, model.quad, kinks,
                            lambda row: f"{family} at level x={float(x[row])!r}", root_end)


# ---------------------------------------------------------------------------
# The nonzero-gain probability and the truncated count PMF
# ---------------------------------------------------------------------------


def nonzero_gain_probability(model):
    """Probability that a single user's channel gain is nonzero, with its error."""
    value, err = _fov_normalizer(model)
    return min(max(value / model.mobility.d_span, 0.0), 1.0), err / model.mobility.d_span


@lru_cache(maxsize=None)
def _log_binomial_row(n):
    """log C(n, k) for k = 0..n, each from the exact integer (C(1000, 500) < 1e300 still converts to a float)."""
    row, c = np.zeros(n + 1), 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        row[k] = math.log(c)
    return row


def _binomial_pmf(k, n, p):
    """Binomial(n, p) PMF at k, elementwise over broadcast integer k, n and probability p; 0 outside 0 <= k <= n.

    exp(log C(n, k) + k log p + (n - k) log(1 - p)) with 0 * log 0 = 0, so it is
    exact at p = 0 and p = 1.  log C(n, k) is looked up once per (k, n) pair,
    however many probabilities p broadcasts against.
    """
    k, n = np.broadcast_arrays(np.asarray(k, int), np.asarray(n, int))
    inside = (k >= 0) & (k <= n)
    k, n = np.where(inside, k, 0), np.where(inside, n, 0)
    log_comb = np.array([_log_binomial_row(b)[a] for a, b in zip(k.ravel().tolist(), n.ravel().tolist())], float)
    p = np.asarray(p, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(k > 0, k * np.log(p), 0.0) + np.where(n > k, (n - k) * np.log1p(-p), 0.0)
    return np.where(inside, np.exp(log_comb.reshape(k.shape) + log_p), 0.0)


def _binomial_tail(k, n, p):
    """Pr(Binomial(n, p) >= k) for one count k, elementwise over the trial counts n (last axis) and probabilities p.

    One more trial adds p * Pr(k - 1 successes so far), so the tail at n is p
    times a running sum of PMF terms over 0..n-1 trials: positive terms only,
    so small tails keep their relative accuracy.  A column of probabilities
    ``p`` (shape (L, 1)) gives one row of tails per probability, each summed
    along its own row.
    """
    n = np.asarray(n, int)
    if k <= 0:
        return np.ones(np.broadcast_shapes(n.shape, np.shape(p)))
    trials = np.arange(k - 1, max(int(n.max()), k))
    pmf = _binomial_pmf(k - 1, trials, p)
    running = np.concatenate((np.zeros((*pmf.shape[:-1], 1)), np.cumsum(pmf, axis=-1)), axis=-1)
    # np.take keeps rows C-contiguous, so a row's later sums do not depend on the row count
    return p * np.take(running, np.maximum(n - k + 1, 0), axis=-1)


def nonzero_count_tail(model, k_min):
    """Pr(at least k_min users have nonzero gain)."""
    p = nonzero_gain_probability(model)[0]
    return float(_binomial_tail(k_min, model.mobility.num_users, p))


def nonzero_count_pmf(model, k, k_min):
    """PMF of the nonzero-gain user count at the counts ``k``, elementwise, truncated and renormalized below k_min.

    Raises UndefinedLawError when Pr(count >= k_min) is below the smallest
    normal float64: dividing by a subnormal tail loses the law (at K = 1000
    a tail of 1e-320 leaves weights that sum to 0.9995), and by 0 leaves none.
    """
    K = model.mobility.num_users
    p = nonzero_gain_probability(model)[0]
    tail = _binomial_tail(k_min, K, p)
    if tail < np.finfo(float).tiny:
        raise UndefinedLawError(f"the scheduled ranks need at least strategy.rank_strong = {k_min} of "
                                f"mobility.num_users = {K} users with a nonzero gain, and the probability of that "
                                f"count, {tail:.3g}, is below the smallest normal float64")
    return np.where(k < k_min, 0.0, _binomial_pmf(k, K, p) / tail)


# ---------------------------------------------------------------------------
# Individual scheduling: unordered and ordered squared-gain CDFs
# ---------------------------------------------------------------------------


def _share(num, den):
    """num / den clamped to [0, 1] with its error, for (value, error) pairs; d(n/d) = (dn + n/d dd) / d."""
    q = num[0] / den[0]
    return np.clip(q, 0.0, 1.0), (num[1] + q * den[1]) / den[0]


def _cdf(family, model, x, inner, outer, lo, hi):
    """Squared-gain CDF at the levels ``x`` of the users reported in a band with a nonzero report gain, with errors.

    1 - (mass above x) / (members), both over the band within the FOV; (0, 0)
    at a negative level.  When the report is the instantaneous angle every
    member has a nonzero gain, so the CDF is also exactly (0, 0) at x = 0
    (its two integrals go through different rules and would not cancel).
    """
    band = (inner, min(outer, model.geom.half_fov), lo, hi)
    members = _members(model, *band)
    q, err = _share(_mass_above(family, model, x, *band), members)
    below = x <= 0.0 if _report_model(model) is model else x < 0.0
    return np.where(below, 0.0, 1.0 - q), np.where(below, 0.0, err)


def unordered_gain_cdf(model, x):
    """CDF of the squared gain of one user conditioned on the gain being nonzero, with its error.

    On ``_mean_model(model)`` this is the law of the mean-angle feedback report.
    """
    return _cdf("unordered_gain_cdf", model, x, 0.0, math.pi, model.mobility.d_min, model.mobility.d_max)


def ordered_gain_cdf(model, x, rank, min_count):
    """CDF of the rank-th smallest nonzero squared gain, given at least min_count nonzero users, with its error.

    Mixture over the truncated Binomial count n of the probability that at
    least ``rank`` of n independent nonzero gains fall at or below x.
    """
    K = model.mobility.num_users
    u, u_err = unordered_gain_cdf(model, x)
    n = np.arange(min_count, K + 1)
    orders = _binomial_tail(rank, n, u[:, None])
    value = np.clip((nonzero_count_pmf(model, n, min_count) * orders).sum(axis=1), 0.0, 1.0)
    # |d/du of the binomial tail| <= n <= K bounds the error amplification
    return value, K * u_err


# ---------------------------------------------------------------------------
# Individual scheduling on mean-angle reports
# ---------------------------------------------------------------------------

_MEAN_CDF_TOL = 1e-7  # interpolation tolerance of the tabulated mean-gain CDF
# a quadratic panel's remainder, as an odd cubic (s^2 - 1) s plus an even quartic (s^2 - 1) s^2, peaks on [-1, 1]
# at most 16 / (9 sqrt 3) times the cubic's and 4/3 times the quartic's magnitude at s = +/- 1/2
_CUBIC_PEAK, _QUARTIC_PEAK = 16.0 / (9.0 * math.sqrt(3.0)), 4.0 / 3.0


@lru_cache(maxsize=None)
def _mean_gain_kinks(mean):
    """The levels where the mean-gain CDF F of the mean model ``mean`` kinks.

    F kinks where a kink of its distance integrand that moves with the level
    (the boundary angle reaching 0 or half_fov, or c(r) +/- it meeting a
    corner) passes a fixed one (a corner crossing at half_fov) or an end of
    the distance range.  At such a distance r_f the boundary angle is 0,
    half_fov or |t - c(r_f)| for a corner t, so the level is
    y = g(r_f)^2 cos^2 of that angle.
    """
    geom, mob, theta = mean.geom, mean.mobility, mean.geom.half_fov
    ends = (mob.mean_phi_min, mob.mean_phi_max)
    levels = []
    for r_f in [mob.d_min, mob.d_max, *_breakpoints(mean, mob.d_min, mob.d_max, (theta,))[0]]:
        c = incidence_angle(r_f, 0.0, geom.ell)
        for a in [0.0, theta, *[abs(t - c) for t in ends if abs(t - c) < theta]]:
            levels.append(float(geom.gain_factor(r_f)) ** 2 * math.cos(a) ** 2)
    return tuple(levels)


@lru_cache(maxsize=None)
def _mean_gain_cdf_table(mean):
    """The mean-angle report's squared-gain CDF as (interpolant, error), in quadratic panels of log level.

    ``mean`` is the mean model (``_mean_model``), so the models that differ only
    in delta_phi share one table.  The panel edges are 129 log-spaced levels
    over [g(d_max)^2 cos^2(half_fov), g(d_min)^2] and the kink levels of
    ``_mean_gain_kinks``.  A panel holds the quadratic through the exact CDF at
    its ends and midpoint, and its miss bounds the remainder from the CDF's
    misses at the two quarter points: _CUBIC_PEAK times their odd part plus
    _QUARTIC_PEAK times their even part.  It is halved, its quarter points
    becoming the midpoints of the halves, while that bound exceeds
    _MEAN_CDF_TOL and it is wider than 1e-9 of the range; otherwise it is
    accepted for good, and no later split moves it.  The error is the worst
    quadrature error plus the worst accepted bound.
    """
    geom, mob = mean.geom, mean.mobility
    lo = math.log(float(geom.gain_factor(mob.d_max)) ** 2 * math.cos(geom.half_fov) ** 2)
    hi = math.log(float(geom.gain_factor(mob.d_min)) ** 2)
    quad_err = 0.0

    def exact(levels):
        nonlocal quad_err
        values, errors = unordered_gain_cdf(mean, np.exp(levels))
        quad_err = max(quad_err, float(errors.max()))
        return values

    edges = np.array([lo, *_merged([*np.linspace(lo, hi, 129)[1:-1], *np.log(_mean_gain_kinks(mean))], lo, hi), hi])
    center, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    ends = exact(edges)
    f = np.column_stack((ends[:-1], exact(center), ends[1:]))  # the CDF at each open panel's s = -1, 0, 1
    accepted, interp_err = [], 0.0
    while center.size:
        quarter = exact(np.concatenate((center - 0.5 * half, center + 0.5 * half))).reshape(2, -1).T
        slope, curve = 0.5 * (f[:, 2] - f[:, 0]), 0.5 * (f[:, 2] + f[:, 0]) - f[:, 1]
        fit = f[:, 1:2] + np.array([-0.5, 0.5]) * slope[:, None] + 0.25 * curve[:, None]
        left, right = (fit - quarter).T  # the misses at s = -1/2 and 1/2; their odd part is half the difference
        miss = _CUBIC_PEAK * np.abs(0.5 * (right - left)) + _QUARTIC_PEAK * np.abs(0.5 * (right + left))
        split = (miss > _MEAN_CDF_TOL) & (2.0 * half > 1e-9 * (hi - lo))
        accepted.append(np.column_stack((center, half, f[:, 1], slope, curve))[~split])
        interp_err = max(interp_err, float(np.max(miss[~split], initial=0.0)))
        # a halved panel's values at s = -1, -1/2, 0, 1/2, 1: its left half takes the first three, its right the last
        five = np.column_stack((f[:, 0], quarter[:, 0], f[:, 1], quarter[:, 1], f[:, 2]))[split]
        c, h = center[split], 0.5 * half[split]
        center, half = np.concatenate((c - h, c + h)), np.concatenate((h, h))
        f = np.concatenate((five[:, :3], five[:, 2:]))
    panels = np.concatenate(accepted)
    center, half, f_mid, slope, curve = panels[np.argsort(panels[:, 0])].T
    starts = (center - half)[1:]  # searchsorted on these puts a level below the second panel in the first

    def cdf(y):
        v = np.minimum(np.maximum(np.log(y), lo), hi)
        i = np.searchsorted(starts, v, "right")
        s = (v - center.take(i)) / half.take(i)
        return np.clip(f_mid.take(i) + s * (slope.take(i) + s * curve.take(i)), 0.0, 1.0)

    return cdf, quad_err + interp_err


def _rank_density(model, rank, min_count):
    """Density of the rank-th mean-angle report in CDF units, mixed over the truncated count.

    Returns (W, variation) with W(u) = sum_n w_n * n * C(n-1, rank-1) u^(rank-1) (1-u)^(n-rank),
    the weight a user whose report sits at CDF value u carries of being the
    rank-th smallest of n, and the total variation of W on [0, 1], which
    bounds how far an error in u moves the integral of W over a uniform u.
    """
    n = np.arange(min_count, model.mobility.num_users + 1)
    weights = nonzero_count_pmf(_mean_model(model), n, min_count)
    k = rank - 1
    coef = weights * n * np.exp([_log_binomial_row(v - 1)[k] for v in n.tolist()])

    def density(u):
        # Horner in 1 - u over the powers min_count - rank .. K - rank
        v = 1.0 - u
        total = np.full(v.shape, coef[-1])
        for c in coef[-2::-1]:
            total *= v
            total += c
        return total * u**k * v ** (min_count - rank)

    # each Bernstein term is unimodal: variation = 2 * mode value - end values
    mode = k / np.maximum(n - 1, 1)
    variation = 2.0 * _binomial_pmf(k, n - 1, mode) - _binomial_pmf(k, n - 1, 0.0) - _binomial_pmf(k, n - 1, 1.0)
    return density, float(np.sum(weights * n * variation))


@lru_cache(maxsize=None)
def _rank_weight_kinks(mean):
    """The distances where the rank weight W(F(g(r)^2 cos^2 u)) of the mean-angle rule gains or loses a kink in u.

    For a kink level y of F (``_mean_gain_kinks``), the curve
    g(r)^2 cos^2 u = y appears at u = 0 where g(r)^2 = y, and leaves the
    mean-incidence range where it meets u = +/- half_fov or an end c(r) - m of
    the mean-angle range.
    """
    mob, theta = mean.mobility, mean.geom.half_fov
    kinks = _breakpoints(mean, mob.d_min, mob.d_max, (), _mean_gain_kinks(mean), (theta,),
                         (mob.mean_phi_min, mob.mean_phi_max))
    return tuple(r for row in kinks for r in row)


def _weighted_band(cdf, density, dphi, gain, cap, u):
    """The inner integrand of the mean-angle route, W(F(gain cos^2 u)) * band(u), at the mean incidences ``u``.

    ``gain`` = g(r)^2 and ``cap`` broadcast against ``u``, one of each per
    row of nodes.  The band Pr(|c(r) - phi| < cap | m = c(r) - u) is
    piecewise linear in u, or a step when delta_phi = 0.
    """
    band = conditional_phi_cdf(0.0, dphi, u + cap) - conditional_phi_cdf(0.0, dphi, u - cap)
    return band * density(cdf(gain * np.cos(u) ** 2))


def mean_angle_success_probability(model, x, rank, min_count):
    """Pr(squared gain > x) for the user at ``rank`` of the mean-angle ordering at each level of ``x``, with errors.

    The transmitter ranks the users with nonzero mean-angle gain by that gain
    and serves ``rank`` only when at least ``min_count`` of them exist.  The
    served user's instantaneous angle still deviates from its mean, so the
    success probability integrates the rank's order-statistic density against
    the closed-form probability that the instantaneous incidence stays inside
    the boundary angle cap(r) = min(gain_boundary_angle, half_fov):

        1/Z * int dr int du  W(F(g(r)^2 cos^2 u)) * Pr(|c(r) - phi| < cap(r) | m = c(r) - u)

    over mean incidences |u| <= half_fov.  F is the mean-gain CDF
    (tabulated), W the rank density over the truncated Binomial count of
    nonzero mean gains, Z the normalizer of the nonzero-mean-gain law.  Both
    integrals are ``integrate_levels`` passes.  The outer one has one row per
    level over distance, split at the kinks of ``_breakpoints`` (the corners
    at half_fov, where cap reaches 0, half_fov or |half_fov - delta_phi|, and
    where c(r) +/- cap meets a corner m +/- delta_phi) and those of the rank
    weight (``_rank_weight_kinks``), and integrated in the square root of the
    distance to the level crossing, where cap vanishes like a square root.
    Its integrand is the inner pass: one row per distance node over the mean
    incidence, split at the band's kinks +/- cap +/- delta_phi
    (``_weighted_band``), whose errors enter the outer rows as error
    densities.  Each pass aims at a fifth of the table term, in its own
    integral's units (den * span over distance, span over the mean
    incidence), with no relative tolerance.  ``x`` is a 1-D array of levels, and each level's value
    and error are those of its one-level call.  The error is the quadrature
    error (outer and inner), the normalizer's, and the table error times the
    total variation of W.  A row that does not converge raises
    QuadratureError naming its level, and for an inner row its distance and
    mean-incidence interval.
    """
    _require_mean_span(model)
    geom, mob, mean = model.geom, model.mobility, _mean_model(model)
    theta, dphi = geom.half_fov, mob.delta_phi
    cdf, cdf_err = _mean_gain_cdf_table(mean)
    density, variation = _rank_density(model, rank, min_count)
    den, den_err = _fov_normalizer(mean)
    span, family = mob.mean_phi_span, "mean_angle_success_probability"
    # a fifth of the table term, in each integral's units: den * span for the outer one, span for the inner one
    outer = QuadratureConfig(0.2 * variation * cdf_err * den * span, 0.0, model.quad.max_subdivisions)
    inner = replace(outer, abs_tol=0.2 * variation * cdf_err * span)
    lo = mob.d_min
    his = np.array([max(lo, min(mob.d_max, gain_boundary_distance(geom, level))) for level in x.tolist()])
    # a kink found twice (to rounding) or at an end would only add an empty panel
    crossings = _breakpoints(mean, lo, his, (theta,), x, (theta, abs(theta - mob.delta_phi)), _corners(mob))
    kinks = [_merged(points + list(_rank_weight_kinks(mean)), lo, hi) for points, hi in zip(crossings, his.tolist())]

    def rows(r, levels):
        shape, r, level = r.shape, r.ravel(), np.repeat(x[levels], r.shape[1])
        c = incidence_angle(r, 0.0, geom.ell)
        cap = np.minimum(gain_boundary_angle(geom, level, r), theta)
        gain = geom.gain_factor(r) ** 2
        u_lo, u_hi = np.maximum(-theta, c - mob.mean_phi_max), np.minimum(theta, c - mob.mean_phi_min)
        bends = np.column_stack((-dphi - cap, dphi - cap, cap - dphi, cap + dphi))
        bends = np.sort(np.clip(bends, u_lo[:, None], np.maximum(u_lo, u_hi)[:, None]), axis=1)
        values, errors = integrate_levels(
            lambda u, nodes: _weighted_band(cdf, density, dphi, gain[nodes, None], cap[nodes, None], u),
            u_lo, u_hi, inner, bends,
            lambda node: f"{family} at level x={float(level[node])!r}, distance r={float(r[node])!r} m, mean incidence",
            unit="rad")
        return values.reshape(shape), errors.reshape(shape)

    num, num_err = integrate_levels(rows, np.full(x.shape, lo), his, outer, kinks,
                                    lambda row: f"{family} at level x={float(x[row])!r}", his < mob.d_max)
    value, err = _share((num, num_err), (den * span, den_err * span))
    return value, err + variation * cdf_err


# ---------------------------------------------------------------------------
# Group scheduling: memberships, group CDFs and success probabilities
# ---------------------------------------------------------------------------


def _require_mean_span(model):
    if model.mobility.mean_phi_span == 0.0:
        raise UndefinedLawError("mean-angle closed forms need a nondegenerate mean-angle range: "
                                "mobility.mean_phi_min_deg must lie below mobility.mean_phi_max_deg")


def _role_band(model, role):
    """(inner, outer, lo, hi): one group's report band inner < |incidence| <= outer and distance strip.

    ``role`` is WEAK or STRONG, and ``model.scheme`` a two-bit scheme: ROUTES
    and ``validation`` pair each two-bit kind with its group family.
    """
    scheme = model.scheme
    if scheme.kind is FeedbackKind.TWO_BIT_MEAN:
        _require_mean_span(model)
    mob, th = model.mobility, scheme.theta_threshold
    if role == WEAK:
        return th, math.pi, scheme.d_threshold, mob.d_max
    return 0.0, th, mob.d_min, scheme.d_threshold


def group_gain_cdf_instant(model, x, role):
    """Squared-gain CDF inside one instantaneous-report group, zero gains excluded, with its error."""
    return _cdf("group_gain_cdf_instant", model, x, *_role_band(model, role))


def group_gain_cdf_mean(model, x, role):
    """Squared-gain CDF inside one mean-report group, conditioned on nonzero MEAN gain, with its error.

    Groups are formed on the mean incidence angle while the gain keeps its
    instantaneous fluctuation, so the distribution carries an atom at zero
    (members whose instantaneous angle leaves the FOV).
    """
    return _cdf("group_gain_cdf_mean", model, x, *_role_band(model, role))


def both_groups_probability(model):
    """Probability that both groups of the model's two-bit scheme have a member among the K users."""
    report, mob = _report_model(model), model.mobility
    p_w, p_s = (_band_mass(report, *_role_band(model, role))[0] / mob.d_span for role in (WEAK, STRONG))
    K = mob.num_users
    return min(max(1.0 - (1.0 - p_w) ** K - (1.0 - p_s) ** K + max(1.0 - p_w - p_s, 0.0) ** K, 0.0), 1.0)


def group_success_probability(model, threshold, role):
    """Pr(squared gain > threshold) for a uniformly picked member of one group, with its error.

    This is the quantity the scheduler realizes: membership comes from the
    report of the model's scheme (instantaneous or mean angle), the gain stays
    instantaneous, and zero gains count as failures.
    """
    band = _role_band(model, role)
    return _share(_mass_above("group_success_probability", model, threshold, *band), _members(model, *band))


# ---------------------------------------------------------------------------
# Outage probabilities and sum-rate sweeps
# ---------------------------------------------------------------------------


def _failure(success):
    """(1 - value, error) of a (success probability, error) pair."""
    return 1.0 - success[0], success[1]


def _full_csi_route(model, rank_weak, rank_strong):
    return (nonzero_count_tail(model, rank_strong),
            lambda x: ordered_gain_cdf(model, x, rank_weak, rank_strong),
            lambda x: ordered_gain_cdf(model, x, rank_strong, rank_strong))


def _mean_angle_route(model, rank_weak, rank_strong):
    return (nonzero_count_tail(_mean_model(model), rank_strong),
            lambda x: _failure(mean_angle_success_probability(model, x, rank_weak, rank_strong)),
            lambda x: _failure(mean_angle_success_probability(model, x, rank_strong, rank_strong)))


def _group_route(model, rank_weak, rank_strong):
    return (both_groups_probability(model),
            lambda x: _failure(group_success_probability(model, x, WEAK)),
            lambda x: _failure(group_success_probability(model, x, STRONG)))


# the scheme kinds with a closed-form route; ROUTES[kind](model, rank_weak, rank_strong) returns
# (conditioning rate, weak, strong), where weak and strong map an array of gain thresholds to that
# slot's (outage, error) arrays
ROUTES = {
    FeedbackKind.FULL_CSI: _full_csi_route,
    FeedbackKind.MEAN_ANGLE: _mean_angle_route,
    FeedbackKind.TWO_BIT_INSTANT: _group_route,
    FeedbackKind.TWO_BIT_MEAN: _group_route,
}


def sum_rate_sweep(config):
    """Closed-form sum-rate curves of ``config.curves`` (an ExperimentConfig), keyed by label as run_sweep.

    Each kind's AnalyticModel carries that kind's scheme from the config and
    the default quadrature settings, and its route is built once; each slot's
    outage is one call on that slot's threshold array of the curve.
    CurvePoint.ci_halfwidth carries the propagated quadrature error
    estimate, and conditioning_rate the probability of the scheduling
    precondition (enough nonzero-gain reports / both groups nonempty).  A QuadratureError turns only the curve it hit
    into NaN points, and an UndefinedLawError is raised again naming the
    scheme it hit.  Returns (curves, {label: QuadratureError} of the failed
    curves, skipped), where ``skipped`` names what no route evaluates: one
    phrase per scheme kind without a route in ROUTES, whose curves are left
    out, or one for estimation noise, which no route models, with no curves.
    """
    if config.noise is not None:
        return {}, {}, ["estimation noise (noise.sigma_d_m, noise.sigma_phi_deg), which the closed-form engine "
                        "does not model"]
    schemes = {s.kind: s for s in config.schemes}
    noma, grid = config.noma, config.gamma_db_grid
    routes, curves, failures = {}, {}, {}
    skipped = [f"no closed-form route for scheme {s.kind.value!r}" for s in config.schemes if s.kind not in ROUTES]
    for label, kind, (eta_weak, eta_strong) in config.curves:
        if kind not in ROUTES:
            continue
        try:
            if kind not in routes:
                model = AnalyticModel(geom=config.geom, mobility=config.mobility, scheme=schemes[kind])
                routes[kind] = ROUTES[kind](model, config.rank_weak, config.rank_strong)
            cond, weak, strong = routes[kind]
            points = [
                CurvePoint(
                    gamma_db=float(gamma_db),
                    sum_rate=float(noma_sum_rate((pw, ps), noma)),
                    ci_halfwidth=float(noma.rate_weak * ew + noma.rate_strong * es),
                    outage_weak=pw,
                    outage_strong=ps,
                    conditioning_rate=float(cond),
                )
                for gamma_db, pw, ew, ps, es in zip(grid, *(np.asarray(v, float).tolist()
                                                            for v in (*weak(eta_weak), *strong(eta_strong))))
            ]
        except UndefinedLawError as exc:
            raise UndefinedLawError(f"scheme {kind.value!r}: {exc}") from exc
        except QuadratureError as exc:
            failures[label] = exc
            points = [CurvePoint(g, math.nan, math.nan, math.nan, math.nan, math.nan) for g in grid]
        curves[label] = points
    return curves, failures, skipped
