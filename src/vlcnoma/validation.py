"""Analytic-versus-sampling cross validation.

Every closed-form quantity is checked against an independent Monte Carlo
oracle: direct channel evaluation on bulk user draws, empirical CDFs, and
conditional frequencies.  Group CDF oracles sample the distance strip of the
group directly (distance and orientation are independent, so conditioning the
distance draw is exact) to keep the member counts high enough for tight
Kolmogorov-Smirnov bounds.  The bulk oracles draw and evaluate their users
in blocks of rows that fit a core's cache, one block alive at a time: each
block is its own draw from the stream, taken in turn, and an oracle stops
drawing once it holds what it needs.  The one sample that must be held
whole, the unordered-CDF pool of nonzero gains, is a single preallocated
array filled block by block and sorted in place by its ECDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analytic as an
from .channel import channel_gain, incidence_angle
from .config import build_experiment, merge
from .population import marginal_phi_cdf, sample_user_arrays
from .scheduling import TWO_BIT_KINDS, FeedbackKind, FeedbackScheme
from .simulate import EmpiricalCdf

# values per block of the bulk oracles: each float64 array of a block is 1 MB, inside a core's L2.  Each block
# is one draw, so this also fixes the oracles' stream layout: changing it changes their samples and the report
_BLOCK_VALUES = 1 << 17


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}: measured {self.measured:.6g} vs bound {self.bound:.6g}{extra}"


@dataclass(frozen=True)
class ValidationSizes:
    gain_draws: int = 10_000_000
    population_draws: int = 1_000_000
    ordered_conditioned: int = 1_000_000
    group_draws: int = 1_000_000
    cdf_points: int = 400
    probe_points: int = 50

    @classmethod
    def quick(cls):
        return cls(
            gain_draws=1_000_000,
            population_draws=150_000,
            ordered_conditioned=120_000,
            group_draws=200_000,
            cdf_points=200,
            probe_points=12,
        )


def paper_config(delta_phi_deg=25.0, kind=None):
    """The paper's setup, config.DEFAULTS, at ``delta_phi_deg``; with ``kind`` it serves only that scheme."""
    overrides = {"mobility.delta_phi_deg": str(float(delta_phi_deg))}
    if kind is not None:
        overrides["schemes.list"] = kind.value
    return build_experiment(merge(overrides))


def paper_model(delta_phi_deg=25.0, kind=None):
    """The AnalyticModel of ``paper_config``; it carries the scheme of ``kind`` when one is given."""
    config = paper_config(delta_phi_deg, kind)
    scheme = config.schemes[0] if kind is not None else None
    return an.AnalyticModel(geom=config.geom, mobility=config.mobility, scheme=scheme)


def _frequency_check(name, frac, pred, n, detail, var_floor=0.0, tol_floor=0.0):
    """An empirical frequency of n draws against its predicted probability, within 3 binomial sigma.

    ``var_floor`` keeps sigma off zero at a prediction of 0 or 1; the
    tolerance is at least ``tol_floor``.  The result holds plain Python
    scalars, so the report serializes to JSON whatever type ``pred`` has.
    """
    dev = abs(frac - pred)
    tol = max(3.0 * math.sqrt(max(pred * (1.0 - pred), var_floor) / n), tol_floor)
    return CheckResult(name, bool(dev <= tol), float(dev), float(tol), detail)


def _user_blocks(mob, rng, width, rows=math.inf):
    """(d, phi) blocks of ``width`` users a row, each one ``sample_user_arrays`` draw from ``rng``, in turn.

    A block holds _BLOCK_VALUES // width rows (at least one).  The blocks
    stop at ``rows`` rows, the last one short; by default they go on until
    the caller stops drawing, so no block past what it needs is drawn.
    """
    step = max(_BLOCK_VALUES // width, 1)
    drawn = 0
    while drawn < rows:
        n = min(step, rows - drawn)
        d, _, phi = sample_user_arrays(mob, rng, (n, width))
        drawn += n
        yield d, phi


def _count_histogram(geom, mob, rng, rows, width):
    """Entry k: the number of rows, of ``rows`` drawn by ``_user_blocks``, with k nonzero gains.

    A gain is nonzero exactly when its incidence lies inside the half FOV
    (the gate of ``channel_gain``), so only the gate is evaluated.
    """
    histogram = np.zeros(width + 1, np.int64)
    for d, phi in _user_blocks(mob, rng, width, rows):
        in_fov = np.abs(incidence_angle(d, phi, geom.ell)) <= geom.half_fov
        histogram += np.bincount(in_fov.sum(axis=1), minlength=width + 1)
    return histogram


def _strip_members(models, rng, n, role, within_fov):
    """Squared gains of each model's ``role`` group members among n users drawn in that group's distance strip.

    The models share geometry, mobility and distance threshold.  The weak
    strip lies beyond the threshold (d_min = d_threshold), the strong strip
    within it (d_max = d_threshold).  A member's report incidence (the mean
    one under two-bit-mean reports, the instantaneous one otherwise) lies in
    the role's angle band; ``within_fov`` also keeps it inside the half FOV.
    """
    geom, mob, d_threshold = models[0].geom, models[0].mobility, models[0].scheme.d_threshold
    strip = replace(mob, d_min=d_threshold) if role == an.WEAK else replace(mob, d_max=d_threshold)
    d, mean_phi, phi = sample_user_arrays(strip, rng, n)
    g2 = channel_gain(geom, d, phi) ** 2
    members = []
    for model in models:
        report_phi = mean_phi if model.scheme.kind is FeedbackKind.TWO_BIT_MEAN else phi
        incidence = np.abs(incidence_angle(d, report_phi, geom.ell))
        th = model.scheme.theta_threshold
        member = incidence > th if role == an.WEAK else incidence <= th
        if within_fov:
            member &= incidence <= geom.half_fov
        members.append(g2[member])
    return members


def check_marginal_phi_dkw(sizes, rng):
    """Closed-form vertical-angle marginal vs the empirical CDF (DKW bound)."""
    mob = paper_model().mobility
    n = sizes.population_draws
    _, _, phi = sample_user_arrays(mob, rng, n)
    xs = np.quantile(phi, np.linspace(0.001, 0.999, 500))
    emp = EmpiricalCdf(phi)  # sorts phi in place, so only after the quantiles
    sup = float(np.max(np.abs(emp(xs) - marginal_phi_cdf(mob, xs))))
    bound = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
    return CheckResult("marginal-angle-cdf-dkw", sup <= bound, sup, bound, f"n={n}")


def check_fov_probability(sizes, rng):
    """fov_probability at a fixed distance vs conditional Monte Carlo (3 sigma)."""
    model = paper_model()
    geom, mob = model.geom, model.mobility
    n = sizes.group_draws
    r = 5.0
    _, _, phi = sample_user_arrays(mob, rng, n)
    theta = incidence_angle(np.full(n, r), phi, geom.ell)
    frac = float((np.abs(theta) <= geom.half_fov).mean())
    pred = an.fov_probability(model, r, geom.half_fov)
    return _frequency_check("fov-probability-at-distance", frac, pred, n, f"r={r}, n={n}", var_floor=1e-12)


def check_nonzero_probability(sizes, rng):
    """Theorem-level nonzero-gain probability vs bulk gain draws (3 sigma)."""
    model = paper_model()
    geom, mob = model.geom, model.mobility
    n = sizes.gain_draws
    frac = int(_count_histogram(geom, mob, rng, n, 1)[1]) / n  # one user per row: a row counts 0 or 1
    return _frequency_check("nonzero-gain-probability", frac, an.nonzero_gain_probability(model)[0], n, f"n={n}")


def check_count_pmf(sizes, rng):
    """Truncated count PMF and its tail vs population draws (3 sigma per bin), truncated below rank j."""
    model, k_min = paper_model(), paper_config().rank_strong
    geom, mob = model.geom, model.mobility
    n = sizes.population_draws
    K = mob.num_users
    rows_with = _count_histogram(geom, mob, rng, n, K).tolist()
    kept = sum(rows_with[k_min:])  # snapshots with at least k_min nonzero gains
    results = [_frequency_check("nonzero-count-tail", kept / n, an.nonzero_count_tail(model, k_min), n,
                                f"k_min={k_min}, n={n}")]
    detail = f"bins k>={k_min}, kept={kept}"
    k = np.arange(k_min, K + 1)
    q = an.nonzero_count_pmf(model, k, k_min)
    filled = kept * q >= 25.0  # the normal approximation is not meaningful for near-empty bins
    bins = [_frequency_check("nonzero-count-pmf", rows_with[j] / kept, p, kept, detail)
            for j, p in zip(k[filled].tolist(), q[filled].tolist())]
    worst = max(bins, key=lambda check: check.measured / check.bound)  # the first bin of the largest ratio
    results.append(replace(worst, passed=all(check.passed for check in bins)))
    return results


def _conditioned_rank_gains(config, rng, wanted, pool_size):
    """Squared gains at the config's two ranks from snapshots with enough nonzero users, and a pool of nonzero ones.

    Returns the rank-i and rank-j gains of the first ``wanted`` snapshots that
    hold at least j nonzero gains, and the first ``pool_size`` nonzero squared
    gains of all snapshots, both in draw order.  The snapshots are drawn and
    evaluated block by block (``_user_blocks``) until both are held.  The pool
    is one preallocated array of ``pool_size`` values: each block copies its
    nonzero gains into the next free slice, cut at ``pool_size``, so the
    pool's gains are held once.
    """
    geom, mob, rank_weak, rank_strong = config.geom, config.mobility, config.rank_weak, config.rank_strong
    out_w, out_s = [], []
    pool = np.empty(pool_size)
    got = filled = 0
    for d, phi in _user_blocks(mob, rng, mob.num_users):
        g2 = channel_gain(geom, d, phi) ** 2
        nonzero = g2 > 0.0
        if filled < pool_size:
            gains = g2[nonzero][:pool_size - filled]
            pool[filled:filled + gains.size] = gains
            filled += gains.size
        if got < wanted:
            masked = np.where(nonzero, g2, np.inf)
            masked.sort(axis=1)
            keep = nonzero.sum(axis=1) >= rank_strong
            out_w.append(masked[keep, rank_weak - 1])
            out_s.append(masked[keep, rank_strong - 1])
            got += int(keep.sum())
        if got >= wanted and filled == pool_size:
            break
    w = np.concatenate(out_w)[:wanted]
    s = np.concatenate(out_s)[:wanted]
    return w, s, pool


def check_individual_cdfs(sizes, rng):
    """Unordered and ordered squared-gain CDFs at the paper's ranks i, j vs conditioned empirical CDFs."""
    config, model = paper_config(), paper_model()
    i, j = config.rank_weak, config.rank_strong
    w, s, pooled = _conditioned_rank_gains(config, rng, sizes.ordered_conditioned, 5_000_000)
    results = []
    sup = EmpiricalCdf(pooled).sup_distance(lambda x: an.unordered_gain_cdf(model, x)[0], sizes.cdf_points)
    results.append(CheckResult("unordered-gain-cdf", sup <= 0.005, sup, 0.005, f"n={pooled.size}"))
    sup_w = EmpiricalCdf(w).sup_distance(lambda x: an.ordered_gain_cdf(model, x, i, j)[0], sizes.cdf_points)
    results.append(CheckResult(f"ordered-gain-cdf-rank{i}", sup_w <= 0.01, sup_w, 0.01, f"n={w.size}"))
    sup_s = EmpiricalCdf(s).sup_distance(lambda x: an.ordered_gain_cdf(model, x, j, j)[0], sizes.cdf_points)
    results.append(CheckResult(f"ordered-gain-cdf-rank{j}", sup_s <= 0.01, sup_s, 0.01, f"n={s.size}"))
    return results


def check_group_cdfs(sizes, rng, delta_phi_deg, tolerance):
    """Group-conditional CDFs for both report variants vs strip-sampled oracles."""
    models = tuple(paper_model(delta_phi_deg, kind) for kind in TWO_BIT_KINDS)
    results = []
    for role in (an.WEAK, an.STRONG):
        samples = _strip_members(models, rng, sizes.group_draws, role, within_fov=True)
        for model, sample in zip(models, samples):
            if model.scheme.kind is FeedbackKind.TWO_BIT_MEAN:
                variant, cdf = "mean", an.group_gain_cdf_mean
            else:
                variant, cdf = "instant", an.group_gain_cdf_instant
            sup = EmpiricalCdf(sample).sup_distance(lambda x: cdf(model, x, role)[0], sizes.cdf_points)
            results.append(CheckResult(f"group-cdf-{variant}-{role}-dphi{delta_phi_deg:g}", sup <= tolerance,
                                       sup, tolerance, f"n={sample.size}"))
    return results


def check_theorem_coincidence():
    """Mean-report CDFs collapse onto instantaneous-report CDFs when deviations vanish."""
    mi, mm = (paper_model(0.0, kind) for kind in TWO_BIT_KINDS)
    xs = np.geomspace(1e-17, 1e-10, 80)
    worst = max(float(np.max(np.abs(an.group_gain_cdf_mean(mm, xs, role)[0]
                                    - an.group_gain_cdf_instant(mi, xs, role)[0]))) for role in (an.WEAK, an.STRONG))
    return CheckResult("theorem-coincidence-zero-deviation", worst <= 1e-6, worst, 1e-6, f"{xs.size} levels x 2 roles")


def check_group_conditioning(sizes, rng):
    """Both-groups-nonempty probability at 25 degrees deviation vs population draws (3 sigma)."""
    model = paper_model(kind=FeedbackKind.TWO_BIT_INSTANT)
    geom, mob, scheme = model.geom, model.mobility, model.scheme
    n = sizes.population_draws
    both = 0  # snapshots with both groups nonempty
    for d, phi in _user_blocks(mob, rng, mob.num_users, n):
        incidence = np.abs(incidence_angle(d, phi, geom.ell))
        weak = (d > scheme.d_threshold) & (incidence > scheme.theta_threshold)
        strong = (d <= scheme.d_threshold) & (incidence <= scheme.theta_threshold)
        both += int((weak.any(axis=1) & strong.any(axis=1)).sum())
    frac = both / n
    return _frequency_check("group-conditioning-rate", frac, an.both_groups_probability(model), n, f"n={n}")


def check_outage(sizes, rng, kind):
    """The outage pair of the closed-form route of ``kind`` vs a Monte Carlo oracle at two mid-sweep SNRs (3 sigma).

    Full CSI draws snapshots conditioned on enough nonzero users and takes the
    gains at the paper's ranks; a two-bit kind samples the members of each
    group's distance strip at 25 degrees deviation.
    """
    config, model = paper_config(kind=kind), paper_model(kind=kind)
    if kind is FeedbackKind.FULL_CSI:
        name, gamma_db, tol_floor = "individual", (160.0, 185.0), 1e-4
        weak, strong, _ = _conditioned_rank_gains(config, rng, max(sizes.ordered_conditioned // 2, 50_000), 0)
    else:
        name = "group-mean" if kind is FeedbackKind.TWO_BIT_MEAN else "group-instant"
        # 185.5 dB sits inside the strong group's outage transition (gain span
        # g(d_th)^2 cos^2(theta_th) ... g(0)^2), so neither probability is trivial
        gamma_db, tol_floor = (165.0, 185.5), 2e-4
        [weak] = _strip_members((model,), rng, sizes.group_draws, an.WEAK, within_fov=False)
        [strong] = _strip_members((model,), rng, sizes.group_draws, an.STRONG, within_fov=False)
    eta_weak, eta_strong = replace(config, gamma_db_grid=gamma_db).curves[0][2]  # the NOMA thresholds
    _, weak_outage, strong_outage = an.ROUTES[kind](model, config.rank_weak, config.rank_strong)
    (p_weak, _), (p_strong, _) = weak_outage(eta_weak), strong_outage(eta_strong)
    results = []
    for gdb, tw, ts, pw, ps in zip(gamma_db, *(v.tolist() for v in (eta_weak, eta_strong, p_weak, p_strong))):
        for role, sample, threshold, pred in ((an.WEAK, weak, tw, pw), (an.STRONG, strong, ts, ps)):
            frac = float((sample <= threshold).mean())
            results.append(_frequency_check(f"outage-{name}-{role}-{gdb:g}dB", frac, pred, sample.size,
                                            f"n={sample.size}", var_floor=1e-12, tol_floor=tol_floor))
    return results


def check_strong_group_degeneracy():
    """theta_th = FOV and d_th = d_max reduce the strong-group CDF to the unordered CDF."""
    base = paper_model()
    scheme = FeedbackScheme(FeedbackKind.TWO_BIT_INSTANT, d_threshold=base.mobility.d_max,
                            theta_threshold=base.geom.half_fov)
    mi = replace(base, scheme=scheme)
    xs = np.geomspace(1e-16, 1e-10, 60)
    worst = float(np.max(np.abs(an.group_gain_cdf_instant(mi, xs, an.STRONG)[0] - an.unordered_gain_cdf(base, xs)[0])))
    return CheckResult("strong-group-degeneracy", worst <= 1e-9, worst, 1e-9, f"{xs.size} levels")


def check_quadrature_stability(sizes, rng):
    """Halving quadrature tolerances moves results by less than the reported error."""
    model = paper_model()
    half = replace(model, quad=model.quad.halved())
    xs = 10.0 ** rng.uniform(-16.0, -10.5, sizes.probe_points)
    v1, e1 = an.unordered_gain_cdf(model, xs)
    v2, _ = an.unordered_gain_cdf(half, xs)
    moved, err = np.abs(v2 - v1), np.maximum(e1, 1e-14)
    worst_ratio = float(np.max(moved / err))
    ok = bool(np.all(moved <= err))
    p1, pe1 = an.nonzero_gain_probability(model)
    p2, _ = an.nonzero_gain_probability(half)
    ok = ok and abs(p2 - p1) <= max(pe1, 1e-14)
    return CheckResult("quadrature-halving-stability", ok, worst_ratio, 1.0, f"{sizes.probe_points} probes + p")


def run_validation(quick=False):
    """Every analytic-vs-empirical contract, as a list of CheckResult."""
    sizes = ValidationSizes.quick() if quick else ValidationSizes()
    group_tol = 0.025 if quick else 0.015  # quick mode has ~10x fewer group members
    rng = np.random.default_rng(20240)  # fixed: README says why validate --seed is ignored
    results = []
    results.append(check_marginal_phi_dkw(sizes, rng))
    results.append(check_fov_probability(sizes, rng))
    results.append(check_nonzero_probability(sizes, rng))
    results.extend(check_count_pmf(sizes, rng))
    results.extend(check_individual_cdfs(sizes, rng))
    for dphi in (0.0, 25.0):
        results.extend(check_group_cdfs(sizes, rng, dphi, tolerance=group_tol))
    results.append(check_theorem_coincidence())
    results.append(check_group_conditioning(sizes, rng))
    for kind in (FeedbackKind.FULL_CSI, *TWO_BIT_KINDS):
        results.extend(check_outage(sizes, rng, kind))
    results.append(check_strong_group_degeneracy())
    results.append(check_quadrature_stability(sizes, rng))
    return results
