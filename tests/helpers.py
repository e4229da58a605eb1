"""Helpers that more than one test module uses; test modules import from here and never from each other."""

import math
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np

from vlcnoma import analytic as an
from vlcnoma.channel import channel_gain, mean_channel_gain
from vlcnoma.population import sample_user_arrays
from vlcnoma.scheduling import FeedbackKind, FeedbackScheme
from vlcnoma.validation import paper_config, paper_model

# ---------------------------------------------------------------------------
# The paper's experiment, as the CLI builds it
# ---------------------------------------------------------------------------

# config.DEFAULTS through build_experiment: delta_phi = 25 deg, full CSI.  Another deviation or scheme is
# paper_model(delta_phi_deg, kind); a config off the paper's is dataclasses.replace(PAPER, ...).
PAPER = paper_config()


def snapshot(seed, mobility=PAPER.mobility):
    """A snapshot's user arrays and true / mean-angle gains on the paper geometry, drawn as the simulator draws them."""
    d, mean_phi, phi = sample_user_arrays(mobility, np.random.default_rng(seed), mobility.num_users)
    gains, mean_gains = channel_gain(PAPER.geom, d, phi), mean_channel_gain(PAPER.geom, d, mean_phi)
    return SimpleNamespace(d=d, mean_phi=mean_phi, phi=phi, gains=gains, mean_gains=mean_gains)


# ---------------------------------------------------------------------------
# Independent SIC oracle: the SINR and rate conditions that link.eta_thresholds
# reduces to squared-gain thresholds, evaluated directly.
# ---------------------------------------------------------------------------


def rate_from_sinr(sinr):
    """Achievable spectral efficiency 1/2 * log2(1 + (e/2pi)*sinr) of the intensity channel."""
    return 0.5 * np.log2(1.0 + math.e / (2.0 * math.pi) * np.asarray(sinr, float))


def sinr_cross(h_strong_sq, noma, gamma):
    """SINR at the strong user while decoding the weak user's message."""
    h_sq = np.asarray(h_strong_sq, float)
    return h_sq * noma.share_weak / (h_sq * noma.share_strong + 1.0 / gamma)


def sinr_own(h_sq, noma, gamma, is_strongest):
    """SINR of a user decoding its own message: interference-free after SIC, else the cross SINR."""
    if is_strongest:
        return np.asarray(h_sq, float) * noma.share_strong * gamma
    return sinr_cross(h_sq, noma, gamma)


def sic_success(h_weak_sq, h_strong_sq, noma, gamma):
    """(weak user decodes, strong user decodes) for the NOMA pair ``noma``, elementwise over gains and SNRs."""
    weak_ok = rate_from_sinr(sinr_own(h_weak_sq, noma, gamma, is_strongest=False)) > noma.rate_weak
    strong_ok = (rate_from_sinr(sinr_cross(h_strong_sq, noma, gamma)) > noma.rate_weak) & (
        rate_from_sinr(sinr_own(h_strong_sq, noma, gamma, is_strongest=True)) > noma.rate_strong)
    return weak_ok, strong_ok


# ---------------------------------------------------------------------------
# Levels and group models of the pinned closed-form values
# ---------------------------------------------------------------------------

# squared-gain levels: zero, inside the support (the last one inside the paper
# scheme's strong group), and above g(d_min)^2 = 6.3e-11
LEVELS = (0.0, 5e-15, 4e-13, 2e-11, 4.5e-11, 1e-10)
# (d_threshold m, theta_threshold as a fraction of the half FOV) besides the paper scheme's
WIDE_THRESHOLDS = (4.0, 0.5)


def group_models(geom, mob, name):
    """The two-bit-instant and two-bit-mean models of the paper thresholds (``name == "paper"``) or the wide ones."""
    def scheme(kind):
        if name == "paper":
            return paper_model(kind=kind).scheme
        d_th, th = WIDE_THRESHOLDS
        return FeedbackScheme(kind, d_threshold=d_th, theta_threshold=th * geom.half_fov)

    return tuple(an.AnalyticModel(geom=geom, mobility=mob, scheme=scheme(kind))
                 for kind in (FeedbackKind.TWO_BIT_INSTANT, FeedbackKind.TWO_BIT_MEAN))


# ---------------------------------------------------------------------------
# The dual-engine contract
# ---------------------------------------------------------------------------

# Conditioning-rate bound of the engine comparison: a family-wise false-alarm rate of 1e-3, two-sided, over
# the 17 curves compared (fig2 and fig3 at both deviations, fig4 noiseless: 3 each; the CLI overlay: 2),
# Phi^-1(1 - 1e-3 / 34), about 4.0 binomial sigma.
Z_BOUND = NormalDist().inv_cdf(1.0 - 1e-3 / 34)


def engine_gaps(config, mc, cf):
    """Per curve of ``config`` with a closed-form route: (worst sum-rate gap ratio, conditioning-rate z-score).

    ``mc`` holds the ``run_sweep`` curves of ``config`` and ``cf`` the
    ``an.sum_rate_sweep`` curves; the closed form must return exactly the
    curves whose kind is in ``an.ROUTES``.  The gap ratio is the worst
    |MC - closed form| sum rate over max(MC CI, 0.05); the z-score is
    |p_mc - p| / sqrt(p (1 - p) / trials), with p the closed-form
    conditioning rate.  A NaN point gives a NaN, which no bound passes.
    """
    routed = {label for label, kind, _ in config.curves if kind in an.ROUTES}
    assert set(cf) == routed, f"closed-form curves {sorted(cf)}, curves with a route {sorted(routed)}"
    gaps = {}
    for label in sorted(routed):
        assert [p.gamma_db for p in mc[label]] == [p.gamma_db for p in cf[label]], label
        m_rate, m_ci, m_cond = np.array([(p.sum_rate, p.ci_halfwidth, p.conditioning_rate) for p in mc[label]]).T
        c_rate, c_cond = np.array([(p.sum_rate, p.conditioning_rate) for p in cf[label]]).T
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(m_cond - c_cond) / np.sqrt(c_cond * (1.0 - c_cond) / config.trials)
        # a closed-form rate of exactly 0 or 1 has no binomial spread: only an exact match passes
        z = np.where(m_cond == c_cond, 0.0, z)
        gaps[label] = (float(np.max(np.abs(m_rate - c_rate) / np.maximum(m_ci, 0.05))), float(np.max(z)))
    return gaps


def contract_check(runs):
    """(whether every curve of {run: engine_gaps(...)} has gap ratio <= 1 and z <= Z_BOUND, one line of numbers)."""
    rows = [(run, label, gap, z) for run, gaps in runs.items() for label, (gap, z) in gaps.items()]
    ok = all(gap <= 1.0 and z <= Z_BOUND for _, _, gap, z in rows)
    detail = "; ".join(f"{run} {label} gap {gap:.3f} z {z:.2f}" for run, label, gap, z in rows)
    return ok, f"bounds gap <= 1, z <= {Z_BOUND:.2f}: {detail}"
