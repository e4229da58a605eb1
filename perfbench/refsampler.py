"""Independent reference sampler for the benchmark's output checks.

A vectorised NumPy model of the scheduling protocol, written from the
formulas stated in the package README and in the ``channel``, ``population``
and ``link`` docstrings.  It imports nothing from ``vlcnoma``, draws its own
random streams and works on whole ``(trials, users)`` arrays, so it shares no
code path with either engine it checks.

Model (angles in radians, distances in meters):

* user k draws d ~ U[d_min, d_max], a mean vertical angle
  m ~ U[delta_phi, pi - delta_phi] and phi = m + U[-delta_phi, delta_phi];
* incidence theta = pi - atan2(ell, d) - phi, and the gain is
  (q + 1) A / (2 pi (ell^2 + d^2)) * (ell / sqrt(ell^2 + d^2))^q * cos(theta)
  inside |theta| <= half FOV and 0 outside, with q = -1 / log2(cos(hpbw));
* the SINR threshold of a rate R is (2^(2R) - 1) 2 pi / e; the NOMA pair
  succeeds per user when h^2 > eta_weak = (eps_w/gamma) / (s_w - s_s eps_w)
  and h^2 > eta_strong = max(eta_weak, (eps_s/gamma) / s_s); the OMA baseline
  uses eps(T R)/gamma with time share T;
* reports may carry Gaussian errors on distance (clamped at 0), instantaneous
  angle and mean angle; the true gain always decides the outage.

The six selection rules are the ones the README tabulates: rank nonzero
reported gains (full CSI, mean angle), rank by distance (farthest weakest),
or pick one uniform member of the all-zeros and all-ones report groups
(two-bit instant/mean, one-bit distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA_DB = tuple(float(g) for g in range(140, 216, 5))
INDIVIDUAL = ("full-csi", "mean-angle", "distance")
GROUP = ("two-bit-instant", "two-bit-mean", "one-bit")
_CHUNK = 25_000  # trials per vectorised pass; bounds memory, not results


@dataclass(frozen=True)
class Scenario:
    """One run group of a preset: the README's reference scenario plus its variations."""

    delta_phi_deg: float
    schemes: tuple
    oma_base: str
    noisy: bool = False
    num_users: int = 20
    ell: float = 2.0
    hpbw_deg: float = 60.0
    area_m2: float = 1e-4
    half_fov_deg: float = 50.0
    d_min: float = 0.0
    d_max: float = 10.0
    share_weak: float = 63.0 / 64.0
    share_strong: float = 1.0 / 64.0
    rate_weak: float = 2.0
    rate_strong: float = 10.0
    rank_weak: int = 1
    rank_strong: int = 10
    threshold_coeff: float = 0.1
    oma_time_share: int = 2
    sigma_d: float = 0.05
    sigma_phi_deg: float = 2.5

    @property
    def d_threshold(self):
        return self.d_min + self.threshold_coeff * (self.d_max - self.d_min)

    @property
    def theta_threshold(self):
        return self.threshold_coeff * math.radians(self.half_fov_deg)


PRESETS = {
    "fig2": {
        "dphi=0": Scenario(0.0, ("full-csi",), "full-csi"),
        "dphi=25": Scenario(25.0, INDIVIDUAL, "full-csi"),
    },
    "fig3": {
        "dphi=0": Scenario(0.0, GROUP, "two-bit-instant"),
        "dphi=25": Scenario(25.0, GROUP, "two-bit-instant"),
    },
    "fig4": {
        "noiseless": Scenario(25.0, INDIVIDUAL, "full-csi"),
        "noisy": Scenario(25.0, INDIVIDUAL, "full-csi", noisy=True),
    },
}


def curve_labels(preset, schemes_filter=None):
    """CSV ``scheme`` labels a preset writes, optionally restricted to some schemes."""
    labels = []
    for suffix, sc in PRESETS[preset].items():
        kept = [s for s in sc.schemes if schemes_filter is None or s in schemes_filter]
        labels += [f"noma-{s}|{suffix}" for s in kept]
        if sc.oma_base in kept:
            labels.append(f"oma|{suffix}")
    return labels


def _incidence(sc, d, phi):
    return math.pi - np.arctan2(sc.ell, d) - phi


def gain(sc, d, phi):
    """FOV-gated Lambertian line-of-sight gain."""
    q = -1.0 / math.log2(math.cos(math.radians(sc.hpbw_deg)))
    theta = _incidence(sc, d, phi)
    r2 = sc.ell**2 + d * d
    h = (q + 1.0) * sc.area_m2 / (2.0 * math.pi * r2) * (sc.ell / np.sqrt(r2)) ** q * np.cos(theta)
    return np.where(np.abs(theta) <= math.radians(sc.half_fov_deg), h, 0.0)


def sinr_threshold(rate):
    return (2.0 ** (2.0 * rate) - 1.0) * 2.0 * math.pi / math.e


def gain_thresholds(sc, oma):
    """Squared-gain thresholds (weak, strong) over the gamma grid."""
    gamma = 10.0 ** (np.asarray(GAMMA_DB) / 10.0)
    if oma:
        t = sc.oma_time_share
        return sinr_threshold(t * sc.rate_weak) / gamma, sinr_threshold(t * sc.rate_strong) / gamma
    eps_w, eps_s = sinr_threshold(sc.rate_weak), sinr_threshold(sc.rate_strong)
    eta_w = (eps_w / gamma) / (sc.share_weak - sc.share_strong * eps_w)
    return eta_w, np.maximum(eta_w, (eps_s / gamma) / sc.share_strong)


def _ranked_pair(sc, report):
    """Ranks (rank_weak, rank_strong) among users with nonzero report, ascending."""
    order = np.argsort(np.where(report > 0.0, report, np.inf), axis=1, kind="stable")
    ok = (report > 0.0).sum(axis=1) >= sc.rank_strong
    return ok, order[:, sc.rank_weak - 1], order[:, sc.rank_strong - 1]


def _uniform_member(rng, members):
    keys = np.where(members, rng.random(members.shape), np.inf)
    return np.argmin(keys, axis=1)


def select(sc, scheme, rng, d, mean_phi, phi):
    """(scheduled, weak index, strong index) per trial from the reported state."""
    if scheme == "full-csi":
        return _ranked_pair(sc, gain(sc, d, phi))
    if scheme == "mean-angle":
        return _ranked_pair(sc, gain(sc, d, mean_phi))
    if scheme == "distance":
        order = np.argsort(-d, axis=1, kind="stable")
        return np.ones(len(d), bool), order[:, sc.rank_weak - 1], order[:, sc.rank_strong - 1]
    near = d <= sc.d_threshold
    if scheme == "one-bit":
        weak, strong = ~near, near
    elif scheme in ("two-bit-instant", "two-bit-mean"):
        angle = phi if scheme == "two-bit-instant" else mean_phi
        aligned = np.abs(_incidence(sc, d, angle)) <= sc.theta_threshold
        weak, strong = ~near & ~aligned, near & aligned
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    ok = weak.any(axis=1) & strong.any(axis=1)
    return ok, _uniform_member(rng, weak), _uniform_member(rng, strong)


@dataclass
class RefCurve:
    """Success counts of one curve over the gamma grid, with their trial counts."""

    trials: int
    n_cond: int
    succ_weak: np.ndarray
    succ_strong: np.ndarray
    succ_both: np.ndarray
    rate_weak: float
    rate_strong: float

    @property
    def conditioning_rate(self):
        return self.n_cond / self.trials

    @property
    def outage_weak(self):
        return 1.0 - self.succ_weak / max(self.n_cond, 1)

    @property
    def outage_strong(self):
        return 1.0 - self.succ_strong / max(self.n_cond, 1)

    @property
    def sum_rate(self):
        return (self.rate_weak * self.succ_weak + self.rate_strong * self.succ_strong) / max(self.n_cond, 1)

    @property
    def sum_rate_var(self):
        """Per-trial variance of the conditioned rate X = R_w 1[weak ok] + R_s 1[strong ok]."""
        n = max(self.n_cond, 1)
        second = (self.rate_weak**2 * self.succ_weak + self.rate_strong**2 * self.succ_strong
                  + 2.0 * self.rate_weak * self.rate_strong * self.succ_both) / n
        return np.maximum(second - self.sum_rate**2, 0.0)


def sample_records(sc, trials, rng):
    """{scheme: (scheduled, true h^2 weak, true h^2 strong)} for ``trials`` snapshots."""
    parts = {s: [] for s in sc.schemes}
    dphi = math.radians(sc.delta_phi_deg)
    for start in range(0, trials, _CHUNK):
        n, K = min(_CHUNK, trials - start), sc.num_users
        d = rng.uniform(sc.d_min, sc.d_max, (n, K))
        mean_phi = rng.uniform(dphi, math.pi - dphi, (n, K))
        phi = mean_phi + rng.uniform(-dphi, dphi, (n, K))
        h2 = gain(sc, d, phi) ** 2
        if sc.noisy:
            sig = math.radians(sc.sigma_phi_deg)
            d_fb = np.maximum(0.0, d + sc.sigma_d * rng.standard_normal((n, K)))
            phi_fb = phi + sig * rng.standard_normal((n, K))
            mean_fb = mean_phi + sig * rng.standard_normal((n, K))
        else:
            d_fb, mean_fb, phi_fb = d, mean_phi, phi
        rows = np.arange(n)
        for s in sc.schemes:
            ok, w, st = select(sc, s, rng, d_fb, mean_fb, phi_fb)
            parts[s].append((ok, h2[rows, w], h2[rows, st]))
    return {s: tuple(np.concatenate(col) for col in zip(*p)) for s, p in parts.items()}


def curve_from_records(sc, record, oma=False):
    ok, h2w, h2s = record
    eta_w, eta_s = gain_thresholds(sc, oma)
    win = h2w[ok, None] > eta_w[None, :]
    sin = h2s[ok, None] > eta_s[None, :]
    return RefCurve(len(ok), int(ok.sum()), win.sum(axis=0), sin.sum(axis=0), (win & sin).sum(axis=0),
                    sc.rate_weak, sc.rate_strong)


def reference_curves(preset, trials, seed):
    """{CSV label: RefCurve} for every curve of a preset, from ``trials`` snapshots per run group."""
    out = {}
    for index, (suffix, sc) in enumerate(PRESETS[preset].items()):
        rng = np.random.default_rng([seed, index, 0x5EED])
        records = sample_records(sc, trials, rng)
        for s in sc.schemes:
            out[f"noma-{s}|{suffix}"] = curve_from_records(sc, records[s])
        out[f"oma|{suffix}"] = curve_from_records(sc, records[sc.oma_base], oma=True)
    return out
