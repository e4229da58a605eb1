"""Configuration parsing and the bundled experiment presets.

Configuration is plain INI-style text with sections mirroring the domain
objects; all angles are degrees, distances meters, SNR decibels.  Values merge
in precedence order: built-in defaults < preset group < config file <
``--set section.key=value`` overrides < dedicated CLI flags.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LedGeometry
from .link import RATE_END, InfeasibleAllocationError, NomaConfig
from .population import MobilityConfig
from .scheduling import TWO_BIT_KINDS, FeedbackKind, FeedbackScheme
from .simulate import ExperimentConfig, NoiseConfig


class ConfigError(ValueError):
    """A configuration value failed to parse or validate; message names the field."""


MAX_GRID_POINTS = 10_000
MAX_TRIALS = 10_000_000  # time grows with trials, memory does not: about 51 us a trial with six schemes, 8.5 min at 10^7
MAX_WORKERS = 64
MAX_USERS = 1000  # a Monte Carlo chunk draws 4096 x K values per array: 33 MB each at K = 1000


DEFAULTS = {
    "geometry.ell_m": "2.0",
    "geometry.hpbw_deg": "60.0",
    "geometry.detector_area_cm2": "1.0",
    "geometry.half_fov_deg": "50.0",
    "mobility.d_min_m": "0.0",
    "mobility.d_max_m": "10.0",
    "mobility.delta_phi_deg": "25.0",
    # mean-angle range defaults track delta_phi so the instantaneous angle spans [0, 180]
    "mobility.mean_phi_min_deg": "",
    "mobility.mean_phi_max_deg": "",
    "mobility.num_users": "20",
    "noma.power_weak": "0.984375",
    "noma.rate_weak": "2.0",
    "noma.rate_strong": "10.0",
    "schemes.list": "full-csi",
    "schemes.d_threshold_coeff": "0.1",
    "schemes.theta_threshold_coeff": "0.1",
    "strategy.rank_weak": "1",
    "strategy.rank_strong": "10",
    "sweep.gamma_db": "140:5:215",
    "sweep.trials": "100000",
    "sweep.seed": "12345",
    "sweep.workers": "1",
    "noise.sigma_d_m": "",
    "noise.sigma_phi_deg": "",
}


@dataclass(frozen=True)
class RunGroup:
    """One labelled run of the sweep engine within a preset."""

    suffix: str = ""
    overrides: dict = field(default_factory=dict)


PRESETS = {
    # individual user scheduling, static vs dynamic orientation
    "fig2": [
        RunGroup("dphi=0", {"mobility.delta_phi_deg": "0", "schemes.list": "full-csi"}),
        RunGroup("dphi=25", {"mobility.delta_phi_deg": "25", "schemes.list": "full-csi,mean-angle,distance"}),
    ],
    # group-based scheduling with two-bit and one-bit reports
    "fig3": [
        RunGroup("dphi=0", {"mobility.delta_phi_deg": "0", "schemes.list": "two-bit-instant,two-bit-mean,one-bit"}),
        RunGroup("dphi=25", {"mobility.delta_phi_deg": "25", "schemes.list": "two-bit-instant,two-bit-mean,one-bit"}),
    ],
    # individual scheduling with noisy distance/angle estimates
    "fig4": [
        RunGroup("noiseless", {"mobility.delta_phi_deg": "25", "schemes.list": "full-csi,mean-angle,distance"}),
        RunGroup(
            "noisy",
            {
                "mobility.delta_phi_deg": "25",
                "schemes.list": "full-csi,mean-angle,distance",
                "noise.sigma_d_m": "0.05",
                "noise.sigma_phi_deg": "2.5",
            },
        ),
    ],
}


def read_config_file(path):
    """Flat {'section.key': raw string} map from an INI file."""
    parser = configparser.ConfigParser(interpolation=None)  # a value is its text: "%" is no interpolation
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if parser.defaults():  # configparser copies them into every section, as keys the user never wrote there
        raise ConfigError(f"config file {path}: section [DEFAULT] would set its keys in every section; "
                          "write each key in its own section")
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    return flat


def parse_overrides(pairs):
    """Flat map from repeated --set section.key=value arguments."""
    flat = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects section.key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ConfigError(f"--set key must be section.key, got {key!r}")
        flat[key] = value.strip()
    return flat


def merge(*layers):
    flat = dict(DEFAULTS)
    for layer in layers:
        for key, value in (layer or {}).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            flat[key] = value
    return flat


def _get(flat, key, left, lo, hi, right, names=None, parse=float, empty=None):
    """The number ``parse`` reads under ``key`` (``empty`` if blank), refused unless finite and in the interval.

    The interval is ``left`` lo, hi ``right``, with "[" "]" closed and "(" ")" open; ``names`` gives either end by
    its keys, and a refusal prints it by name and by value.
    """
    raw = flat[key]
    if empty is not None and not raw.strip():
        value = empty
    else:
        try:
            value = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected {'an integer' if parse is int else 'a number'}, got {raw!r}") from exc
        if parse is float and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw!r}")
    if (lo <= value if left == "[" else lo < value) and (value <= hi if right == "]" else value < hi):
        return value

    def text(x):  # an int prints in full: .15g would round a long one, and overflow past the float range
        return str(x) if isinstance(x, int) else f"{x:.15g}"

    interval = f"{left}{text(lo)}, {text(hi)}{right}"
    if names:
        named = [text(end) if name is None else name for name, end in zip(names, (lo, hi))]
        interval = f"{left}{named[0]}, {named[1]}{right} = {interval}"
    raise ConfigError(f"{key}: must lie in {interval}, got {text(value)}")


def parse_gamma_grid(raw):
    """Either 'start:step:stop' (inclusive) or a comma-separated dB list of finite values.

    The point count is checked against MAX_GRID_POINTS before a range is materialized.  The grid
    must be strictly increasing, with a finite positive linear SNR 10^(dB/10) at every point.
    """
    raw = raw.strip()
    is_range = ":" in raw
    parts = raw.split(":") if is_range else [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("sweep.gamma_db: grid must not be empty")
    if is_range and len(parts) != 3:
        raise ConfigError(f"sweep.gamma_db: expected start:step:stop, got {raw!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"sweep.gamma_db: {raw!r} is not numeric") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"sweep.gamma_db: {raw!r} has a non-finite value")
    count = len(values)
    if is_range:
        start, step, stop = values
        if step <= 0.0 or stop < start:
            raise ConfigError("sweep.gamma_db: need step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9  # the range holds floor(span) + 1 points
        count = math.floor(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"sweep.gamma_db: {raw!r} has more than {MAX_GRID_POINTS} points")
    grid = tuple(start + i * step for i in range(count)) if is_range else tuple(values)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"sweep.gamma_db: {raw!r} is not strictly increasing")
    for gamma_db in grid:  # 10^(dB/10) overflows above about 3082.5 dB and rounds to 0 below about -3233 dB
        try:
            gamma = 10.0 ** (gamma_db / 10.0)
        except OverflowError:
            gamma = math.inf
        if not 0.0 < gamma < math.inf:
            raise ConfigError(f"sweep.gamma_db: {gamma_db:g} dB has no finite positive linear SNR")
    return grid


_KIND_BY_NAME = {k.value: k for k in FeedbackKind}


def _build_schemes(flat, geom, mobility):
    names = [s.strip() for s in flat["schemes.list"].split(",") if s.strip()]
    if not names:
        raise ConfigError("schemes.list: need at least one scheme")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"schemes.list: {', '.join(repeated)} listed more than once")
    d_coeff = _get(flat, "schemes.d_threshold_coeff", "(", 0.0, 1.0, ")")  # both distance groups must be possible
    # the angle threshold lies inside the half FOV
    theta_coeff = _get(flat, "schemes.theta_threshold_coeff", "(", 0.0, 1.0, "]")
    d_th = mobility.d_min + d_coeff * mobility.d_span
    theta_th = theta_coeff * geom.half_fov
    schemes = []
    for name in names:
        kind = _KIND_BY_NAME.get(name)
        if kind is None:
            raise ConfigError(f"schemes.list: unknown scheme {name!r} (choose from {sorted(_KIND_BY_NAME)})")
        if kind in TWO_BIT_KINDS:
            schemes.append(FeedbackScheme(kind, d_threshold=d_th, theta_threshold=theta_th))
        elif kind is FeedbackKind.ONE_BIT_DISTANCE:
            schemes.append(FeedbackScheme(kind, d_threshold=d_th))
        else:
            schemes.append(FeedbackScheme(kind))
    return tuple(schemes)


def _check_gain_law(geom, d_max, hpbw_deg, area_cm2, half_fov_deg):
    """Refuse a geometry whose smallest nonzero squared gain, (g(d_max) cos(half_fov))^2, is not a normal float64.

    Both engines compare squared gains with their thresholds, and the closed form's mean-angle table starts at
    this level.  A narrow beam has a large Lambertian order m: ell**m overflows, m is infinite once cos(hpbw)
    rounds to 1, or the level underflows, so that a run would see zero gains that the gain law does not have.
    The bound on the beamwidth depends on four other keys, so no interval of one key states it.
    """
    try:
        with np.errstate(all="ignore"):  # the check below reads an overflow, an underflow and a NaN alike
            gain = float(geom.gain_factor(d_max)) * math.cos(geom.half_fov)
    except OverflowError:
        got = "an overflow of ell**m"
    except ZeroDivisionError:  # cos(hpbw) rounds to 1
        got = "an infinite Lambertian order m"
    else:
        if np.finfo(float).tiny <= gain * gain < math.inf:
            return
        got = f"{gain * gain:.3g}"
    raise ConfigError(f"geometry.hpbw_deg: {hpbw_deg:.15g} with geometry.ell_m={geom.ell:.15g}, "
                      f"geometry.detector_area_cm2={area_cm2:.15g}, geometry.half_fov_deg={half_fov_deg:.15g} and "
                      f"mobility.d_max_m={d_max:.15g}: the smallest nonzero squared gain, "
                      f"(g(mobility.d_max_m) cos(geometry.half_fov_deg))^2, must be a normal float64, got {got}")


def build_experiment(flat):
    """Materialize an ExperimentConfig (meters/degrees/dB -> SI/radians/linear), refusing ranges in the keys' units."""
    ell = _get(flat, "geometry.ell_m", "(", 0.0, math.inf, ")")
    area = _get(flat, "geometry.detector_area_cm2", "(", 0.0, math.inf, ")")
    hpbw = _get(flat, "geometry.hpbw_deg", "(", 0.0, 90.0, ")")
    half_fov = _get(flat, "geometry.half_fov_deg", "(", 0.0, 90.0, "]")
    geom = LedGeometry.from_degrees(ell, hpbw, area * 1e-4, half_fov)
    d_max = _get(flat, "mobility.d_max_m", "(", 0.0, math.inf, ")")
    _check_gain_law(geom, d_max, hpbw, area, half_fov)
    d_min = _get(flat, "mobility.d_min_m", "[", 0.0, d_max, ")", names=(None, "mobility.d_max_m"))
    delta_phi = _get(flat, "mobility.delta_phi_deg", "[", 0.0, 90.0, "]")
    # the instantaneous angle, mean +/- delta_phi, stays in [0, 180]; the mean-angle range defaults to all of it
    top, top_name = 180.0 - delta_phi, "180 - mobility.delta_phi_deg"
    mean_min = _get(flat, "mobility.mean_phi_min_deg", "[", delta_phi, top, "]",
                    names=("mobility.delta_phi_deg", top_name), empty=delta_phi)
    mean_max = _get(flat, "mobility.mean_phi_max_deg", "[", mean_min, top, "]",
                    names=("mobility.mean_phi_min_deg", top_name), empty=top)
    num_users = _get(flat, "mobility.num_users", "[", 2, MAX_USERS, "]", parse=int)
    mobility = MobilityConfig.from_degrees(d_min, d_max, mean_min, mean_max, delta_phi, num_users)
    # the weak user gets the larger share; the strong user gets the rest of the power
    weak = _get(flat, "noma.power_weak", "(", 0.5, 1.0, ")")
    # OMA serves each user half of the frame at twice its rate; that threshold must stay a float
    rate_weak, rate_strong = (_get(flat, key, "[", 0.0, RATE_END, ")")
                              for key in ("noma.rate_weak", "noma.rate_strong"))
    try:
        noma = NomaConfig(weak, rate_weak, rate_strong)
    except InfeasibleAllocationError as exc:
        raise ConfigError(f"noma.power_weak: {weak} with noma.rate_weak={rate_weak}: {exc}") from exc
    seed = _get(flat, "sweep.seed", "[", 0, math.inf, ")", parse=int)  # SeedSequence takes no negative entropy
    rank_weak = _get(flat, "strategy.rank_weak", "[", 1, num_users - 1, "]", names=(None, "mobility.num_users - 1"),
                     parse=int)
    rank_strong = _get(flat, "strategy.rank_strong", "[", rank_weak + 1, num_users, "]",
                       names=("strategy.rank_weak + 1", "mobility.num_users"), parse=int)
    schemes = _build_schemes(flat, geom, mobility)
    noise = None
    if flat["noise.sigma_d_m"].strip() or flat["noise.sigma_phi_deg"].strip():
        sigma_d, sigma_phi = (_get(flat, key, "[", 0.0, math.inf, ")", empty=0.0)
                              for key in ("noise.sigma_d_m", "noise.sigma_phi_deg"))
        noise = NoiseConfig(sigma_d, math.radians(sigma_phi))
    return ExperimentConfig(
        geom=geom,
        mobility=mobility,
        noma=noma,
        schemes=schemes,
        gamma_db_grid=parse_gamma_grid(flat["sweep.gamma_db"]),
        rank_weak=rank_weak,
        rank_strong=rank_strong,
        trials=_get(flat, "sweep.trials", "[", 1, MAX_TRIALS, "]", parse=int),
        root_seed=seed,
        noise=noise,
        workers=_get(flat, "sweep.workers", "[", 1, MAX_WORKERS, "]", parse=int),
    )


def resolve_groups(preset, file_flat, set_flat):
    """Final flat config per run group after all layers merge."""
    if preset is None:
        groups = [RunGroup()]
    else:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (choose from {sorted(PRESETS)})")
        groups = PRESETS[preset]
    return [(g.suffix, merge(g.overrides, file_flat, set_flat)) for g in groups]
