"""The reference sampler against facts that can be worked out by hand."""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import refsampler as rs  # noqa: E402


def _records(scenario, trials, seed=1):
    return rs.sample_records(scenario, trials, np.random.default_rng(seed))


def test_imports_nothing_from_the_package():
    source = Path(rs.__file__).read_text()
    assert "import vlcnoma" not in source and "from vlcnoma" not in source


def test_peak_gain_under_the_led():
    # hpbw 60 deg gives Lambertian order 1, so the gain at d = 0, theta = 0 is 2 A / (2 pi ell^2)
    sc = rs.Scenario(0.0, ("full-csi",), "full-csi")
    assert math.isclose(float(rs.gain(sc, np.array(0.0), np.array(math.pi / 2))), 2e-4 / (2 * math.pi * 4.0))
    assert float(rs.gain(sc, np.array(5.0), np.array(0.0))) == 0.0  # incidence far outside the FOV


def test_distance_only_always_schedules():
    sc = rs.Scenario(25.0, ("distance",), "distance")
    curve = rs.curve_from_records(sc, _records(sc, 20_000)["distance"])
    assert curve.conditioning_rate == 1.0


def test_one_bit_both_groups_nonempty_rate():
    sc = rs.Scenario(25.0, ("one-bit",), "one-bit")
    trials = 200_000
    q, K = 0.1, sc.num_users
    exact = 1.0 - q**K - (1.0 - q) ** K
    rate = rs.curve_from_records(sc, _records(sc, trials)["one-bit"]).conditioning_rate
    assert abs(rate - exact) <= checks.deviation(None, trials, exact * (1.0 - exact), 1.0)


def test_mean_angle_equals_full_csi_without_deviation():
    sc = rs.Scenario(0.0, ("full-csi", "mean-angle"), "full-csi")
    records = _records(sc, 30_000)
    for full, mean in zip(records["full-csi"], records["mean-angle"]):
        np.testing.assert_array_equal(full, mean)
    a = rs.curve_from_records(sc, records["full-csi"])
    b = rs.curve_from_records(sc, records["mean-angle"])
    np.testing.assert_array_equal(a.sum_rate, b.sum_rate)


def test_group_picks_are_members_and_uniform():
    rng = np.random.default_rng(3)
    members = np.zeros((60_000, 5), bool)
    members[:, [1, 3, 4]] = True
    picks = rs._uniform_member(rng, members)
    assert set(np.unique(picks)) == {1, 3, 4}
    share = np.bincount(picks, minlength=5)[[1, 3, 4]] / picks.size
    assert np.all(np.abs(share - 1 / 3) <= checks.deviation(None, picks.size, 2 / 9, 1.0))
