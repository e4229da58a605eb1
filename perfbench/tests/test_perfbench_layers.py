"""Tracing leaves the program's output unchanged and counts what each layer does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402


def test_traced_worker_counts_layers_and_keeps_csv_bytes(tmp_path):
    def commands(tag):
        return [
            ["simulate", "--preset", "fig3", "--trials", "40", "--seed", "5", "--out", str(tmp_path / f"s{tag}.csv")],
            ["analytic", "--preset", "fig3", "--set", "sweep.gamma_db=150,200", "--out", str(tmp_path / f"a{tag}.csv")],
        ]

    plain, _ = run.spawn({"commands": commands("0"), "log": str(tmp_path / "log0")}, 120)
    traced, _ = run.spawn({"commands": commands("1"), "log": str(tmp_path / "log1"), "trace": True,
                           "spans": str(tmp_path / "spans.npz")}, 120)
    assert [c["code"] for c in plain["calls"]] == [c["code"] for c in traced["calls"]] == [0, 0]
    for name in ("s", "a"):
        assert (tmp_path / f"{name}0.csv").read_bytes() == (tmp_path / f"{name}1.csv").read_bytes()
    m = traced["layers"]
    assert set(m) == set(run.layers.UNITS)
    # fig3: two run groups, one gain evaluation and three schemes x three scheduling calls per trial
    assert m["simulate.trials"] == 80 and m["channel.calls"] == 80 and m["scheduling.calls"] == 720
    assert m["analytic.group_success_calls"] > 0 and m["quadrature.calls"] > 0
    assert m["quadrature.integrand_evals"] > m["quadrature.calls"]
    assert m["analytic.mean_angle_calls"] == m["validation.cdf_eval_s"] == 0
    assert (tmp_path / "spans.npz").is_file()
