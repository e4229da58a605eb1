"""The output checks reject planted faults and accept curves from a correct sampler."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import refsampler as rs  # noqa: E402
import run  # noqa: E402

TRIALS = run.TRIALS
LABEL = "noma-full-csi|dphi=25"
RATES = {"outage_weak": 2.0, "outage_strong": 10.0}  # bit/s/Hz per unit of outage
# Consistent shifts, in bit/s/Hz, that the reference check must catch at every
# point where the shifted outage lies in (0.05, 0.95).  The sum-rate
# identity cannot see these shifts: outages and sum rate move together.
DETECTED = {
    ("mc", "outage_weak"): 0.2,
    ("mc", "outage_strong"): 0.5,
    ("cf", "outage_weak"): 0.2,
    ("cf", "outage_strong"): 0.2,
}


def _csv(curve, label, ci):
    """Write a reference curve in the program's CSV layout."""
    lines = ["scheme,gamma_db,sum_rate,ci_halfwidth,outage_weak,outage_strong,conditioning_rate\n"]
    for i, g in enumerate(rs.GAMMA_DB):
        lines.append(f"{label},{g},{curve.sum_rate[i]},{ci[i]},{curve.outage_weak[i]},"
                     f"{curve.outage_strong[i]},{curve.conditioning_rate}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def references():
    """The reference each engine's curves are checked against, as run.py builds it."""
    return {kind: rs.reference_curves("fig2", run.REF_TRIALS[command], seed=11)
            for kind, command in (("mc", "simulate"), ("cf", "analytic"))}


@pytest.fixture(scope="module")
def texts():
    """fig2 curves as a correct program would write them, by engine and label.

    Monte Carlo: a sample of TRIALS snapshots with its 95 % CI.  Closed form:
    a much larger sample, reported with a tiny quadrature error.
    """
    mc = rs.reference_curves("fig2", TRIALS, seed=12)
    cf = rs.reference_curves("fig2", 400_000, seed=13)
    return {
        "mc": {k: _csv(c, k, 1.96 * np.sqrt(c.sum_rate_var / c.n_cond)) for k, c in mc.items()},
        "cf": {k: _csv(c, k, np.full(len(rs.GAMMA_DB), 1e-6)) for k, c in cf.items()},
    }


def _check(kind, curve, reference):
    return checks.check_mc_curve(curve, reference, TRIALS) if kind == "mc" else checks.check_cf_curve(curve, reference)


def _curve(texts, kind, label=LABEL):
    return checks.parse_csv(texts[kind][label])[label]


def _mid_curve(column):
    """Indices where an outage column is neither saturated nor vanishing."""
    return np.flatnonzero((column > 0.05) & (column < 0.95))


def _sum_rate(curve):
    return RATES["outage_weak"] * (1.0 - curve.outage_weak) + RATES["outage_strong"] * (1.0 - curve.outage_strong)


@pytest.mark.parametrize("kind", ["mc", "cf"])
def test_correct_curves_pass(references, texts, kind):
    for label in texts[kind]:
        assert _check(kind, _curve(texts, kind, label), references[kind][label]) == [], label


@pytest.mark.parametrize("kind", ["mc", "cf"])
def test_sum_rate_shifted_alone_fails(references, texts, kind):
    curve = _curve(texts, kind)
    points = _mid_curve(curve.outage_strong)
    assert points.size >= 2
    for i in points:
        shifted = _curve(texts, kind)
        shifted.sum_rate[i] += 0.2
        assert any("sum_rate" in p for p in _check(kind, shifted, references[kind][LABEL])), i


@pytest.mark.parametrize("kind, column", sorted(DETECTED))
def test_consistent_shift_fails_against_the_reference(references, texts, kind, column):
    # outages and sum rate moved together, so only the reference can tell
    shift = DETECTED[kind, column]
    tried = 0
    for label in texts[kind]:
        if not label.startswith("noma-"):
            continue
        for i in _mid_curve(getattr(_curve(texts, kind, label), column)):
            curve = _curve(texts, kind, label)
            values = getattr(curve, column)
            step = shift / RATES[column]
            values[i] += -step if values[i] >= step else step
            curve.sum_rate = _sum_rate(curve)
            found = _check(kind, curve, references[kind][label])
            assert any("vs reference" in p for p in found), (label, i)
            tried += 1
    assert tried >= 5


def test_non_monotone_outage_fails(references, texts):
    curve = _curve(texts, "mc")
    i = int(np.argmax(np.diff(curve.outage_weak) < 0))  # a step where the outage falls
    curve.outage_weak[i + 1] = curve.outage_weak[i] + 1e-4
    curve.sum_rate = _sum_rate(curve)
    assert any("non-increasing" in p for p in _check("mc", curve, references["mc"][LABEL]))


def test_out_of_range_fails(references, texts):
    curve = _curve(texts, "mc")
    curve.cond[:] = 1.5
    assert any("conditioning_rate outside" in p for p in _check("mc", curve, references["mc"][LABEL]))


def test_ci_above_ceiling_fails(references, texts):
    curve = _curve(texts, "cf")
    curve.ci[3] = 2 * checks.CI_CEILING
    assert any("ceiling" in p for p in _check("cf", curve, references["cf"][LABEL]))


def test_changed_bytes_fail(texts):
    text = texts["mc"][LABEL]
    first = checks.parse_csv(text)[LABEL]
    again = checks.parse_csv(text.replace(f"{rs.GAMMA_DB[0]},", f"{rs.GAMMA_DB[0]:.1f}0,", 1))[LABEL]
    assert checks.check_identical(first, first) == []
    assert checks.check_identical(again, first) != []


def test_nonzero_exit_fails_every_operation():
    all_pass = {"checks": [{"passed": True}] * run.VALIDATE_CHECKS}
    assert checks.validate_failures(0, all_pass, run.VALIDATE_CHECKS) == 0
    assert checks.validate_failures(2, all_pass, run.VALIDATE_CHECKS) == run.VALIDATE_CHECKS
    one_fails = {"checks": [{"passed": True}] * (run.VALIDATE_CHECKS - 1) + [{"passed": False}]}
    assert checks.validate_failures(0, one_fails, run.VALIDATE_CHECKS) == 1

    out = Path("no-such-output.csv")
    attempted, failed, problems = run.judge("simulate", ("fig2",), [out], [{"code": 1}], {}, {})
    assert attempted == failed == len(rs.curve_labels("fig2")) and problems == []


def test_benchmark_json_names_what_the_runner_emits(monkeypatch, tmp_path, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    def fake_spawn(worker_spec, timeout):
        for argv in worker_spec["commands"]:
            report = {"passed": True, "checks": [{"passed": True}] * run.VALIDATE_CHECKS}
            Path(argv[argv.index("--out") + 1]).write_text(json.dumps(report))
        kernel = run.KERNEL_REF_S
        calls = [{"argv": argv, "code": 0, "seconds": 1.0, "kernel_s": kernel} for argv in worker_spec["commands"]]
        result = {"imported": 0.0, "setup_kernel_s": kernel, "calls": calls, "peak_rss_kb": 2048, "package": ""}
        if worker_spec.get("trace"):
            result["layers"] = run.layers.metrics(run.layers.Tracer(), len(calls))
            result["layers_kernel_s"] = kernel
        return result, 0.5

    monkeypatch.setattr(run, "spawn", fake_spawn)
    monkeypatch.setattr(run, "HERE", tmp_path)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "validate-quick", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert run.main(args) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
