import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from helpers import contract_check, engine_gaps

from vlcnoma import analytic, cli, stats
from vlcnoma.cli import main
from vlcnoma.config import (
    DEFAULTS,
    MAX_GRID_POINTS,
    ConfigError,
    build_experiment,
    merge,
    parse_gamma_grid,
    parse_overrides,
    resolve_groups,
)
from vlcnoma.link import CurvePoint
from vlcnoma.validation import CheckResult, ValidationSizes, check_individual_cdfs, paper_config, paper_model


# every config key read as a number with a fraction
FLOAT_KEYS = [
    "geometry.ell_m", "geometry.hpbw_deg", "geometry.detector_area_cm2", "geometry.half_fov_deg",
    "mobility.d_min_m", "mobility.d_max_m", "mobility.delta_phi_deg", "mobility.mean_phi_min_deg",
    "mobility.mean_phi_max_deg", "noma.power_weak", "noma.rate_weak", "noma.rate_strong",
    "schemes.d_threshold_coeff", "schemes.theta_threshold_coeff", "noise.sigma_d_m", "noise.sigma_phi_deg",
]
# removed keys, refused by name whatever their value: the closed-form engine always uses QuadratureConfig's defaults,
# and the strong user's power share is always 1 - noma.power_weak
REMOVED_KEYS = ["quadrature.abs_tol", "quadrature.rel_tol", "quadrature.max_subdivisions", "noma.power_strong"]


def run_cli(*argv):
    return main(list(argv))


class TestConfigLayer:
    def test_gamma_range_syntax(self):
        assert parse_gamma_grid("140:5:155") == (140.0, 145.0, 150.0, 155.0)

    def test_gamma_list_syntax(self):
        assert parse_gamma_grid("150,170.5,190") == (150.0, 170.5, 190.0)
        assert parse_gamma_grid("-3200,3000") == (-3200.0, 3000.0)  # extreme but representable linear SNRs

    def test_gamma_rejects_empty(self):
        with pytest.raises(ConfigError):
            parse_gamma_grid("")

    @pytest.mark.parametrize("raw", ["140:5:inf", "140:nan:215", "-inf:5:215", "150,inf,200"])
    def test_gamma_rejects_non_finite(self, raw):
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            parse_gamma_grid(raw)

    # the linear SNR 10^(dB/10) overflows above about 3082.5 dB and rounds to 0 below about -3233 dB
    @pytest.mark.parametrize("raw", ["170,160", "150,150", "4000", "-4000", "140:5:3100", "-3300:5:150"])
    def test_gamma_rejects_disorder_and_unrepresentable_snr(self, raw):
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            parse_gamma_grid(raw)

    def test_gamma_point_cap(self):
        # half-dB steps: whole-dB points this many would leave the representable linear SNRs
        assert len(parse_gamma_grid(f"-2000:0.5:{-2000 + (MAX_GRID_POINTS - 1) / 2}")) == MAX_GRID_POINTS
        # one point over the cap, and a count that overflows to inf, are both refused from the count alone
        for raw in (f"0:1:{MAX_GRID_POINTS}", "-1e308:1e-300:1e308"):
            with pytest.raises(ConfigError, match="sweep.gamma_db"):
                parse_gamma_grid(raw)
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            parse_gamma_grid(",".join(["150"] * (MAX_GRID_POINTS + 1)))

    @pytest.mark.parametrize("key,value", [
        ("sweep.trials", "0"), ("sweep.trials", "10000001"), ("sweep.workers", "0"), ("sweep.workers", "-5"),
        ("sweep.workers", "65"),
    ])
    def test_sweep_size_bounds(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_experiment(merge({key: value}))

    @pytest.mark.parametrize("value", ["1", "1001", "many"])
    def test_user_count_bounds(self, value):
        with pytest.raises(ConfigError, match="mobility.num_users"):
            build_experiment(merge({"mobility.num_users": value}))

    def test_worker_count_reaches_the_engine_in_the_config(self, monkeypatch, tmp_path):
        workers = []

        def engine(config):
            workers.append(config.workers)
            return {}

        monkeypatch.setattr(cli, "run_sweep", engine)
        assert run_cli("simulate", "--set", "sweep.workers=2", "--out", str(tmp_path / "x.csv")) == 0
        assert workers == [2]

    def test_sweep_size_bounds_stop_the_command_before_any_work(self, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", never)
        for override in ("sweep.trials=10000001", "sweep.workers=-5", "sweep.workers=65"):
            assert run_cli("simulate", "--set", override, "--out", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS + REMOVED_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_experiment(merge({key: value}))

    @pytest.mark.parametrize("key,value", [
        ("schemes.d_threshold_coeff", "0"), ("schemes.d_threshold_coeff", "1"),
        ("schemes.d_threshold_coeff", "2"), ("schemes.d_threshold_coeff", "-0.5"),
        ("schemes.theta_threshold_coeff", "0"), ("schemes.theta_threshold_coeff", "1.01"),
        ("schemes.theta_threshold_coeff", "5"),
        # the removed OMA time-share key is refused by name whatever its value
        ("noma.oma_time_share", "0"), ("noma.oma_time_share", "-1"), ("noma.oma_time_share", "1000"),
        # 2^(2 * 2 * rate), the SINR threshold of the OMA rate, overflows a float: the end of the rates' interval
        ("noma.rate_strong", "1000"), ("noma.rate_weak", "256"), ("noma.rate_strong", "255.69779972785417"),
        # the open ends of intervals
        ("geometry.hpbw_deg", "90"), ("noma.power_weak", "0.5"), ("noma.power_weak", "1"), ("mobility.d_min_m", "10"),
        ("geometry.ell_m", "0"), ("geometry.hpbw_deg", "0"),
        # just below the closed ends
        ("mobility.d_min_m", "-1"), ("mobility.delta_phi_deg", "-1"),
    ])
    def test_out_of_range_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_experiment(merge({key: value}))

    def test_range_ends_that_are_accepted(self):
        flat = merge({"schemes.list": "two-bit-instant", "schemes.theta_threshold_coeff": "1",
                      "schemes.d_threshold_coeff": "0.99"})
        config = build_experiment(flat)
        assert config.schemes[0].theta_threshold == config.geom.half_fov
        assert config.schemes[0].d_threshold == pytest.approx(9.9)
        # the closed ends of intervals
        for overrides in ({"geometry.half_fov_deg": "90"}, {"mobility.delta_phi_deg": "0"},
                          {"mobility.delta_phi_deg": "90"}, {"noma.rate_weak": "0"}, {"sweep.seed": "0"},
                          {"noma.rate_strong": "255.69779972785415"},  # the float below the rates' open end
                          {"mobility.num_users": "1000"},
                          {"mobility.mean_phi_min_deg": "25", "mobility.mean_phi_max_deg": "155"},
                          {"mobility.mean_phi_min_deg": "155", "mobility.mean_phi_max_deg": "155"},
                          # beams whose smallest nonzero squared gain is a normal float64
                          {"geometry.hpbw_deg": "4.75"}, {"geometry.hpbw_deg": "5"}, {"geometry.hpbw_deg": "60"},
                          {"geometry.hpbw_deg": "5", "geometry.half_fov_deg": "90"}):
            build_experiment(merge(overrides))

    @pytest.mark.parametrize("key", sorted(DEFAULTS))
    def test_every_key_refuses_garbage_by_its_own_name(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            build_experiment(merge({key: "nan"}))

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("source", ["set", "config"])
    def test_removed_key_exits_1_naming_it(self, monkeypatch, capsys, tmp_path, source, command):
        # OMA always splits its frame between the two users of the pair; the share is no longer a key
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "sum_rate_sweep", never)
        ini = tmp_path / "run.ini"
        ini.write_text("[noma]\noma_time_share = 2\n")
        argv = ("--set", "noma.oma_time_share=2") if source == "set" else ("--config", str(ini))
        assert run_cli(command, *argv, "--out", str(tmp_path / "x.csv")) == 1
        assert "noma.oma_time_share" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("override", [
        "geometry.ell_m=inf", "noma.rate_weak=nan", "noise.sigma_d_m=nan", "noma.oma_time_share=-1",
        "noma.oma_time_share=1000", "noma.rate_strong=1000", "schemes.d_threshold_coeff=2",
        "schemes.d_threshold_coeff=1", "schemes.theta_threshold_coeff=5", "sweep.seed=-1",
        "strategy.rank_weak=0", "strategy.rank_strong=50", "sweep.gamma_db=4000", "sweep.gamma_db=-4000",
        "sweep.gamma_db=170,160", "quadrature.abs_tol=1e-10", "quadrature.rel_tol=1e-8",
        "quadrature.max_subdivisions=200", "noma.power_strong=0.015625",  # the removed keys at their former defaults
    ])
    def test_refusal_exits_1_naming_the_key(self, monkeypatch, capsys, tmp_path, command, override):
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "sum_rate_sweep", never)
        assert run_cli(command, "--preset", "fig3", "--set", override, "--out", str(tmp_path / "x.csv")) == 1
        assert override.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ("geometry.ell_m=-1", "geometry.ell_m: must lie in (0, inf), got -1"),
        ("geometry.detector_area_cm2=0", "geometry.detector_area_cm2: must lie in (0, inf), got 0"),
        ("geometry.hpbw_deg=105", "geometry.hpbw_deg: must lie in (0, 90), got 105"),
        ("geometry.half_fov_deg=95", "geometry.half_fov_deg: must lie in (0, 90], got 95"),
        ("mobility.d_min_m=12", "mobility.d_min_m: must lie in [0, mobility.d_max_m) = [0, 10), got 12"),
        # the default mean-angle range [delta_phi, 180 - delta_phi] would be empty
        ("mobility.delta_phi_deg=100", "mobility.delta_phi_deg: must lie in [0, 90], got 100"),
        ("mobility.mean_phi_min_deg=10", "mobility.mean_phi_min_deg: must lie in [mobility.delta_phi_deg, "
                                         "180 - mobility.delta_phi_deg] = [25, 155], got 10"),
        ("mobility.mean_phi_max_deg=170", "mobility.mean_phi_max_deg: must lie in [mobility.mean_phi_min_deg, "
                                          "180 - mobility.delta_phi_deg] = [25, 155], got 170"),
        ("noise.sigma_d_m=-1", "noise.sigma_d_m: must lie in [0, inf), got -1"),
        ("noise.sigma_phi_deg=-2.5", "noise.sigma_phi_deg: must lie in [0, inf), got -2.5"),
        ("noma.power_weak=-0.1", "noma.power_weak: must lie in (0.5, 1), got -0.1"),
        # the strong user's share is always 1 - noma.power_weak
        ("noma.power_strong=0.02", "unknown config key 'noma.power_strong'"),
        ("noma.rate_weak=-1", "noma.rate_weak: must lie in [0, 255.697799727854), got -1"),
        ("noma.rate_strong=-1", "noma.rate_strong: must lie in [0, 255.697799727854), got -1"),
        # each refusal names the key whose value lies outside, not a key whose interval it bounds
        ("mobility.mean_phi_min_deg=170", "mobility.mean_phi_min_deg: must lie in [mobility.delta_phi_deg, "
                                          "180 - mobility.delta_phi_deg] = [25, 155], got 170"),
        ("mobility.d_max_m=-5", "mobility.d_max_m: must lie in (0, inf), got -5"),
        ("mobility.num_users=5", "strategy.rank_strong: must lie in [strategy.rank_weak + 1, mobility.num_users] = "
                                 "[2, 5], got 10"),
    ])
    def test_domain_refusal_names_the_key_in_its_unit(self, monkeypatch, capsys, tmp_path, override, message):
        monkeypatch.setattr(cli, "sum_rate_sweep", lambda *args, **kwargs: pytest.fail("the sweep must not start"))
        assert run_cli("analytic", "--set", override, "--out", str(tmp_path / "x.csv")) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    @pytest.mark.parametrize("hpbw,ell,half_fov,got", [
        ("1", "2", "50", "an overflow of ell**m"),
        ("1e-8", "2", "50", "an infinite Lambertian order m"),  # cos(hpbw) rounds to 1
        # the far users' gains underflow: the simulator counts them as zero, the closed form as nonzero
        ("3", "2", "50", "0"),
        ("1", "0.5", "50", "0"),  # ell**m underflows, so that the gain constant is 0
        # the squared gain underflows: the mean-angle closed form takes the log of its smallest level
        ("4", "2", "50", "0"),
        ("4.75", "2", "90", "0"),  # accepted at a half FOV of 50 deg
    ], ids=["1deg", "1e-8deg", "3deg", "1deg-ell0.5", "4deg", "4.75deg-fov90"])
    def test_gain_law_leaving_float64_refused_before_any_work(self, monkeypatch, capsys, tmp_path, command, hpbw, ell,
                                                             half_fov, got):
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "sum_rate_sweep", never)
        argv = ("--set", f"geometry.hpbw_deg={hpbw}", "--set", f"geometry.ell_m={ell}",
                "--set", f"geometry.half_fov_deg={half_fov}")
        assert run_cli(command, *argv, "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: geometry.hpbw_deg: {float(hpbw):.15g} with geometry.ell_m={ell}, geometry.detector_area_cm2=1, "
            f"geometry.half_fov_deg={half_fov} and mobility.d_max_m=10: the smallest nonzero squared gain, "
            f"(g(mobility.d_max_m) cos(geometry.half_fov_deg))^2, must be a normal float64, got {got}"]

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_infeasible_allocation_refused_before_any_work(self, monkeypatch, capsys, tmp_path, command):
        # 0.6 - 0.4 * eps_weak < 0: no gain serves the weak user's rate at any SNR
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", never)
        monkeypatch.setattr(cli, "sum_rate_sweep", never)
        assert run_cli(command, "--set", "noma.power_weak=0.6", "--out", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: noma.power_weak: 0.6 with noma.rate_weak=2.0: ")

    def test_repeated_scheme_rejected(self):
        with pytest.raises(ConfigError, match="schemes.list"):
            build_experiment(merge({"schemes.list": "full-csi,distance,full-csi"}))

    def test_override_parsing(self):
        assert parse_overrides(["sweep.trials=99"]) == {"sweep.trials": "99"}
        with pytest.raises(ConfigError):
            parse_overrides(["sweeptrials=99"])
        with pytest.raises(ConfigError, match="unknown config key 'sweep.unknown'"):
            merge(parse_overrides(["sweep.unknown=1"]))

    def test_defaults_materialize(self):
        config = build_experiment(merge())
        assert config.mobility.num_users == 20
        assert config.geom.half_fov == pytest.approx(math.radians(50.0))
        assert config.noma.share_weak == pytest.approx(63.0 / 64.0)
        # the mean-angle range tracks delta_phi so the angle spans [0, pi]
        assert config.mobility.mean_phi_min == pytest.approx(math.radians(25.0))

    def test_threshold_coefficients(self):
        flat = merge({"schemes.list": "two-bit-instant", "schemes.theta_threshold_coeff": "0.1"})
        config = build_experiment(flat)
        assert config.schemes[0].d_threshold == pytest.approx(1.0)
        assert config.schemes[0].theta_threshold == pytest.approx(math.radians(5.0))

    def test_validation_error_names_field(self):
        with pytest.raises(ConfigError, match="mobility"):
            build_experiment(merge({"mobility.d_min_m": "12"}))
        with pytest.raises(ConfigError, match="sweep.gamma_db"):
            build_experiment(merge({"sweep.gamma_db": "abc"}))

    def test_presets_resolve(self):
        groups = resolve_groups("fig2", {}, {})
        assert [s for s, _ in groups] == ["dphi=0", "dphi=25"]
        with pytest.raises(ConfigError):
            resolve_groups("fig9", {}, {})

    @pytest.mark.parametrize("preset,suffix,dphi", [
        ("fig2", "dphi=0", 0.0), ("fig2", "dphi=25", 25.0), ("fig3", "dphi=0", 0.0), ("fig3", "dphi=25", 25.0),
        ("fig4", "noiseless", 25.0),
    ])
    def test_the_suites_paper_experiment_is_each_paper_run_group(self, preset, suffix, dphi):
        # tests/helpers.py takes the paper's setup from validation.paper_config and its schemes from paper_model
        group = build_experiment(dict(resolve_groups(preset, {}, {}))[suffix])
        paper = paper_config(dphi)
        for field in fields(paper):
            if field.name != "schemes":
                assert getattr(group, field.name) == getattr(paper, field.name), field.name
        assert group.schemes == tuple(paper_model(dphi, scheme.kind).scheme for scheme in group.schemes)

    def test_config_file_layer(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[sweep]\ntrials = 777\n\n[mobility]\nnum_users = 12\n")
        groups = resolve_groups(None, {"sweep.trials": "777", "mobility.num_users": "12"}, {})
        config = build_experiment(groups[0][1])
        assert config.trials == 777
        assert config.mobility.num_users == 12
        from vlcnoma.config import read_config_file

        assert read_config_file(path)["sweep.trials"] == "777"

    def test_percent_in_config_file_is_refused_naming_the_key(self, monkeypatch, capsys, tmp_path):
        # a value is its text: "%" starts no interpolation, so 150% is refused as a number
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("the sweep must not start"))
        path = tmp_path / "run.ini"
        path.write_text("[sweep]\ngamma_db = 150%\n")
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")) == 1
        assert "sweep.gamma_db" in capsys.readouterr().err

    def test_default_section_is_refused_naming_the_file(self, monkeypatch, capsys, tmp_path):
        # configparser copies [DEFAULT] keys into every section: seed would be read as sweep.seed, and with a
        # [geometry] section refused as geometry.seed, a key never written
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: pytest.fail("the sweep must not start"))
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\nseed = 3\n\n[sweep]\ntrials = 10\n")
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "[DEFAULT]" in err

    def test_config_file_not_utf8_is_refused_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes("[sweep]\n# d\xe9j\xe0 vu\ntrials = 10\n".encode("latin-1"))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")) == 1
        assert str(path) in capsys.readouterr().err


class TestSimulateCommand:
    def test_csv_schema_and_manifest(self, tmp_path):
        out = tmp_path / "mini.csv"
        code = run_cli(
            "simulate", "--trials", "300", "--seed", "5",
            "--set", "sweep.gamma_db=170,210", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,gamma_db,sum_rate,ci_halfwidth,outage_weak,outage_strong,conditioning_rate"
        assert len(lines) == 1 + 2 * 2  # full-csi + oma, two grid points each
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["groups"][0]["config"]["sweep.seed"] == "5"
        assert str(out) in manifest["csv_sha256"]

    def test_manifest_records_stream_version_and_throughput(self, tmp_path):
        out = tmp_path / "two.csv"
        args = ["--trials", "300", "--seed", "5", "--set", "sweep.gamma_db=170", "--out", str(out)]
        assert run_cli("simulate", "--preset", "fig4", *args) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["stream_version"] == 2
        # fig4 has two run groups of 300 trials each; duration_s is rounded to 1 ms
        assert manifest["trials_per_s"] == pytest.approx(600 / manifest["duration_s"], rel=0.05)

    @pytest.mark.parametrize("argv", [("simulate", "--trials", "300"), ("analytic",)])
    def test_manifest_records_numpy_version_and_simd_targets(self, tmp_path, argv):
        out = tmp_path / "run.csv"
        assert run_cli(*argv, "--set", "sweep.gamma_db=170", "--out", str(out)) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        simd = manifest["numpy_simd"]
        assert simd["baseline"] == list(cli._umath.__cpu_baseline__)
        assert set(simd["dispatch"]) <= set(cli._umath.__cpu_dispatch__)
        assert all(cli._umath.__cpu_features__[target] for target in simd["dispatch"])

    @pytest.mark.parametrize("argv, meaning", [
        (("simulate", "--trials", "300"), f"{stats.Z_CI:g} standard errors of the conditional per-trial sum rate"),
        (("analytic",), "propagated quadrature error R_w*e_w + R_s*e_s"),
    ], ids=["simulate", "analytic"])
    def test_manifest_says_what_ci_halfwidth_means(self, tmp_path, argv, meaning):
        out = tmp_path / "run.csv"
        assert run_cli(*argv, "--set", "sweep.gamma_db=170", "--out", str(out)) == 0
        assert json.loads(out.with_suffix(".manifest.json").read_text())["ci_halfwidth"].startswith(meaning)

    def test_byte_identical_reproduction(self, tmp_path):
        args = ["simulate", "--trials", "400", "--seed", "11", "--set", "sweep.gamma_db=180,200"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_gamma_grid_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--set", "sweep.gamma_db=", "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_preset_fig2_curve_set(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = run_cli(
            "simulate", "--preset", "fig2", "--trials", "200", "--seed", "1",
            "--set", "sweep.gamma_db=170,215", "--out", str(out),
        )
        assert code == 0
        import csv as csvmod

        with open(out) as fh:
            schemes = {row["scheme"] for row in csvmod.DictReader(fh)}
        assert schemes == {
            "noma-full-csi|dphi=0",
            "oma|dphi=0",
            "noma-full-csi|dphi=25",
            "noma-mean-angle|dphi=25",
            "noma-distance|dphi=25",
            "oma|dphi=25",
        }


class TestAnalyticCommand:
    def test_single_point_run(self, tmp_path):
        out = tmp_path / "an.csv"
        code = run_cli("analytic", "--set", "sweep.gamma_db=170", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + noma + oma at one grid point
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert "stream_version" not in manifest and "trials_per_s" not in manifest

    def test_one_point_grid_writes_its_rows_of_the_full_grid(self, tmp_path):
        # every level of a batched closed-form call is computed as if alone, so a one-point
        # grid gives the same bytes as that point's rows of the full-grid run
        full, single = tmp_path / "full.csv", tmp_path / "single.csv"
        assert run_cli("analytic", "--preset", "fig3", "--out", str(full)) == 0
        assert run_cli("analytic", "--preset", "fig3", "--set", "sweep.gamma_db=170:5:170", "--out", str(single)) == 0
        header, *rows = full.read_text().splitlines(keepends=True)
        kept = [row for row in rows if row.split(",")[1] == "170.0"]
        assert len(kept) == 6
        assert single.read_text() == header + "".join(kept)

    def test_noisy_run_groups_are_skipped(self, tmp_path, capsys):
        # the closed-form engine has no estimation-noise model
        out = tmp_path / "fig4.csv"
        assert run_cli("analytic", "--preset", "fig4", "--set", "sweep.gamma_db=170", "--out", str(out)) == 0
        import csv as csvmod

        with open(out) as fh:
            schemes = {row["scheme"] for row in csvmod.DictReader(fh)}
        assert schemes == {"noma-full-csi|noiseless", "noma-mean-angle|noiseless", "oma|noiseless"}
        assert "run group 'noisy' has estimation noise" in capsys.readouterr().err

    def test_schemes_without_a_route_are_noted_per_run_group(self, tmp_path, capsys):
        assert run_cli("analytic", "--preset", "fig3", "--out", str(tmp_path / "fig3.csv")) == 0
        notes = [line for line in capsys.readouterr().err.splitlines() if "no closed-form route" in line]
        assert notes == [f"note: run group {group!r} has no closed-form route for scheme 'one-bit'; skipped"
                         for group in ("dphi=0", "dphi=25")]

    @pytest.mark.parametrize("overrides,scheme,keys", [
        # a mean-angle law with one mean angle has no density to integrate over
        pytest.param(("mobility.mean_phi_min_deg=90", "mobility.mean_phi_max_deg=90", "schemes.list=mean-angle"),
                     "mean-angle", ("mobility.mean_phi_min_deg", "mobility.mean_phi_max_deg"),
                     id="one-mean-angle-mean-angle"),
        # every vertical angle in [0, 10] deg leaves the FOV, so no user has a nonzero gain
        *[pytest.param(("mobility.mean_phi_min_deg=0", "mobility.mean_phi_max_deg=10", "mobility.delta_phi_deg=0",
                        f"schemes.list={scheme}"), scheme,
                       ("mobility.mean_phi_min_deg", "mobility.mean_phi_max_deg", "mobility.delta_phi_deg"),
                       id=f"no-user-in-fov-{scheme}")
          for scheme in ("full-csi", "mean-angle", "two-bit-instant", "two-bit-mean")],
        # Pr(all 1000 users have a nonzero gain) = p^1000 underflows to 0: the truncated count law has no mass
        *[pytest.param(("mobility.num_users=1000", "strategy.rank_strong=1000", f"schemes.list={scheme}"), scheme,
                       ("mobility.num_users", "strategy.rank_strong"), id=f"count-tail-underflow-{scheme}")
          for scheme in ("full-csi", "mean-angle")],
        # at K = 1000 the tail Pr(count >= 965) is 5.6e-311, subnormal: renormalizing by it would lose the law
        *[pytest.param(("mobility.num_users=1000", f"strategy.rank_strong={rank}", "schemes.list=full-csi"),
                       "full-csi", ("mobility.num_users", "strategy.rank_strong"), id=f"count-tail-subnormal-{rank}")
          for rank in (965, 971)],
    ])
    def test_undefined_closed_form_exits_1_naming_group_scheme_and_keys(self, tmp_path, capsys, overrides, scheme,
                                                                        keys):
        argv = [arg for pair in overrides for arg in ("--set", pair)] + ["--set", "sweep.gamma_db=170"]
        assert run_cli("analytic", *argv, "--out", str(tmp_path / "an.csv")) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: run group 'default', ")
        assert f"scheme {scheme!r}" in err[0]
        assert all(key in err[0] for key in keys)
        # the Monte Carlo engine needs no density, so the same config still runs
        assert run_cli("simulate", *argv, "--trials", "200", "--out", str(tmp_path / "sim.csv")) == 0

    def test_quadrature_failure_turns_only_its_curve_into_nan(self, tmp_path, monkeypatch, capsys):
        from vlcnoma.quadrature import QuadratureError

        def failing(*args, **kwargs):
            raise QuadratureError("forced failure")

        monkeypatch.setattr(analytic, "mean_angle_success_probability", failing)
        out = tmp_path / "an.csv"
        code = run_cli("analytic", "--set", "schemes.list=full-csi,mean-angle",
                       "--set", "sweep.gamma_db=170,215", "--out", str(out))
        assert code == 3
        import csv as csvmod

        with open(out) as fh:
            rows = list(csvmod.DictReader(fh))
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row["scheme"], []).append(row)
        assert set(by_scheme) == {"noma-full-csi", "noma-mean-angle", "oma"}
        for scheme, scheme_rows in by_scheme.items():
            assert [row["gamma_db"] for row in scheme_rows] == ["170.0", "215.0"]
            for row in scheme_rows:
                values = [float(row[k]) for k in ("sum_rate", "ci_halfwidth", "outage_weak", "outage_strong",
                                                  "conditioning_rate")]
                assert all(map(math.isnan, values)) == (scheme == "noma-mean-angle"), (scheme, values)
        err = capsys.readouterr().err
        assert "mean-angle" in err and "forced failure" in err
        assert "full-csi" not in err

    def test_overlays_simulation(self, tmp_path):
        # the default run group through both commands, compared by the acceptance suite's engine check
        flat = {"sweep.gamma_db": "160,215", "sweep.trials": "40000", "sweep.seed": "2"}
        sim_out, an_out = tmp_path / "sim.csv", tmp_path / "an.csv"
        assert run_cli("simulate", "--trials", "40000", "--seed", "2",
                       "--set", "sweep.gamma_db=160,215", "--out", str(sim_out)) == 0
        assert run_cli("analytic", "--set", "sweep.gamma_db=160,215", "--out", str(an_out)) == 0

        def curves(path):
            # the columns after scheme are the fields of CurvePoint, in order
            with open(path, newline="") as fh:
                rows = csv.reader(fh)
                assert next(rows) == ["scheme", *(f.name for f in fields(CurvePoint))]
                out = {}
                for scheme, *values in rows:
                    out.setdefault(scheme, []).append(CurvePoint(*map(float, values)))
            return out

        agree, detail = contract_check({"default": engine_gaps(build_experiment(merge(flat)), curves(sim_out),
                                                               curves(an_out))})
        assert agree, detail


class TestSweepEngines:
    def test_each_command_writes_its_engine_curves_notes_and_failures(self, monkeypatch, capsys, tmp_path):
        # the loop reaches both engines through the cli module's names: the benchmark harness wraps them there
        from vlcnoma.quadrature import QuadratureError

        point = CurvePoint(170.0, 1.5, 0.25, 0.125, 0.5, 0.75)
        monkeypatch.setattr(cli, "run_sweep", lambda config: {"stub-mc": [point]})
        monkeypatch.setattr(cli, "sum_rate_sweep", lambda config: (
            {"stub-cf": [point]}, {"stub-cf": QuadratureError("stub failure")}, ["a stub reason"]))
        sim_out, an_out = tmp_path / "sim.csv", tmp_path / "an.csv"
        assert run_cli("simulate", "--preset", "fig2", "--out", str(sim_out)) == 0
        assert capsys.readouterr().err == ""
        assert run_cli("analytic", "--preset", "fig2", "--out", str(an_out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            line for group in ("dphi=0", "dphi=25")
            for line in (f"note: run group {group!r} has a stub reason; skipped",
                         f"numerical failure for stub-cf|{group}: stub failure")
        ]
        values = ["170.0", "1.5", "0.25", "0.125", "0.5", "0.75"]
        for path, label in ((sim_out, "stub-mc"), (an_out, "stub-cf")):
            with open(path, newline="") as fh:
                assert list(csv.reader(fh))[1:] == [[f"{label}|{group}", *values] for group in ("dphi=0", "dphi=25")]


class TestPlotCommand:
    def _make_csv(self, path):
        run_cli("simulate", "--trials", "100", "--seed", "3", "--set", "sweep.gamma_db=180", "--out", str(path))

    def test_emits_script(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        self._make_csv(csv_path)
        script = tmp_path / "plot.py"
        assert run_cli("plot", str(csv_path), "--out", str(script)) == 0
        text = script.read_text()
        assert "matplotlib" in text and str(csv_path) in text
        compile(text, str(script), "exec")  # emitted script must at least parse

    @pytest.mark.parametrize("out", ["data.csv", "fig.png"])
    def test_refuses_an_out_that_would_overwrite_an_input_or_itself(self, capsys, tmp_path, monkeypatch, out):
        # an --out naming the input would replace the sweep with the script, and a .png --out
        # would get a script that renders over itself
        monkeypatch.chdir(tmp_path)
        self._make_csv(tmp_path / "data.csv")
        before = (tmp_path / "data.csv").read_bytes()
        capsys.readouterr()
        assert run_cli("plot", "data.csv", "--out", str(tmp_path / ".." / tmp_path.name / out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and out in err[0]
        assert (tmp_path / "data.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.manifest.json"]

    def test_rejects_mixed_schema(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("scheme,gamma_db,sum_rate\nx,1,2\n")
        assert run_cli("plot", str(bad), "--out", str(tmp_path / "p.py")) == 1

    def test_rejects_empty_csv(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("scheme,gamma_db,sum_rate,ci_halfwidth,outage_weak,outage_strong,conditioning_rate\n")
        assert run_cli("plot", str(empty), "--out", str(tmp_path / "p.py")) == 1

    def test_rejects_csv_not_utf8_naming_the_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("scheme,gamma_db,sum_rate,ci_halfwidth,outage_weak,outage_strong,conditioning_rate\n"
                        "noma-\xe9,180,1,0,0,0,1\n".encode("latin-1"))
        assert run_cli("plot", str(bad), "--out", str(tmp_path / "p.py")) == 1
        assert str(bad) in capsys.readouterr().err


class TestValidateCommand:
    def test_corrupted_gain_exponent_fails_cdf_check(self, monkeypatch):
        # sensitivity canary: break the inverse-squared-gain exponent and the
        # unordered-CDF cross check must notice
        sizes = ValidationSizes.quick()
        rng = np.random.default_rng(0)
        results = check_individual_cdfs(sizes, rng)
        assert all(r.passed for r in results)

        def corrupted(geom, r):
            return (geom.ell**2 + r * r) ** (geom.m + 1.0) / geom.channel_constant**2

        monkeypatch.setattr(analytic, "inverse_squared_gain", corrupted)
        analytic._band_mass.cache_clear()
        rng = np.random.default_rng(0)
        broken = check_individual_cdfs(sizes, rng)
        assert not all(r.passed for r in broken)

    def test_usage_error_exit_code(self):
        assert run_cli("simulate", "--set", "nonsense") == 1


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ("validate", "--config", "run.ini"),
        ("validate", "--preset", "fig2"),
        ("validate", "--set", "sweep.seed=1"),
        ("validate", "--trials", "10"),
        ("analytic", "--trials", "10"),
        ("analytic", "--quick"),
        ("simulate", "--quick"),
    ])
    def test_flag_the_command_does_not_read_is_refused(self, capsys, argv):
        # refused while parsing, before any configuration is read or work starts
        assert run_cli(*argv) == 1
        assert argv[1] in capsys.readouterr().err

    def test_validate_out_makes_the_missing_directory(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "run_validation", lambda quick: [CheckResult("stub", True, 0.0, 1.0)])
        out = tmp_path / "nodir" / "sub" / "r.json"
        assert run_cli("validate", "--quick", "--out", str(out)) == 0
        assert json.loads(out.read_text())["checks"][0]["name"] == "stub"

    @pytest.mark.parametrize("under_a_file", [True, False])
    @pytest.mark.parametrize("argv", [("simulate",), ("analytic",), ("validate", "--quick"), ("plot", "missing.csv")])
    def test_unwritable_out_exits_1_naming_it_before_any_work(self, monkeypatch, capsys, tmp_path, argv, under_a_file):
        def never(*args, **kwargs):
            raise AssertionError("the work must not start")

        for name in ("run_sweep", "sum_rate_sweep", "run_validation"):
            monkeypatch.setattr(cli, name, never)
        out = tmp_path  # an existing directory
        if under_a_file:
            blocker = tmp_path / "FILE"  # a regular file where the output directory should be
            blocker.write_text("")
            out = blocker / "a.out"
        # plot names a CSV that does not exist: refusing it instead would mean the inputs were read first
        assert run_cli(*argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err and "missing.csv" not in err

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_a_refused_run_group_stops_the_command_before_any_work(self, monkeypatch, capsys, tmp_path, command):
        # fig2's dphi=0 group takes mean angles from 10 deg, its dphi=25 group does not
        for name in ("run_sweep", "sum_rate_sweep"):
            monkeypatch.setattr(cli, name, lambda config: pytest.fail("the sweep must not start"))
        out = tmp_path / "new" / "x.csv"
        assert run_cli(command, "--preset", "fig2", "--set", "mobility.mean_phi_min_deg=10", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: mobility.mean_phi_min_deg: must lie in [mobility.delta_phi_deg, 180 - mobility.delta_phi_deg] = "
            "[25, 155], got 10"]
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_a_manifest_path_that_is_a_directory_exits_1_before_any_work(self, monkeypatch, capsys, tmp_path,
                                                                         command):
        for name in ("run_sweep", "sum_rate_sweep"):
            monkeypatch.setattr(cli, name, lambda config: pytest.fail("the sweep must not start"))
        manifest = tmp_path / "x.manifest.json"
        manifest.mkdir()
        assert run_cli(command, "--preset", "fig3", "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {manifest}: it is a directory"]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "analytic", "validate"])
    def test_every_command_accepts_seed(self, command):
        assert cli.build_parser().parse_args([command, "--seed", "3"]).seed == 3
