import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from chirpfield import cli
from chirpfield import montecarlo as mc


def parse_args(argv):
    return cli._build_parser().parse_args(argv)


def spec_for(argv):
    return cli.build_spec(parse_args(argv))


class TestSnrParsing:
    def test_grid(self):
        assert cli._parse_snr_spec("-30:-28:1", "test") == (-30.0, -29.0, -28.0)

    def test_single_value(self):
        assert cli._parse_snr_spec("-25", "test") == (-25.0,)

    def test_fractional_step(self):
        grid = cli._parse_snr_spec("-30:-29:0.5", "test")
        assert grid == (-30.0, -29.5, -29.0)

    def test_malformed(self):
        with pytest.raises(cli.ConfigError):
            cli._parse_snr_spec("x", "test")
        with pytest.raises(cli.ConfigError):
            cli._parse_snr_spec("-30:-28", "test")
        with pytest.raises(cli.ConfigError):
            cli._parse_snr_spec("-30:-28:-1", "test")

    # each once wrote NaN-noise rows or died with a traceback
    @pytest.mark.parametrize("mode, snr", [
        ("simulate", "nan"),      # BER about 0.5 rows, exit 0
        ("analytic", "nan"),      # ValueError from log_pcf_d
        ("simulate", "-inf"),     # ZeroDivisionError
        ("simulate", "-30:inf:1"),  # OverflowError
    ])
    def test_non_finite_is_rejected(self, mode, snr, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = cli.main([mode, f"--snr-db={snr}", "--trials", "100", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "flag --snr-db: SNR values must be finite" in capsys.readouterr().err

    # each once died with a traceback after truncating --out (-4000 and
    # 4000 in the closed forms, 3100 in the noise std), or wrote rows
    # simulated with an infinite noise std (-3150)
    @pytest.mark.parametrize("snr", ["-4000", "-3150", "4000", "-30:3100:10"])
    @pytest.mark.parametrize("mode", ["simulate", "analytic"])
    def test_beyond_the_limit_is_rejected(self, mode, snr, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = cli.main([mode, f"--snr-db={snr}", "--trials", "100", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: flag --snr-db: SNR values must lie in [-3000, 3000] dB, got {snr!r}\n")

    @pytest.mark.parametrize("snr", ["-4000", "-3150", "4000", "-30:3100:10"])
    @pytest.mark.parametrize("mode", ["simulate", "analytic"])
    def test_beyond_the_limit_in_config_file_names_the_key(self, mode, snr, tmp_path, capsys):
        path, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        path.write_text(f"snr_db = {snr}\n")
        code = cli.main([mode, "--config", str(path), "--trials", "100", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: {path}: key 'snr_db': SNR values must lie in [-3000, 3000] dB, "
            f"got {snr!r}\n")

    def test_limit_parses(self):
        assert cli._parse_snr_spec("-3000", "test") == (-3000.0,)
        assert cli._parse_snr_spec("3000", "test") == (3000.0,)
        assert cli._parse_snr_spec("-3000:3000:2000", "test") == (-3000.0, -1000.0, 1000.0, 3000.0)
        # the grid's points count, not its stop
        assert cli._parse_snr_spec("2990:3005:10", "test") == (2990.0, 3000.0)

    def test_non_finite_in_config_file_names_the_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("snr_db = -30:-28:nan\n")
        with pytest.raises(cli.ConfigError, match="key 'snr_db'.*finite"):
            spec_for(["simulate", "--config", str(path)])

    @pytest.mark.parametrize("snr, message", [
        ("-30:-28:-1", "SNR step must be positive"),
        ("-30:-28:0", "SNR step must be positive"),
        ("-28:-30:1", "SNR grid stop lies below its start"),
        # once wrote each point three times, every copy identical
        ("0:1e-9:2e-10", "SNR grid points repeat once rounded to 1e-9 dB"),
        # once died with an OverflowError traceback
        ("-1e308:1e308:1e-300", "SNR grid has more than 100000 points"),
        # once built a list of a million points before checking anything
        ("0:1e-4:1e-10", "SNR grid has more than 100000 points"),
    ])
    def test_bad_grid_names_the_flag(self, snr, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = cli.main(["analytic", f"--snr-db={snr}", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"flag --snr-db: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("snr, message", [
        ("-30:-28:-1", "SNR step must be positive"),
        ("-28:-30:1", "SNR grid stop lies below its start"),
        ("0:1e-9:2e-10", "SNR grid points repeat once rounded to 1e-9 dB"),
        ("-1e308:1e308:1e-300", "SNR grid has more than 100000 points"),
        ("0:1e-4:1e-10", "SNR grid has more than 100000 points"),
    ])
    def test_bad_grid_in_config_file_names_the_key(self, snr, message, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"snr_db = {snr}\n")
        with pytest.raises(cli.ConfigError, match=f"key 'snr_db': {message}"):
            spec_for(["simulate", "--config", str(path)])


class TestSpecBuilding:
    def test_defaults(self):
        spec = spec_for(["analytic"])
        assert spec.mode == "analytic"
        assert spec.sf_values == (7,)
        assert spec.n_values == (25,)
        assert spec.m_values == (2.0,)
        assert spec.branches == (("case_a", "noncoherent"), ("case_a", "coherent"))
        assert spec.trials == 100_000 and spec.seed == 1

    def test_flags(self):
        spec = spec_for(
            ["simulate", "--sf", "8", "--elements", "10", "--m", "3",
             "--scenario", "blind", "--detection", "noncoherent",
             "--snr-db", "-20", "--trials", "500", "--seed", "9"]
        )
        assert spec.sf_values == (8,)
        assert spec.branches == (("blind", "noncoherent"),)
        assert spec.snr_db_grid == (-20.0,)

    def test_trials_must_be_positive(self):
        with pytest.raises(cli.ConfigError):
            spec_for(["simulate", "--trials", "0"])

    def test_bad_scenario(self):
        with pytest.raises(cli.ConfigError):
            spec_for(["simulate", "--scenario", "tunnel"])

    def test_bad_sf(self):
        with pytest.raises(cli.ConfigError):
            spec_for(["simulate", "--sf", "13"])

    def test_preset_expansion(self):
        spec = spec_for(["analytic", "--preset", "fig3a"])
        assert spec.sf_values == (7, 8, 9)
        assert spec.n_values == (25,)
        assert ("case_a", "coherent") in spec.branches

    def test_comparison_preset(self):
        spec = spec_for(["simulate", "--preset", "fig5"])
        scenarios = {scenario for scenario, _ in spec.branches}
        assert scenarios == {"ris_free", "blind", "case_a", "case_b"}
        assert ("blind", "noncoherent") in spec.branches
        assert ("blind", "coherent") not in spec.branches

    def test_preset_pins_parameters(self):
        with pytest.raises(cli.ConfigError):
            spec_for(["analytic", "--preset", "fig3a", "--sf", "6"])

    def test_unknown_preset(self):
        with pytest.raises(cli.ConfigError):
            spec_for(["analytic", "--preset", "fig9"])


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "sf = 8\n"
            "elements = 15\n"
            "m = 3\n"
            "scenario = case_b\n"
            "detection = coherent\n"
            "snr_db = -28:-26:1\n"
            "trials = 1234\n"
            "seed = 42\n"
        )
        spec = spec_for(["simulate", "--config", str(path)])
        assert spec.sf_values == (8,)
        assert spec.n_values == (15,)
        assert spec.branches == (("case_b", "coherent"),)
        assert spec.snr_db_grid == (-28.0, -27.0, -26.0)
        assert spec.trials == 1234 and spec.seed == 42

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = 10\nseed = 1\n")
        spec = spec_for(["simulate", "--config", str(path), "--trials", "20"])
        assert spec.trials == 20 and spec.seed == 1

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sf = 7\nwavelength = 868\n")
        with pytest.raises(cli.ConfigError, match=r"run\.cfg:2: unknown key"):
            spec_for(["simulate", "--config", str(path)])

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials = soon\n")
        with pytest.raises(cli.ConfigError, match="trials"):
            spec_for(["simulate", "--config", str(path)])

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sf = 7\nsf = 8\n")
        with pytest.raises(cli.ConfigError, match="duplicate"):
            spec_for(["simulate", "--config", str(path)])

    def test_missing_file(self):
        with pytest.raises(cli.ConfigError):
            spec_for(["simulate", "--config", "/nonexistent/run.cfg"])

    SAMPLES = {
        "preset": "fig5", "sf": "8", "elements": "10", "m": "3.5",
        "scenario": "blind", "detection": "coherent", "snr_db": "-30:-28:1",
        "trials": "500", "seed": "9", "out": "run.csv", "workers": "2",
        "v1": "30", "v2": "40", "staircase_m": "8",
        "paper_literal_estimator": "true", "full_offset_range": "true",
    }

    @pytest.mark.parametrize("key", list(SAMPLES))
    def test_flag_and_key_agree(self, key, tmp_path):
        # each setting means the same as a flag and as a key, and moves the spec
        assert list(self.SAMPLES) == list(cli._SETTINGS)
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {self.SAMPLES[key]}\n")
        flag = cli._flag(key)
        if cli._SETTINGS[key][0] is not bool:
            flag += f"={self.SAMPLES[key]}"
        from_flag = spec_for(["simulate", flag])
        assert from_flag == spec_for(["simulate", "--config", str(path)])
        assert from_flag != spec_for(["simulate"])


def given_as(source, key, value, tmp_path):
    """Arguments that give one setting as a flag or a config key, and the
    origin its errors name."""
    if source == "flag":
        flag = cli._flag(key)
        arg = flag if cli._SETTINGS[key][0] is bool else f"{flag}={value}"
        return [arg], "flag " + flag
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {value}\n")
    return ["--config", str(path)], f"{path}: key '{key}'"


class TestErrorOrigins:
    """Every bad setting is a configuration error that starts with the flag
    or config key it came from, reported before any CSV is written."""

    @pytest.mark.parametrize("source", ["flag", "key"])
    @pytest.mark.parametrize("key, value", [
        ("trials", "0"), ("seed", "-1"), ("workers", "0"),
        ("workers", str(mc.MAX_WORKERS + 1)),
        ("sf", "13"), ("elements", "-1"), ("m", "0"), ("m", "nan"),
        ("scenario", "tunnel"), ("detection", "x"), ("preset", "fig9"),
    ])
    def test_error_starts_with_its_origin(self, key, value, source, tmp_path, capsys):
        out = tmp_path / "out.csv"
        setting, origin = given_as(source, key, value, tmp_path)
        code = cli.main(["analytic", *setting, "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {origin}: ")

    # simulate once wrote BER rows near 0.49 and exited 0; analytic died
    # with a ValueError from log_pcf_d
    @pytest.mark.parametrize("source", ["flag", "key"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("mode", ["simulate", "analytic"])
    def test_non_finite_m_is_rejected(self, mode, value, source, tmp_path, capsys):
        out = tmp_path / "out.csv"
        setting, origin = given_as(source, "m", value, tmp_path)
        code = cli.main([mode, *setting, "--snr-db", "-30", "--detection", "noncoherent",
                         "--trials", "100", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert (f"error: {origin}: must be positive and finite, got {value}"
                in capsys.readouterr().err)

    def test_pinned_setting_names_its_origin(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = fig3a\nelements = 30\n")
        with pytest.raises(cli.ConfigError, match="key 'elements': preset 'fig3a' pins"):
            spec_for(["analytic", "--config", str(path)])


class TestExampleConfig:
    PATH = Path(__file__).resolve().parents[1] / "docs" / "example-config.cfg"

    def test_header_lists_every_key(self):
        keys = []
        for line in self.PATH.read_text().splitlines():
            listed = re.match(r"#   (\S.*?)\s{2,}", line)
            if listed:
                keys += listed.group(1).split(", ")
        assert keys == list(cli._SETTINGS)

    def test_resolves(self):
        spec = spec_for(["simulate", "--config", str(self.PATH)])
        assert spec.out == "case_a_sf7.csv" and spec.workers == 4


class TestQuadratureKnobs:
    """Orders and staircase resolutions below 1 are configuration errors,
    reported before anything runs; they once died in AnalyticConfig with a
    traceback, in `both` mode after the whole simulation."""

    @pytest.mark.parametrize("flag, value", [
        ("--staircase-m", "0"), ("--v1", "0"), ("--v2", "0"), ("--v1", "-3"),
    ])
    def test_flag_below_one_is_rejected(self, flag, value, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = cli.main(["both", flag, value, "--snr-db", "-30", "--trials", "100",
                         "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"error: flag {flag}: must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["staircase_m", "v1", "v2"])
    def test_config_key_below_one_is_rejected(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 0\n")
        with pytest.raises(cli.ConfigError, match=f"key '{key}': must be >= 1, got 0"):
            spec_for(["analytic", "--config", str(path)])

    def test_one_is_accepted(self):
        spec = spec_for(["analytic", "--v1", "1", "--v2", "1", "--staircase-m", "1"])
        assert (spec.quadrature_order_v1, spec.quadrature_order_v2, spec.staircase_m) == (
            1, 1, 1)


class TestRuns:
    def test_analytic_single_point(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        code = cli.main(
            ["analytic", "--scenario", "case_a", "--detection", "noncoherent",
             "--snr-db", "-30", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scenario,detection,sf,")
        assert len(lines) == 2
        fields = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert fields["scenario"] == "case_a"
        assert float(fields["ber_analytic"]) > 0
        assert fields["ber_sim"] == "" and fields["bits_sent"] == ""

    def test_simulate_single_point(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main(
            ["simulate", "--scenario", "ris_free", "--detection", "noncoherent",
             "--snr-db", "-10", "--trials", "2000", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        fields = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert fields["ber_analytic"] == ""  # surface-free baseline is sim-only
        assert int(fields["bits_sent"]) == 2000 * 7
        assert 0.0 <= float(fields["ber_sim"]) <= 0.55
        assert float(fields["ci_low"]) <= float(fields["ber_sim"]) <= float(fields["ci_high"])

    def test_ris_free_rows_are_the_zero_element_shared_surface(self, tmp_path):
        # the surface-free baseline is case_a with N = 0: its rows differ from
        # that run's only in the scenario and element-count columns
        rows = {}
        for scenario, elements in (("ris_free", "25"), ("case_a", "0")):
            out = tmp_path / f"{scenario}.csv"
            code = cli.main(
                ["simulate", "--scenario", scenario, "--elements", elements,
                 "--detection", "both", "--snr-db=-10:0:10", "--trials", "3000",
                 "--seed", "8", "--out", str(out)]
            )
            assert code == 0
            lines = out.read_text().splitlines()
            header = lines[0].split(",")
            rows[scenario] = [dict(zip(header, line.split(","))) for line in lines[1:]]
        free, bare = rows["ris_free"], rows["case_a"]
        assert len(free) == len(bare) == 4
        assert {(row["scenario"], row["n_elements"]) for row in free} == {("ris_free", "25")}
        assert {(row["scenario"], row["n_elements"]) for row in bare} == {("case_a", "0")}
        strip = ("scenario", "n_elements")
        assert [{k: v for k, v in row.items() if k not in strip} for row in free] == [
            {k: v for k, v in row.items() if k not in strip} for row in bare
        ]
        assert all(int(row["bits_sent"]) > 0 and float(row["ber_sim"]) > 0 for row in free)

    def test_both_mode_fills_both_sides(self, tmp_path):
        out = tmp_path / "both.csv"
        code = cli.main(
            ["both", "--scenario", "case_b", "--detection", "noncoherent",
             "--snr-db", "-20", "--trials", "3000", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        fields = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(fields["ber_analytic"]) > 0
        assert float(fields["ber_sim"]) > 0

    def test_byte_identical_reruns(self, tmp_path):
        # grids starting with a minus sign need the --flag=value spelling
        args = ["simulate", "--scenario", "case_a", "--detection", "noncoherent",
                "--snr-db=-30:-28:1", "--trials", "4000", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_both_detections_match_separate_runs(self, tmp_path, workers):
        # 12,288 trials (three blocks): at -36 dB the non-coherent detector
        # stops early after one block and the coherent one after two; at
        # -32 dB only the non-coherent one stops early
        args = ["simulate", "--scenario", "case_b", "--snr-db=-36:-32:4",
                "--trials", "12288", "--seed", "11", "--workers", workers]
        rows = {}
        for detection in ("both", "noncoherent", "coherent"):
            out = tmp_path / f"{detection}.csv"
            assert cli.main(args + ["--detection", detection, "--out", str(out)]) == 0
            rows[detection] = out.read_text().splitlines()[1:]
        assert rows["both"] == rows["noncoherent"] + rows["coherent"]
        bits = {tuple(row.split(",")[1:6:4]): int(row.split(",")[12]) for row in rows["both"]}
        budget = 12288 * 7
        assert bits[("noncoherent", "-36")] < bits[("coherent", "-36")] < budget
        assert bits[("noncoherent", "-32")] < bits[("coherent", "-32")] == budget

    @pytest.mark.parametrize("preset, expected", [
        # the baselines: blind has the non-coherent detector alone
        ("fig5", [(("ris_free", 7, 25, 2.0), ("noncoherent", "coherent")),
                  (("blind", 7, 25, 2.0), ("noncoherent",)),
                  (("case_a", 7, 25, 2.0), ("noncoherent", "coherent")),
                  (("case_b", 7, 25, 2.0), ("noncoherent", "coherent"))]),
        # the element-count sweep, in grid order
        ("fig4a", [(("case_a", 7, n, 2.0), ("noncoherent", "coherent"))
                   for n in (15, 20, 25, 30, 35)]),
    ])
    def test_one_sweep_per_scenario_and_combination(self, preset, expected, tmp_path,
                                                    monkeypatch):
        sweeps = []
        original = cli.montecarlo.run_sweep

        def recorded(cfg, workers=1, *, detections=None):
            result = original(cfg, workers, detections=detections)
            key = (cfg.scenario, cfg.params.sf, cfg.fading.n_elements, cfg.fading.m1)
            sweeps.append((key, detections, result))
            return result

        monkeypatch.setattr(cli.montecarlo, "run_sweep", recorded)
        out = tmp_path / f"{preset}.csv"
        code = cli.main(["simulate", "--preset", preset, "--trials", "300", "--seed", "1",
                         "--out", str(out)])
        assert code == 0
        assert [(key, detections) for key, detections, _ in sweeps] == expected
        estimates = {key: result for key, _, result in sweeps}
        header, *lines = [line.split(",") for line in out.read_text().splitlines()]
        assert len(lines) == sum(len(d) for _, d in expected) * 26
        for line in lines:
            row = dict(zip(header, line))
            key = (row["scenario"], int(row["sf"]), int(row["n_elements"]), float(row["m"]))
            est = estimates[key][float(row["snr_db"]), row["detection"]]
            assert [row["ber_sim"], row["ci_low"], row["ci_high"], row["bits_sent"]] == [
                cli._format(value)
                for value in (est.ber, est.ci95_low, est.ci95_high, est.bits_sent)
            ]

    def test_unwritable_output(self, tmp_path):
        code = cli.main(
            ["analytic", "--snr-db", "-30", "--detection", "noncoherent",
             "--out", str(tmp_path / "missing" / "ber.csv")]
        )
        assert code == 1

    def test_unwritable_output_fails_before_running(self, tmp_path, monkeypatch, capsys):
        # the whole sweep once ran before the write failed
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(cli.montecarlo, "run_sweep", must_not_run)
        monkeypatch.setattr(cli.analytic_ber, "ber", must_not_run)
        out = tmp_path / "missing" / "ber.csv"
        code = cli.main(["both", "--scenario", "case_a", "--snr-db", "-30",
                         "--trials", "100", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_config_error_exit_code(self):
        assert cli.main(["simulate", "--trials", "0"]) == 1

    def test_no_interference_analytic_row(self, tmp_path):
        out = tmp_path / "ni.csv"
        code = cli.main(
            ["analytic", "--scenario", "no_interference", "--detection",
             "noncoherent", "--snr-db", "-30", "--out", str(out)]
        )
        assert code == 0
        fields = dict(zip(*[line.split(",") for line in out.read_text().splitlines()]))
        assert float(fields["p_interf"]) == 0.0

    def test_very_low_snr_writes_rows_and_warns(self, tmp_path, capsys):
        out = tmp_path / "low.csv"
        code = cli.main(
            ["analytic", "--sf", "7", "--elements", "25", "--m", "2",
             "--scenario", "case_a", "--snr-db=-400", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line, detection in zip(lines[1:], ("noncoherent", "coherent")):
            fields = dict(zip(lines[0].split(","), line.split(",")))
            assert fields["detection"] == detection
            assert 0.0 < float(fields["p_noise"]) < 1.0
        err = capsys.readouterr().err
        for detection in ("noncoherent", "coherent"):
            assert (f"warning: case_a/{detection} sf=7 n=25 m=2.0 snr=-400.0: "
                    "the noise closed form is outside its calibrated domain") in err

    @pytest.mark.parametrize("grid, warned", [
        ("-400:-399:1", (-400.0, -399.0)),
        ("-400:-30:370", (-400.0,)),  # -30 dB lies in the calibrated domain
    ])
    def test_warnings_on_threads_name_their_own_rows(self, grid, warned, tmp_path, capsys):
        # each warning's text names the detection and SNR that raised it,
        # so a warning routed to another thread's row shows a mismatch; the
        # short switch interval makes the two threads' tasks interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code = cli.main(["analytic", "--sf", "7", "--elements", "25", "--m", "2",
                             "--scenario", "case_a", "--detection", "both",
                             f"--snr-db={grid}", "--workers", "2",
                             "--out", str(tmp_path / "low.csv")])
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        pattern = re.compile(r"warning: case_a/(\w+) sf=7 n=25 m=2\.0 snr=(\S+): "
                             r".*detection=(\w+), SNR=(\S+) dB")
        labels = []
        for line in capsys.readouterr().err.splitlines():
            if line.startswith("warning:"):
                detection, snr, raised_by, raised_at = pattern.fullmatch(line).groups()
                assert (detection, float(snr)) == (raised_by, float(raised_at)), line
                labels.append((detection, float(snr)))
        assert sorted(labels) == sorted(
            (detection, snr) for detection in mc.DETECTIONS for snr in warned
        )

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from chirpfield.specfun import NumericError

        def boom(cfg, case, detections):
            raise NumericError("synthetic quadrature breakdown")

        monkeypatch.setattr(cli.analytic_ber, "ber", boom)
        out = tmp_path / "fail.csv"
        code = cli.main(
            ["analytic", "--scenario", "case_a", "--detection", "noncoherent",
             "--snr-db", "-30", "--out", str(out)]
        )
        assert code == 2
        # the run still writes the row, with empty analytic columns
        fields = dict(zip(*[line.split(",") for line in out.read_text().splitlines()]))
        assert fields["ber_analytic"] == ""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_numeric_failure_on_one_row_of_several(self, workers, tmp_path, monkeypatch,
                                                   capsys):
        from chirpfield.specfun import NumericError

        argv = ["analytic", "--scenario", "case_a", "--detection", "noncoherent",
                "--snr-db=-31:-29:1", "--workers", workers]
        clean = tmp_path / "clean.csv"
        assert cli.main(argv + ["--out", str(clean)]) == 0
        capsys.readouterr()
        original = cli.analytic_ber.ber

        def fail_at_minus_30(cfg, case, detections):
            if cfg.snr_linear == 10.0 ** (-30.0 / 10.0):
                raise NumericError("synthetic quadrature breakdown")
            return original(cfg, case, detections)

        monkeypatch.setattr(cli.analytic_ber, "ber", fail_at_minus_30)
        out = tmp_path / "fail.csv"
        assert cli.main(argv + ["--out", str(out)]) == 2
        failures = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("numeric failure:")]
        assert failures == ["numeric failure: case_a/noncoherent sf=7 n=25 m=2.0 snr=-30.0: "
                            "synthetic quadrature breakdown"]
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        _, *clean_rows = [line.split(",") for line in clean.read_text().splitlines()]
        got = [dict(zip(header, row)) for row in rows]
        assert [row["snr_db"] for row in got] == ["-31", "-30", "-29"]
        assert [got[1][column] for column in ("ber_analytic", "p_noise", "p_interf")] == [""] * 3
        assert [rows[0], rows[2]] == [clean_rows[0], clean_rows[2]]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_coherent_subtree_failure_fails_the_coherent_row_only(
        self, workers, tmp_path, monkeypatch, capsys
    ):
        from chirpfield.specfun import NumericError

        argv = ["analytic", "--scenario", "case_b", "--detection", "both",
                "--snr-db=-30", "--workers", workers]
        clean = tmp_path / "clean.csv"
        assert cli.main(argv + ["--out", str(clean)]) == 0
        capsys.readouterr()
        original = cli.analytic_ber._bisect

        def fail_below_min_chi(terms, left, right, *args):
            if left < 0.0:
                raise NumericError("synthetic coherent-subtree failure")
            return original(terms, left, right, *args)

        monkeypatch.setattr(cli.analytic_ber, "_bisect", fail_below_min_chi)
        out = tmp_path / "fail.csv"
        assert cli.main(argv + ["--out", str(out)]) == 2
        failures = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("numeric failure:")]
        assert failures == ["numeric failure: case_b/coherent sf=7 n=25 m=2.0 snr=-30.0: "
                            "synthetic coherent-subtree failure"]
        header, noncoherent, coherent = [line.split(",") for line in out.read_text().splitlines()]
        assert noncoherent == clean.read_text().splitlines()[1].split(",")
        row = dict(zip(header, coherent))
        assert [row[column] for column in ("ber_analytic", "p_noise", "p_interf")] == [""] * 3

    @pytest.mark.parametrize("mode", ["analytic", "both"])
    def test_overflowing_moments_fail_as_numeric(self, mode, tmp_path, capsys):
        # from m = 99.1 the Gamma fits' moments overflow; the run once died
        # with a traceback, and `both` left an empty CSV after simulating
        out = tmp_path / "m100.csv"
        code = cli.main([mode, "--m", "100", "--scenario", "case_a",
                         "--detection", "noncoherent", "--snr-db", "-30",
                         "--trials", "500", "--out", str(out)])
        assert code == 2
        failure = capsys.readouterr().err.splitlines()
        assert len(failure) == 1
        assert failure[0].startswith(
            "numeric failure: case_a/noncoherent sf=7 n=25 m=100.0 snr=-30.0: "
            "the order-1 cascade moment at m = 100.0, 100.0 is not finite")
        fields = dict(zip(*[line.split(",") for line in out.read_text().splitlines()]))
        assert fields["ber_analytic"] == ""
        assert (fields["ber_sim"] != "") == (mode == "both")


# A run whose work raises: one `simulate` sweep whose Monte Carlo block
# fails, or one `analytic` point whose closed forms fail (at -29 dB, the
# second of three), with an exception that is not a NumericError.
FAILING_RUN = """
import sys
from chirpfield import analytic_ber, cli, montecarlo

site, workers, out = sys.argv[1:]
if site == "block":
    def fail(*args):
        raise MemoryError("synthetic block failure")
    montecarlo._run_block = fail
    argv = ["simulate", "--trials", "20000", "--snr-db=-30"]
else:
    original = analytic_ber.ber
    def fail(cfg, case, detections):
        if cfg.snr_linear == 10.0 ** (-29.0 / 10.0):
            raise RuntimeError("synthetic closed-form failure")
        return original(cfg, case, detections)
    analytic_ber.ber = fail
    argv = ["analytic", "--snr-db=-30:-28:1"]
sys.exit(cli.main([*argv, "--scenario", "case_a", "--detection", "both",
                   "--workers", workers, "--out", out]))
"""


class TestFailedRunKeepsOutput:
    NAMED = {
        "block": "error: simulated sweep at case_a/noncoherent/coherent sf=7 n=25 m=2.0 "
                 "failed: MemoryError: synthetic block failure",
        "closed_form": "error: closed forms at case_a/noncoherent/coherent sf=7 n=25 m=2.0 "
                       "snr=-29.0 failed: RuntimeError: synthetic closed-form failure",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("site", ["block", "closed_form"])
    def test_previous_csv_survives(self, site, workers, tmp_path):
        # the exception ends the process (status 1, with its traceback)
        # after stderr names the work that raised it; the CSV of an earlier
        # run keeps its bytes and no temporary file is left beside it
        out = tmp_path / "ber.csv"
        previous = b"scenario,detection\nearlier,run\n"
        out.write_bytes(previous)
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", FAILING_RUN, site, workers, str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")]))},
        )
        assert done.returncode == 1, done.stderr
        assert self.NAMED[site] in done.stderr.splitlines()
        assert out.read_bytes() == previous
        assert os.listdir(tmp_path) == ["ber.csv"]

    def test_successful_run_replaces_the_csv(self, tmp_path):
        out = tmp_path / "ber.csv"
        out.write_text("stale\n")
        assert cli.main(["analytic", "--snr-db=-30", "--detection", "noncoherent",
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("scenario,detection,")
        assert os.listdir(tmp_path) == ["ber.csv"]

    def test_pipe_is_written_in_place(self, tmp_path):
        # a pipe cannot be replaced: the rows go into it, and it stays a pipe
        pipe = tmp_path / "rows"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert cli.main(["analytic", "--snr-db=-30", "--detection", "noncoherent",
                             "--out", str(pipe)]) == 0
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert received.startswith("scenario,detection,") and received.count("\n") == 2
        assert os.listdir(tmp_path) == ["rows"] and not pipe.is_file()


class TestBenchmarkReference:
    """The closed-form workload of the benchmark (`analytic_sf7`) at full
    size: every recorded row within 1e-9 relative, the gate closed-form
    speedups must keep."""

    REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    COLUMNS = ("ber_analytic", "p_noise", "p_interf")

    def test_analytic_sf7_rows(self, tmp_path, monkeypatch):
        # compared unrounded, since the CSV's 10 digits alone move a value
        # by up to 5e-10; one worker keeps the closed forms in this process
        results = {}
        original = cli.analytic_ber.ber

        def recorded(cfg, case, detections):
            point = original(cfg, case, detections)
            snr_db = f"{10.0 * math.log10(cfg.snr_linear):.10g}"
            results.update({(case, d, snr_db): r for d, r in zip(detections, point)})
            return point

        monkeypatch.setattr(cli.analytic_ber, "ber", recorded)
        rows = []
        for scenario in ("case_a", "case_b"):
            out = tmp_path / f"{scenario}.csv"
            code = cli.main(["analytic", "--sf", "7", "--elements", "25", "--m", "2",
                             "--scenario", scenario, "--detection", "both",
                             "--snr-db=-36:-12:2", "--workers", "1", "--out", str(out)])
            assert code == 0
            header, *lines = [line.split(",") for line in out.read_text().splitlines()]
            rows += [dict(zip(header, line)) for line in lines]
        expected = json.loads(self.REFERENCE.read_text())["analytic"]
        assert len(expected) == 52 and len(results) == len(rows)
        got = {}
        for row in rows:
            result = results[row["scenario"], row["detection"], row["snr_db"]]
            values = [result.ber, result.p_noise, result.p_interf]
            assert [row[column] for column in self.COLUMNS] == list(map(cli._format, values))
            got[f"{row['scenario']}/{row['detection']}/{row['snr_db']}"] = values
        assert got.keys() == expected.keys()
        for key, values in expected.items():
            assert got[key] == pytest.approx(list(map(float, values)), rel=1e-9, abs=0.0), key


class RecordingPool(ThreadPoolExecutor):
    """Records each pool, its shutdowns and the block index of every
    submitted Monte Carlo block."""

    started: list = []
    shut_down: list = []
    blocks: list = []

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.started.append(self)

    def submit(self, fn, /, *args, **kwargs):
        if fn is mc._run_block:
            self.blocks.append(args[1])
        return super().submit(fn, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        self.shut_down.append(self)
        super().shutdown(*args, **kwargs)


class BlockFailure(Exception):
    pass


class TestWorkerPool:
    @pytest.fixture(autouse=True)
    def recording_pool(self, monkeypatch):
        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "started", [])
        monkeypatch.setattr(RecordingPool, "shut_down", [])
        monkeypatch.setattr(RecordingPool, "blocks", [])

    @staticmethod
    def threads_started_since(before: set) -> list:
        return [thread for thread in threading.enumerate() if thread not in before]

    def test_every_pool_is_shut_down(self, tmp_path):
        before = set(threading.enumerate())
        out = tmp_path / "both.csv"
        code = cli.main(["both", "--scenario", "case_a", "--snr-db=-30:-29:1",
                         "--trials", "2000", "--workers", "2", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split(",")[6] and row.split(",")[9] for row in rows)
        # one for the sweep and one for the closed forms
        assert len(RecordingPool.started) == 2
        assert RecordingPool.shut_down == RecordingPool.started
        assert not self.threads_started_since(before)

    @pytest.mark.parametrize("mode", ["simulate", "analytic", "both"])
    def test_too_many_workers_start_no_pool(self, mode, tmp_path, capsys):
        out = tmp_path / "out.csv"
        workers = mc.MAX_WORKERS + 1
        code = cli.main([mode, "--snr-db=-30", "--trials", "100", "--workers", str(workers),
                         "--out", str(out)])
        assert code == 1 and not out.exists()
        assert (f"error: flag --workers: must be in [1, {mc.MAX_WORKERS}], got {workers}"
                in capsys.readouterr().err)
        assert RecordingPool.started == []

    def test_failed_block_fails_the_run(self, tmp_path, monkeypatch):
        def fail(*args):
            raise BlockFailure("synthetic block failure")

        monkeypatch.setattr(mc, "_run_block", fail)
        before = set(threading.enumerate())
        start = time.perf_counter()
        with pytest.raises(BlockFailure):
            cli.main(["simulate", "--scenario", "case_a", "--snr-db=-30:-29:1",
                      "--trials", "20000", "--workers", "2",
                      "--out", str(tmp_path / "failed.csv")])
        assert time.perf_counter() - start < 30
        assert len(RecordingPool.started) == 1
        assert RecordingPool.shut_down == RecordingPool.started
        assert not self.threads_started_since(before)
        # the two blocks in flight of the five, and nothing after them
        assert RecordingPool.blocks == [0, 1]


class TestValidateMode:
    def test_reports_and_exit_code(self, capsys):
        code = cli.main(["validate", "--trials", "12000", "--seed", "6"])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("[PASS]") >= 12
        assert "[FAIL]" not in captured

    def test_prints_calibration_notes_of_its_closed_forms(self, capsys):
        # at SF 6 the coherent noise closed form it checks is outside its
        # calibration range; the checks pass, and stderr says so once
        code = cli.main(["validate", "--sf", "6", "--trials", "12000", "--seed", "6"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.endswith("validation: all checks passed\n")
        assert captured.err.splitlines() == [
            "warning: noise tail closed form vs quadrature: the coherent noise "
            "approximation is fitted for sf >= 7; sf=6 is outside its calibration range"
        ]

    def test_notes_follow_check_order(self, capsys, monkeypatch):
        from chirpfield import validation

        def fake_run(params, fading, trials, seed):
            return [validation.CheckResult("first", True, "ok", ("a", "b")),
                    validation.CheckResult("second", True, "ok"),
                    validation.CheckResult("third", False, "forced", ("c",))]

        monkeypatch.setattr(cli.validation, "run_validation", fake_run)
        assert cli.main(["validate"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "warning: first: a", "warning: first: b", "warning: third: c"]

    def test_passes_on_a_larger_surface(self, capsys):
        # the SNRs of the closed-form and simulation checks follow the
        # configured fading, so a 64-element surface passes as well
        code = cli.main(["validate", "--sf", "7", "--elements", "64", "--m", "2",
                         "--trials", "12000", "--seed", "6"])
        captured = capsys.readouterr().out
        assert "[FAIL]" not in captured
        assert code == 0

    def test_overflowing_moments_fail_their_checks(self, capsys):
        # every check that takes a Gamma fit fails with the numeric error;
        # the rest still run
        code = cli.main(["validate", "--m", "100", "--trials", "2000"])
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert code == 3
        assert failed and len(failed) < len(lines) - 1
        assert all("numeric failure: the order-1 cascade moment at m = 100.0" in line
                   for line in failed)

    def test_failure_exit_code(self, capsys, monkeypatch):
        from chirpfield import validation

        def fake_run(params, fading, trials, seed):
            return [validation.CheckResult("synthetic check", False, "forced")]

        monkeypatch.setattr(cli.validation, "run_validation", fake_run)
        assert cli.main(["validate"]) == 3
        assert "[FAIL]" in capsys.readouterr().out

    # validate once accepted every one of these and silently ignored it
    @pytest.mark.parametrize("source", ["flag", "key"])
    @pytest.mark.parametrize("key", [
        "scenario", "detection", "snr_db", "out", "workers", "v1", "v2", "staircase_m",
        "paper_literal_estimator", "full_offset_range",
    ])
    def test_settings_it_does_not_read_are_rejected(self, key, source, tmp_path, capsys):
        setting, origin = given_as(source, key, TestConfigFile.SAMPLES[key], tmp_path)
        assert cli.main(["validate", *setting]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {origin}: validate does not read this setting")

    @pytest.mark.parametrize("preset", ["fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b"])
    def test_multi_point_preset_is_rejected(self, preset, capsys):
        # validate checks one (sf, N, m); it once checked a sweep's first
        # point and reported "all checks passed"
        assert cli.main(["validate", "--preset", preset]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: flag --preset: preset '{preset}' sweeps ")

    @pytest.mark.parametrize("preset", ["fig5", "comparison"])
    def test_single_point_preset_checks_its_point(self, preset, monkeypatch):
        from chirpfield import validation

        seen = []

        def fake_run(params, fading, trials, seed):
            seen.append((params.sf, fading.n_elements, fading.m1))
            return [validation.CheckResult("synthetic check", True, "forced")]

        monkeypatch.setattr(cli.validation, "run_validation", fake_run)
        assert cli.main(["validate", "--preset", preset]) == 0
        assert seen == [(7, 25, 2.0)]
