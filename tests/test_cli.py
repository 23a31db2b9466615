"""Command-line surface: determinism, formats, presets, config files, exit codes."""

import json
import math

import pytest

from mazer.cli import PRESETS, build_parser, main

KL = 1e3 * math.pi


def run(argv, capsys=None):
    rc = main(argv)
    return rc


def read_lines(path):
    return path.read_text().splitlines()


class TestDeterminismAndFormats:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "transmission", "--sweep", "k", "--delta", "0",
            "--k-min", "0.01", "--k-max", "0.05", "--points", "40",
            "--coupling-length", str(KL),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_and_json_agree(self, tmp_path):
        args = [
            "transmission", "--sweep", "delta", "--k", "0.05",
            "--delta-min", "-1", "--delta-max", "1", "--points", "7",
            "--coupling-length", "1000",
        ]
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        assert main(args + ["--out", str(csv_path)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
        lines = read_lines(csv_path)
        header = lines[0].split(",")
        assert header == [
            "k", "delta", "T_a", "T_b", "T_total", "T_ultracold", "uc_valid"
        ]
        assert len(lines) == 8
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == header
        assert len(payload["rows"]) == 7
        for line, row in zip(lines[1:], payload["rows"]):
            t_csv = float(line.split(",")[4])
            assert t_csv == pytest.approx(row["T_total"], rel=1e-15)

    def test_empty_sweep_emits_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        rc = main([
            "transmission", "--sweep", "delta", "--points", "0",
            "--out", str(out),
        ])
        assert rc == 0
        assert read_lines(out) == [
            "k,delta,T_a,T_b,T_total,T_ultracold,uc_valid"
        ]

    def test_g_hz_adds_frequency_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main([
            "resonances", "--delta", "0", "--coupling-length", str(KL),
            "--m-min", "1001", "--m-max", "1003", "--g-hz", "1e5",
            "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "m,position,amplitude,width,refined,width_hz"
        row = lines[1].split(",")
        # width_hz = g_hz * 2 * position * width / (2 pi)
        expected = 1e5 * 2.0 * float(row[1]) * float(row[3]) / (2 * math.pi)
        assert float(row[5]) == pytest.approx(expected, rel=1e-12)


class TestResonancesCommand:
    def test_catalog_starts_at_m_1001(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main([
            "resonances", "--delta", "0", "--coupling-length", str(KL),
            "--k-min", "0", "--k-max", "0.06", "--out", str(out),
        ]) == 0
        lines = read_lines(out)
        first = lines[1].split(",")
        assert first[0] == "1001"
        assert float(first[1]) == pytest.approx(0.04473, abs=5e-6)

    def test_no_peak_configuration_yields_empty_table(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main([
            "resonances", "--delta", "0", "--coupling-length", str(KL),
            "--m-min", "1", "--m-max", "5", "--out", str(out),
        ]) == 0
        assert read_lines(out) == ["m,position,amplitude,width,refined"]


class TestPresetsAndConfig:
    def test_explicit_flags_override_preset(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main([
            "transmission", "--preset", "fig1a",
            "--points", "25", "--k-min", "0.04", "--k-max", "0.05",
            "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        # preset supplies delta = 0 and refine; explicit flags narrowed the grid
        assert len(lines) > 26  # refinement added points beyond the 25 requested
        assert all(line.split(",")[1] == "0" for line in lines[1:])
        ks = [float(line.split(",")[0]) for line in lines[1:]]
        assert min(ks) >= 0.04 and max(ks) <= 0.05

    def test_preset_of_other_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["resonances", "--preset", "fig1a"])

    def test_pump_takes_one_detuning(self):
        with pytest.raises(SystemExit):
            main(["pump", "--delta", "0", "0.005"])

    def test_abbreviated_flag_overrides_preset(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["transmission", "--preset", "fig3a", "--points", "11"]
        assert main(base + ["--coupling", "100", "--out", str(a)]) == 0
        assert main(base + ["--coupling-length", "100", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_preset_keys_are_subcommand_destinations(self):
        for name, preset in PRESETS.items():
            dests = vars(build_parser().parse_args([preset["command"]]))
            assert set(preset) - {"command"} <= set(dests), name

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "delta = 0.003 0.004\n"
            "points = 5\n"
            "k-min = 0.01\n"
            "k_max = 0.02\n"
        )
        out = tmp_path / "c.csv"
        rc = main([
            "transmission", "--config", str(cfg), "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert len(lines) == 11  # 2 detunings x 5 points
        deltas = {line.split(",")[1] for line in lines[1:]}
        assert deltas == {"0.0030000000000000001", "0.0040000000000000001"}

    def test_scalar_config_value_matches_flag(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("delta = 0.001\nm-min = 1001\nm-max = 1003\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["resonances", "--config", str(cfg), "--out", str(a)]) == 0
        assert main([
            "resonances", "--delta", "0.001", "--m-min", "1001",
            "--m-max", "1003", "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boolean_config_value_refines(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("refine = yes\npoints = 25\nk-min = 0.04\nk-max = 0.05\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["transmission", "--config", str(cfg), "--out", str(a)]) == 0
        assert len(read_lines(a)) > 26
        assert main([
            "transmission", "--refine", "--points", "25", "--k-min", "0.04",
            "--k-max", "0.05", "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(SystemExit):
            main(["transmission", "--config", str(cfg)])

    def test_missing_config_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["transmission", "--config", str(tmp_path / "none.cfg")])

    @pytest.mark.parametrize(
        "line",
        ["points = abc", "sweep = bogus", "refine = ye"],
        ids=["type", "choices", "boolean"],
    )
    def test_invalid_config_value_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# first line\n" + line + "\n")
        with pytest.raises(SystemExit):
            main(["transmission", "--config", str(cfg)])
        assert f"mazer transmission: error: {cfg}:2: " in capsys.readouterr().err

    def test_false_boolean_config_value_matches_no_flag(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("refine = No\npoints = 25\nk-min = 0.04\nk-max = 0.05\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["transmission", "--config", str(cfg), "--out", str(a)]) == 0
        assert main([
            "transmission", "--points", "25", "--k-min", "0.04",
            "--k-max", "0.05", "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPumpAndSelect:
    def test_zero_pump_ratio_emits_thermal_distribution(self, tmp_path):
        out = tmp_path / "pump.csv"
        rc = main([
            "pump", "--pump-ratio", "0", "--n-b", "0.2",
            "--truncation", "16", "--points", "101", "--k-max", "0.12",
            "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "n,p_st,mean_p_em"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        ratio = 0.2 / 1.2
        for n in range(1, 6):
            assert probs[n] / probs[n - 1] == pytest.approx(ratio, rel=1e-10)

    def test_select_emits_initial_and_final_densities(self, tmp_path):
        out = tmp_path / "sel.csv"
        rc = main([
            "select", "--delta", "0", "--pump-ratio", "0", "--n-b", "0.2",
            "--truncation", "16", "--points", "151", "--k-max", "0.12",
            "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "delta,k,initial_density,final_density"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) >= 151
        # final density never exceeds initial at zero detuning
        for row in rows:
            assert float(row[3]) <= float(row[2]) + 1e-12


class TestOracleCheckAndErrors:
    def test_oracle_check_passes_default_tolerance(self, tmp_path):
        out = tmp_path / "oc.csv"
        rc = main([
            "oracle-check", "--samples", "25", "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert len(lines) == 26

    def test_oracle_check_fails_absurd_tolerance(self, tmp_path):
        out = tmp_path / "oc.csv"
        rc = main([
            "oracle-check", "--samples", "10", "--tolerance", "1e-18",
            "--out", str(out),
        ])
        assert rc == 1

    def test_invalid_parameters_exit_nonzero(self, capsys):
        rc = main([
            "transmission", "--coupling-length", "-5", "--points", "3",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err
