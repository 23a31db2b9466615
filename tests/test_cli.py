"""Command-line surface: determinism, formats, presets, config files, exit codes."""

import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mazer
from mazer import SystemParams, oracle, scatter, transmission_ultracold, ultracold_valid
from mazer.cli import COLUMNS, PRESETS, _read_config, _write, build_parser, main
from mazer.scattering import ARRAY_BLOCK, transmissions
from mazer.oracle import ModeFunction, OracleSolveError, solve
from mazer.ultracold import peak_position, resonance_amplitude

KL = 1e3 * math.pi


def run(argv, capsys=None):
    rc = main(argv)
    return rc


def read_lines(path):
    return path.read_text().splitlines()


# a small run of every subcommand; the first three also take --g-hz
SMALL_RUNS = {
    "transmission": ["transmission", "--points", "3", "--delta", "-0.005", "0.005"],
    "resonances": ["resonances", "--delta", "0", "--m-min", "1001", "--m-max", "1003"],
    "amplitude": ["amplitude", "--points", "3"],
    "pump": ["pump", "--truncation", "16", "--points", "101", "--k-max", "0.12"],
    "select": ["select", "--delta", "0", "0.002", "--pump-ratio", "0",
               "--truncation", "16", "--points", "51", "--k-max", "0.12"],
    "oracle-check": ["oracle-check", "--samples", "5"],
}
G_HZ = ["--g-hz", "1e5"]


def small_runs():
    """(command, argv) of each small run, with and without --g-hz where it applies."""
    for command, argv in SMALL_RUNS.items():
        yield command, argv
        if any(name.endswith("_hz") for name, _ in COLUMNS[command]):
            yield command, argv + G_HZ


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

        # every command: the JSON value of each cell is the CSV cell, exactly,
        # typed by the column's declared kind
        python_type = {"int": int, "flag": bool, "float": float}
        for command, argv in small_runs():
            assert main(argv + ["--out", str(csv_path)]) == 0
            assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
            header, *cells = (line.split(",") for line in read_lines(csv_path))
            payload = json.loads(json_path.read_text())
            assert payload["columns"] == header, argv
            assert len(payload["rows"]) == len(cells) > 0, argv
            kinds = dict(COLUMNS[command])
            for row, line in zip(payload["rows"], cells):
                assert list(row) == header
                for (name, value), cell in zip(row.items(), line):
                    assert type(value) is python_type[kinds[name]], (argv, name)
                    if kinds[name] == "flag":
                        assert cell == ("1" if value else "0")
                    elif kinds[name] == "int":
                        assert int(cell) == value
                    else:
                        assert float(cell) == value, (argv, name)

    def test_help_names_the_emitted_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        for command, argv in small_runs():
            description = build_parser().parse_args([command]).subparser.description
            named = description.removeprefix("Columns: ").split(".")[0]
            if G_HZ[0] in argv:
                named = re.sub(r" \[, (\w+)\]", r", \1", named)
            else:
                named = re.sub(r" \[, \w+\]", "", named)
            assert main(argv + ["--out", str(out)]) == 0
            assert read_lines(out)[0] == named.replace(" ", ""), argv

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
        assert lines[0] == "m,position,amplitude,width,resolved,refined,width_hz"
        row = lines[1].split(",")
        # width_hz = g_hz * 2 * position * width / (2 pi)
        expected = 1e5 * 2.0 * float(row[1]) * float(row[3]) / (2 * math.pi)
        assert float(row[6]) == pytest.approx(expected, rel=1e-12)

        # amplitude: delta_hz = delta g / (2 pi) after delta; each row is the
        # library's peak position and amplitude at that detuning
        out = tmp_path / "a.csv"
        assert main([
            "amplitude", "--points", "3", "--g-hz", "1e5", "--out", str(out),
        ]) == 0
        lines = read_lines(out)
        assert lines[0] == "delta,delta_hz,m,position,amplitude"
        # peak 1001 does not exist at delta/g = -0.01, so that row is skipped
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0.01"]
        for line in lines[1:]:
            d, d_hz, m, pos, amp = (float(v) for v in line.split(","))
            params = SystemParams(d, KL, 0)
            assert d_hz == pytest.approx(d * 1e5 / (2 * math.pi), rel=1e-12)
            assert m == 1001
            assert pos == peak_position(1001, params)
            assert amp == resonance_amplitude(pos, params)

        # transmission: delta_hz is the last column
        out = tmp_path / "t.csv"
        assert main([
            "transmission", "--points", "3", "--g-hz", "1e5",
            "--delta", "-0.005", "0.005", "--out", str(out),
        ]) == 0
        lines = read_lines(out)
        assert lines[0] == "k,delta,T_a,T_b,T_total,T_ultracold,uc_valid,delta_hz"
        assert len(lines) == 7
        for line in lines[1:]:
            row = line.split(",")
            k, d = float(row[0]), float(row[1])
            params = SystemParams(d, KL, 0)
            # the column comes from the array form, the scalar's bits
            assert float(row[5]) == transmission_ultracold(k, params)
            assert row[6] == ("1" if ultracold_valid(k, params) else "0")
            assert float(row[7]) == pytest.approx(d * 1e5 / (2 * math.pi), rel=1e-12)


def write(table, fmt):
    out = io.StringIO()
    _write(table, fmt, out)
    return out.getvalue()


class TestTableWriter:
    def test_float_column_prints_17_significant_digits(self):
        values = [
            math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300,
            np.float64(0.1), 7, 0.0030000000000000001,
        ]
        lines = write([("x", "float", values)], "csv").splitlines()
        assert lines == ["x"] + [format(float(v), ".17g") for v in values]
        rows = json.loads(write([("x", "float", np.array(values))], "json"))["rows"]
        assert [type(row["x"]) for row in rows] == [float] * len(values)
        assert [repr(row["x"]) for row in rows] == [repr(float(v)) for v in values]

    def test_int_and_flag_columns(self):
        table = [
            ("n", "int", [np.int64(3), 10**18, 0]),
            ("ok", "flag", [True, np.bool_(False), np.array([1])[0]]),
        ]
        assert write(table, "csv").splitlines() == [
            "n,ok", "3,1", "1000000000000000000,0", "0,1",
        ]
        text = write(table, "json")
        assert '"n": 1000000000000000000,' in text
        assert json.loads(text)["rows"] == [
            {"n": 3, "ok": True}, {"n": 10**18, "ok": False}, {"n": 0, "ok": True},
        ]
        assert text.count("true") == 2 and text.count("false") == 1

    def test_empty_table(self):
        table = [("k", "float", []), ("m", "int", ()), ("ok", "flag", np.empty(0))]
        assert write(table, "csv") == "k,m,ok\n"
        text = write(table, "json")
        assert json.loads(text) == {"columns": ["k", "m", "ok"], "rows": []}
        assert '"rows": []' in text

    @pytest.mark.parametrize("size", [0, 1, 5])
    def test_json_is_the_bytes_of_json_dumps(self, size):
        rng = np.random.default_rng(size)
        floats = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)
        floats[: min(size, 4)] = [math.nan, math.inf, -math.inf, -0.0][: min(size, 4)]
        table = [
            ("k", "float", floats),
            ("n", "int", rng.integers(-(10**18), 10**18, size)),
            ("ok", "flag", rng.integers(0, 2, size).astype(bool)),
            ("width_hz", "float", [0.1] * size),
        ]
        names = [name for name, _, _ in table]
        rows = [
            {"k": float(k), "n": int(n), "ok": bool(ok), "width_hz": w}
            for k, n, ok, w in zip(*(values for _, _, values in table))
        ]
        expected = json.dumps({"columns": names, "rows": rows}, indent=2) + "\n"
        assert write(table, "json") == expected


class TestTransmissionSweeps:
    def test_delta_sweep_rows_match_scalar_forms(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main([
            "transmission", "--preset", "fig3a", "--points", "101", "--out", str(out),
        ]) == 0
        lines = read_lines(out)[1:]
        assert len(lines) == 101
        for line in lines:
            k, d, t_a, t_b, _, t_uc, _ = (float(v) for v in line.split(","))
            params = SystemParams(d, 1000.0, 0)
            res = scatter(k, params)
            assert (t_a, t_b) == (res.T_a, res.T_b)
            assert t_uc == transmission_ultracold(k, params)

    def test_row_does_not_depend_on_the_swept_axis(self, tmp_path):
        a, b = tmp_path / "k.csv", tmp_path / "d.csv"
        point = ["--coupling-length", "1000", "--points", "1"]
        assert main([
            "transmission", "--k-min", "0.05", "--k-max", "0.05", "--delta", "-2.5",
            *point, "--out", str(a),
        ]) == 0
        assert main([
            "transmission", "--sweep", "delta", "--k", "0.05",
            "--delta-min", "-2.5", "--delta-max", "-2.5", *point, "--out", str(b),
        ]) == 0
        assert a.read_bytes() == b.read_bytes()


# delta sweeps as (argv, kappa L, n); the last is CI's sweep at n = 7
DELTA_SWEEPS = {
    "fig3a": (["transmission", "--preset", "fig3a"], 1000.0, 0),
    "fig3b": (["transmission", "--preset", "fig3b"], 1000.0, 0),
    "n7": (["transmission", "--sweep", "delta", "--k", "0.3", "--delta-min", "-50",
            "--delta-max", "50", "--points", "2001", "--photon-number", "7",
            "--coupling-length", "3000"], 3000.0, 7),
}
# amplitude sweeps as (argv, kappa L, n, m)
AMPLITUDE_SWEEPS = {
    "fig2": (["amplitude", "--preset", "fig2"], KL, 0, 1001),
    "n3": (["amplitude", "--photon-number", "3", "--coupling-length",
            "628.3185307179587", "--m", "284"], 628.3185307179587, 3, 284),
}


def checked_rows(count):
    """Every 61st row, and the rows on both sides of each array block boundary."""
    rows = set(range(0, count, 61))
    for edge in range(ARRAY_BLOCK, count, ARRAY_BLOCK):
        rows.update(range(edge - 2, min(edge + 2, count)))
    return sorted(rows)


class TestOneRecordPerBlock:
    """The sweeps read `_Dressed` records (the array entries take one block of
    rows at a time), not a `SystemParams` per row; each row still holds the
    scalar entries' bits at its own params."""

    @pytest.mark.parametrize("sweep", DELTA_SWEEPS)
    def test_delta_sweep_rows_are_the_scalar_entries(self, tmp_path, sweep):
        argv, kl, n = DELTA_SWEEPS[sweep]
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out)]) == 0
        lines = read_lines(out)[1:]
        for i in checked_rows(len(lines)):
            k, d, t_a, t_b, t_total, t_uc, valid = lines[i].split(",")
            k, d = float(k), float(d)
            params = SystemParams(d, kl, n)
            res = scatter(k, params)
            assert repr((float(t_a), float(t_b), float(t_total))) == repr(
                (res.T_a, res.T_b, res.T_total)
            ), i
            assert repr(float(t_uc)) == repr(transmission_ultracold(k, params)), i
            assert valid == ("1" if ultracold_valid(k, params) else "0"), i

    @pytest.mark.parametrize("sweep", AMPLITUDE_SWEEPS)
    def test_amplitude_rows_are_the_scalar_entries(self, tmp_path, sweep):
        argv, kl, n, m = AMPLITUDE_SWEEPS[sweep]
        out = tmp_path / "a.csv"
        assert main([*argv, "--out", str(out)]) == 0
        lines = read_lines(out)[1:]
        assert len(lines) > ARRAY_BLOCK
        for i in checked_rows(len(lines)):
            d, row_m, position, amplitude = lines[i].split(",")
            params = SystemParams(float(d), kl, n)
            assert int(row_m) == m
            assert repr(float(position)) == repr(peak_position(m, params)), i
            assert repr(float(amplitude)) == repr(
                resonance_amplitude(float(position), params)
            ), i

    def test_oracle_check_rows_are_the_scalar_entries(self, tmp_path, monkeypatch):
        seen = []

        def spy(k, record):
            t = transmissions(k, record)
            seen.append((k, *t))
            return t

        monkeypatch.setattr(mazer.cli, "transmissions", spy)
        out = tmp_path / "oc.csv"
        assert main([
            "oracle-check", "--samples", "1500", "--n-max", "50", "--kl-max", "1e5",
            "--delta-min", "-1e4", "--delta-max", "1e3", "--out", str(out),
        ]) == 0
        assert [k.size for k, _, _ in seen] == [ARRAY_BLOCK, 1500 - ARRAY_BLOCK]
        lines = read_lines(out)[1:]
        k_all, t_a, t_b = (np.concatenate(c) for c in zip(*seen))
        for i in checked_rows(len(lines)):
            k, d, n, kl = lines[i].split(",")[:4]
            params = SystemParams(float(d), float(kl), int(n))
            assert k_all[i] == float(k)
            res = scatter(float(k), params)
            assert repr((t_a[i].item(), t_b[i].item())) == repr((res.T_a, res.T_b)), i

    def test_no_system_params_per_row(self, tmp_path, monkeypatch):
        built = []
        post_init = SystemParams.__post_init__

        def counted(params):
            built.append(params)
            post_init(params)

        monkeypatch.setattr(SystemParams, "__post_init__", counted)
        runs = {
            "fig3a": (["transmission", "--preset", "fig3a"], 0),
            "n7": (DELTA_SWEEPS["n7"][0], 0),
            "fig2": (["amplitude", "--preset", "fig2"], 0),
            "oracle": (["oracle-check", "--samples", "2000"], 0),
            # a k sweep builds one per detuning
            "fig1b": (["transmission", "--preset", "fig1b"], 2),
        }
        for name, (argv, count) in runs.items():
            built.clear()
            assert main([*argv, "--out", str(tmp_path / "o.csv")]) == 0
            assert len(built) == count, name


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
        assert read_lines(out) == ["m,position,amplitude,width,resolved,refined"]


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

    def test_preset_choices_are_the_subcommands_own(self):
        for command, preset in (("transmission", "fig2"), ("amplitude", "fig1a"),
                                ("select", "fig3a"), ("pump", "fig4a")):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--preset", preset])

    def test_pump_takes_one_detuning(self):
        with pytest.raises(SystemExit):
            main(["pump", "--delta", "0", "0.005"])

    def test_flags_are_registered_where_they_act(self):
        assert build_parser().parse_args(["select", "--jacobian"]).jacobian
        for command in ("transmission", "resonances", "amplitude"):
            assert build_parser().parse_args([command, "--g-hz", "1e5"]).g_hz == 1e5
        for argv in (
            ["pump", "--jacobian"],
            # --g-hz adds Hz columns; these commands have none
            ["pump", "--g-hz", "1e5"],
            ["select", "--g-hz", "1e5"],
            ["oracle-check", "--g-hz", "1e5"],
            # one emission kernel, so no option selects it
            ["pump", "--kernel", "exact"],
            ["select", "--kernel", "ultracold"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_negative_values_in_exponent_form(self, tmp_path, capsys):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        base = ["transmission", "--points", "3"]
        assert main([*base, "--delta", "-5e-3", "5e-3", "--out", str(a)]) == 0
        assert main([*base, "--delta", "-0.005", "0.005", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = -5e-3 5e-3\npoints = 3\n")
        assert main(["transmission", "--config", str(cfg), "--out", str(c)]) == 0
        assert c.read_bytes() == b.read_bytes()
        parser = build_parser()
        assert parser.parse_args(["select", "--delta", "-2e-3"]).delta == [-2e-3]
        parsed = parser.parse_args(["oracle-check", "--delta-min", "-1E+3"])
        assert parsed.delta_min == -1e3
        cfg.write_text("delta_min = -1e4\n")
        sp = build_parser().parse_args(["oracle-check"]).subparser
        assert _read_config(str(cfg), sp) == {"delta_min": -1e4}
        # options are still options
        with pytest.raises(SystemExit) as exc:
            main(["transmission", "-x"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["transmission", "-h"])
        assert exc.value.code == 0
        assert "--delta-min" in capsys.readouterr().out

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

    def test_pump_integrates_its_last_row_in_the_first_batch(self, tmp_path, monkeypatch):
        batches = []
        real = mazer.cli.mean_p_em

        def spy(ns, init, base):
            batches.append(list(ns))
            return real(ns, init, base)

        monkeypatch.setattr(mazer.cli, "mean_p_em", spy)
        common = [
            "--pump-ratio", "0", "--n-b", "0.2", "--truncation", "16",
            "--points", "101", "--k-max", "0.12", "--out", str(tmp_path / "o.csv"),
        ]
        # pump prints n = 0..16, one past what the stationary distribution reads
        assert main(["pump", *common]) == 0
        assert batches == [list(range(17))]
        # select prints no Pbar_em, so it integrates only what is read
        batches.clear()
        assert main(["select", "--delta", "0", *common]) == 0
        assert batches == [list(range(16))]

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

    def test_oracle_check_draw_order(self, capsys):
        # recorded from the sample-by-sample loop that preceded block evaluation
        assert main(["oracle-check", "--samples", "5", "--seed", "20040217"]) == 0
        rows = [line.split(",")[:4] for line in capsys.readouterr().out.splitlines()]
        assert rows == [
            ["k", "delta", "n", "coupling_length"],
            ["0.014687178218727488", "-2.2734765460140238", "0", "3853.3109830063395"],
            ["0.03904697247572736", "-368.22675975336773", "1", "231.43613487425026"],
            ["0.0096157508316417496", "-494.88010579818155", "0", "6550.4596996428509"],
            ["0.039115991797318693", "-356.36525708828071", "0", "655.36193570691808"],
            ["0.027004570376965881", "-369.91595811795617", "1", "1564.6568611027092"],
        ]

    def test_oracle_check_reports_first_ill_conditioned_sample(
        self, tmp_path, monkeypatch, capsys
    ):
        argv = ["oracle-check", "--samples", "200", "--seed", "5"]
        good = tmp_path / "good.csv"
        assert main(argv + ["--out", str(good)]) == 0
        # about one sample in twenty has a boundary system worse than 1e3
        monkeypatch.setattr(oracle, "CONDITION_LIMIT", 1e3)
        failures = []
        for line in read_lines(good)[1:]:
            k, d, n, kl = line.split(",")[:4]
            try:
                solve(ModeFunction.mesa(float(kl)), float(k),
                      SystemParams(float(d), float(kl), int(n)))
            except OracleSolveError as exc:
                failures.append(str(exc))
        assert len(failures) >= 2
        bad = tmp_path / "bad.csv"
        capsys.readouterr()
        assert main(argv + ["--out", str(bad)]) == 1
        assert capsys.readouterr().err == f"mazer: error: {failures[0]}\n"
        assert not bad.exists()

    def test_oracle_check_fails_absurd_tolerance(self, tmp_path):
        out = tmp_path / "oc.csv"
        rc = main([
            "oracle-check", "--samples", "10", "--tolerance", "1e-18",
            "--out", str(out),
        ])
        assert rc == 1

    def test_oracle_check_fails_on_nan_deviation(self, tmp_path, monkeypatch, capsys):
        # a nan deviation compares false against any tolerance
        def nan_transmissions(k, params):
            return np.full(len(k), math.nan), np.zeros(len(k))

        monkeypatch.setattr(mazer.cli, "transmissions", nan_transmissions)
        out = tmp_path / "oc.csv"
        assert main(["oracle-check", "--samples", "3", "--out", str(out)]) == 1
        assert "max deviation nan" in capsys.readouterr().err
        assert all(line.split(",")[4] == "nan" for line in read_lines(out)[1:])

    @pytest.mark.parametrize(
        "window",
        [["--k-min", "0.05", "--k-max", "0.01"],
         ["--refine", "--k-min", "1e-12", "--k-max", "1e-10"]],
        ids=["descending_unrefined", "refined_below_1e-9"],
    )
    def test_nonempty_k_windows_still_run(self, tmp_path, window):
        out = tmp_path / "t.csv"
        assert main(["transmission", *window, "--points", "3", "--out", str(out)]) == 0
        assert len(read_lines(out)) == 4

    def test_invalid_parameters_exit_nonzero(self, capsys):
        rc = main([
            "transmission", "--coupling-length", "-5", "--points", "3",
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        for argv in (
            ["transmission", "--coupling-length", "inf", "--points", "3"],
            ["transmission", "--coupling-length", "nan", "--points", "3"],
            ["resonances", "--coupling-length", "inf"],
            ["transmission", "--delta", "inf", "--points", "3"],
            ["transmission", "--g-hz", "nan", "--points", "3"],
            ["transmission", "--g-hz=-1e5", "--points", "3"],
            ["transmission", "--sweep", "delta", "--k", "nan", "--points", "3"],
            # no samples would pass the tolerance gate vacuously
            ["oracle-check", "--samples", "0"],
            ["oracle-check", "--samples", "-3"],
            # the tolerance must be finite and >= 0; nan would never fail
            ["oracle-check", "--samples", "3", "--tolerance", "nan"],
            ["oracle-check", "--samples", "3", "--tolerance=-1"],
            ["oracle-check", "--samples", "3", "--tolerance", "inf"],
            # --k-min alone would be dropped in favour of the m range
            ["resonances", "--k-min", "0.05"],
            # m <= 0 would print an empty table or the row of |m|
            ["amplitude", "--m", "0", "--points", "1"],
            ["amplitude", "--m=-1001", "--delta-min", "0", "--delta-max", "0",
             "--points", "1"],
            # empty windows and index ranges would print a header-only table
            ["transmission", "--refine", "--k-min", "0.05", "--k-max", "0.01",
             "--points", "3"],
            ["resonances", "--k-min", "0.05", "--k-max", "0.01"],
            ["resonances", "--m-min", "5", "--m-max", "1"],
            # a delta sweep has no k grid to refine
            ["transmission", "--sweep", "delta", "--refine", "--points", "3"],
            # a thermal floor that cannot converge fails before any quadrature
            ["pump", "--n-b", "1e6"],
            # k^2 overflows, in the oracle and in the closed form's fallback to it
            ["oracle-check", "--samples", "5", "--k-max", "1e300"],
            ["transmission", "--k-min", "1e299", "--k-max", "1e300", "--points", "3"],
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("mazer: error: "), argv
        # nan and inf pass every `x < 0` check further down; the error names
        # the flag, scalar or list
        for argv, flag in (
            (["pump", "--n-b", "nan"], "--n-b"),
            (["pump", "--n-b", "inf"], "--n-b"),
            (["pump", "--pump-ratio", "nan"], "--pump-ratio"),
            (["pump", "--pump-ratio", "inf"], "--pump-ratio"),
            (["pump", "--k-max", "inf"], "--k-max"),
            (["select", "--k0", "inf"], "--k0"),
            (["select", "--delta", "0", "nan"], "--delta"),
            (["transmission", "--k-max", "inf", "--points", "3"], "--k-max"),
            (["transmission", "--sweep", "delta", "--k", "inf", "--points", "3"],
             "--k"),
            (["resonances", "--k-max", "inf"], "--k-max"),
            (["oracle-check", "--samples", "3", "--k-max", "inf"], "--k-max"),
            # sampling domains: positive log ranges, lo <= hi, n_max >= 0
            (["oracle-check", "--samples", "3", "--k-min", "0"], "--k-min"),
            (["oracle-check", "--samples", "3", "--kl-min", "0"], "--kl-min"),
            (["oracle-check", "--samples", "3", "--n-max", "-1"], "--n-max"),
            (["oracle-check", "--samples", "3", "--k-min", "2", "--k-max", "1"],
             "--k-min"),
            (["oracle-check", "--samples", "3", "--kl-min", "2e4", "--kl-max", "1e4"],
             "--kl-min"),
            (["oracle-check", "--samples", "3", "--delta-min", "1",
              "--delta-max", "0"], "--delta-min"),
            # a negative sample count would reach numpy, whose message names no flag
            (["transmission", "--points", "-1"], "--points"),
            (["transmission", "--sweep", "delta", "--points", "-1"], "--points"),
            (["amplitude", "--points", "-1"], "--points"),
            (["pump", "--points", "-1"], "--points"),
            (["select", "--points", "-1"], "--points"),
            # pump and select need two beam grid points
            (["pump", "--points", "0"], "--points"),
            (["pump", "--points", "1"], "--points"),
            (["select", "--points", "0"], "--points"),
            (["select", "--points", "1"], "--points"),
        ):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"mazer: error: {flag} "), argv


NO_SCIPY_SCRIPT = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is not a run-time dependency: {name}")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the finder let scipy through")

from mazer.cli import main

out = sys.argv[1]
fig4 = ["--coupling-length", "628.3185307179587", "--pump-ratio", "100",
        "--n-b", "0.2", "--k0", "0.05", "--k-max", "0.2", "--points", "201"]
runs = [
    ["transmission", "--preset", "fig1b"],
    ["amplitude", "--preset", "fig2"],
    ["pump", "--delta=0.002", *fig4],
    ["select", "--delta=0.002", *fig4],
    ["resonances", "--delta", "0.005", "--m-min", "1001", "--m-max", "1010"],
    ["oracle-check", "--samples", "200"],
]
for argv in runs:
    if main([*argv, "--out", out]) != 0:
        sys.exit(f"exit code not 0: {argv}")
if any(name.partition(".")[0] == "scipy" for name in sys.modules):
    sys.exit("a scipy module was loaded")
"""


def test_no_code_path_needs_scipy(tmp_path):
    """Every subcommand runs to exit 0 with every scipy import refused."""
    src = Path(mazer.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_pipe_exits_quietly():
    """A reader that stops after one line ends the run with exit 0 and no message."""
    src = Path(mazer.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "mazer.cli", "transmission", "--preset", "fig1a"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"k,delta,")
        proc.stdout.close()  # the table is far larger than the pipe's buffer
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert proc.returncode == 0 and err == b"", err
