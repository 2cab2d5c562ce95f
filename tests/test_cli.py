"""Tests for the command-line interface."""

import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaycap
from relaycap.cli import build_parser, main
from relaycap.errors import SolverError
from relaycap.models import BinaryMrcd, embed_binary, model_to_dict

BIN_MODEL = {"type": "binary", "delta": 0.1, "p_z": 0.5, "r1": 0.25}


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, {name: rows[:, i] for i, name in enumerate(header)}


def _write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestFigureCommands:
    def test_fig4_columns(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--out", str(out)]) == 0
        header, cols = _read_csv(out)
        assert header == ["param", "cutset", "df", "cf", "pdcf"]
        assert len(cols["param"]) == 201
        assert cols["param"][0] == 0.0 and cols["param"][-1] == 0.5
        # every achievable column sits below the bound
        for name in ("df", "cf", "pdcf"):
            assert np.all(cols[name] <= cols["cutset"] + 1e-12)
        # decoding beats pure compression throughout this sweep
        assert np.all(cols["df"] >= cols["cf"] - 1e-12)
        # the df and pdcf columns cross once in the interior
        sign = np.sign(cols["df"][1:-1] - cols["pdcf"][1:-1])
        assert np.count_nonzero(np.diff(sign) != 0) == 1

    def test_fig6_at_a_power_that_one_plus_p_rounds_away(self, tmp_path):
        # 1 + 1e-16 rounds to 1: grouped that way, the CF at rho = 1 read -inf
        out = tmp_path / "fig6.json"
        assert main(["fig6", "--power", "1e-16", "--format", "json", "--out", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        assert points["cf"][-1]["value"] == points["pdcf"][-1]["value"] == 1.0

    def test_fig6_pdcf_is_max(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--out", str(out)]) == 0
        _, cols = _read_csv(out)
        np.testing.assert_array_equal(
            cols["pdcf"], np.maximum(cols["df"], cols["cf"])
        )
        assert cols["df"][0] == pytest.approx(cols["cutset"][0], abs=1e-12)
        assert cols["cf"][-1] == pytest.approx(1.0, abs=1e-12)

    def test_fig7_df_zero_capacity_equals_cf(self, tmp_path):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out)]) == 0
        header, cols = _read_csv(out)
        assert header == ["param", "cutset", "df", "cf", "pdcf", "capacity"]
        assert np.all(cols["df"] == 0.0)
        np.testing.assert_array_equal(cols["capacity"], cols["cf"])
        assert cols["capacity"][0] == pytest.approx(0.25, abs=1e-9)
        interior = slice(1, -1)
        assert np.all(cols["capacity"][interior] < cols["cutset"][interior])

    def test_grid_override(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--out", str(out), "--grid", "0:0.4:11"]) == 0
        _, cols = _read_csv(out)
        assert len(cols["param"]) == 11
        assert cols["param"][-1] == pytest.approx(0.4)

    @pytest.mark.parametrize("command", ["fig6", "sweep"])
    def test_negative_grid_start(self, tmp_path, command):
        # rho ranges over [-1, 1]; the grid's leading minus must not read as a flag
        argv = [command]
        if command == "sweep":
            model = {"type": "gaussian", "power": 0.3, "rho": 0.0, "r1": 1.0}
            argv += ["--model", str(_write_model(tmp_path, model)), "--param", "rho"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a), "--grid", "-0.9:0.9:41"]) == 0
        assert main(argv + ["--out", str(b), "--grid=-0.9:0.9:41"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().split("\n")[1].startswith("-0.9,")

    def test_grid_without_value(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fig6", "--grid", "--out", str(tmp_path / "a.csv")])
        assert exc.value.code == 2

    def test_bad_grid(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        assert main(["fig4", "--out", str(out), "--grid", "0:0.4:1"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_grid_stop_below_start(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out), "--grid", "0.5:0.1:5"]) == 2
        assert capsys.readouterr().err == "error: --grid needs stop > start, got '0.5:0.1:5'\n"
        assert not out.exists()

    # numpy refuses both counts before it allocates: 10^20 overflows an array
    # size, 10^18 floats are 6.94 EiB
    @pytest.mark.parametrize("steps", [10**20, 10**18], ids=["past-int64", "past-memory"])
    def test_oversized_grid(self, tmp_path, capsys, steps):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out), "--grid", f"0:1:{steps}"]) == 2
        assert capsys.readouterr().err == f"error: --grid has more steps than memory holds, got {steps}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:inf:3", "-inf:0.4:3", "nan:0.4:3"])
    def test_non_finite_grid(self, tmp_path, capsys, recwarn, grid):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out), f"--grid={grid}"]) == 2
        assert "--grid" in capsys.readouterr().err
        assert not recwarn.list and not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value, field",
        [("fig4", "--pz", "2", "p_z"), ("fig6", "--power", "-1", "power"),
         ("fig7", "--r1", "-1", "r1")],
    )
    def test_bad_model_flag(self, tmp_path, capsys, command, flag, value, field):
        out = tmp_path / "fig.csv"
        assert main([command, "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: must be")
        assert not out.exists()

    def test_grid_leaving_the_domain_names_its_first_bad_value(self, tmp_path, capsys):
        out = tmp_path / "fig7.csv"
        assert main(["fig7", "--out", str(out), "--grid", "0:1:11"]) == 2
        assert capsys.readouterr().err == "error: delta: must be in [0.0, 0.5], got 0.6000000000000001\n"
        assert not out.exists()

    def test_fig6_pipe_rate_past_float_overflow(self, tmp_path):
        # 2^{2 r1} overflows a float at r1 = 600: CF is its limit in r1
        out = tmp_path / "fig6.csv"
        assert main(["fig6", "--out", str(out), "--r1", "600"]) == 0
        rows = [line.split(",") for line in out.read_text().split("\n")[1:-1]]
        assert len(rows) == 201
        for row in rows:
            rho2 = float(row[0]) ** 2
            limit = 600.0 if rho2 == 1.0 else 0.5 * np.log2((1.3 - rho2) / (1.0 - rho2))
            assert row[3] == f"{limit:.12g}"
        assert rows[-1][0] == "1"

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig6.json"
        assert main(["fig6", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["param_name"] == "rho"

    def test_fig6_r1_zero_json_is_strict(self, tmp_path):
        # CF has no finite noise variance when the pipe carries nothing
        out = tmp_path / "fig6.json"
        assert main(["fig6", "--out", str(out), "--format", "json", "--r1", "0"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert all(pt["meta"]["sigma_q_sq"] is None for pt in payload["points"]["cf"])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig4", "--out", str(a)])
        main(["fig4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


# SHA-256 of each curve command's output file, CSV and JSON, taken with
# numpy 2.4 on an x86-64 host. The first four run on a 41-point grid; the
# last four are the edge runs of the CI smoke step: nu = 0 (r1 >= 2), the
# overflow of 2^{2 r1} (sigma_q^2 is null), a power that 1 + P rounds away,
# and a pipe that carries nothing.
PINNED_RUNS = {
    "fig4": ["fig4", "--grid", "0:0.5:41"],
    "fig6": ["fig6", "--grid", "0:1:41"],
    "fig7": ["fig7", "--grid", "0:0.5:41"],
    "sweep": ["sweep", "--model", "{model}", "--param", "r1", "--grid", "0:1.5:41"],
    "fig4-r1-2.5": ["fig4", "--r1", "2.5"],
    "fig6-r1-600": ["fig6", "--r1", "600"],
    "fig6-p-1e-16": ["fig6", "--power", "1e-16"],
    "fig6-r1-0": ["fig6", "--r1", "0"],
}
PINNED_DIGESTS = {
    ("fig4", "csv"): "fc6fd763df48cca74bfe086d37f4d97b98627c64ef959847a7324f7df391b153",
    ("fig4", "json"): "8d5b6b524cdc12df6a18d980700235ed221c60e68f079918fd62784910d382c5",
    ("fig6", "csv"): "3aabf6ab54d217a1e961880c8c0712a4ef49ece450254022eba8c536a9bddb82",
    ("fig6", "json"): "226a7655417e80a43df7428e26fe9bb2fd0c526d5cdd6fd27f81b82fb5ba6490",
    ("fig7", "csv"): "27795e2aa86801321f6dc57bd03a8009dd3d9e593a13225e32665731040fa147",
    ("fig7", "json"): "d8073f56e0bd9ac482542f32c2ed3324a37e586f16be820a1817aebea0504851",
    ("sweep", "csv"): "f68966c6bc137facf40b4d4c378b5a6c6e6530ed8a5c6c7ed2226daa2511cb73",
    ("sweep", "json"): "e1edea13ef614d084ae7b3f9b11e9da00ed2980d2539d2f367b96c04959773bd",
    ("fig4-r1-2.5", "csv"): "208d1435a5a141cc1c724bb071dd072b58e78cce32f28faa4e026c7b72d312e6",
    ("fig4-r1-2.5", "json"): "380715d13ebe267d3ae45727b14134f50da0c0f0b65d56006c5d3ce689f5b0a8",
    ("fig6-r1-600", "csv"): "a8ab1b4d5df9b1e5e6ae543c83f2cfdabddb339c65a52c1c3d5466a9fafb0e72",
    ("fig6-r1-600", "json"): "a470ffc65004fb8b62254aec51dfdb90bf5dfb7b2c7bccff09adead64e1ca4fa",
    ("fig6-p-1e-16", "csv"): "8cc523bc5299df864513997d0f2127e57ed890e7b815e9910567aede92e30e2b",
    ("fig6-p-1e-16", "json"): "1e5e40487120a59d63c0c116f685b4747dc0e06f2c61a535d427c9d0d90abde5",
    ("fig6-r1-0", "csv"): "739a807ac65a4744e632b8816e4cf7f272a684eafbbc7af73f10267af4cfbe5f",
    ("fig6-r1-0", "json"): "02cdbddf0ec4ef54a89d4e1974ac397c4f3fe17f5e9a857adf90d0ef441a0954",
}


@pytest.mark.parametrize("run, fmt", sorted(PINNED_DIGESTS),
                         ids=[f"{run}.{fmt}" for run, fmt in sorted(PINNED_DIGESTS)])
def test_curve_output_bytes_are_pinned(tmp_path, run, fmt):
    model = _write_model(tmp_path, {"type": "binary", "delta": 0.1, "p_z": 0.12, "r1": 0.25})
    out = tmp_path / f"{run}.{fmt}"
    argv = [arg.format(model=model) for arg in PINNED_RUNS[run]]
    assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_DIGESTS[run, fmt], (
        f"`relaycap {' '.join(PINNED_RUNS[run])} --format {fmt}` no longer writes the pinned "
        "bytes. If the move is intended, add a stated decision to README.md that says which "
        "cells moved, by how much at most and why, then update this digest."
    )


class TestSweepCommand:
    def test_sweep_model_file(self, tmp_path):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "curve.csv"
        code = main(
            ["sweep", "--model", str(model), "--param", "delta", "--grid", "0:0.5:9",
             "--out", str(out)]
        )
        assert code == 0
        header, cols = _read_csv(out)
        assert "capacity" in header
        assert len(cols["param"]) == 9

    def test_unknown_param(self, tmp_path, capsys):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "curve.csv"
        code = main(
            ["sweep", "--model", str(model), "--param", "sigma", "--grid", "0:1:5",
             "--out", str(out)]
        )
        assert code == 2


class TestSolveCommand:
    def test_solve_binary_model(self, tmp_path):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "report.json"
        code = main(
            ["solve", "--model", str(model), "--out", str(out),
             "--restarts", "6", "--seed", "3", "--max-iters", "600"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0.136 <= payload["best_rate"] <= 0.157
        assert payload["constraint_slack"] >= -1e-9
        assert payload["seed"] == 3

    def test_solve_deterministic_outputs(self, tmp_path):
        model = _write_model(tmp_path, BIN_MODEL)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["solve", "--model", str(model), "--restarts", "3", "--seed", "11",
                "--max-iters", "300"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_solver_debug_log_leaves_output_bytes(self, tmp_path, caplog):
        model = _write_model(tmp_path, dict(BIN_MODEL, p_z=0.0))
        quiet, logged = tmp_path / "quiet.json", tmp_path / "logged.json"
        argv = ["solve", "--model", str(model), "--restarts", "2", "--max-iters", "0"]
        assert main(argv + ["--out", str(quiet)]) == 0
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="relaycap.solver"):
            assert main(argv + ["--out", str(logged)]) == 0
        assert [r.name for r in caplog.records] == ["relaycap.solver"]
        assert quiet.read_bytes() == logged.read_bytes()

    def test_zero_pipe_model(self, tmp_path):
        model = _write_model(tmp_path, dict(BIN_MODEL, r1=0.0))
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out),
                     "--restarts", "2", "--max-iters", "100"]) == 0
        assert json.loads(out.read_text())["best_rate"] == pytest.approx(0.0, abs=1e-6)

    def test_relay_link_model(self, tmp_path):
        # a relay-destination channel, not a bit pipe: r1 comes from Blahut-Arimoto
        payload = model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
        del payload["r1_pipe"]
        payload["alphabets"].update(xr=2, y1=2)
        payload["chan_rd"] = [[[0.9, 0.1]] * 2, [[0.1, 0.9]] * 2]
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(_write_model(tmp_path, payload)), "--out", str(out),
                     "--restarts", "2", "--max-iters", "0"]) == 0
        assert json.loads(out.read_text())["feasible"] is True

    def test_gaussian_model_rejected(self, tmp_path, capsys):
        model = _write_model(tmp_path, {"type": "gaussian", "power": 0.3, "rho": 0.5, "r1": 1.0})
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 2

    def test_malformed_model(self, tmp_path, capsys):
        model = tmp_path / "broken.json"
        model.write_text("{oops")
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        # a JSON object where a pmf or a channel table belongs
        good = model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
        for field in ("p_z", "chan_sr"):
            model = _write_model(tmp_path, dict(good, **{field: {"a": 1}}))
            for command in ("solve", "classify"):
                assert main([command, "--model", str(model), "--out", str(out)]) == 2
                assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve"], ["classify"], ["sweep", "--param", "delta", "--grid", "0:0.5:3"],
    ], ids=lambda c: c[0])
    def test_model_nested_too_deep(self, tmp_path, capsys, command):
        model = tmp_path / "nested.json"
        model.write_text('{"type": "binary", "delta": ' + "[" * 100_000 + "]" * 100_000
                         + ', "p_z": 0.5, "r1": 0.25}')
        out = tmp_path / "out"
        assert main([*command, "--model", str(model), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file is not valid JSON: maximum recursion depth")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_model_file_holding_an_array(self, tmp_path, capsys):
        model = _write_model(tmp_path, [BIN_MODEL])
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: model: expected a JSON object\n"
        assert not out.exists()

    def test_p_z_length_differs_from_its_alphabet(self, tmp_path, capsys):
        payload = model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
        payload["p_z"] = [0.2, 0.3, 0.5]
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(_write_model(tmp_path, payload)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: p_z: length 3 != alphabets.z 2\n"
        assert not out.exists()

    def test_solver_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(model, cfg):
            raise SolverError("no convergence")

        monkeypatch.setattr(relaycap.cli, "solve_capacity", fail)
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(_write_model(tmp_path, BIN_MODEL)),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == "solver error: no convergence\n"
        assert not out.exists()

    @pytest.mark.parametrize("restarts", ["2", "4"])
    def test_negative_seed(self, tmp_path, capsys, restarts):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out),
                     "--seed", "-1", "--restarts", restarts]) == 2
        assert capsys.readouterr().err == "error: solve_capacity: seed must be >= 0\n"
        assert not out.exists()

    def test_restarts_past_sys_maxsize(self, tmp_path, capsys):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out),
                     "--restarts", "100000000000000000000000"]) == 2
        assert capsys.readouterr().err == (
            f"error: solve_capacity: restarts must be <= {sys.maxsize}\n")
        assert not out.exists()

    def test_missing_field_reports_path(self, tmp_path, capsys):
        model = _write_model(tmp_path, {"type": "binary", "p_z": 0.5, "r1": 0.25})
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 2
        assert "delta" in capsys.readouterr().err

    def test_unknown_model_field(self, tmp_path, capsys):
        payload = model_to_dict(embed_binary(BinaryMrcd(delta=0.1, p_z=0.5, r1=0.25)))
        payload["r1_pipes"] = payload.pop("r1_pipe")
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(_write_model(tmp_path, payload)),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: r1_pipes: unknown field\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--card-u", "--card-yhat"])
    def test_no_cardinality_flags(self, tmp_path, flag):
        model = _write_model(tmp_path, BIN_MODEL)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", str(model), "--out", str(tmp_path / "r.json"), flag, "3"])
        assert exc.value.code == 2

    def test_missing_model_file_is_io_error(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(tmp_path / "nope.json"), "--out", str(out)]) == 4

    def test_unwritable_output(self, tmp_path):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "no" / "such" / "dir" / "report.json"
        assert main(["classify", "--model", str(model), "--out", str(out)]) == 4


class TestClassifyCommand:
    def test_state_free_model(self, tmp_path):
        model = _write_model(tmp_path, dict(BIN_MODEL, p_z=0.0))
        out = tmp_path / "cases.json"
        assert main(["classify", "--model", str(model), "--out", str(out)]) == 0
        assert "case1" in json.loads(out.read_text())["cases"]

    def test_none_case(self, tmp_path):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "cases.json"
        assert main(["classify", "--model", str(model), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["cases"] == ["none"]


class TestParserReuse:
    def test_outputs_match_fresh_processes(self, tmp_path):
        # main parses with one parser per process: after usage errors, its
        # outputs equal, byte for byte, those of a fresh interpreter per command
        model = _write_model(tmp_path, BIN_MODEL)
        with pytest.raises(SystemExit) as exc:
            main(["fig7", "--grid"])
        assert exc.value.code == 2
        assert main(["fig7", "--grid", "0:0.5", "--out", str(tmp_path / "bad.csv")]) == 2
        commands = {
            "cases.json": ["classify", "--model", str(model)],
            "report.json": ["solve", "--model", str(model), "--restarts", "2", "--max-iters", "0"],
            "fig7.json": ["fig7", "--format", "json"],
        }
        for name, argv in commands.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        src = str(Path(relaycap.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        for name, argv in commands.items():
            subprocess.run([sys.executable, "-m", "relaycap.cli", *argv, "--out", str(fresh / name)],
                           check=True, env=env)
            assert (tmp_path / name).read_bytes() == (fresh / name).read_bytes()

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()
