"""Tests for the command-line interface."""

import json
import logging

import numpy as np
import pytest

from relaycap.cli import main
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

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig4", "--out", str(a)])
        main(["fig4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


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

    @pytest.mark.parametrize("restarts", ["2", "4"])
    def test_negative_seed(self, tmp_path, capsys, restarts):
        model = _write_model(tmp_path, BIN_MODEL)
        out = tmp_path / "report.json"
        assert main(["solve", "--model", str(model), "--out", str(out),
                     "--seed", "-1", "--restarts", restarts]) == 2
        assert capsys.readouterr().err == "error: solve_capacity: seed must be >= 0\n"
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
