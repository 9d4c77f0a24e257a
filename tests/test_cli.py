"""Command line: exit codes, config precedence, output files, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from doublelinear import cli, tables
from doublelinear.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestAnalyze:
    def test_hand_example(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--alpha", "0.5", "--w", "constant:0.5",
            "--mu", "0.1", "--k", "2", "--outdir", str(tmp_path),
        )
        assert code == 0
        payload = read_json(tmp_path / "analyze.json")
        assert payload == json.loads(out)
        row = payload["results"][0]
        assert row["mean"] == pytest.approx(0.0025, abs=1e-15)
        assert row["variance"] is None

    def test_grid_and_variance(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "analyze", "--w", "constant:0.5", "--mu", "0.1,-0.1",
            "--k", "2,5", "--sigma2", "0.04", "--outdir", str(tmp_path),
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert [(r["mu"], r["k"]) for r in rows] == [
            (0.1, 2), (0.1, 5), (-0.1, 2), (-0.1, 5),
        ]
        assert all(r["variance"] is not None for r in rows)

    def test_bad_alpha_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--alpha", "1.5", "--outdir", str(tmp_path)
        )
        assert code == 1
        assert "error:" in err and "alpha" in err

    def test_price_driven_spec_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "analyze", "--w", "ma:5", "--outdir", str(tmp_path)
        )
        assert code == 1
        assert "backtest" in err


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.3, "k": "3"}))
        code, out, _ = run(
            capsys,
            "analyze", "--config", str(cfg), "--alpha", "0.7",
            "--w", "constant:0.5", "--outdir", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["alpha"] == 0.7  # flag wins
        assert payload["results"][0]["k"] == 3  # config wins over default 10
        assert payload["config"]["mu"] == "0.1"  # untouched default

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"aplha": 0.3}))
        code, _, err = run(
            capsys, "analyze", "--config", str(cfg), "--outdir", str(tmp_path)
        )
        assert code == 1
        assert "aplha" in err

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(
            capsys, "analyze", "--config", str(cfg), "--outdir", str(tmp_path)
        )
        assert code == 1
        assert "JSON" in err

    @pytest.mark.parametrize("text, message", [(None, "cannot read"), ("[0.3]", "JSON object")])
    def test_unusable_config_file_writes_nothing(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "analyze", "--config", str(cfg), "--outdir", str(outdir))
        assert code == 1
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert out == ""
        assert not outdir.exists()


class TestWeightsCommand:
    def read_table(self, path):
        rows = {}
        for line in path.read_text().splitlines():
            if line.startswith("#") or line.startswith("stage"):
                continue
            stage, w = line.split(",")
            rows[int(stage)] = float(w)
        return rows

    def test_log_ramp_reaches_one(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "weights", "--w", "log_ramp", "--n", "252",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        rows = self.read_table(tmp_path / "weights.csv")
        assert len(rows) == 252
        assert rows[252] == 1.0

    def test_sin_burst_midpoint(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "weights", "--w", "sin_burst", "--n", "252",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert self.read_table(tmp_path / "weights.csv")[126] == 0.5

    def test_provenance_comment_first_line(self, tmp_path, capsys):
        run(capsys, "weights", "--w", "constant:0.8", "--n", "5", "--outdir", str(tmp_path))
        first = (tmp_path / "weights.csv").read_text().splitlines()[0]
        assert first.startswith("# config:")
        embedded = json.loads(first.split("config:", 1)[1])
        assert embedded["command"] == "weights"
        assert embedded["n"] == 5

    def test_ma_spec_refused(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "weights", "--w", "ma:10", "--outdir", str(tmp_path)
        )
        assert code == 1
        assert "backtest" in err

    def test_out_creates_nested_directories(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "weights", "--w", "constant:0.8", "--n", "3",
            "--out", "deep/nested/sched.csv", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert len(self.read_table(tmp_path / "deep" / "nested" / "sched.csv")) == 3

    def test_absolute_out_ignores_outdir(self, tmp_path, capsys):
        target = tmp_path / "elsewhere" / "sched.csv"
        code, out, _ = run(
            capsys, "weights", "--w", "constant:0.8", "--n", "3",
            "--out", str(target), "--outdir", str(tmp_path / "unused"),
        )
        assert code == 0
        assert out.strip() == str(target)
        assert len(self.read_table(target)) == 3


class TestVerifyRpe:
    def test_certified_exit_zero(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "verify-rpe", "--w", "constant:0.5", "--k-max", "10",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("certified: min gain")
        payload = read_json(tmp_path / "rpe.json")
        assert payload["certified"] is True
        assert payload["min_gain"] > 0.0
        # weakest cell: smallest |mu| on the default grid at the shortest horizon
        assert abs(payload["argmin"][0]) == pytest.approx(0.01)
        assert payload["argmin"][1] == 2

    def test_wrong_alpha_exit_two(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "verify-rpe", "--alpha", "0.6", "--outdir", str(tmp_path)
        )
        assert code == 2
        assert out.startswith("not certifiable:")
        payload = read_json(tmp_path / "rpe.json")
        assert payload["certifiable"] is False
        assert "alpha" in payload["reason"]

    def test_too_few_positive_weights_exit_two(self, tmp_path, capsys):
        table = tmp_path / "w.csv"
        table.write_text("stage,weight\n1,0.5\n2,0\n3,0\n4,0\n")
        code, out, _ = run(
            capsys, "verify-rpe", "--w", f"table:{table}", "--k-max", "4",
            "--outdir", str(tmp_path),
        )
        assert code == 2
        assert "positive" in out

    def test_certifies_drifts_of_one_in_a_billion(self, tmp_path, capsys):
        # the k = 2 gain is (w mu)^2 = 2.5e-19, far below the rounding of 1 + w mu
        code, out, _ = run(
            capsys, "verify-rpe", "--w", "constant:0.5", "--k-max", "20",
            "--mu-grid", "1e-9,-1e-9", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert out == "certified: min gain 2.5e-19 at mu=1e-09, k=2\n"

    def test_underflow_is_named(self, tmp_path, capsys):
        # the k = 2 gain (w mu)^2 = 2.5e-401 is positive but below the float range
        code, out, _ = run(
            capsys, "verify-rpe", "--w", "constant:0.5", "--k-max", "3",
            "--mu-grid", "1e-200", "--outdir", str(tmp_path),
        )
        assert code == 1
        assert out == (
            "underflow: the expected gain at mu=1e-200, k=2 underflows to 0.0, "
            "so float64 cannot show its sign\n"
        )

    def test_custom_grid(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "verify-rpe", "--w", "constant:0.5", "--k-max", "5",
            "--mu-grid", "-0.3,0.3", "--outdir", str(tmp_path),
        )
        assert code == 0
        payload = read_json(tmp_path / "rpe.json")
        assert payload["mu_grid"] == [-0.3, 0.3]

    @pytest.mark.parametrize("grid", ["0", "0,-0.0,0"])
    def test_grid_without_nonzero_drift_writes_nothing(self, tmp_path, capsys, grid):
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "verify-rpe", "--mu-grid", grid, "--outdir", str(outdir)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "nonzero" in err
        assert err.count("\n") == 1
        assert not (outdir / "rpe.json").exists()


class TestSimulate:
    def test_degenerate_single_path_matches_closed_form(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--paths", "1", "--sigma-star", "0", "--lambda", "0",
            "--mu-star", "0.05", "--w", "constant:0.8", "--outdir", str(tmp_path),
        )
        assert code == 0
        row = json.loads(out)["results"][0]
        x = math.exp(0.05 / 252.0) - 1.0
        closed = 0.5 * ((1.0 + 0.8 * x) ** 252 + (1.0 - 0.8 * x) ** 252) - 1.0
        assert row["mean_gain"] == pytest.approx(closed, rel=1e-9)
        assert row["std_error"] == 0.0

    def test_sweep_writes_csv(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "simulate", "--grid", "-0.2,0.2", "--paths", "30", "--n", "10",
            "--seed", "5", "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "mu_star,mean_gain,std_error"
        assert len(lines) == 4
        payload = read_json(tmp_path / "simulate.json")
        assert [r["mu_star"] for r in payload["results"]] == [-0.2, 0.2]

    def test_byte_determinism_across_runs(self, tmp_path, capsys):
        for sub in ("a", "b"):
            run(
                capsys,
                "simulate", "--grid", "-0.1,0.1", "--paths", "25", "--n", "8",
                "--seed", "3", "--outdir", str(tmp_path / sub),
            )
        for name in ("simulate.json", "sweep.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_threads_change_nothing_and_one_cpu_starts_no_thread(
        self, tmp_path, capsys, monkeypatch
    ):
        # 150 paths are 3 blocks: one thread per CPU past the first, at most one per block
        starts = []
        real_start = threading.Thread.start

        def counted(thread):
            starts.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            for threads in ("1", "3"):
                starts.clear()
                outdir = tmp_path / f"{cpus}-{threads}"
                code, out, _ = run(
                    capsys,
                    "simulate", "--grid", "-0.1,0.1", "--w", "ma:5", "--paths", "150", "--n", "12",
                    "--seed", "2", "--threads", threads, "--outdir", str(outdir),
                )
                assert code == 0
                assert len(starts) == 2 * (cpus - 1)  # per grid cell
                payload = read_json(outdir / "simulate.json")
                assert payload["config"]["threads"] == int(threads)
                results[cpus, threads] = payload["results"]
        assert len({json.dumps(r) for r in results.values()}) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("w", ["constant:0.8", "ma:5"])
    def test_grid_rows_are_the_single_runs_at_the_same_seed(
        self, tmp_path, capsys, monkeypatch, w, cpus
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        common = ("--w", w, "--paths", "150", "--n", "12", "--seed", "5")
        code, _, _ = run(
            capsys, "simulate", "--grid", "-0.5,0,0.5", *common, "--outdir", str(tmp_path / "grid")
        )
        assert code == 0
        rows = read_json(tmp_path / "grid" / "simulate.json")["results"]
        assert [row["seed"] for row in rows] == [5, 5, 5]
        for mu_star, row in zip(("-0.5", "0", "0.5"), rows):
            outdir = tmp_path / mu_star
            code, _, _ = run(
                capsys, "simulate", "--mu-star", mu_star, *common, "--outdir", str(outdir)
            )
            assert code == 0
            assert read_json(outdir / "simulate.json")["results"] == [row]

    def test_import_loads_no_thread_pool(self):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        probe = "import sys, doublelinear.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "False\n"

    def test_dump_paths_single_run_only(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--dump-paths", "2", "--paths", "10", "--n", "5",
            "--outdir", str(tmp_path),
        )
        assert code == 1
        assert "--mu-star" in err

    def test_dump_paths_writes_file(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "simulate", "--mu-star", "0.1", "--dump-paths", "2", "--paths", "4",
            "--n", "5", "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        header_at = 1 if lines[0].startswith("#") else 0
        assert lines[header_at] == "path_id,stage,price"
        assert sum(1 for line in lines if line.startswith("0,")) == 6


class TestBacktestCommand:
    def write_prices(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("timestamp,price\n1,100\n2,110\n3,99\n")
        return path

    def test_hand_example(self, tmp_path, capsys):
        csv_path = self.write_prices(tmp_path)
        code, out, _ = run(
            capsys,
            "backtest", "--csv", str(csv_path), "--w", "constant:0.5",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(out)
        report = payload["reports"]["constant:0.5"]
        assert report["gain_loss"] == pytest.approx(-0.0025, abs=1e-15)
        assert payload["symbol"] == "prices"

    def test_batch_table_and_curves(self, tmp_path, capsys):
        csv_path = self.write_prices(tmp_path)
        code, _, _ = run(
            capsys,
            "backtest", "--csv", str(csv_path), "--w", "constant:0.5",
            "--w", "constant:0.2", "--with-buy-hold", "--curves",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "backtest.csv").read_text().splitlines()
        assert lines[1].split(",") == ["metric", "buy_and_hold", "constant:0.5", "constant:0.2"]
        metrics = [line.split(",")[0] for line in lines[2:]]
        assert metrics == ["gain_loss", "variance", "sharpe", "degenerate_sharpe", "n_periods"]
        assert (tmp_path / "curve_1.csv").exists()
        assert (tmp_path / "curve_3.csv").exists()

    def read_backtest_csv(self, tmp_path):
        with open(tmp_path / "backtest.csv", newline="") as fh:
            return list(csv.reader(line for line in fh if not line.startswith("#")))

    def test_repeated_spec_writes_nothing(self, tmp_path, capsys):
        csv_path = self.write_prices(tmp_path)
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "backtest", "--csv", str(csv_path), "--w", "ma:2", "--w", "constant:0.5",
            "--w", "ma:2", "--curves", "--outdir", str(outdir),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --w ma:2 ") and err.count("\n") == 1
        assert not outdir.exists()

    def test_buy_and_hold_near_the_top_of_the_float_range(self, tmp_path, capsys):
        # v0 * prices alone would pass the float range; the curve 1e307, 1.01e307 does not
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text("timestamp,price\n1,100\n2,101\n")
        code, out, err = run(
            capsys, "backtest", "--csv", str(csv_path), "--v0", "1e307", "--with-buy-hold",
            "--outdir", str(tmp_path),
        )
        assert (code, err) == (0, "")
        gain = json.loads(out)["reports"]["buy_and_hold"]["gain_loss"]
        assert gain == pytest.approx(1e305, rel=1e-12)

    @pytest.mark.parametrize("name", ["w,1.csv", 'w"1.csv', "w.csv"])
    def test_rows_are_as_wide_as_the_header(self, tmp_path, capsys, name):
        csv_path = self.write_prices(tmp_path)
        table = tmp_path / name
        table.write_text("stage,weight\n1,0.5\n2,0.25\n")
        spec = f"table:{table}"
        code, _, _ = run(
            capsys, "backtest", "--csv", str(csv_path), "--w", spec, "--w", "ma:2",
            "--with-buy-hold", "--outdir", str(tmp_path),
        )
        assert code == 0
        header, *rows = self.read_backtest_csv(tmp_path)
        assert header == ["metric", "buy_and_hold", spec, "ma:2"]
        assert len(rows) == 5
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("stamp", ["99999999999999999999", "1"])
    def test_bad_timestamp_is_one_error_line(self, tmp_path, capsys, stamp):
        csv_path = tmp_path / "prices.csv"
        csv_path.write_text(f"timestamp,price\n1,100\n{stamp},110\n")
        outdir = tmp_path / "out"
        code, out, err = run(capsys, "backtest", "--csv", str(csv_path), "--outdir", str(outdir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: row 3: timestamp ") and err.count("\n") == 1
        assert not outdir.exists()

    def test_missing_csv_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "backtest", "--outdir", str(tmp_path))
        assert code == 1
        assert "--csv" in err

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "backtest", "--csv", str(tmp_path / "nope.csv"),
            "--outdir", str(tmp_path),
        )
        assert code == 1
        assert "error:" in err

    def test_a_failed_curve_removes_every_backtest_file(self, tmp_path, capsys, monkeypatch):
        # curves 2 and 3 of 30k rows go to helper interpreters, which exit 3 at once
        monkeypatch.setattr(tables, "_FORMATTER", "raise SystemExit(3)")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        prices = tmp_path / "prices.csv"
        prices.write_text(
            "timestamp,price\n" + "".join(f"{k},{100 + k % 7}\n" for k in range(1, 30_001))
        )
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "backtest", "--csv", str(prices), "--w", "constant:0.5", "--w", "ma:20",
            "--with-buy-hold", "--curves", "--outdir", str(outdir),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {outdir / 'curve_2.csv'}: its helper interpreter exited with status 3\n"
        assert list(outdir.iterdir()) == []


class TestParserBehavior:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "--bogus", "1", "--outdir", str(tmp_path))
        assert code == 1
        assert "error:" in err

    def test_outdir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DOUBLELINEAR_OUTDIR", str(tmp_path / "fromenv"))
        code, _, _ = run(capsys, "weights", "--w", "constant:0.5", "--n", "3")
        assert code == 0
        assert (tmp_path / "fromenv" / "weights.csv").exists()


def write_config(tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    return str(cfg)


class TestOptionTable:
    # flags each command needs to run small; the config supplies the rest
    SMALL = {
        "analyze": [],
        "simulate": ["--paths", "3", "--n", "4"],
        "backtest": ["--csv", "{prices}"],
        "verify-rpe": [],
        "weights": [],
    }

    def test_parser_destinations_are_the_table_names(self):
        for command, (_, options) in cli.COMMANDS.items():
            dests = set(vars(cli.build_parser().parse_args([command])))
            assert dests - {"cmd", "config", "outdir"} == set(options), command

    @pytest.mark.parametrize("command", list(SMALL))
    def test_config_of_every_default_changes_nothing(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.delenv("DOUBLELINEAR_OUTDIR", raising=False)
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,price\n1,100\n2,110\n3,99\n4,104\n")
        defaults = {name: default for name, (_, default, _) in cli.COMMANDS[command][1].items()}
        cfg = write_config(tmp_path, defaults)
        argv = [command, *(token.format(prices=prices) for token in self.SMALL[command])]
        runs = []
        for sub, extra in (("plain", []), ("config", ["--config", cfg])):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            code, out, err = run(capsys, *argv, *extra)
            files = {p.name: p.read_bytes() for p in sorted(Path().rglob("*"))}
            runs.append((code, out, err, files))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "command, values",
        [
            ("analyze", {"alpha": "0.3"}),
            ("simulate", {"paths": 2.5}),
            ("simulate", {"clip": "no"}),
            ("simulate", {"seed": True}),
            ("simulate", {"dt": 10**400}),
            ("weights", {"n": None}),
            ("analyze", {"k": [2.5]}),
            ("analyze", {"mu": ["0.1"]}),
            ("backtest", {"w": 0.5}),
            ("analyze", {"mu": "a"}),
            ("analyze", {"mu": ""}),
        ],
    )
    def test_wrongly_typed_config_value_writes_nothing(self, tmp_path, capsys, command, values):
        cfg = write_config(tmp_path, values)
        outdir = tmp_path / "out"
        code, out, err = run(capsys, command, "--config", cfg, "--outdir", str(outdir))
        assert code == 1
        (key,) = values
        assert err.startswith("error:") and key in err
        assert out == ""
        assert not outdir.exists() or not any(outdir.iterdir())

    def test_config_values_take_their_flags_types(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"alpha": 1, "k": [2, 5], "mu": 0.1, "sigma2": None})
        code, out, _ = run(capsys, "analyze", "--config", cfg, "--outdir", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["alpha"] == 1.0 and type(payload["config"]["alpha"]) is float
        assert [(r["mu"], r["k"]) for r in payload["results"]] == [(0.1, 2), (0.1, 5)]

    def test_lambda_is_the_config_key_lam(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"lam": 0, "sigma_star": 0, "mu_star": 0.05})
        code, out, _ = run(
            capsys, "simulate", "--config", cfg, "--paths", "1", "--outdir", str(tmp_path)
        )
        assert code == 0
        assert json.loads(out)["results"][0]["std_error"] == 0.0


class TestSimulateChecksFirst:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mu-star", "0.1", "--grid", "-0.1,0.1"], "--grid"),
            (["--grid", ""], "--grid"),
            (["--grid", " , "], "--grid"),
            (["--mu-star", "0.1", "--dump-paths", "-3"], "--dump-paths"),
            (["--mu-star", "0.1", "--seed", "-1"], "--seed"),
        ],
    )
    def test_bad_input_writes_nothing(self, tmp_path, capsys, argv, message):
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", *argv, "--paths", "4", "--n", "5", "--outdir", str(outdir)
        )
        assert code == 1
        assert err.startswith("error:") and message in err
        assert out == ""
        assert not (outdir / "simulate.json").exists()

    def test_engine_failure_leaves_no_outdir(self, tmp_path, capsys):
        # prices this volatile underflow to 0, which the engine refuses
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--mu-star", "0", "--sigma-star", "10", "--dt", "1",
            "--n", "150", "--paths", "64", "--lambda", "0", "--outdir", str(outdir),
        )
        assert code == 1
        assert err.startswith("error:") and out == ""
        assert not outdir.exists()

    def test_a_failed_path_dump_leaves_no_file(self, tmp_path, capsys):
        # a constant schedule trades without prices, so only the dump meets the float range
        code, out, err = run(
            capsys, "simulate", "--mu-star", "0.5", "--sigma-star", "0", "--lambda", "0",
            "--dt", "1", "--n", "3", "--s0", "1e308", "--paths", "4", "--dump-paths", "2",
            "--outdir", str(tmp_path),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "float range" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_sweep_table_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def full(path, *args):
            raise OSError(f"{path}: no space left")

        monkeypatch.setattr(cli, "write_text", full)
        code, out, err = run(
            capsys, "simulate", "--grid", "-0.1,0.1", "--paths", "4", "--n", "5",
            "--outdir", str(tmp_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path / 'sweep.csv'}: no space left\n"
        assert list(tmp_path.iterdir()) == []

    def test_engine_underflow_names_the_model(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--mu-star", "0", "--sigma-star", "10", "--dt", "1",
            "--n", "150", "--paths", "64", "--lambda", "0", "--outdir", str(outdir),
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: simulated prices reached 0 or inf: mu_star=0.0, sigma_star=10.0, "
            "dt=1.0 and n_periods=150 leave the float range\n"
        )
        assert not outdir.exists()

    def test_overflowing_volatility_is_a_usage_error(self, tmp_path, capsys):
        # sigma_star**2 leaves the float range: refused when the model is
        # built, before any path is drawn
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--mu-star", "0.1", "--sigma-star", "1e200", "--paths", "1",
            "--n", "2", "--outdir", str(outdir),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: the log drift or volatility of a period overflows")
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0.1,1e308",
             "the mean return of a period overflows, got --grid=1e+308, --dt=0.003968253968253968"),
            ("nan", "--grid must be finite, got nan"),
        ],
    )
    def test_sweep_cells_are_checked_before_any_path(self, tmp_path, capsys, grid, message):
        outdir = tmp_path / "out"
        code, out, err = run(
            capsys, "simulate", "--grid", grid, "--paths", "64", "--n", "5",
            "--outdir", str(outdir),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not outdir.exists()

    def test_empty_grid_in_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"grid": []})
        code, _, err = run(capsys, "simulate", "--config", cfg, "--outdir", str(tmp_path))
        assert code == 1
        assert "--grid" in err
        assert not (tmp_path / "simulate.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-rpe", "--k-max", "0"], "--k-max must be >= 2, got 0"),
        (["verify-rpe", "--k-max", "1"], "--k-max must be >= 2, got 1"),
        (["analyze", "--k", "0"], "--k must be >= 1, got 0"),
        (["analyze", "--k", "5,-1,3"], "--k must be >= 1, got -1"),
        (["simulate", "--mu-star", "0.1", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["simulate", "--mu-star", "0.1", "--dump-paths", "-3"],
         "--dump-paths must be >= 0, got -3"),
        (["simulate", "--mu-star", "0.1", "--threads", "0"], "--threads must be >= 1, got 0"),
        (["simulate", "--mu-star", "0.1", "--paths", "0"], "--paths must be >= 1, got 0"),
        (["simulate", "--mu-star", "0.1", "--n", "0"], "--n must be >= 1, got 0"),
        (["weights", "--n", "0"], "--n must be >= 1, got 0"),
    ],
)
def test_count_flags_are_named(tmp_path, capsys, argv, message):
    outdir = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--outdir", str(outdir))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sigma-star", "-1"], "--sigma-star must be >= 0, got -1.0"),
        (["--lambda", "-1"], "--lambda must be >= 0, got -1.0"),
        (["--delta", "1"], "--delta must lie in [0, 1), got 1.0"),
        (["--dt", "0"], "--dt must be positive, got 0.0"),
        (["--s0", "-2"], "--s0 must be positive, got -2.0"),
        (["--dt", "inf"], "--dt must be finite, got inf"),
        (
            ["--lambda", "1e300"],
            "--lambda*--dt*--n, a path's expected jump count, must be at most 1e+18, "
            "got --lambda=1e+300",
        ),
    ],
)
def test_model_flags_are_named(tmp_path, capsys, argv, message):
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "simulate", "--mu-star", "0.1", *argv, "--outdir", str(outdir))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["analyze", "verify-rpe", "weights"])
def test_price_driven_refusal_names_both_commands(tmp_path, capsys, command):
    code, _, err = run(capsys, command, "--w", "ma:5", "--outdir", str(tmp_path))
    assert code == 1
    assert err.startswith(f"error: {command} ")
    assert "backtest" in err and "simulate" in err

