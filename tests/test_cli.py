import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choquard
from choquard.cli import main


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
    doc = {
        "params": {"N": 3, "alpha": 2.0, "p": 2.0, "q": 3.0, "mu": 1.0, "lambda": 1.0},
        "grid": {"rmax": 30.0, "M": 1024, "scheme": "graded", "gamma": 2.0},
        "solve": {"tol_residual": 1e-6, "max_iter": 500},
        "output_dir": str(out_dir),
        "seed": 11,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return path


class TestConstantsCommand:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "constants.json"
        assert main(["constants", "--N", "3", "--alpha", "2.0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["A_alpha"] == pytest.approx(0.0795775, rel=1e-5)
        assert doc["S_alpha_consistency"] is True

    def test_invalid_alpha_exit_code(self, capsys):
        assert main(["constants", "--N", "3", "--alpha", "5.0"]) == 3


class TestSolveCommand:
    def test_solve_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", out_dir)
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "converged"
        assert (out_dir / "profile.csv").exists()
        header = (out_dir / "profile.csv").read_text().splitlines()[0]
        assert header == "r,u"

    def test_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path / "c1.json", out1)
        cfg2 = write_config(tmp_path / "c2.json", out2)
        assert main(["solve", "--config", str(cfg1)]) == 0
        assert main(["solve", "--config", str(cfg2)]) == 0
        assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1 == r2

    def test_zero_init_invalid(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", solve={"init": "zero"})
        assert main(["solve", "--config", str(cfg)]) == 3

    def test_oversized_kernel_refused(self, tmp_path, capsys, monkeypatch):
        import choquard.riesz as riesz

        def refuse(grid, alpha):
            raise AssertionError("kernel operator built")

        monkeypatch.setattr(riesz, "_hodlr_operator", refuse)
        cfg = write_config(
            tmp_path / "cfg.json", tmp_path / "run", params={"alpha": 1.5}, grid={"M": 16384}
        )
        assert main(["solve", "--config", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert "16384 nodes" in error["error"]

    def test_oversized_grid_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", grid={"M": 1 << 50})
        assert main(["solve", "--config", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert f"{1 << 50} nodes" in error["error"]

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        doc = json.loads(write_config(tmp_path / "t.json", tmp_path).read_text())
        doc["unexpected"] = 1
        cfg.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg)]) == 3

    def test_missing_params_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"params": {"N": 3, "alpha": 2.0}}))
        assert main(["solve", "--config", str(cfg)]) == 3


class TestVerifyCommand:
    def test_verify_solved_report(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json", out_dir)
        assert main(["solve", "--config", str(cfg)]) == 0
        assert main(["verify", "--report", str(out_dir / "report.json")]) == 0
        doc = json.loads((out_dir / "verification.json").read_text())
        assert doc["overall"] is True


class TestContinueCommand:
    def test_zero_steps_single_row(self, tmp_path, capsys):
        out_dir = tmp_path / "cont"
        cfg = write_config(tmp_path / "cfg.json", out_dir)
        code = main(["continue", "--config", str(cfg), "--target", "p-upper", "--steps", "0"])
        assert code == 0
        rows = (out_dir / "levels.csv").read_text().splitlines()
        assert rows[0] == "step,p,q,J,P,linf,status"
        assert len(rows) == 2

    def test_two_step_levels(self, tmp_path, capsys):
        out_dir = tmp_path / "cont2"
        cfg = write_config(
            tmp_path / "cfg.json", out_dir,
            solve={"tol_residual": 1e-6, "max_iter": 500,
                   "continuation": {"target": "q-upper", "steps": 2}},
        )
        code = main(["continue", "--config", str(cfg)])
        assert code == 0
        rows = (out_dir / "levels.csv").read_text().splitlines()
        assert len(rows) == 4
        summary = json.loads((out_dir / "continue_summary.json").read_text())
        assert summary["classification"] == "converged"
        assert len(summary["levels"]) == 3

    def test_unfinished_continuation_not_converged(self, tmp_path, capsys):
        out_dir = tmp_path / "cont"
        cfg = write_config(
            tmp_path / "cfg.json", out_dir, grid={"M": 256},
            solve={"max_iter": 2, "continuation": {"target": "p-upper", "steps": 2}},
        )
        assert main(["continue", "--config", str(cfg)]) == 2
        summary = json.loads((out_dir / "continue_summary.json").read_text())
        assert summary["classification"] == "max_iter"
        rows = (out_dir / "levels.csv").read_text().splitlines()
        assert all(row.endswith(",max_iter") for row in rows[1:])

    @pytest.mark.parametrize(
        "section",
        [{"target": "sideways", "steps": 3}, {"target": "p-upper", "steps": -1}],
        ids=["unknown-target", "negative-steps"],
    )
    def test_bad_continuation_section_rejected(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x", solve={"continuation": section})
        assert main(["continue", "--config", str(cfg)]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "InvalidParameterError"


class TestContinueDichotomyRow:
    def test_final_row_carries_classification(self, tmp_path, capsys, monkeypatch):
        import choquard.cli as cli

        out_dir = tmp_path / "cont"
        cfg = write_config(tmp_path / "cfg.json", out_dir)

        real_reports = {}

        def fake_continue(params, target, steps, opts, grid):
            from choquard.solver import continue_exponent as real
            reports = real(params, target, 0, opts, grid)
            real_reports["reports"] = reports * 2
            return reports * 2

        monkeypatch.setattr(cli, "continue_exponent", fake_continue)
        monkeypatch.setattr(cli, "detect_dichotomy", lambda reports: "concentrating")
        code = cli.main(["continue", "--config", str(cfg), "--target", "p-upper", "--steps", "1"])
        assert code == 2
        rows = (out_dir / "levels.csv").read_text().splitlines()
        assert rows[-1].endswith("concentrating")
        assert rows[-2].endswith("converged")


class TestThresholdCommand:
    def test_margins_json(self, tmp_path, capsys):
        out_dir = tmp_path / "thresh"
        cfg = write_config(
            tmp_path / "cfg.json", out_dir,
            params={"N": 3, "alpha": 2.0, "p": 5.0, "q": 3.0, "mu": 1.0, "lambda": 1.0},
        )
        code = main([
            "threshold", "--config", str(cfg), "--case", "upper-critical-p",
            "--family", "0.25,0.125", "--nodes", "512",
        ])
        assert code == 0
        doc = json.loads((out_dir / "margins.json").read_text())
        assert "bubble" in doc["families"]
        assert len(doc["families"]["bubble"]) == 2
        # margins at lambda=1, N=3, q=3 are nonpositive
        assert all(row["margin"] < 0 for row in doc["families"]["bubble"])

    def test_wrong_case_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x")
        code = main([
            "threshold", "--config", str(cfg), "--case", "upper-critical-p",
            "--family", "0.25",
        ])
        assert code == 3


class TestSweepCommand:
    def _sweep_config(self, tmp_path, out_dir, parallelism=1):
        return write_config(
            tmp_path / f"sweep_{parallelism}.json", out_dir,
            grid={"rmax": 30.0, "M": 512, "scheme": "graded", "gamma": 2.0},
            sweep={"p": [2.0, 2.2], "q": [3.0, 3.2], "parallelism": parallelism},
        )

    def test_grid_of_cells_and_dedupe(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        cfg = self._sweep_config(tmp_path, out_dir)
        main(["sweep", "--config", str(cfg)])
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert len(rows) == 5  # header + 4 cells
        cell_dirs = list(out_dir.glob("cell_*"))
        assert len(cell_dirs) == 4
        for cell in cell_dirs:
            assert (cell / "report.json").exists()

    def test_parallel_matches_serial(self, tmp_path, capsys):
        out_s = tmp_path / "serial"
        out_p = tmp_path / "parallel"
        main(["sweep", "--config", str(self._sweep_config(tmp_path, out_s, 1))])
        main(["sweep", "--config", str(self._sweep_config(tmp_path, out_p, 2))])
        assert (out_s / "summary.csv").read_bytes() == (out_p / "summary.csv").read_bytes()

    def test_cells_start_from_configured_init(self, tmp_path, capsys):
        out_dir = tmp_path / "zero"
        cfg = write_config(
            tmp_path / "zero.json", out_dir,
            grid={"rmax": 30.0, "M": 512, "scheme": "graded", "gamma": 2.0},
            solve={"init": "zero"},
            sweep={"p": [2.0, 2.2], "q": [3.0], "parallelism": 1},
        )
        assert main(["sweep", "--config", str(cfg)]) == 2
        with open(out_dir / "summary.csv", newline="") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert statuses == ["error: initial field is identically zero"] * 2

    @pytest.mark.parametrize("p_values", [[2.0], [2.0, 2.1, 2.2, 2.3]], ids=["1-cell", "4-cells"])
    def test_worker_count_bounded(self, tmp_path, capsys, monkeypatch, p_values):
        import choquard.cli as cli

        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        def fake_cell(config):
            params = config.params.to_dict()
            row = {k: params[k] for k in cli.SWEEP_AXES}
            return {**row, "J": 1.0, "status": "converged", "residual": 0.0}

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli, "_sweep_cell", fake_cell)
        cfg = write_config(
            tmp_path / "cfg.json", tmp_path / "out",
            sweep={"p": p_values, "parallelism": 1_000_000},
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        workers = min(len(p_values), len(os.sched_getaffinity(0)))
        assert pools == ([workers] if workers > 1 else [])

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x")
        assert main(["sweep", "--config", str(cfg)]) == 3

    def test_duplicate_cells_deduplicated(self, tmp_path, capsys):
        out_dir = tmp_path / "dup"
        cfg = write_config(
            tmp_path / "dup.json", out_dir,
            grid={"rmax": 30.0, "M": 512, "scheme": "graded", "gamma": 2.0},
            sweep={"p": [2.0, 2.0], "q": [3.0], "parallelism": 1},
        )
        main(["sweep", "--config", str(cfg)])
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert len(rows) == 2  # header + single deduplicated cell
        assert len(list(out_dir.glob("cell_*"))) == 1


class TestBubbleAndHls:
    def test_bubble_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main([
            "bubble", "--N", "3", "--alpha", "2.0", "--p", "2.0", "--q", "3.0",
            "--eps", "0.25,0.125,0.0625,0.03125", "--nodes", "256", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,a,b,c,d,resolved"
        assert lines[-1].startswith("# fits:")

    def test_hls_check(self, tmp_path, capsys):
        out = tmp_path / "hls.json"
        code = main([
            "hls-check", "--N", "3", "--alpha", "2.0", "--pairs", "10",
            "--seed", "5", "--nodes", "256", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["bound_holds"] is True
        assert doc["near_extremal"] is True


class TestMalformedInput:
    """Each malformed config, report or argument exits 3 with a JSON error."""

    @pytest.mark.parametrize(
        "command, document, extra",
        [
            pytest.param("sweep", "{not json", [], id="sweep-invalid-json"),
            pytest.param(
                "verify",
                {"params": {"N": 3, "alpha": 2.0, "p": 2.0, "q": 3.0, "mu": 1.0, "lambda": 1.0},
                 "residual_norm": 1e-7, "iterations": 1, "status": "converged"},
                [], id="report-without-profile-path",
            ),
            pytest.param("solve", {"grid": {"M": "abc"}}, [], id="grid-M-not-a-number"),
            pytest.param("solve", {"params": {"N": 3.9}}, [], id="N-not-integral"),
            pytest.param("solve", {"grid": {"M": 512.7}}, [], id="grid-M-not-integral"),
            pytest.param("solve", {"params": {"lambda": None}}, [], id="lambda-null"),
            pytest.param("solve", {"params": {"lambda": True}}, [], id="lambda-boolean"),
            pytest.param("solve", {"solve": {"tol_residual": True}}, [], id="tol-residual-boolean"),
            pytest.param("solve", {"solve": {"max_iter": True}}, [], id="max-iter-boolean"),
            pytest.param("solve", {"seed": False}, [], id="seed-boolean"),
            pytest.param("solve", 5, [], id="top-level-number"),
            pytest.param("sweep", {"sweep": {"p": ["x"]}}, [], id="sweep-axis-not-a-number"),
            pytest.param(
                "sweep", {"sweep": {"p": [2.0], "parallelism": 0}}, [], id="sweep-parallelism-zero"
            ),
            pytest.param("solve", {"solve": {"step": 1.0}}, [], id="solve-step-removed"),
            pytest.param("solve", {"solve": {"backtrack": 0.5}}, [], id="solve-backtrack-removed"),
            pytest.param(
                "solve", {"solve": {"enforce_nonneg": True}}, [], id="solve-enforce-nonneg-removed"
            ),
            pytest.param(
                "threshold", {}, ["--case", "upper-critical-p", "--family", "0.25,x"],
                id="family-not-a-number",
            ),
            pytest.param(
                "threshold", {}, ["--case", "upper-critical-p", "--family", "0.25", "--nodes", "x"],
                id="option-not-a-number",
            ),
        ],
    )
    def test_exit_3_with_json_error(self, tmp_path, capsys, command, document, extra):
        path = tmp_path / "input.json"
        if isinstance(document, dict) and command != "verify":
            write_config(path, tmp_path / "out", **document)
        else:
            path.write_text(document if isinstance(document, str) else json.dumps(document))
        flag = "--report" if command == "verify" else "--config"
        assert main([command, flag, str(path), *extra]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "ConfigError"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["constants", "--N", "2", "--alpha", "1"], id="constants-N2"),
            pytest.param(["constants", "--N", "1", "--alpha", "0.5"], id="constants-N1"),
            pytest.param(["constants", "--N", "172", "--alpha", "1"], id="constants-N172"),
            pytest.param(
                ["bubble", "--N", "400", "--alpha", "2", "--p", "2", "--q", "3",
                 "--eps", "0.25,0.125,0.0625,0.03125"],
                id="bubble-N400",
            ),
            pytest.param(["hls-check", "--N", "400", "--alpha", "1"], id="hls-check-N400"),
        ],
    )
    def test_dimension_outside_closed_forms(self, tmp_path, capsys, argv):
        # N < 3 has no p_upper, and Gamma(N) or Gamma(N/2) overflows a float
        # from N = 172 and N = 344 on
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "InvalidParameterError"

    @pytest.mark.parametrize("command", ["hls-check", "solve"])
    def test_alpha_too_small_for_a_kernel(self, tmp_path, capsys, command):
        # alpha - 1 rounds to -1, where the band quadrature's Jacobi weight
        # is not integrable; constants needs no kernel and still answers
        argv = ["hls-check", "--N", "3", "--alpha", "1e-300", "--pairs", "1", "--nodes", "64"]
        if command == "solve":
            cfg = write_config(
                tmp_path / "cfg.json", tmp_path / "run",
                params={"alpha": 1e-300, "p": 1.5}, grid={"M": 64},
            )
            argv = ["solve", "--config", str(cfg)]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert "alpha - 1 rounds to -1" in error["error"]
        assert main(["constants", "--N", "3", "--alpha", "1e-300"]) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dimension", ["80", "250"])
    def test_mesh_beyond_float_range(self, capsys, dimension):
        # r^N underflows at the first node for N = 80 and overflows at the
        # last for N = 250, both well inside the Gamma limit N < 344
        argv = ["hls-check", "--N", dimension, "--alpha", "1", "--pairs", "1", "--nodes", "1024"]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert f"N={dimension}" in error["error"]

    def test_hls_check_needs_a_pair(self, capsys):
        assert main(["hls-check", "--N", "3", "--alpha", "2", "--pairs", "0"]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "ConfigError"

    def test_uniform_scheme_refused(self, tmp_path, capsys):
        # the uniform mesh is the graded one at gamma = 1, and has no alias
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "run", grid={"scheme": "uniform"})
        assert main(["solve", "--config", str(cfg)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert "'uniform'" in error["error"]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs a tenth of a second or more to import, and no
    # command needs it
    src = str(Path(choquard.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, choquard.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "False"
