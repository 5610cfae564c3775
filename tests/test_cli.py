import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choquard
from choquard.cli import load_config, main
from choquard.extremals import CASE_TOL, critical_case, threshold_check
from choquard.grid import write_profile_csv


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
        # every command starts from the Gaussian, and the config has no key
        # to ask for another start, so every command refuses one up front
        out_dir = tmp_path / "run"
        cfg = write_config(
            tmp_path / "cfg.json", out_dir,
            solve={"init": "zero"},
            sweep={"p": [2.0, 2.2], "q": [3.0], "parallelism": 1},
        )
        flags = {"continue": ["--target", "q-upper", "--steps", "1"]}
        for command in ("solve", "continue", "sweep"):
            assert main([command, "--config", str(cfg), *flags.get(command, [])]) == 3
            assert json.loads(capsys.readouterr().err)["kind"] == "ConfigError"
        assert not out_dir.exists()

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

    @staticmethod
    def _verify_stored(tmp_path, **params) -> int:
        """verify on a report.json that names u.csv, at the given params."""
        params = {"N": 3, "alpha": 2.0, "p": 2.0, "q": 3.0, "mu": 1.0, "lambda": 1.0, **params}
        report = {"params": params, "profile_csv_path": "u.csv", "residual_norm": 1e-7,
                  "iterations": 1, "status": "converged"}
        (tmp_path / "report.json").write_text(json.dumps(report))
        return main(["verify", "--report", str(tmp_path / "report.json")])

    @pytest.mark.parametrize("header", ["x,y,z", "r,u"])
    def test_three_column_profile_refused(self, tmp_path, capsys, header):
        grid = choquard.build_grid(3, 15.0, 64)
        rows = "".join(f"{r!r},{math.exp(-r * r)!r},0.0\r\n" for r in grid.nodes.tolist())
        (tmp_path / "u.csv").write_text(f"{header}\r\n{rows}", newline="")
        assert self._verify_stored(tmp_path) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "ConfigError"

    def test_threshold_overflow_refused(self, tmp_path, capsys):
        # the level window's lower-critical threshold holds mu^{-N/alpha} = 1e9000
        grid = choquard.build_grid(3, 15.0, 64)
        write_profile_csv(choquard.sample(grid, lambda r: np.exp(-(r**2))), tmp_path / "u.csv")
        assert self._verify_stored(tmp_path, alpha=0.1, p=3.1 / 3.0, mu=1e-300) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert "threshold leaves the float range" in error["error"]
        assert not (tmp_path / "verification.json").exists()


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
        cfg = write_config(tmp_path / "cfg.json", out_dir)
        code = main(["continue", "--config", str(cfg), "--target", "q-upper", "--steps", "2"])
        assert code == 0
        rows = (out_dir / "levels.csv").read_text().splitlines()
        assert len(rows) == 4
        summary = json.loads((out_dir / "continue_summary.json").read_text())
        assert summary["classification"] == "converged"
        assert len(summary["levels"]) == 3

    def test_unfinished_continuation_not_converged(self, tmp_path, capsys):
        out_dir = tmp_path / "cont"
        cfg = write_config(
            tmp_path / "cfg.json", out_dir, grid={"M": 256}, solve={"max_iter": 2}
        )
        argv = ["continue", "--config", str(cfg), "--target", "p-upper", "--steps", "2"]
        assert main(argv) == 2
        summary = json.loads((out_dir / "continue_summary.json").read_text())
        assert summary["classification"] == "max_iter"
        rows = (out_dir / "levels.csv").read_text().splitlines()
        assert all(row.endswith(",max_iter") for row in rows[1:])

    @pytest.mark.parametrize(
        "flags, kind",
        [
            (["--target", "sideways", "--steps", "3"], "ConfigError"),
            (["--target", "p-upper", "--steps", "-1"], "InvalidParameterError"),
        ],
        ids=["unknown-target", "negative-steps"],
    )
    def test_bad_continuation_section_rejected(self, tmp_path, capsys, flags, kind):
        # an unknown target is a malformed command line; a negative step
        # count is refused by the continuation itself
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x")
        assert main(["continue", "--config", str(cfg), *flags]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == kind
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("missing", ["--target", "--steps"])
    def test_target_and_steps_required(self, tmp_path, capsys, missing):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x")
        flags = {"--target": "p-upper", "--steps": "1"}
        del flags[missing]
        argv = ["continue", "--config", str(cfg), *(t for kv in flags.items() for t in kv)]
        assert main(argv) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "ConfigError"
        assert missing in error["error"]


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
            "threshold", "--config", str(cfg), "--family", "0.25,0.125", "--nodes", "512",
        ])
        assert code == 0
        doc = json.loads((out_dir / "margins.json").read_text())
        assert "bubble" in doc["families"]
        assert len(doc["families"]["bubble"]) == 2
        # margins at lambda=1, N=3, q=3 are nonpositive
        assert all(row["margin"] < 0 for row in doc["families"]["bubble"])

    @pytest.mark.parametrize(
        "params, family",
        [
            pytest.param({"p": 5.0, "q": 3.0}, [0.25, 0.125], id="upper-critical-p"),
            pytest.param({"p": 5.0 / 3.0, "q": 2.5}, [0.5, 1.0], id="lower-critical-p"),
            pytest.param(
                {"p": 5.0 / 3.0, "q": 6.0, "mu": 10.0, "lambda": 10.0}, [0.5, 0.25],
                id="doubly-critical",
            ),
        ],
    )
    def test_case_read_from_params(self, tmp_path, capsys, params, family):
        out_dir = tmp_path / "thresh"
        cfg = write_config(tmp_path / "cfg.json", out_dir, params=params)
        argv = ["threshold", "--config", str(cfg), "--family", ",".join(map(repr, family))]
        assert main([*argv, "--nodes", "256"]) == 0
        config = load_config(cfg)
        case = critical_case(config.params, CASE_TOL)
        expected = threshold_check(config.params, case, family, num_nodes=256)
        doc = json.loads((out_dir / "margins.json").read_text())
        assert doc["case"] == case
        assert doc == json.loads(json.dumps(expected.to_dict()))

    @pytest.mark.parametrize(
        "params", [{"p": 5.0, "q": 6.0}, {"p": 2.0, "q": 3.0}], ids=["upper-corner", "subcritical"]
    )
    def test_no_threshold_case_exit(self, tmp_path, capsys, params):
        # the message names the critical exponents the params miss
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x", params=params)
        assert main(["threshold", "--config", str(cfg), "--family", "0.25"]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "CaseMismatchError"
        for name in ("p_lower = 1.6666666666666667", "p_upper = 5.0", "q_upper = 6.0"):
            assert name in error["error"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "params",
        [{"p": 2.5, "q": 6.0, "lambda": 0.0}, {"p": 5.0 / 3.0, "q": 6.0, "lambda": 0.0}],
        ids=["critical-q", "doubly-critical"],
    )
    def test_sobolev_case_at_zero_lambda_refused(self, tmp_path, capsys, params):
        # S^{N/2} lambda^{-(N-2)/2} / N has no value at lambda = 0
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x", params=params)
        assert main(["threshold", "--config", str(cfg), "--family", "0.25"]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert "lambda > 0" in error["error"]
        assert not (tmp_path / "x" / "margins.json").exists()

    def test_threshold_overflow_refused(self, tmp_path, capsys):
        # mu^{-N/alpha} = 1e9000 at the lower-critical p
        params = {"alpha": 0.1, "p": 3.1 / 3.0, "q": 3.0, "mu": 1e-300}
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x", params=params)
        assert main(["threshold", "--config", str(cfg), "--family", "0.5", "--nodes", "64"]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["kind"] == "InvalidParameterError"
        assert "threshold leaves the float range" in error["error"]

    def test_wrong_case_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", tmp_path / "x")
        code = main(["threshold", "--config", str(cfg), "--family", "0.25"])
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

    @pytest.mark.parametrize("alpha", ["6e-17", "1e-16"])
    def test_hls_check_keeps_tiny_alpha(self, tmp_path, capsys, alpha):
        # the diagonal cell's quadrature weight is formed from alpha itself,
        # so alpha just above the 2^-54 refusal reads as alpha = 1e-8 does
        def fraction(value):
            out = tmp_path / f"hls_{value}.json"
            argv = ["hls-check", "--N", "3", "--alpha", value, "--pairs", "1", "--nodes", "64"]
            assert main([*argv, "--out", str(out)]) == 0
            return json.loads(out.read_text())["extremal_fraction"]

        assert fraction(alpha) == pytest.approx(fraction("1e-8"), abs=1e-3)


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
            pytest.param(
                "solve",
                {"params": [["N", 3], ["alpha", 2.0], ["p", 2.0], ["q", 3.0], ["mu", 1.0],
                            ["lambda", 1.0]],
                 "grid": [["M", 64]]},
                [], id="sections-as-pairs",
            ),
            pytest.param("solve", {"grid": [["M", 64]]}, [], id="grid-as-pairs"),
            pytest.param(
                "solve", {"grid": {"scheme": "exponential", "gamma": 2.0}}, [],
                id="gamma-with-exponential",
            ),
            pytest.param("sweep", {"sweep": {"p": ["x"]}}, [], id="sweep-axis-not-a-number"),
            pytest.param("sweep", {"sweep": {"p": "23"}}, [], id="sweep-axis-a-string"),
            pytest.param(
                "sweep", {"sweep": {"p": [2.0], "parallelism": 0}}, [], id="sweep-parallelism-zero"
            ),
            pytest.param("solve", {"solve": {"step": 1.0}}, [], id="solve-step-removed"),
            pytest.param("solve", {"solve": {"backtrack": 0.5}}, [], id="solve-backtrack-removed"),
            pytest.param(
                "solve", {"solve": {"enforce_nonneg": True}}, [], id="solve-enforce-nonneg-removed"
            ),
            pytest.param("solve", {"solve": {"init": "gaussian"}}, [], id="solve-init-removed"),
            pytest.param(
                "continue", {"solve": {"continuation": {"target": "p-upper", "steps": 1}}},
                ["--target", "p-upper", "--steps", "1"], id="solve-continuation-removed",
            ),
            pytest.param(
                "threshold", {}, ["--family", "0.25,x"],
                id="family-not-a-number",
            ),
            pytest.param(
                "threshold", {}, ["--family", "0.25", "--nodes", "x"],
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
        # alpha - 1 rounds to -1, where s = (alpha - 1)/2 has lost alpha;
        # constants needs no kernel and still answers
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


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on this checkout of the package."""
    src = str(Path(choquard.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs a tenth of a second or more to import, and no
    # command needs it
    code = "import sys, choquard.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh_python("-c", code).stdout.strip() == "False"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the Newton polish runs its GMRES cycle in the package
    code = "import sys, choquard.cli; print(any(m.startswith('scipy.sparse') for m in sys.modules))"
    assert _fresh_python("-c", code).stdout.strip() == "False"


def test_one_parser_serves_many_calls(tmp_path, capsys):
    # the parser is built once per process: a refused command line and the
    # options of earlier calls leave nothing behind for later ones
    assert main(["constants", "--N", "three", "--alpha", "2.0"]) == 3
    assert "ConfigError" in capsys.readouterr().err
    calls = [["--N", "3", "--alpha", "2.0", "--out", "{}/a.json"], ["--N", "4", "--alpha", "1.0"]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    for flags in calls:
        assert main(["constants", *(f.format(here) for f in flags)]) == 0
        out = _fresh_python("-m", "choquard.cli", "constants", *(f.format(fresh) for f in flags))
        assert out.returncode == 0
        assert capsys.readouterr().out == out.stdout
    assert [f.name for f in here.iterdir()] == ["a.json"]
    assert (here / "a.json").read_bytes() == (fresh / "a.json").read_bytes()
