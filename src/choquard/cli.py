"""Batch front end: subcommands, JSON configs, report persistence, sweeps.

Exit codes: 0 success/converged, 2 numerical dichotomy (vanishing,
concentrating, or unconverged), 3 invalid input, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    CaseMismatchError,
    ChoquardError,
    ConfigError,
    DegenerateFieldError,
    InvalidParameterError,
    parse_value,
    require_keys,
)
from .extremals import (
    THRESHOLD_CASES,
    asymptotic_suite,
    sharp_constants,
    threshold_check,
)
from .functionals import Params, breakdown
from .grid import (
    RadialField,
    RadialGrid,
    build_grid,
    lp_norm,
    read_profile_csv,
    write_profile_csv,
)
from .riesz import hls_bilinear, hls_constant
from .solver import (
    CONTINUATION_TARGETS,
    SolveOptions,
    SolveReport,
    check_continuation,
    continue_exponent,
    default_initial_guess,
    detect_dichotomy,
    ground_state,
)
from .verify import run_verification

EXIT_OK = 0
EXIT_DICHOTOMY = 2
EXIT_INVALID = 3
EXIT_IO = 4

SWEEP_AXES = ("p", "q", "mu", "lambda")


def _dump_json(obj, path: Path | None, stream=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is not None:
        path.write_text(text + "\n")
    if stream is not None:
        stream.write(text + "\n")


@dataclass(frozen=True)
class RunConfig:
    params: Params
    grid_spec: dict
    solve: SolveOptions
    init: str
    output_dir: Path
    continuation: tuple[str, int] | None = None  # (target, steps); only cmd_continue reads it
    sweep: object = None  # the raw "sweep" section; only cmd_sweep reads it

    def build_grid(self) -> RadialGrid:
        gs = self.grid_spec
        return build_grid(
            self.params.N, gs["rmax"], gs["M"], scheme=gs["scheme"], gamma=gs["gamma"]
        )

    def initial_field(self, grid: RadialGrid) -> RadialField:
        if self.init == "zero":
            return RadialField(grid, np.zeros(grid.node_count))
        return default_initial_guess(grid)


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration document (strict keys).

    Raises ConfigError for a malformed document and InvalidParameterError
    for values outside their admissible ranges.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc

    doc = require_keys(
        doc, {"params", "grid", "solve", "output_dir", "seed", "sweep"}, {"params"}, "config"
    )
    params = Params.from_dict(doc["params"])

    gsec = require_keys(doc.get("grid", {}), {"rmax", "M", "scheme", "gamma"}, set(), "grid")
    grid_spec = {
        "rmax": parse_value(float, gsec.get("rmax", 30.0), "grid.rmax"),
        "M": parse_value(int, gsec.get("M", 1024), "grid.M"),
        "scheme": gsec.get("scheme", "graded"),
        "gamma": parse_value(float, gsec.get("gamma", 2.0), "grid.gamma"),
    }

    ssec = require_keys(
        doc.get("solve", {}),
        {"tol_residual", "max_iter", "continuation", "init"},
        set(),
        "solve",
    )
    if "max_iter" in ssec:
        ssec["max_iter"] = parse_value(int, ssec["max_iter"], "solve.max_iter")
    init = ssec.pop("init", "gaussian")
    if init not in ("gaussian", "zero"):
        raise ConfigError(f"unknown init kind {init!r}")
    continuation = ssec.pop("continuation", None)
    if continuation is not None:
        cont = require_keys(
            continuation, {"target", "steps"}, {"target", "steps"}, "solve.continuation"
        )
        continuation = (cont["target"], parse_value(int, cont["steps"], "continuation.steps"))
        check_continuation(*continuation)
    try:
        opts = SolveOptions(**ssec)
    except TypeError as exc:
        raise ConfigError(f"bad solve options: {exc}") from exc

    output_dir = parse_value(Path, doc.get("output_dir", "."), "output_dir")
    parse_value(int, doc.get("seed", 0), "seed")  # checked, though no computation reads it
    return RunConfig(
        params=params,
        grid_spec=grid_spec,
        solve=opts,
        init=init,
        output_dir=output_dir,
        continuation=continuation,
        sweep=doc.get("sweep"),
    )


def load_report(path: str | Path) -> SolveReport:
    """Rebuild a stored solve report from report.json and the profile CSV
    it names; J, P, nehari, linf and the half-mass radius are recomputed.

    Raises ConfigError for a malformed report and OSError when the profile
    cannot be read.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    doc = require_keys(
        doc, None, {"params", "profile_csv_path", "residual_norm", "iterations", "status"}, "report"
    )
    params = Params.from_dict(doc["params"])
    csv_name = doc["profile_csv_path"]
    if not isinstance(csv_name, str):
        raise ConfigError(f"profile_csv_path must be a string, got {csv_name!r}")
    try:
        r, u = read_profile_csv(path.parent / csv_name)
        field = RadialField(RadialGrid(params.N, r), u)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot parse profile {csv_name!r}: {exc}") from exc
    return SolveReport(
        field, params, breakdown(field, params),
        residual_norm=parse_value(float, doc["residual_norm"], "residual_norm"),
        iterations=parse_value(int, doc["iterations"], "iterations"),
        status=doc["status"],
    )


def _float_list(text: str, flag: str) -> list[float]:
    return [parse_value(float, tok, flag) for tok in text.split(",") if tok]


def _write_report(report: SolveReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "profile.csv"
    write_profile_csv(report.profile, csv_path)
    _dump_json(report.to_dict(profile_csv_path=csv_path.name), out_dir / "report.json")


def cmd_constants(args) -> int:
    sc = sharp_constants(args.N, args.alpha)
    _dump_json(sc.to_dict(), Path(args.out) if args.out else None, sys.stdout)
    return EXIT_OK


def cmd_solve(args) -> int:
    config = load_config(args.config)
    grid = config.build_grid()
    report = ground_state(config.params, config.initial_field(grid), config.solve)
    _write_report(report, config.output_dir)
    return EXIT_OK if report.status == "converged" else EXIT_DICHOTOMY


def cmd_continue(args) -> int:
    config = load_config(args.config)
    target, steps = config.continuation or (None, None)
    target = args.target or target
    steps = args.steps if args.steps is not None else steps
    if target is None or steps is None:
        raise ConfigError("continuation target/steps missing (flag or config)")
    grid = config.build_grid()
    reports = continue_exponent(config.params, target, steps, config.solve, grid)
    verdict = detect_dichotomy(reports)

    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "levels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "p", "q", "J", "P", "linf", "status"])
        for n, rep in enumerate(reports):
            status = rep.status
            if n == len(reports) - 1 and verdict in ("vanishing", "concentrating"):
                status = verdict
            writer.writerow(
                [n, repr(rep.params.p), repr(rep.params.q), repr(rep.J), repr(rep.P), repr(rep.linf), status]
            )
    _dump_json(
        {"classification": verdict, "levels": [rep.J for rep in reports]},
        out / "continue_summary.json",
    )
    return EXIT_OK if verdict == "converged" else EXIT_DICHOTOMY


def cmd_threshold(args) -> int:
    config = load_config(args.config)
    family = _float_list(args.family, "--family")
    report = threshold_check(config.params, args.case, family, num_nodes=args.nodes)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(report.to_dict(), config.output_dir / "margins.json", sys.stdout)
    return EXIT_OK


def _sweep_cell(config: RunConfig) -> dict:
    """Solve one sweep cell; a solve error becomes the row's status."""
    params = config.params.to_dict()
    row = {k: params[k] for k in SWEEP_AXES}
    grid = config.build_grid()
    try:
        report = ground_state(config.params, config.initial_field(grid), config.solve)
        _write_report(report, config.output_dir)
        row.update(J=report.J, status=report.status, residual=report.residual_norm)
    except ChoquardError as exc:
        row.update(J=math.nan, status=f"error: {exc}", residual=math.nan)
    return row


def sweep_plan(config: RunConfig) -> tuple[dict[str, dict], int]:
    """The distinct (p, q, mu, lambda) cells of the config's sweep section,
    keyed by digest, and its parallelism (at least 1)."""
    if not config.sweep:
        raise ConfigError("sweep command needs a 'sweep' section")
    sweep = require_keys(config.sweep, {*SWEEP_AXES, "parallelism"}, set(), "sweep")
    base = config.params.to_dict()
    axes = [parse_value(list, sweep.get(k, [base[k]]), f"sweep.{k}") for k in SWEEP_AXES]
    cells = {}
    for values in itertools.product(*axes):
        cell = {k: parse_value(float, v, f"sweep.{k}") for k, v in zip(SWEEP_AXES, values)}
        digest = hashlib.sha256(json.dumps(cell, sort_keys=True).encode()).hexdigest()[:16]
        cells.setdefault(digest, cell)
    if not cells:
        raise ConfigError("sweep grid is empty")
    parallelism = parse_value(int, sweep.get("parallelism", 1), "sweep.parallelism")
    if parallelism < 1:
        raise ConfigError(f"sweep.parallelism must be >= 1, got {parallelism}")
    return cells, parallelism


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    cells, parallelism = sweep_plan(config)
    base = config.params.to_dict()
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    rows, jobs = [], []
    for digest, cell in cells.items():
        try:
            params = Params.from_dict({**base, **cell})
        except InvalidParameterError as exc:
            rows.append({**cell, "J": math.nan, "status": f"error: {exc}", "residual": math.nan})
            continue
        jobs.append(replace(config, params=params, output_dir=out / f"cell_{digest}"))
    # the pool forks all of its workers at once, so never ask for idle ones
    workers = min(parallelism, len(jobs), len(os.sched_getaffinity(0)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows += pool.map(_sweep_cell, jobs)
    else:
        rows += map(_sweep_cell, jobs)

    rows.sort(key=lambda r: (r["p"], r["q"], r["mu"], r["lambda"]))
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "q", "mu", "lambda", "J", "status", "residual"])
        for row in rows:
            writer.writerow(
                [repr(row["p"]), repr(row["q"]), repr(row["mu"]), repr(row["lambda"]),
                 repr(row["J"]), row["status"], repr(row["residual"])]
            )
    failures = [r for r in rows if not str(r["status"]).startswith(("converged",))]
    return EXIT_OK if not failures else EXIT_DICHOTOMY


def cmd_verify(args) -> int:
    verification = run_verification(load_report(args.report))
    _dump_json(verification.to_dict(), Path(args.report).parent / "verification.json", sys.stdout)
    return EXIT_OK if verification.overall else EXIT_DICHOTOMY


def cmd_bubble(args) -> int:
    eps_list = _float_list(args.eps, "--eps")
    table = asymptotic_suite(args.N, args.alpha, args.p, args.q, eps_list, num_nodes=args.nodes)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "a", "b", "c", "d", "resolved"])
        for (eps, a, b, c, d), res in zip(table.rows(), table.resolved):
            writer.writerow([repr(eps), repr(a), repr(b), repr(c), repr(d), res])
        fh.write(f"# fits: {json.dumps(table.fits, sort_keys=True)}\n")
    print(json.dumps(table.fits, sort_keys=True, indent=2))
    return EXIT_OK


def _random_smooth_field(grid: RadialGrid, rng: np.random.Generator) -> RadialField:
    width = rng.uniform(0.3, 2.0, size=3)
    center = rng.uniform(0.0, 3.0, size=3)
    weight = rng.uniform(0.1, 1.0, size=3)
    r = grid.nodes
    vals = sum(w * np.exp(-((r - c) ** 2) / (2 * s**2)) for w, c, s in zip(weight, center, width))
    return RadialField(grid, vals)


def cmd_hls_check(args) -> int:
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    grid = build_grid(args.N, 20.0, args.nodes, scheme="graded")
    c_alpha = hls_constant(args.N, args.alpha)
    t = 2.0 * args.N / (args.N + args.alpha)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.pairs):
        u = _random_smooth_field(grid, rng)
        v = _random_smooth_field(grid, rng)
        ratio = hls_bilinear(u, v, args.alpha) / (lp_norm(u, t) * lp_norm(v, t))
        worst = max(worst, ratio / c_alpha)
    extremal = RadialField(grid, (1.0 + grid.nodes**2) ** (-(args.N + args.alpha) / 2.0))
    achieved = hls_bilinear(extremal, extremal, args.alpha) / (
        lp_norm(extremal, t) ** 2 * c_alpha
    )
    result = {
        "C_alpha": c_alpha,
        "worst_ratio_fraction": worst,
        "extremal_fraction": achieved,
        "bound_holds": worst <= 1.0 + 1e-3,
        "near_extremal": achieved >= 0.98,
    }
    _dump_json(result, Path(args.out) if args.out else None, sys.stdout)
    return EXIT_OK if result["bound_holds"] and result["near_extremal"] else EXIT_DICHOTOMY


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A malformed command line is invalid input like any other (exit 3)."""
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="choquard",
        description="Ground states and variational checks for Choquard equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="sharp constants for one (N, alpha)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("solve", help="one ground-state solve from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("continue", help="subcritical continuation run")
    p.add_argument("--config", required=True)
    p.add_argument("--target", choices=CONTINUATION_TARGETS, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_continue)

    p = sub.add_parser("threshold", help="energy-threshold margins for a critical case")
    p.add_argument("--config", required=True)
    p.add_argument("--case", choices=list(THRESHOLD_CASES), required=True)
    p.add_argument("--family", required=True, help="comma-separated eps or delta values")
    p.add_argument("--nodes", type=int, default=2048)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("sweep", help="parameter sweep over (p, q, mu, lambda)")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="verification suite on a stored report")
    p.add_argument("--report", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bubble", help="bubble asymptotics table")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma-separated dyadic eps list")
    p.add_argument("--nodes", type=int, default=1024)
    p.add_argument("--out", default="bubble_table.csv")
    p.set_defaults(fn=cmd_bubble)

    p = sub.add_parser("hls-check", help="randomized HLS bound check")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_hls_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, InvalidParameterError, DegenerateFieldError, CaseMismatchError) as exc:
        _dump_json({"error": str(exc), "kind": type(exc).__name__}, None, sys.stderr)
        return EXIT_INVALID
    except ChoquardError as exc:
        _dump_json({"error": str(exc), "kind": type(exc).__name__}, None, sys.stderr)
        return EXIT_DICHOTOMY
    except OSError as exc:
        _dump_json({"error": str(exc), "kind": "io"}, None, sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
