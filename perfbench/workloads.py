"""The workloads: inputs drawn from the seed, one pass of operations, and
the independent checks of each operation's output.

A pass returns a list of (operation, verdict) pairs.  The verdict is OK;
FAILED when the program itself reports that it could not do the job (a
solve not converged, a nonzero exit code, a package error); or WRONG when
the program reports success but the independent check rejects the
output.  Either way the pass carries on.  Any other exception is a defect
of the benchmark or the program and ends the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

OK, FAILED, WRONG = "ok", "failed", "wrong"


def verdict(succeeded: bool, checked: bool) -> str:
    """Verdict from the program's own claim of success and the independent check."""
    if not succeeded:
        return FAILED
    return OK if checked else WRONG


# ---------------------------------------------------------------------------
# closed forms, written out here so the checks do not rely on the package


def sobolev_constant(n: int) -> float:
    return n * (n - 2) * math.pi * math.exp((2.0 / n) * (math.lgamma(n / 2) - math.lgamma(n)))


def riesz_normalization(n: int, alpha: float) -> float:
    return math.exp(
        math.lgamma((n - alpha) / 2) - math.lgamma(alpha / 2)
        - (n / 2) * math.log(math.pi) - alpha * math.log(2.0)
    )


def hls_constant(n: int, alpha: float) -> float:
    return math.exp(
        ((n - alpha) / 2) * math.log(math.pi) + math.lgamma(alpha / 2)
        - math.lgamma((n + alpha) / 2) - (alpha / n) * (math.lgamma(n / 2) - math.lgamma(n))
    )


def closed_form_constants(n: int, alpha: float) -> dict:
    a, c, s = riesz_normalization(n, alpha), hls_constant(n, alpha), sobolev_constant(n)
    p_upper = (n + alpha) / (n - 2)
    return {
        "S": s,
        "S_alpha": s / (a * c) ** (1.0 / p_upper),
        "S_1": (a * c) ** (-n / (n + alpha)),
        "A_alpha": a,
        "C_alpha": c,
    }


def upper_critical_threshold(n: int, alpha: float, mu: float) -> float:
    s_alpha = closed_form_constants(n, alpha)["S_alpha"]
    return (
        (2.0 + alpha) / (2.0 * (n + alpha))
        * mu ** (-(n - 2.0) / (2.0 + alpha))
        * s_alpha ** ((n + alpha) / (2.0 + alpha))
    )


def constants_match(doc: dict, n: int, alpha: float, rel: float = 1e-3) -> bool:
    want = closed_form_constants(n, alpha)
    return doc.get("S_alpha_consistency") is True and all(
        math.isclose(doc[key], value, rel_tol=rel) for key, value in want.items()
    )


# ---------------------------------------------------------------------------
# n3_batch: a desk session at N=3, alpha=2 with closed-form kernels.
#
# Many short operations, each of which rebuilds its grid and kernel (the
# sweep and verify rebuild per cell; the lambda_0 search per margin), for
# only a few distinct grids; the fixed cost of each solve also counts.  No
# continuation and no hypergeometric kernel runs here.
#
# A cell's cost varies irregularly with (p, q): most take 20-100
# iterations, about one in a hundred takes hundreds or close to max_iter.
# A measurement is therefore five sessions on independently drawn axes,
# and the median session is reported.

N3_CELL_TOL = 1e-6


def n3_inputs(seed: int, index: int) -> dict:
    """Sweep axes of pass `index`: one uniform draw from each of k equal
    strata of a range, so the cells cover it evenly."""
    rng = random.Random(f"{seed}/{index}")

    def draws(lo: float, hi: float, k: int) -> list[float]:
        width = (hi - lo) / k
        return [round(rng.uniform(lo + i * width, lo + (i + 1) * width), 6) for i in range(k)]

    return {"p": draws(1.75, 4.0, 4), "q": draws(2.3, 5.0, 3), "mu": [1.0], "lambda": [0.5, 1.0]}


def _cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, its stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cell_identities_hold(doc: dict) -> bool:
    bd = doc["breakdown"]
    return (
        abs(doc["P"]) <= 1e-5 * (bd["kinetic"] + bd["mass"])
        and doc["residual_norm"] <= N3_CELL_TOL
    )


def _search_verdict() -> str:
    """Acceptance criterion 6b: the lambda_0 phenomenon at N=3, p=5, q=3."""
    from choquard.errors import ChoquardError
    from choquard.extremals import critical_parameter_search, threshold_check
    from choquard.functionals import Params

    eps = [2.0**-k for k in range(2, 7)]
    base = Params(N=3, alpha=2.0, p=5.0, q=3.0, mu=1.0, lam=1.0)
    try:
        at_one = threshold_check(base, "upper-critical-p", eps, num_nodes=1024)
        result = critical_parameter_search(
            base, "lambda", "upper-critical-p", eps, bracket=(1.0, 1e6), num_nodes=1024
        )
        at_found = threshold_check(
            base.with_(lam=result.value), "upper-critical-p", eps, num_nodes=1024
        )
    except ChoquardError:
        return FAILED
    return verdict(True, (
        max(row.margin for row in at_one.families["bubble"]) <= 0
        and result.value > 0
        and result.bracket_width < 0.1 * result.value
        and max(row.margin for row in at_found.families["bubble"]) > 0
    ))


def n3_setup():
    return None


def n3_pass(state, work: Path, seed: int, index: int) -> dict:
    from choquard import cli

    axes = n3_inputs(seed, index)
    n_cells = len(axes["p"]) * len(axes["q"]) * len(axes["mu"]) * len(axes["lambda"])
    ops: list[tuple[str, str]] = []
    stdout_bytes = 0

    code, text = _cli(cli, ["constants", "--N", "3", "--alpha", "2"])
    stdout_bytes += len(text.encode())
    matches = code == 0 and constants_match(json.loads(text), 3, 2.0)
    ops.append(("constants", verdict(code == 0, matches)))

    sweep_dir = work / "sweep"
    config = {
        "params": {"N": 3, "alpha": 2.0, "p": axes["p"][0], "q": axes["q"][0],
                   "mu": 1.0, "lambda": 1.0},
        "grid": {"rmax": 30.0, "M": 2048, "scheme": "graded", "gamma": 2.0},
        "solve": {"tol_residual": N3_CELL_TOL, "max_iter": 2000},
        "output_dir": str(sweep_dir),
        "seed": seed,
        "sweep": {**axes, "parallelism": 1},
    }
    config_path = work / "sweep.json"
    config_path.write_text(json.dumps(config))
    # exit 2 (some cell not converged) is data; the cells are checked below
    code, _ = _cli(cli, ["sweep", "--config", str(config_path)])
    reports = sorted(sweep_dir.glob("cell_*/report.json")) if code in (0, 2) else []
    docs = [json.loads(path.read_text()) for path in reports]
    for doc in docs:
        converged = doc["status"] == "converged"
        ops.append(("sweep_cell", verdict(converged, _cell_identities_hold(doc))))
    ops.extend(("sweep_cell", FAILED) for _ in range(n_cells - len(reports)))

    for path, doc in zip(reports, docs):
        code, text = _cli(cli, ["verify", "--report", str(path)])
        stdout_bytes += len(text.encode())
        ops.append(("verify", verdict(code == 0, _cell_identities_hold(doc))))
    ops.extend(("verify", FAILED) for _ in range(n_cells - len(reports)))

    ops.append(("lambda0_search", _search_verdict()))

    written = sum(f.stat().st_size for f in sweep_dir.rglob("*") if f.is_file())
    return {"ops": ops, "inputs": {"sweep_axes": axes}, "output_bytes": stdout_bytes + written}


# ---------------------------------------------------------------------------
# n4_continuation: the acceptance criterion 8 continuations, independent
# of the seed.
#
# Two p-upper continuations on one N=4, alpha=1 grid whose dense
# hypergeometric kernel is built once in set-up; thousands of kernel
# applies dominate, and the lambda=0 steps run to max_iter before the
# sequence is classified concentrating.
#
# The grid is M=2048 on rmax=12 rather than criterion 8's M=4096 on
# rmax=16.  The M=4096 kernel is 134 MB, and whether it stays in the
# host's shared last-level cache depends on other tenants: on a 2-vCPU
# Xeon, back-to-back applies of it spread 22% (IQR over median of 0.8 s
# blocks) against 9% for the 33.5 MB M=2048 kernel, and whole passes
# drifted by a third between runs of the same code.  At M=2048 the
# criterion 8 checks still hold only with the smaller rmax (on rmax=16
# the last three lambda=1 steps stop at max_iter).

N4_START = {"N": 4, "alpha": 1.0, "p": 2.0, "q": 3.0, "mu": 1.0}
N4_GRID = {"rmax": 12.0, "M": 2048}


def n4_setup():
    from choquard.grid import build_grid
    from choquard.riesz import kernel_for

    grid = build_grid(4, N4_GRID["rmax"], N4_GRID["M"], scheme="graded")
    kernel_for(grid, 1.0)
    return grid


def _half_mass_radius(r: np.ndarray, u: np.ndarray, n: int) -> float:
    density = u**2 * r ** (n - 1)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(r))))
    return float(np.interp(0.5 * cum[-1], cum, r))


def _concentrates(reports) -> bool:
    """Sup norm up tenfold and half-mass radius down threefold, first to last."""
    first, last = reports[0].profile, reports[-1].profile
    n = first.grid.dimension
    r = first.grid.nodes
    growth = np.max(np.abs(last.values)) / np.max(np.abs(first.values))
    shrink = _half_mass_radius(r, first.values, n) / _half_mass_radius(r, last.values, n)
    return bool(growth > 10.0 and shrink > 3.0)


def _levels_verdict(reports) -> str:
    levels = [rep.J for rep in reports]
    diffs = [abs(b - a) for a, b in zip(levels, levels[1:])]
    return verdict(
        all(rep.status == "converged" for rep in reports),
        all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        and 0.0 < levels[-1] < upper_critical_threshold(4, 1.0, 1.0),
    )


def _dichotomy_verdict(reports) -> str:
    from choquard.solver import detect_dichotomy

    return verdict(detect_dichotomy(reports) == "concentrating", _concentrates(reports))


def n4_pass(grid, work: Path, seed: int, index: int) -> dict:
    from choquard.errors import ChoquardError
    from choquard.functionals import Params
    from choquard.solver import SolveOptions, continue_exponent

    opts = SolveOptions(max_iter=600)
    ops = []
    for lam, judge in ((1.0, _levels_verdict), (0.0, _dichotomy_verdict)):
        name = f"continuation_lambda{lam:g}"
        try:
            reports = continue_exponent(Params(**N4_START, lam=lam), "p-upper", 6, opts, grid)
        except ChoquardError:
            ops.append((name, FAILED))
            continue
        ops.append((name, judge(reports)))
    inputs = {"start": N4_START, "grid": N4_GRID, "lambda": [1.0, 0.0]}
    return {"ops": ops, "inputs": inputs, "output_bytes": 0}


# name: (set-up, pass, sessions with distinct inputs per round, passes per
# session).  An n3_batch session is one desk session, so it gets a fresh
# interpreter with empty caches.  n4_continuation's pass reads no seed and
# reuses only the kernel built in set-up, so one session repeats it and the
# run's time goes to passes rather than to rebuilding that kernel.
WORKLOADS = {
    "n3_batch": (n3_setup, n3_pass, 5, 1),
    "n4_continuation": (n4_setup, n4_pass, 1, 5),
}
