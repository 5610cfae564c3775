"""Benchmark of the choquard package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload n3_batch --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is taken from `src/` next to this
directory.  A workload runs in sessions: fresh interpreters (so the
package's caches start empty, as in a CLI run) started by this script with
BLAS limited to the CPUs this process may use and sweeps serial.  A
workload names how many sessions, each on its own inputs, make one round,
and how many passes each session makes after its set-up; rounds repeat
until --seconds of pass time are measured, at least once, and timings are
medians over the passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass and prints the per-layer metrics of the traced one, with
the tracing overhead.  Non-final stdout lines describe the host, the
inputs and the raw samples; the last line is the result object.

`failed` counts operations the program reported it could not do (a solve
not converged, a nonzero exit code) plus outputs the independent checks
reject; `correct` is false only for the latter, or when the traced
self-check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up samples per measurement: sessions count, probes add the rest.
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
DEFAULT_SEED = 1  # fixed before any outcome was seen; do not re-seed to hide failures


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        CHOQUARD_PARALLELISM="1",
    )
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed, self.work, self.deadline = workload, seed, work, deadline
        self.count = 0

    def spawn(
        self, index: int = 0, repeat: int = 1, trace: int = 0, setup_only: bool = False
    ) -> dict:
        self.count += 1
        out = self.work / f"worker{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--pass-index", str(index), "--repeat", str(repeat),
            "--trace", str(trace), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = clock()
        proc = subprocess.run(
            cmd, env=child_env(), cwd=self.work, stdout=subprocess.DEVNULL,
            timeout=max(self.deadline - t_spawn, 1.0),
        )
        if proc.returncode != 0:
            raise SystemExit(f"worker exited with code {proc.returncode}")
        record = json.loads(out.read_text())
        if Path(record["package"]).resolve().parent != SRC / "choquard":
            raise SystemExit(f"worker imported choquard from {record['package']}")
        record["setup_s"] = record["t_ready"] - t_spawn
        return record


def tally(sessions: list[dict]) -> Counter:
    """Operations per verdict (ok, failed, wrong) over the sessions."""
    return Counter(verdict for rec in sessions for _, verdict in rec["ops"])


def pass_walls(sessions: list[dict]) -> list[float]:
    return [wall for rec in sessions for wall in rec["pass_walls"]]


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[float]]:
    per_round, repeat = WORKLOADS[runner.workload][2:]
    sessions: list[dict] = []
    while not sessions or len(sessions) % per_round or sum(pass_walls(sessions)) < seconds:
        sessions.append(runner.spawn(index=len(sessions) % per_round, repeat=repeat))
    setups = [rec["setup_s"] for rec in sessions]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(setup_only=True)["setup_s"])
    metrics = {
        "wall_s": (statistics.median(pass_walls(sessions)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        # every operation, failed ones too: which ones fail depends on the
        # seed, and the result's `failed` count reports them
        "ops_per_s": (statistics.median(
            ops / wall for rec in sessions for ops, wall in zip(rec["pass_ops"], rec["pass_walls"])
        ), "1/s"),
        "peak_rss_mb": (max(rec["peak_rss_mb"] for rec in sessions), "MB"),
    }
    return metrics, sessions, setups


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if "bytes" in name:
        return "bytes"
    if last.startswith("gbps"):
        return "GB/s"
    if last.startswith("ms"):
        return "ms"
    if last == "s" or last.endswith("_s"):
        return "s"
    if "ratio" in last:
        return "ratio"
    return "count"


def measure_traced(runner: Runner) -> tuple[dict, list[dict], list[float]]:
    plain = runner.spawn()
    traced = runner.spawn(trace=1)
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["pass_walls"][0]
    layers["trace.overhead_s"] = traced["pass_walls"][0] - plain["pass_walls"][0]
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    return metrics, [plain, traced], [plain["setup_s"], traced["setup_s"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "choquard" / "__init__.py").is_file():
        print(f"no choquard package under {SRC}", file=sys.stderr)
        return 2

    deadline = clock() + DEADLINE_S
    work_root = ROOT / ".bench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work, deadline)
        if args.trace:
            metrics, sessions, setups = measure_traced(runner)
        else:
            metrics, sessions, setups = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    counts = tally(sessions)
    selfcheck = all(rec.get("convolve_counts_agree", True) for rec in sessions)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": sessions[0]["environment"],
        "inputs": {rec["pass_index"]: rec["inputs"] for rec in sessions},
        "pass_wall_s": pass_walls(sessions),
        "setup_s_samples": setups,
        "verdicts": dict(counts),
        "not_ok": dict(Counter(
            f"{name}:{v}" for rec in sessions for name, v in rec["ops"] if v != "ok"
        )),
        "convolve_counts_agree": selfcheck,
        "bound_names": sessions[-1].get("bound_names"),
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": counts["wrong"] == 0 and selfcheck,
        "attempted": sum(counts.values()),
        "failed": counts["failed"] + counts["wrong"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
