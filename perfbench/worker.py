"""One session of one workload, in a fresh interpreter: set-up, then passes.

Started by run.py.  Imports the package and builds what the workload
reuses (set-up), then runs the pass --repeat times and writes a JSON
record to --out: the CLOCK_MONOTONIC time set-up ended (run.py reads the
same clock, so set-up time includes interpreter start-up), each pass's
wall time and operation count, the operations and their verdicts, peak
RSS, and, with --trace 1, the per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import choquard.cli  # the whole package, as the CLI loads it


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import blas
    from spans import Tracer
    from workloads import WORKLOADS

    setup, run_pass = WORKLOADS[args.workload][:2]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    state = setup()
    record = {"t_ready": clock(), "package": choquard.__file__, "pass_index": args.pass_index}
    if not args.setup_only:
        record.update(pass_walls=[], pass_ops=[], ops=[])
        for rep in range(args.repeat):
            work = Path(args.out).parent / f"{Path(args.out).stem}-work{rep}"
            work.mkdir()
            t_start = clock()
            result = run_pass(state, work, args.seed, args.pass_index)
            record["pass_walls"].append(clock() - t_start)
            record["pass_ops"].append(len(result["ops"]))
            record["ops"].extend(result["ops"])
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["inputs"] = result["inputs"]
        record["environment"] = blas.environment()
        if tracer is not None:
            layers = tracer.metrics()
            layers["cli.output_bytes"] = result["output_bytes"]
            layers.update(blas.apply_timings(tracer))
            record["layers"] = layers
            record["convolve_counts_agree"] = tracer.convolve_counts_agree()
            record["bound_names"] = dict(tracer.rebinds)
    Path(args.out).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
