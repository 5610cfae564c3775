"""Per-layer tracing from outside the package.

Every public function a layer exposes is wrapped where its callers bind
it: the wrapper replaces each attribute of a loaded `choquard` module that
is the original object, so `from .riesz import kernel_for` in the solver
sees the wrapper too.  Each wrapped call records a span (name, start, end,
parent span) in memory; counts and busy time per layer are aggregated from
the spans when the pass ends.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import weakref
from collections import Counter

SOLVER_STATUSES = ("converged", "max_iter", "stalled", "concentrating", "vanishing")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.rebinds: Counter = Counter()
        self._seen_kernels: weakref.WeakSet = weakref.WeakSet()
        self._kernel_specs: set = set()
        self.largest_kernel = None
        self.plain_convolve = None

    # -- spans ---------------------------------------------------------------
    def _begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, after=None):
        """Timed, counted stand-in for fn; after(result, args, kwargs, span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if after is not None:
                after(result, args, kwargs, idx)
            return result

        return wrapper

    # -- installation --------------------------------------------------------
    def rebind(self, original, replacement) -> None:
        """Replace original at every name a loaded choquard module binds."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "choquard" or mod_name.startswith("choquard.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.rebinds[original.__name__] += 1

    def install(self) -> None:
        from choquard import cli, extremals, functionals, grid, riesz, solver, verify

        for mod, fn_name, span in (
            (grid, "build_grid", "grid.build_grid"),
            (grid, "h1_solve", "grid.h1_solve"),
            (grid, "write_profile_csv", "cli.write_profile_csv"),
            (functionals, "project_tau", "functionals.project_tau"),
            (functionals, "dilate", "functionals.dilate"),
            (functionals, "breakdown", "functionals.breakdown"),
            (solver, "continue_exponent", "solver.continue_exponent"),
            (extremals, "sharp_constants", "extremals.sharp_constants"),
            (extremals, "threshold_check", "extremals.threshold_check"),
            (extremals, "critical_parameter_search", "extremals.critical_parameter_search"),
            (verify, "run_verification", "verify.run_verification"),
            (cli, "cmd_sweep", "cli.sweep"),
            (cli, "cmd_verify", "cli.verify"),
            (cli, "cmd_constants", "cli.constants"),
        ):
            original = getattr(mod, fn_name)
            self.rebind(original, self.wrap(span, original))

        original = riesz.angular_kernel
        self.rebind(original, self.wrap("riesz.angular_kernel", original, self._after_angular))
        original = riesz.kernel_for
        self.rebind(original, self.wrap("riesz.kernel_for", original, self._after_kernel_for))
        original = solver.ground_state
        self.rebind(original, self._ground_state_wrapper(original))

        # Methods are wrapped on the class; kernel_for's wrapper adds a
        # second, counting-only layer on each instance it hands out.
        kernel_cls = riesz.RieszKernel
        self.plain_convolve = kernel_cls.convolve
        kernel_cls.convolve = self.wrap("riesz.convolve", kernel_cls.convolve, self._after_convolve)
        kernel_cls.bilinear = self.wrap("riesz.bilinear", kernel_cls.bilinear)

    # -- per-layer hooks -----------------------------------------------------
    def _after_angular(self, result, args, kwargs, idx) -> None:
        self.counts["riesz.angular_kernel.evals"] += int(getattr(result, "size", 1))

    def _after_kernel_for(self, kernel, args, kwargs, idx) -> None:
        if kernel in self._seen_kernels:
            return
        self._seen_kernels.add(kernel)
        self.counts["riesz.kernel_build.count"] += 1
        self.counts["riesz.kernel_build.s"] += self.ends[idx] - self.starts[idx]
        nodes = kernel.grid.nodes
        spec = (kernel.dimension, kernel.alpha, hashlib.sha1(nodes.tobytes()).hexdigest())
        if spec in self._kernel_specs:
            self.counts["riesz.kernel_build.redundant"] += 1
        self._kernel_specs.add(spec)
        nbytes = kernel.reduced_kernel.nbytes
        if self.largest_kernel is None or nbytes > self.largest_kernel.reduced_kernel.nbytes:
            self.largest_kernel = kernel
        cls_convolve = type(kernel).convolve

        def counted_convolve(values):
            self.counts["riesz.convolve.calls_at_bound_names"] += 1
            return cls_convolve(kernel, values)

        object.__setattr__(kernel, "convolve", counted_convolve)

    def _after_convolve(self, result, args, kwargs, idx) -> None:
        kernel = args[0]
        m = kernel.grid.node_count
        # kernel matrix plus input, weight and output vectors, float64
        self.counts["riesz.convolve.bytes_computed"] += kernel.reduced_kernel.nbytes + 3 * 8 * m

    def _ground_state_wrapper(self, original):
        def after(report, args, kwargs, idx):
            opts = args[2] if len(args) > 2 else kwargs["opts"]
            status = report.status
            if status == "max_iter" and report.iterations < opts.max_iter:
                status = "stalled"
            self.counts[f"solver.status.{status}"] += 1
            self.counts["solver.iterations.total"] += report.iterations
            if report.status == "converged":
                self.counts["solver.iterations.useful"] += report.iterations

        timed = self.wrap("solver.ground_state", original, after)

        @functools.wraps(original)
        def ground_state(params, init, opts, trace=None):
            records = [] if trace is None else trace
            mark = len(records)
            report = timed(params, init, opts, records)
            for rec in records[mark:]:
                self.counts[f"solver.iterations.{rec['phase']}"] += 1
            return report

        return ground_state

    # -- aggregation ---------------------------------------------------------
    def metrics(self) -> dict:
        busy: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            busy[name] += dur
            calls[name] += 1
            parent = self.parents[idx]
            if parent >= 0:
                child[parent] += dur
        gs_self = sum(
            self.ends[i] - self.starts[i] - child[i]
            for i, name in enumerate(self.names)
            if name == "solver.ground_state"
        )
        c = self.counts
        out = {}
        for name in (
            "riesz.kernel_for", "riesz.convolve", "riesz.bilinear", "grid.build_grid",
            "grid.h1_solve", "functionals.project_tau", "functionals.dilate",
            "functionals.breakdown", "solver.ground_state", "extremals.threshold_check",
            "verify.run_verification",
        ):
            out[f"{name}.calls"] = calls[name]
        for name in (
            "riesz.angular_kernel", "riesz.convolve", "riesz.bilinear", "grid.build_grid",
            "grid.h1_solve", "functionals.project_tau", "functionals.dilate",
            "functionals.breakdown", "solver.ground_state", "solver.continue_exponent",
            "extremals.sharp_constants", "extremals.threshold_check",
            "extremals.critical_parameter_search", "verify.run_verification", "cli.sweep",
            "cli.verify", "cli.constants", "cli.write_profile_csv",
        ):
            out[f"{name}.s"] = busy[name]
        builds = c["riesz.kernel_build.count"]
        lookups = calls["riesz.kernel_for"]
        conv_calls = calls["riesz.convolve"]
        conv_s = busy["riesz.convolve"]
        out.update({
            "riesz.kernel_build.count": builds,
            "riesz.kernel_build.s": c["riesz.kernel_build.s"],
            "riesz.kernel_build.redundant": c["riesz.kernel_build.redundant"],
            "riesz.kernel_cache.hit_ratio": (lookups - builds) / lookups if lookups else 0.0,
            "riesz.angular_kernel.evals": c["riesz.angular_kernel.evals"],
            "riesz.convolve.ms_per_call": 1e3 * conv_s / conv_calls if conv_calls else 0.0,
            "riesz.convolve.bytes_computed": c["riesz.convolve.bytes_computed"],
            "riesz.convolve.gbps_computed": (
                c["riesz.convolve.bytes_computed"] / conv_s / 1e9 if conv_s else 0.0
            ),
            "riesz.kernel_bytes.max": (
                self.largest_kernel.reduced_kernel.nbytes if self.largest_kernel else 0
            ),
            "solver.ground_state.self_s": gs_self,
            "solver.iterations.projected": c["solver.iterations.projected"],
            "solver.iterations.polish": c["solver.iterations.polish"],
            # no iterations at all wastes none
            "solver.useful_iteration_ratio": (
                c["solver.iterations.useful"] / c["solver.iterations.total"]
                if c["solver.iterations.total"] else 1.0
            ),
        })
        for status in SOLVER_STATUSES:
            out[f"solver.status.{status}"] = c[f"solver.status.{status}"]
        return out

    def convolve_counts_agree(self) -> bool:
        """Calls seen on kernels handed out by kernel_for equal calls on the class."""
        return self.counts["riesz.convolve.calls_at_bound_names"] == self.names.count(
            "riesz.convolve"
        )
