"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps otflow's public functions from outside the package: each
target is patched in the module where the caller looks it up (for example
`otflow.solver.forward_frames`, not `otflow.forward.forward_frames`, because
the solver imported the name). Modules are resolved with
`importlib.import_module`, since `import otflow.forward` yields the function
`forward` that the package re-exports. A target that does not exist (a
refactor removed or renamed it) is recorded as absent and its metrics read 0.

A span's self time is its duration minus the durations of the spans it
directly encloses. Spans and counters stay in memory until `layer_metrics`
reads them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: [child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.cpu: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total, self.self_time, self.cpu, self.counts):
            table.clear()

    def wrap(self, span: str, fn, on_result=None):
        """fn wrapped in a span; on_result(tracer, result, args) adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer.stack.append(frame)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.cpu[span] += time.process_time() - cpu0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += elapsed
                tracer.calls[span] += 1
                tracer.total[span] += elapsed
                tracer.self_time[span] += elapsed - frame[0]
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        return traced

    def patch(self, module_name: str, attr_path: str, span: str, on_result=None) -> None:
        """Replace module_name.attr_path (a function or Class.method) by a traced one."""
        target = f"{module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original, on_result))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count(key: str, measure):
    def on_result(tracer: Tracer, result, args) -> None:
        tracer.counts[key] += measure(result, args)

    return on_result


def _file_mib(result, args) -> float:
    return os.path.getsize(args[0]) / 2.0**20


def _cg_iterations(result, args) -> float:
    return result.iterations


def _gn_iterations(result, args) -> float:
    return len(result.diagnostics) - 1


def _rk4_steps(result, args) -> float:
    return len(result.points) - 1


def _length(result, args) -> float:
    return len(result)


def _cluster_count(result, args) -> float:
    return len(result.clusters)


# (module where the name is looked up, attribute, span, counter hook)
TARGETS = [
    ("otflow.cli", "true_density", "synth", None),
    ("otflow.cli", "add_noise", "synth", None),
    ("otflow.cli", "write_volume", "dataio.volume_write", _count("volume_write_mib", _file_mib)),
    ("otflow.dataio", "write_volume", "dataio.volume_write", _count("volume_write_mib", _file_mib)),
    ("otflow.cli", "read_volume", "dataio.volume_read", None),
    ("otflow.dataio", "read_volume", "dataio.volume_read", None),
    ("otflow.cli", "write_streamlines_jsonl", "dataio.streamlines_write",
     _count("streamlines_mib", _file_mib)),
    ("otflow.forward", "advection_interp_matrix", "operators.deposit", None),
    ("otflow.solver", "advection_interp_matrix", "operators.deposit", None),
    ("otflow.forward", "advection_weight_gradients", "operators.weight_gradient", None),
    ("otflow.solver", "advection_weight_gradients", "operators.weight_gradient", None),
    ("otflow.forward", "ImplicitDiffusion.apply", "forward.diffusion", None),
    ("otflow.solver", "forward_frames", "forward.sweep", None),
    ("otflow.forward", "jacobi_cg", "linalg.cg", _count("cg_iters", _cg_iterations)),
    ("otflow.cli", "solve", "solver", _count("gn_iters", _gn_iterations)),
    ("otflow.cli", "solve_baseline", "solver", _count("gn_iters", _gn_iterations)),
    ("otflow.cli", "seed_points", "streamlines.seed", _count("seeds", _length)),
    ("otflow.cli", "trace_streamline", "streamlines.trace", _count("rk4_steps", _rk4_steps)),
    ("otflow.cli", "pathway_density", "streamlines.pathway", None),
    ("otflow.streamlines", "interpolate_components", "grid.interp", None),
    ("otflow.cli", "resample_track", "bundles.resample", None),
    ("otflow.cli", "quickbundles", "bundles.quickbundles", _count("clusters", _cluster_count)),
    ("otflow.cli", "cluster_label_volume", "bundles.label", None),
]

# The benchmark opens this span around each in-process CLI stage.
STAGE_SPAN = "cli"


def install(tracer: Tracer) -> None:
    for module_name, attr, span, hook in TARGETS:
        tracer.patch(module_name, attr, span, hook)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded since the last reset."""
    c, s, n = t.counts, t.total, t.calls
    return {
        "synth.volumes": n["synth"],
        "synth.s": s["synth"],
        "dataio.volume_write_mib": c["volume_write_mib"],
        "dataio.volume_write_s": s["dataio.volume_write"],
        "dataio.volume_read_s": s["dataio.volume_read"],
        "dataio.streamlines_mib": c["streamlines_mib"],
        "dataio.streamlines_write_s": s["dataio.streamlines_write"],
        "operators.deposit_builds": n["operators.deposit"],
        "operators.deposit_s": s["operators.deposit"],
        "operators.weight_gradient_builds": n["operators.weight_gradient"],
        "operators.weight_gradient_s": s["operators.weight_gradient"],
        "forward.diffusion_solves": n["forward.diffusion"],
        "forward.diffusion_s": s["forward.diffusion"],
        "forward.sweeps": n["forward.sweep"],
        "forward.sweep_s": s["forward.sweep"],
        "linalg.cg_solves": n["linalg.cg"],
        "linalg.cg_iters": c["cg_iters"],
        "linalg.cg_iters_per_solve": _ratio(c["cg_iters"], n["linalg.cg"]),
        "linalg.cg_s": s["linalg.cg"],
        "solver.gn_iters": c["gn_iters"],
        # every line-search trial is one forward sweep; each accepted one is a GN step
        "solver.accepted_per_trial": _ratio(c["gn_iters"], n["forward.sweep"]),
        "solver.self_s": t.self_time["solver"],
        "solver.cpu_s": t.cpu["solver"],
        "streamlines.seeds": c["seeds"],
        "streamlines.rk4_steps": c["rk4_steps"],
        "streamlines.trace_s": s["streamlines.trace"],
        "streamlines.us_per_step": 1e6 * _ratio(s["streamlines.trace"], c["rk4_steps"]),
        "streamlines.pathway_s": s["streamlines.pathway"],
        "grid.interp_calls": n["grid.interp"],
        "grid.interp_s": s["grid.interp"],
        "bundles.tracks": n["bundles.resample"],
        "bundles.clusters": c["clusters"],
        "bundles.resample_s": s["bundles.resample"],
        "bundles.quickbundles_s": s["bundles.quickbundles"],
        "bundles.label_s": s["bundles.label"],
        "cli.self_s": t.self_time[STAGE_SPAN],
    }


UNITS = {
    "synth.volumes": "count",
    "dataio.volume_write_mib": "MiB",
    "dataio.streamlines_mib": "MiB",
    "operators.deposit_builds": "count",
    "operators.weight_gradient_builds": "count",
    "forward.diffusion_solves": "count",
    "forward.sweeps": "count",
    "linalg.cg_solves": "count",
    "linalg.cg_iters": "count",
    "linalg.cg_iters_per_solve": "count",
    "solver.gn_iters": "count",
    "solver.accepted_per_trial": "ratio",
    "streamlines.seeds": "count",
    "streamlines.rk4_steps": "count",
    "streamlines.us_per_step": "us",
    "grid.interp_calls": "count",
    "bundles.tracks": "count",
    "bundles.clusters": "count",
}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s")
