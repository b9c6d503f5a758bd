#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the otflow pipeline.

    python3 benchmarks/run.py --workload denoise2d --seed 202 --seconds 30 --trace 0

One process, one client, closed loop: `otflow.cli.main` runs in-process for
synth -> solve -> fpa -> compare, each stage starting when the previous one
returns. After one untimed warm-up repetition, whole repetitions run as long
as they fit in `--seconds` (at least three). `solve_s`, `fpa_s` and
`pipeline_s` are the 90th percentile of the timed calls, since the host's
speed alternates between a common slow state and fast phases whose share of a
run moves its median (see README.md). `setup_s` is the median over several
fresh interpreters that import otflow and run `otflow synth`, after one
untimed launch.

With `--trace 1` the same loop runs with the layers wrapped (see layers.py)
and the per-layer metrics are printed instead. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

The program is imported from `src/` of the checkout that holds this file,
and every file the run writes goes under `.bench_runs/` there.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import layers  # noqa: E402

DEFAULT_SEED = 202
MIN_REPS = 3
SETUP_LAUNCHES = 7
LAUNCH = "import sys\nfrom otflow.cli import main\nsys.exit(main(sys.argv[1:]))"


@dataclass(frozen=True)
class Workload:
    """Synthetic spec and run configuration, minus the seed and the paths."""

    spec: dict
    config: dict
    compare_baseline: bool
    # extra `fpa` calls after each untraced pass, so that the short stage gets
    # about as many seconds of samples per run as the solve
    fpa_repeats: int = 0


WORKLOADS = {
    # C05's case: diffusion solves inside the GN Hessian products dominate.
    "denoise2d": Workload(
        spec={
            "dims": [32, 32], "spacing": [1 / 32, 1 / 32],
            "blobs": [{"center": [0.42, 0.5], "width": 0.125, "mass": 1.0}],
            "velocity": {"kind": "constant", "value": [3 / 32, 0.0]},
            "noise_std": 5e-4,  # 5 % of the initial peak
        },
        config={
            "sigma": 0.05, "alpha": 0.3, "time_steps": 4, "max_gn_iters": 8,
            "seed_quantile": 0.85, "streamline_step": 1 / 16,
        },
        compare_baseline=True,
        fpa_repeats=1,
    ),
    # Fixed-endpoint baseline: no diffusion, unit mass, stiff endpoint penalty.
    "baseline2d": Workload(
        spec={
            "dims": [64, 64], "spacing": [1 / 64, 1 / 64],
            "blobs": [{"center": [0.42, 0.5], "width": 0.125, "mass": 1.0}],
            "velocity": {"kind": "constant", "value": [6 / 64, 0.0]},
            "noise_std": 1.25e-4,  # 5 % of the initial peak
        },
        config={
            "baseline_mode": True, "alpha": 0.3, "time_steps": 4, "max_gn_iters": 20,
            "seed_quantile": 0.97, "streamline_step": 1 / 20,
        },
        compare_baseline=False,
        fpa_repeats=2,
    ),
    # Two blobs rotating in the axis-0/1 plane: RK4 tracing dominates.
    "pathways3d": Workload(
        spec={
            "dims": [24, 24, 24], "spacing": [1 / 24, 1 / 24, 1 / 24],
            "blobs": [
                {"center": [0.32, 0.5, 0.5], "width": 0.08, "mass": 0.5},
                {"center": [0.68, 0.5, 0.5], "width": 0.08, "mass": 0.5},
            ],
            "velocity": {"kind": "rotation", "center": [0.5, 0.5, 0.5], "rate": 0.6},
            "noise_std": 2.25e-5,  # 0.5 % of the initial peak
        },
        config={
            "sigma": 0.002, "alpha": 0.3, "time_steps": 3, "max_gn_iters": 2,
            "seed_quantile": 0.987, "streamline_step": 1 / 24,
        },
        compare_baseline=False,
    ),
}


class Run:
    """Files and CLI argument lists of one workload's pipeline in `base`."""

    def __init__(self, workload: Workload, seed: int, base: Path):
        self.workload = workload
        self.base = base
        self.data = base / "data"
        self.out = base / "out"
        self.spec_path = base / "spec.json"
        self.config_path = base / "config.json"
        self.spec = dict(workload.spec, rng_seed=seed % 2**32)
        steps = workload.config["time_steps"]
        self.config = dict(
            workload.config,
            output_dir=str(self.out),
            observations=[
                {"time_index": 0, "path": str(self.data / "obs_t0.nii")},
                {"time_index": steps, "path": str(self.data / "obs_t1.nii")},
            ],
        )
        self.final = self.out / f"clean_t{steps}.nii"

    def write_inputs(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.spec_path.write_text(json.dumps(self.spec, indent=2, sort_keys=True))
        self.config_path.write_text(json.dumps(self.config, indent=2, sort_keys=True))

    def clear_outputs(self) -> None:
        shutil.rmtree(self.data, ignore_errors=True)
        shutil.rmtree(self.out, ignore_errors=True)

    def stages(self) -> list[tuple[str, list[str], tuple[int, ...]]]:
        """(stage, argv, accepted exit codes).

        `solve` runs a fixed GN budget and exits 2 when the budget ends before
        the gradient test, which no run here reaches; that is a finished solve.
        """
        compare = ["compare", str(self.final), str(self.data / "truth_t1.nii"),
                   "--csv", str(self.out / "report.csv")]
        if self.workload.compare_baseline:
            compare += ["--baseline", "--config", str(self.config_path)]
        return [
            ("synth", ["synth", str(self.spec_path), "--out", str(self.data)], (0,)),
            ("solve", ["solve", "--config", str(self.config_path)], (0, 2)),
            ("fpa", ["fpa", "--config", str(self.config_path)], (0,)),
            ("compare", compare, (0,)),
        ]


def import_program():
    """Import otflow from this checkout's src/, refusing any other copy."""
    package = SRC / "otflow"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("otflow.cli")
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported otflow from {cli.__file__}, not {package}")
    return cli


def time_setup(run: Run, launches: int) -> tuple[list[float], int]:
    """Wall times of fresh `otflow synth` launches after one untimed launch.

    Returns the times and the number of launches that failed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", LAUNCH, "synth", str(run.spec_path), "--out", str(run.data)]
    times, failed = [], 0
    for i in range(launches + 1):
        shutil.rmtree(run.data, ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        elif i > 0:
            times.append(elapsed)
    return times, failed


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_stages(cli, run: Run, tracer, fpa_repeats: int = 0) -> tuple[dict[str, list[float]], int]:
    """One repetition: the pipeline once, then `fpa_repeats` more `fpa` calls.

    The repeated `fpa` rewrites the same files from the same solve outputs.
    Returns the times of each stage's calls, in order, and the failed calls.
    """
    run.clear_outputs()
    stages = run.stages()
    stages += [s for s in stages if s[0] == "fpa"] * fpa_repeats
    times: dict[str, list[float]] = {}
    failed = 0
    main = cli.main if tracer is None else tracer.wrap(layers.STAGE_SPAN, cli.main)
    for stage, argv, ok_codes in stages:
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        times.setdefault(stage, []).append(time.perf_counter() - t0)
        if code not in ok_codes:
            failed += 1
            print(f"{stage} exited {code}", file=sys.stderr)
    return times, failed


def check_outputs(run: Run) -> tuple[float, list[str]]:
    """Correctness checks on one repetition; returns clean_mse and failures."""
    synth = importlib.import_module("otflow.synth")
    dataio = importlib.import_module("otflow.dataio")
    spec = dataio.read_synth_spec(run.spec_path)
    truth = synth.true_density(spec, spec.observe_times[-1]).values
    clean_mse = checks.mse(checks.read_nifti(run.final)[2], truth)

    errors = checks.check_clean_series(run.out, unit_mass=bool(run.config.get("baseline_mode")))
    errors += checks.check_phi_nonincreasing(run.out / "diagnostics.csv")
    if run.workload.compare_baseline:
        obs = checks.read_nifti(run.data / "obs_t1.nii")[2]
        baseline_mse = checks.compare_report(run.out / "report.csv")[("baseline", "mse")]
        errors += checks.check_denoising(clean_mse, checks.mse(obs, truth), baseline_mse)
    lines = checks.read_streamlines(run.out / "streamlines.jsonl")
    dims, spacing, _ = checks.read_nifti(run.out / "pathways.nii")
    errors += checks.check_streamlines_in_domain(lines, dims, spacing)
    errors += checks.check_pathways(lines, run.out / "pathways.nii")
    errors += checks.check_clusters(run.out / "clusters.json", len(lines))
    return clean_mse, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    run = Run(WORKLOADS[args.workload], args.seed, RUNS / args.workload)
    run.write_inputs()

    attempted = failed = 0
    errors: list[str] = []
    setup_times: list[float] = []
    launched: dict[str, str] = {}
    if not args.trace:
        setup_times, failed = time_setup(run, SETUP_LAUNCHES)
        attempted = SETUP_LAUNCHES + 1
        if run.data.exists():
            launched = checks.tree_digest(run.data)

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)

    samples: list[dict[str, float]] = []
    fpa_times: list[float] = []
    # the traced run keeps one fpa per pass, so its counts are per pipeline
    fpa_repeats = 0 if args.trace else run.workload.fpa_repeats
    first_tree = None
    timed = last = 0.0
    # repetition 0 is the warm-up; whole repetitions only, and none that
    # would run past --seconds once MIN_REPS are timed
    for rep in itertools.count():
        if rep > MIN_REPS and timed + last > args.seconds:
            break
        if tracer is not None:
            tracer.reset()
        times, rep_failed = run_stages(cli, run, tracer, fpa_repeats if rep else 0)
        attempted += sum(map(len, times.values()))
        failed += rep_failed
        last = sum(map(sum, times.values()))
        if rep > 0:
            timed += last
        if rep_failed:
            continue
        clean_mse, rep_errors = check_outputs(run)
        errors += rep_errors
        tree = checks.tree_digest(run.base)
        if first_tree is None:
            first_tree = tree
            if not args.trace and checks.tree_digest(run.data) != launched:
                errors.append("a launched synth wrote other files than the in-process one")
        else:
            errors += checks.check_same_tree(first_tree, tree)
        if rep == 0:
            continue
        sample = {f"{stage}_s": t[0] for stage, t in times.items()}
        sample["pipeline_s"] = sum(t[0] for t in times.values())
        fpa_times += times["fpa"]
        sample["clean_mse"] = clean_mse
        if tracer is not None:
            sample.update(layers.layer_metrics(tracer))
        samples.append(sample)
    if not samples:
        raise SystemExit("error: every timed repetition had a failed stage")

    def median(name: str) -> float:
        return statistics.median(s[name] for s in samples)

    if tracer is not None:
        tracer.unpatch()
        for target in tracer.absent:
            print(f"absent: {target}", file=sys.stderr)
        print(f"traced pipeline_s {p90([s['pipeline_s'] for s in samples])!r}",
              file=sys.stderr)
        metrics = {
            name: {"value": median(name), "unit": layers.unit(name)}
            for name in layers.layer_metrics(tracer)
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": p90([s["solve_s"] for s in samples]), "unit": "s"},
            "fpa_s": {"value": p90(fpa_times), "unit": "s"},
            "pipeline_s": {"value": p90([s["pipeline_s"] for s in samples]), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "clean_mse": {"value": median("clean_mse"), "unit": "mass2"},
        }
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(samples)} timed repetitions after 1 warm-up; pipeline_s "
          + " ".join(f"{s['pipeline_s']:.3f}" for s in samples)
          + "; solve_s " + " ".join(f"{s['solve_s']:.3f}" for s in samples)
          + "; fpa_s " + " ".join(f"{t:.3f}" for t in fpa_times), file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
