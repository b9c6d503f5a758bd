"""Command-line pipeline: synth -> solve -> fpa -> compare.

`solve` recovers the velocity trajectory and clean densities from observed
volumes; `fpa` turns a solve's outputs into streamlines, a pathway volume,
and streamline clusters; `synth` writes synthetic ground truth plus noisy
observations; `compare` reports registration errors between volumes or
density series. Every subcommand validates its inputs under --dry-run
without computing, and all outputs are byte-deterministic.

Exit codes: 0 success, 1 input/validation/runtime failure, 2 solve stopped
at its iteration cap or on a failed line search, before reaching its
convergence tolerance (outputs still written).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .bundles import cluster_label_volume, quickbundles, resample_tracks, significant_clusters
from .dataio import (
    RunConfig,
    _json_dump,
    read_config,
    read_synth_spec,
    read_velocity_series,
    read_volume,
    write_clusters_json,
    write_streamlines_jsonl,
    write_velocity_series,
    write_volume,
)
from .errors import GridMismatchError, OTFlowError
from .forward import DensitySeries
from .solver import (
    ObservationEntry,
    ObservationSet,
    check_schedule,
    registration_errors,
    solve,
    solve_baseline,
)
from .streamlines import pathway_density, seed_points, trace_streamlines
from .synth import add_noise, true_density

__all__ = ["main"]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_observations(cfg: RunConfig) -> ObservationSet:
    entries = []
    for ref in cfg.observations:
        grid, field = read_volume(ref.path)
        if entries and grid != entries[0].observed.grid:
            raise GridMismatchError(
                f"{ref.path} has grid {grid}, expected {entries[0].observed.grid}"
            )
        entries.append(ObservationEntry(ref.time_index, field, ref.weight))
    return ObservationSet(entries)


_NUMBERED_RE = re.compile(r"(clean_t\d+|velocity_t\d+_c\d+)\.nii$")


def cmd_solve(args) -> int:
    cfg = read_config(args.config)
    out = Path(cfg.output_dir)
    if args.dry_run:
        print(cfg.to_json(), end="")
        print(f"plan: read {len(cfg.observations)} observation volumes, "
              f"write clean_t0..clean_t{cfg.time_steps}.nii, velocity series, "
              f"diagnostics.csv and resolved_config.json under {out}")
        for ref in cfg.observations:
            if not Path(ref.path).exists():
                return _fail(f"observation volume not found: {ref.path}")
        return 0
    obs = _load_observations(cfg)
    result = (solve_baseline if cfg.baseline_mode else solve)(obs, cfg)

    out.mkdir(parents=True, exist_ok=True)
    # the numbered outputs of an earlier solve here would mix with this one's
    for f in out.iterdir():
        if _NUMBERED_RE.match(f.name):
            f.unlink()
    for n in range(cfg.time_steps + 1):
        write_volume(out / f"clean_t{n}.nii", obs.grid, result.densities.values[n])
    write_velocity_series(out / "velocity", result.velocity)
    (out / "diagnostics.csv").write_text(result.diagnostics_csv())
    (out / "resolved_config.json").write_text(cfg.to_json())
    if args.verbose:
        last = result.diagnostics[-1]
        print(f"solve: {len(result.diagnostics) - 1} iterations, "
              f"phi={last.phi:.6e}, termination={result.termination}")
    return 0 if result.converged else 2


def cmd_fpa(args) -> int:
    cfg = read_config(args.config)
    out = Path(cfg.output_dir)
    step = cfg.streamline_step
    threshold = cfg.qb_threshold
    if args.dry_run:
        print(cfg.to_json(), end="")
        print(f"plan: read solve outputs under {out}, write streamlines.jsonl, "
              "pathways.nii, clusters.json and cluster_labels.nii")
        for name in ("clean_t0.nii", "velocity_manifest.json"):
            if not (out / name).exists():
                return _fail(f"solve output not found: {out / name}")
        return 0
    stage = "load"
    try:
        velocity = read_velocity_series(out / "velocity")
        grid, rho0 = read_volume(out / "clean_t0.nii")
        if grid != velocity.grid:
            raise GridMismatchError("clean_t0.nii and velocity series grids differ")
        if step is None:
            step = grid.min_spacing / 2.0
        if threshold is None:
            threshold = 4.0 * grid.min_spacing

        stage = "seed"
        seeds = seed_points(rho0, cfg.seed_quantile)

        stage = "trace"
        lines = trace_streamlines(velocity, seeds, step, cfg.max_streamline_steps)
        write_streamlines_jsonl(out / "streamlines.jsonl", lines)

        stage = "pathways"
        pathways = pathway_density(lines, grid)
        write_volume(out / "pathways.nii", grid, pathways.astype(float))

        stage = "cluster"
        tracks = resample_tracks(lines, cfg.qb_points)
        clusters = significant_clusters(
            quickbundles(tracks, threshold), cfg.min_cluster_size
        )
        write_clusters_json(out / "clusters.json", clusters)
        labels = cluster_label_volume(clusters, grid)
        write_volume(out / "cluster_labels.nii", grid, labels.astype(float))
    except (OTFlowError, OSError) as exc:
        print(f"error in stage '{stage}': {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"fpa: {len(lines)} streamlines, {len(clusters.clusters)} significant clusters")
    return 0


def cmd_synth(args) -> int:
    spec = read_synth_spec(args.spec)
    out = Path(args.out)
    if args.dry_run:
        for i, t in enumerate(spec.observe_times):
            print(f"plan: write truth_t{i}.nii and obs_t{i}.nii for time {t} under {out}")
        print(f"plan: write truth_manifest.json under {out}")
        return 0
    out.mkdir(parents=True, exist_ok=True)
    grid = spec.grid
    volumes = []
    for i, t in enumerate(spec.observe_times):
        truth = true_density(spec, t)
        noise_seed = spec.rng_seed + i
        observed = add_noise(truth, spec.noise_std, noise_seed)
        write_volume(out / f"truth_t{i}.nii", grid, truth)
        write_volume(out / f"obs_t{i}.nii", grid, observed)
        volumes.append(
            {
                "time": t,
                "truth": f"truth_t{i}.nii",
                "observed": f"obs_t{i}.nii",
                "noise_seed": noise_seed,
            }
        )
    manifest = {
        "total_mass": spec.total_mass(),
        "noise_std": spec.noise_std,
        "rng_seed": spec.rng_seed,
        "volumes": volumes,
    }
    (out / "truth_manifest.json").write_text(_json_dump(manifest))
    if args.verbose:
        print(f"synth: wrote {2 * len(volumes)} volumes under {out}")
    return 0


_CLEAN_RE = re.compile(r"clean_t(\d+)\.nii$")


def _series_files(path: Path) -> list[Path]:
    """The clean_t*.nii files of a series directory, in frame order."""
    files = {int(m.group(1)): f for f in path.iterdir() if (m := _CLEAN_RE.match(f.name))}
    if len(files) < 2 or sorted(files) != list(range(len(files))):
        raise OTFlowError(f"{path} does not hold a contiguous clean_t*.nii series")
    return [files[n] for n in range(len(files))]


def _read_series_dir(path: Path) -> DensitySeries:
    grid, frames = None, []
    for f in _series_files(path):
        g, field = read_volume(f)
        if grid is None:
            grid = g
        elif g != grid:
            raise GridMismatchError(f"{f} grid differs from the rest of the series")
        frames.append(field.values)
    return DensitySeries(grid, np.stack(frames))


def cmd_compare(args) -> int:
    result_path = Path(args.result)
    target_path = Path(args.target)
    if args.config and not args.baseline:
        return _fail("--config is only read with --baseline")
    if args.baseline:
        if not args.config:
            return _fail("--baseline needs --config to locate the observations")
        cfg = read_config(args.config)
        check_schedule(cfg.observations, cfg.time_steps, baseline=True)
    for p in (result_path, target_path):
        if not p.exists():
            return _fail(f"input not found: {p}")
    series = result_path.is_dir()
    if target_path.is_dir() != series:
        return _fail("compare needs two volumes or two directories of clean_t*.nii, "
                     f"got {result_path} and {target_path}")
    if series and args.baseline:
        # the baseline has time_steps + 1 frames: refuse another count before solving it
        for p in (result_path, target_path):
            frames = len(_series_files(p))
            if frames != cfg.time_steps + 1:
                return _fail(f"{p} holds {frames} frames, but the baseline of time_steps="
                             f"{cfg.time_steps} in {args.config} has {cfg.time_steps + 1}")
    if args.dry_run:
        print(f"plan: compare {result_path} against {target_path}")
        return 0
    read = _read_series_dir if series else (lambda p: read_volume(p)[1])
    stacks = [("result", read(result_path))]
    target = read(target_path)
    if args.baseline:
        densities = solve_baseline(_load_observations(cfg), cfg).densities
        stacks.append(("baseline", densities if series else densities.frame(cfg.time_steps)))
    # a series reports its steps 1..m; a volume is one frame with an empty step
    rows = ["label,metric,step,value"]
    for label, stack in stacks:
        mse, inf_norm = registration_errors(stack, target)
        steps = [(str(n), n) for n in range(1, len(mse))] if series else [("", 0)]
        for metric, values in (("mse", mse), ("inf_norm", inf_norm)):
            rows += [f"{label},{metric},{step},{float(values[n])!r}" for step, n in steps]
    report = "\n".join(rows) + "\n"
    print(report, end="")
    if args.csv:
        Path(args.csv).write_text(report)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dry-run", action="store_true",
                        help="validate inputs and print the plan without computing")
    common.add_argument("--verbose", action="store_true", help="chatty progress output")

    parser = argparse.ArgumentParser(
        prog="otflow",
        description="Recover flow between density volumes and map its pathways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="recover velocity and clean densities")
    p_solve.add_argument("--config", required=True, help="run configuration JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_fpa = sub.add_parser("fpa", parents=[common],
                           help="streamlines, pathways and clusters from a solve")
    p_fpa.add_argument("--config", required=True, help="run configuration JSON")
    p_fpa.set_defaults(func=cmd_fpa)

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate synthetic truth and observations")
    p_synth.add_argument("spec", help="synthetic spec JSON")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_cmp = sub.add_parser("compare", parents=[common],
                           help="registration errors between volumes or series")
    p_cmp.add_argument("result", help="volume or clean-series directory")
    p_cmp.add_argument("target", help="volume or clean-series directory")
    p_cmp.add_argument("--csv", default=None, help="also write the report here")
    p_cmp.add_argument("--baseline", action="store_true",
                       help="rerun the fixed-endpoint baseline and report it alongside")
    p_cmp.add_argument("--config", default=None, help="configuration for --baseline")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OTFlowError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
