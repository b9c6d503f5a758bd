"""Recover a time-varying velocity field and denoised density interpolant
between noisy volumetric snapshots, then map the flow's pathways.

The solver minimizes a transport energy plus a data-fidelity term subject to
advection-diffusion dynamics; the analysis stage integrates streamlines
through the recovered velocity, accumulates per-voxel pathway counts and
clusters the streamlines with QuickBundles.

Each name is imported from the submodule that defines it, for example
``from otflow.solver import solve``; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
