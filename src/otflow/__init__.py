"""Recover a time-varying velocity field and denoised density interpolant
between noisy volumetric snapshots, then map the flow's pathways.

The solver minimizes a transport energy plus a data-fidelity term subject to
advection-diffusion dynamics; the analysis stage integrates streamlines
through the recovered velocity, accumulates per-voxel pathway counts and
clusters the streamlines with QuickBundles.
"""

from .bundles import (
    Cluster,
    ClusterSet,
    ResampledTrack,
    cluster_label_volume,
    mdf_distance,
    quickbundles,
    resample_track,
    significant_clusters,
)
from .errors import (
    BadMagicError,
    ConfigError,
    EmptySeedsError,
    GridMismatchError,
    HeaderError,
    OTFlowError,
    OutsideDomainError,
    TruncatedDataError,
    UnsupportedDatatypeError,
    VolumeFormatError,
)
from .forward import (
    DensitySeries,
    ImplicitDiffusion,
    TimeGrid,
    VelocitySeries,
    advect_step,
    advect_velocity_jacobian_apply,
    diffuse_step,
    simulate,
)
from .grid import CellGrid, ScalarField, VectorField, build_grid, sample_vector_field
from .operators import (
    advection_interp_matrix,
    advection_weight_gradients,
    assemble_diffusion_operator,
)
from .solver import (
    BASELINE_ALPHA_FACTOR,
    IterationRecord,
    ObservationEntry,
    ObservationSet,
    SolveResult,
    SolverConfig,
    gradient,
    objective,
    registration_errors,
    rmse_between_series,
    solve,
    solve_baseline,
)
from .streamlines import (
    PathwayMap,
    Streamline,
    pathway_density,
    seed_points,
    trace_streamlines,
)
from .synth import (
    Blob,
    SynthSpec,
    VelocityModel,
    add_noise,
    analytic_evolution,
    finite_difference_gradient,
    gaussian_blob,
    initial_density,
    true_density,
    true_velocity_series,
)

__version__ = "0.1.0"
