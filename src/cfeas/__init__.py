"""Circumcentered-reflection solvers for two-set convex feasibility problems."""

from .bench import write_trace_csv
from .circumcentering import circumcenter
from .geometry import (
    Ball,
    Box,
    Ellipsoid,
    EntryMask,
    Halfspace,
    ProblemPair,
    PsdCone,
    distance,
    gap,
    project,
    project_ellipsoid_multiplier,
    project_psd,
)
from .operators import (
    KERNEL_STANDARD,
    KernelSpec,
    apply_kernel,
    centralize,
    circumcentered_step,
    is_strictly_centralized,
    pcrm,
)
from .problems import (
    gen_ellipsoids,
    gen_halfspace_wedge,
    gen_matrix_completion,
    generate,
    load_pair,
    pair_from_json,
    pair_to_json,
    save_pair,
)
from .solver import (
    Constant,
    RateEstimate,
    SolveTrace,
    SolverConfig,
    Table,
    Vanishing,
    estimate_rate,
    estimate_rate_from_merits,
    schedule_value,
    solve,
)

__version__ = "0.1.0"
