"""kamcrit: periodic invariant sets of the standard map and the
stochastic-transition threshold of the golden-mean KAM curve.

Three criteria are implemented for the standard map: linear destabilization
of the rational-iterate family (Greene residues), the minimum of the
matched elliptic-point distance between the two symmetry-line families, and
the Chirikov resonance-overlap estimate from measured island widths.
"""

__version__ = "0.1.0"  # before the submodule imports, which read it

from ._kernels import backend as kernel_backend
from .errors import (
    BracketingError,
    ConfigError,
    ContinuationError,
    DomainError,
    KamcritError,
    MergeConflictError,
    NoInteriorMinimumError,
    RefinementError,
    UnsupportedParameterError,
    WidthMeasurementError,
)
from .mapcore import (
    STANDARD_MAP,
    TWO_PI,
    PhasePoint,
    action,
    check_stochasticity,
    euler_lagrange_residual,
    iterate_standard,
    reduce_to_torus,
    step_standard,
    symplecticity_check,
    tangent_step,
    trajectory_standard,
)
from .orbits import (
    ALTERNATE_LINES,
    FAMILY_ALTERNATE,
    FAMILY_RATIONAL,
    GOLDEN_MEAN,
    LINE_DIAG,
    LINE_DIAG_PI,
    LINE_Q0,
    LINE_QPI,
    RATIONAL_LINES,
    Convergent,
    KamCurveTarget,
    OrbitBranch,
    OrbitFailure,
    PeriodicOrbit,
    alternate_iterates,
    alternate_orbit,
    continue_in_K,
    fibonacci_convergents,
    find_periodic_orbit,
    rational_iterates,
    rational_orbit,
    refine_multishoot,
    refine_newton,
    winding_number,
)
from .stability import (
    Monodromy,
    StabilityReport,
    classify,
    destabilization_K,
    find_destabilization,
    monodromy,
    orbit_report,
    residue,
)
from .criteria import (
    CriterionResult,
    DistanceCurve,
    aitken_extrapolate,
    chirikov_kcrit,
    chirikov_overlap,
    greene_kcrit,
    island_half_width,
    match_elliptic_points,
    nch_distance,
    nch_distance_curve,
    nch_kcrit,
    pendulum_half_width,
    torus_distance,
)
from .scan import (
    RunManifest,
    ScanConfig,
    load_scan_config,
    merge_results,
    parse_scan_config,
    run_scan,
)
