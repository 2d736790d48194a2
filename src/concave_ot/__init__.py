"""Discrete optimal transport for strictly concave increasing distance costs.

Exact network-simplex solver with dual potentials, plan-structure
decomposition and verification (stay-at-rest, cyclical monotonicity),
map extraction and reconstruction from potentials, and the cone-geometry
audit for measures that charge no small sets.
"""

from .costs import (
    ConcaveCost,
    DerivativeGap,
    LogShiftCost,
    OutOfRange,
    PiecewiseConcaveCost,
    PowerCost,
    c_transform,
    check_strict_subadditivity,
    cost_from_json,
    cost_matrix,
)
from .geometry import (
    direction_grid,
    halfspace_equivalence,
    isotropy_audit,
    k_delta,
    resolution_scale,
)
from .measures import (
    DiscreteMeasure,
    MassDecomposition,
    MeasureFormatError,
    hyperplane_sample,
    load_measure,
    match_atoms,
    meet,
    save_measure,
    snap,
    three_segments,
    translate,
    uniform_box,
)
from .solver import (
    Certificate,
    DualPotentials,
    ExactSolution,
    SolverError,
    TransportPlan,
    certify,
    load_plan,
    save_plan,
    save_potentials,
    solve_exact,
    solve_with_meet,
)
from .structure import (
    CcmReport,
    KinkEventReport,
    MapExtract,
    PlanDecomposition,
    ReconstructionResult,
    SplitSource,
    StayAtRestReport,
    decompose,
    detect_kink_events,
    extract_map,
    reconstruct_map_from_potential,
    translation_mass,
    verify_ccm,
    verify_stay_at_rest,
)

__version__ = "0.1.0"
