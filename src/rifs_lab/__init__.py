"""Random iterated function systems lab.

Builds frame-generated map families, solves for Bowen and random-recursive
dimensions, samples heavy-tailed sceneries, and evaluates the subsequence
pressure bound that separates the two notions of dimension.
"""

from .bowen import (
    DivergenceVerdict,
    MauldinDomainError,
    UnboundedDimensionError,
    bowen_parameter,
    expected_log_fitness,
    log_fitness,
    mauldin_dimension,
)
from .cover import (
    BudgetError,
    CylinderCode,
    box_exponents,
    cylinder_to_cube,
    emit_points,
    enumerate_cylinders,
    osc_check,
)
from .frame import (
    Frame,
    FrameDepthError,
    FrameError,
    frame_from_doc,
    minimal_frame,
    validate_frame,
)
from .numerics import DEFAULT_EXACT_BITS, HybridNumber
from .pressure import (
    BoundCheck,
    BranchProfile,
    CoverageError,
    SpecialTime,
    build_branch_profile,
    dim_upper_estimate,
    refined_log_sum,
    special_times,
    subsequence_bound_check,
)
from .rifs import (
    IFSDescriptor,
    MapAggregate,
    ProbVector,
    RIFSSpec,
    SpecValidationError,
    check_bowen_hypothesis,
    counterexample_ifs,
    load_spec,
    validate_spec,
    zeta_probability,
    zeta_tail,
)
from .sampler import (
    RareTailError,
    RecordPair,
    RecordSequences,
    SceneryPath,
    domination_start,
    record_sequences,
    sample_scenery,
    scenery_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "BranchProfile",
    "BudgetError",
    "CoverageError",
    "CylinderCode",
    "DEFAULT_EXACT_BITS",
    "DivergenceVerdict",
    "Frame",
    "FrameDepthError",
    "FrameError",
    "HybridNumber",
    "IFSDescriptor",
    "MapAggregate",
    "MauldinDomainError",
    "ProbVector",
    "RIFSSpec",
    "RareTailError",
    "RecordPair",
    "RecordSequences",
    "SceneryPath",
    "SpecialTime",
    "SpecValidationError",
    "UnboundedDimensionError",
    "bowen_parameter",
    "box_exponents",
    "build_branch_profile",
    "check_bowen_hypothesis",
    "counterexample_ifs",
    "cylinder_to_cube",
    "dim_upper_estimate",
    "domination_start",
    "emit_points",
    "enumerate_cylinders",
    "expected_log_fitness",
    "frame_from_doc",
    "load_spec",
    "log_fitness",
    "mauldin_dimension",
    "minimal_frame",
    "osc_check",
    "record_sequences",
    "refined_log_sum",
    "sample_scenery",
    "scenery_csv",
    "special_times",
    "subsequence_bound_check",
    "validate_frame",
    "validate_spec",
    "zeta_probability",
    "zeta_tail",
]
