"""Random iterated function systems lab.

Builds frame-generated map families, solves for Bowen and random-recursive
dimensions, samples heavy-tailed sceneries, and evaluates the subsequence
pressure bound that separates the two notions of dimension.

The top-level names are those the ``rifs-lab`` CLI and the README use;
everything else is imported from its own module.
"""

from .bowen import (
    MauldinDomainError,
    UnboundedDimensionError,
    bowen_parameter,
    expected_log_fitness,
    mauldin_dimension,
)
from .cover import BudgetError, box_exponents, emit_points, enumerate_cylinders, osc_check
from .frame import Frame, FrameError, frame_from_doc, minimal_frame, validate_frame
from .numerics import HybridNumber
from .pressure import CoverageError, build_branch_profile
from .rifs import ProbVector, SpecValidationError, check_bowen_hypothesis, load_spec
from .sampler import RareTailError, sample_scenery, scenery_csv

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CoverageError",
    "Frame",
    "FrameError",
    "HybridNumber",
    "MauldinDomainError",
    "ProbVector",
    "RareTailError",
    "SpecValidationError",
    "UnboundedDimensionError",
    "bowen_parameter",
    "box_exponents",
    "build_branch_profile",
    "check_bowen_hypothesis",
    "emit_points",
    "enumerate_cylinders",
    "expected_log_fitness",
    "frame_from_doc",
    "load_spec",
    "mauldin_dimension",
    "minimal_frame",
    "osc_check",
    "sample_scenery",
    "scenery_csv",
    "validate_frame",
]
