"""Thin-domain reduction toolkit for Bellman-Isaacs elliptic problems.

Pipeline: validate the standing assumptions, certify the global ellipticity
condition, build the limit problem, distort coordinates where the oblique
data needs it, synthesize strict barriers, solve both the thin and the
limit problems with a monotone scheme, and measure the convergence of the
thin solutions onto the limit.
"""

from .expressions import Expr, ScalarField, VectorField, parse
from .problem import (
    BoundaryData,
    CoefficientEntry,
    CoefficientFamily,
    ControlSet,
    GeometrySpec,
    ThinProblem,
    validate,
)
from .ellipticity import (
    boundary_certificate,
    circle_obstruction_demo,
    equivalence_check,
    interior_certificate,
    rotating_field,
)
from .reduction import (
    LimitProblem,
    reduce_problem,
    representation_check,
)
from .distortion import (
    DistortionMap,
    build_map,
    matrix_r,
    top_profile,
    transplant_ellipticity,
)
from .barriers import (
    BarrierPair,
    BarrierParams,
    search_barriers,
    search_parameters,
    verify_barrier,
)
from .solver import (
    discretize_eps,
    discretize_limit,
    make_eps_grid,
    make_limit_grid,
    perturbation_certificate,
    policy_iteration,
    solve_eps,
    solve_limit,
)
from .harness import (
    ExperimentPlan,
    convergence_experiment,
    run_pipeline,
)
from .config import load_experiment_settings, load_problem

__all__ = [
    "Expr", "ScalarField", "VectorField", "parse",
    "BoundaryData", "CoefficientEntry", "CoefficientFamily", "ControlSet", "GeometrySpec", "ThinProblem", "validate",
    "boundary_certificate", "circle_obstruction_demo", "equivalence_check", "interior_certificate", "rotating_field",
    "LimitProblem", "reduce_problem", "representation_check",
    "DistortionMap", "build_map", "matrix_r", "top_profile", "transplant_ellipticity",
    "BarrierPair", "BarrierParams", "search_barriers", "search_parameters", "verify_barrier",
    "discretize_eps", "discretize_limit", "make_eps_grid", "make_limit_grid", "perturbation_certificate",
    "policy_iteration", "solve_eps", "solve_limit",
    "ExperimentPlan", "convergence_experiment", "run_pipeline",
    "load_experiment_settings", "load_problem",
]

__version__ = "0.1.0"
