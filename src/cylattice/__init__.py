"""Chung-Yao interpolation lattices.

Construct lattices from hyperplane families in general position, expand
their Lagrange interpolants, evaluate divided-difference remainder formulas,
and measure convergence of interpolants of shrinking lattices toward Taylor
polynomials.
"""

from .errors import (
    ConditioningError,
    ConfigError,
    ConsistencyError,
    CyLatticeError,
    DegenerateSubsetError,
    DerivativeOrderError,
    DomainError,
    GeneralPositionError,
)
from .geometry import (
    ChungYaoLattice,
    GeneralPositionReport,
    Hyperplane,
    HyperplaneFamily,
    LineTable,
    check_general_position,
    deboor_identity_residual,
    direction_vector,
    random_family,
)
from .poly import (
    MultiPoly,
    SymmetricForm,
    basis_vector,
    derivative_form,
    homogeneous_indices,
    multi_indices,
    substitute,
    taylor,
)
from .functions import (
    CosAffine,
    ExpAffine,
    LinearCombination,
    PolynomialFunction,
    Product,
    RestrictedOrder,
    SinAffine,
    SmoothFunction,
    function_from_spec,
)
from .divdiff import (
    divided_difference,
    exp_divided_difference,
    grundmann_moller_rule,
    monomial_simplex_integral,
    simplex_integral,
    simplex_integral_poly,
)
from .chungyao import (
    Decomposition,
    Interpolant,
    NewtonStage,
    TechObservationReport,
    cardinal_polynomial,
    cardinal_table,
    deboor_remainder,
    homogeneous_representation,
    interpolate,
    newton_identity,
    newton_stage_data,
    pk_polynomial,
    remainder_sign_flip_deviation,
    techobserv_check,
)
from .convergence import (
    AffineCriterionReport,
    BoundReport,
    ConditionReport,
    LatticeSequence,
    RateReport,
    affine_criterion,
    affine_sequence,
    affine_triangle_sequence,
    ball_grid,
    bound_evaluator,
    check_conditions,
    convergence_experiment,
    degenerate_sequence,
    degenerate_triangle_points,
    derivative_norm_estimate,
    fit_loglog_slope,
    observed_delta,
    transform_family,
    triangle_family_from_points,
    unit_triangle_family,
)
from .config import ExperimentConfig, compile_expression, load_config, parse_config

__version__ = "0.1.0"
