"""Exact non-archimedean arithmetic: p-adics, formal series, Hensel
lifting, the p-adic logarithm, ball-algebra Haar measure, and finite
summation checks, with a batch CLI front end."""

from .analytic import (
    PadicPolynomial,
    RadiusReport,
    ValuationGrowthRule,
    lipschitz_bound,
    quadratic_bound,
    radius_of_convergence,
)
from .errors import (
    DivergenceError,
    DivisionByZeroError,
    DomainError,
    EnumerationGuardError,
    FieldMismatchError,
    NoRootError,
    NotAnIntegerError,
    PadicoreError,
    ParseError,
    PrecisionError,
    PrimeMismatchError,
)
from .hensel import (
    HenselProblem,
    ball_image_check,
    check_condition,
    nth_root,
    solve,
    solve_classical,
    sqrt,
    teichmuller,
)
from .measure import Ball, ClopenSet, residue_count
from .padics import DEFAULT_PRECISION_CAP, Padic, ResidueClass
from .plog import isometry_threshold, log1p, log_inverse, log_series_polynomial
from .primefield import FpElement
from .series import (
    QQ,
    LaurentSeries,
    PowerSeries,
    PrimeFieldCoefficients,
    RPower,
)
from .sumlab import (
    FiniteFamily,
    bfs_norm,
    fubini_check,
    lr_norm_le,
    norms,
    partition_check,
    sup_le_lr,
)

__version__ = "0.1.0"

# the series kernels are pure Python; benchmark results record this name
KERNEL_BACKEND = "pure"

__all__ = [
    "Ball",
    "ClopenSet",
    "DEFAULT_PRECISION_CAP",
    "DivergenceError",
    "DivisionByZeroError",
    "DomainError",
    "EnumerationGuardError",
    "FieldMismatchError",
    "FiniteFamily",
    "FpElement",
    "HenselProblem",
    "KERNEL_BACKEND",
    "LaurentSeries",
    "NoRootError",
    "NotAnIntegerError",
    "Padic",
    "PadicPolynomial",
    "PadicoreError",
    "ParseError",
    "PowerSeries",
    "PrecisionError",
    "PrimeFieldCoefficients",
    "PrimeMismatchError",
    "QQ",
    "RPower",
    "RadiusReport",
    "ResidueClass",
    "ValuationGrowthRule",
    "ball_image_check",
    "bfs_norm",
    "check_condition",
    "fubini_check",
    "isometry_threshold",
    "lipschitz_bound",
    "log1p",
    "log_inverse",
    "log_series_polynomial",
    "lr_norm_le",
    "norms",
    "nth_root",
    "partition_check",
    "quadratic_bound",
    "radius_of_convergence",
    "residue_count",
    "solve",
    "solve_classical",
    "sqrt",
    "sup_le_lr",
    "teichmuller",
]
