"""Exact non-archimedean arithmetic: p-adics, formal series, Hensel
lifting, the p-adic logarithm, ball-algebra Haar measure, and finite
summation checks, with a batch CLI front end.

The package namespace is lazy (PEP 562): ``import padicore`` loads no
submodule, and a public name such as ``padicore.sqrt`` imports its home
module (here ``padicore.hensel``) on first access, so a one-shot CLI
command loads only the modules it runs.  ``__all__``, ``dir(padicore)``
and ``from padicore import *`` list every public name.
"""

__version__ = "0.1.0"

# the series kernels are pure Python; benchmark results record this name
KERNEL_BACKEND = "pure"

# home module of each public name
_EXPORTS = {
    "analytic": (
        "PadicPolynomial",
        "RadiusReport",
        "ValuationGrowthRule",
        "lipschitz_bound",
        "quadratic_bound",
        "radius_of_convergence",
    ),
    "errors": (
        "DivergenceError",
        "DivisionByZeroError",
        "DomainError",
        "EnumerationGuardError",
        "FieldMismatchError",
        "NoRootError",
        "NotAnIntegerError",
        "PadicoreError",
        "ParseError",
        "PrecisionError",
        "PrimeMismatchError",
    ),
    "hensel": (
        "HenselProblem",
        "ball_image",
        "ball_image_check",
        "check_condition",
        "nth_root",
        "solve",
        "solve_classical",
        "sqrt",
        "teichmuller",
    ),
    "intmath": ("DEFAULT_PRECISION_CAP",),
    "measure": ("Ball", "ClopenSet", "residue_count"),
    "padics": ("Padic",),
    "plog": ("isometry_threshold", "log1p", "log_inverse", "log_series_polynomial"),
    "primefield": ("FpElement",),
    "series": ("QQ", "LaurentSeries", "PowerSeries", "PrimeFieldCoefficients", "RPower"),
    "sumlab": (
        "FiniteFamily",
        "bfs_norm",
        "fubini_check",
        "lr_norm_le",
        "norms",
        "partition_check",
        "sup_le_lr",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "KERNEL_BACKEND"])


def __getattr__(name):
    from importlib import import_module

    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
