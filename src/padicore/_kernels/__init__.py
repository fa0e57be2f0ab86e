"""Kernel selection: compiled extension when available, pure Python otherwise.

Both backends expose ``convolve_mod`` and ``compose_mod`` with identical
contracts; ``BACKEND`` names the one in use for primes below 2**31, and
larger primes always go to the pure kernels.  ``get_backend`` returns a
specific implementation by name, which the benchmark and the equivalence
tests use to compare the two.
"""

import os

from padicore._kernels import pyseries as _pure

if os.environ.get("PADICORE_PURE_KERNELS"):
    _impl = _pure
else:
    try:
        from padicore import _fastseries as _impl
    except ImportError:  # extension not built; fall back
        _impl = _pure

BACKEND = _impl.BACKEND

# The compiled kernel multiplies residues in int64, which overflows once
# p >= 2**31; those primes always take the pure kernel.
_COMPILED_PRIME_LIMIT = 2**31


def _for(p):
    return _impl if p < _COMPILED_PRIME_LIMIT else _pure


def convolve_mod(a, b, n, p):
    """First n coefficients of the coefficient convolution of a and b."""
    return _for(p).convolve_mod(a, b, n, p)


def compose_mod(f, g, n, p):
    """First n coefficients of f(g) mod p; requires g[0] == 0."""
    return _for(p).compose_mod(f, g, n, p)


def get_backend(name):
    """Return the kernel module named "pure" or "compiled"."""
    if name == "pure":
        return _pure
    if name == "compiled":
        from padicore import _fastseries

        return _fastseries
    raise ValueError(f"unknown kernel backend {name!r}")


def available_backends():
    names = ["pure"]
    try:
        from padicore import _fastseries  # noqa: F401

        names.append("compiled")
    except ImportError:
        pass
    return names
