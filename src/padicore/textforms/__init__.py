"""Parsers and serializers for the canonical textual and JSON forms.

Every serializer here round-trips bit-exactly through the matching
parser; the CLI tests and the round-trip property tests enforce that.
Malformed input raises ParseError, never anything else.

Each kind of value has its forms in a submodule: ``padic``, ``series``,
``polynomial``, ``clopen`` (clopen sets and balls) and ``family``
(families, grids, partitions and norm exponents).  A submodule imports
the library modules of its values, so a command compiles only the forms
it reads and writes and the modules behind them; this module holds the
readers they share.  The namespace is lazy (PEP 562): a public name such
as ``textforms.parse_series`` imports its submodule on first access.
"""

import json
import re

from ..errors import ParseError
from ..intmath import str_digit_limit

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
# matched through re.search, whose cache compiles it on first use
_DECIMAL_EXPONENT_RE = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"


def _json(text, what="JSON"):
    """The JSON value in text; undecodable text is a ParseError naming what."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: too many int digits
        raise ParseError(f"bad {what}: {e}") from None


def _items(data, what):
    """The items of a JSON value that stands for a list.

    Arrays are meant; strings and objects iterate as Python does.
    Numbers, booleans and null are refused.
    """
    if not isinstance(data, (list, str, dict)):
        raise ParseError(f"bad {what}: expected an array, got {json.dumps(data)}")
    return list(data)


def _int(digits):
    """int() of a matched digit run; an empty or overlong one is a ParseError."""
    try:
        return int(digits)
    except ValueError:  # CPython converts at most str_digit_limit() digits
        raise ParseError(f"bad integer literal of {len(digits)} digits") from None


def _fraction(text, what):
    """Fraction(text) for a literal such as "-3", "1/2", "0.5" or "1e-3".

    Fraction builds 10**e for an exponent e, so an exponent of
    str_digit_limit() or more in size, whose power has more digits than
    an int prints, is refused first.
    """
    from fractions import Fraction

    m, limit = re.search(_DECIMAL_EXPONENT_RE, text), str_digit_limit()
    if m and abs(_int(m.group(1).replace("_", ""))) >= limit:
        raise ParseError(f"bad {what}: decimal exponent {m.group(1)} exceeds the limit of {limit}")
    try:
        return Fraction(text)
    except ValueError:
        raise ParseError(f"bad {what}: not a rational literal: {text!r}") from None
    except ZeroDivisionError:
        raise ParseError(f"bad {what}: zero denominator") from None


def parse_rational(text):
    """An exact rational from "a" or "a/b": the int a, or the Fraction a/b
    whenever a denominator is written, "4/2" and "3/1" included.

    Only the second form imports ``fractions``, so a command whose
    operands are integer literals never loads it.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    num = _int(m.group(1))
    if m.group(2) is None:
        return num
    den = _int(m.group(2))
    if den == 0:
        raise ParseError("zero denominator")
    from fractions import Fraction

    return Fraction(num, den)


def _term(tm, what):
    """(exponent, coefficient) of a matched ``c``, ``c*X^e`` or ``X^e``
    term of a series or polynomial; an exponent past MAX_TERMS is refused
    as what."""
    if tm.group(4) is not None:
        return 0, parse_rational(tm.group(4))
    coeff = parse_rational(tm.group(1)) if tm.group(1) else 1
    exp = _int(tm.group(3)) if tm.group(3) is not None else 1
    check_term_count(exp, what)
    return exp, coeff


# Series exponents and polynomial degrees allowed in input (an n-th root
# builds x^n - u, so n counts too).  Series and polynomial commands build
# and multiply that many coefficients; at this limit the slowest of them,
# series compose over QQ with one-digit numerators and denominators,
# takes 0.24-0.34 s in process on a 2-vCPU host with Python 3.11 (five
# seeds, best and median of three; larger coefficients cost more still).
MAX_TERMS = 256


def check_term_count(n, what):
    """Reject a series exponent or polynomial degree: not an int, or past MAX_TERMS."""
    if type(n) is not int:
        raise ParseError(f"{what} must be an integer, got {n!r}")
    if abs(n) > MAX_TERMS:
        raise ParseError(f"{what} {n} exceeds the limit of {MAX_TERMS}")


# submodule of each public name defined outside this module
_EXPORTS = {
    "padic": ("padic_from_json", "padic_to_json", "parse_padic"),
    "series": (
        "parse_field",
        "parse_laurent",
        "parse_ratio",
        "parse_series",
        "series_from_json",
        "series_to_json",
    ),
    "polynomial": (
        "parse_polynomial",
        "parse_polynomial_rational_coeffs",
        "polynomial_from_json",
        "polynomial_to_json",
    ),
    "clopen": (
        "balls_json_items",
        "check_ball_center",
        "check_ball_level",
        "clopen_to_json",
        "parse_ball",
        "parse_clopen",
    ),
    "family": (
        "MAX_NORM_EXPONENT",
        "family_from_json",
        "family_to_json",
        "parse_blocks",
        "parse_family",
        "parse_grid",
        "parse_norm_exponent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "MAX_TERMS", "check_term_count", "parse_rational"])


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
