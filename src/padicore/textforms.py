"""Parsers and serializers for the canonical textual and JSON forms.

Every serializer here round-trips bit-exactly through the matching
parser; the CLI tests and the round-trip property tests enforce that.
Malformed input raises ParseError, never anything else.
"""

import json
import re
import sys
from fractions import Fraction

from .errors import ParseError
from .measure import ClopenSet
from .padics import Padic
from .series import QQ, LaurentSeries, PowerSeries, PrimeFieldCoefficients
from .sumlab import FiniteFamily

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
_PADIC_TERM_RE = re.compile(r"^(\d+)(?:\*(\d+)(?:\^(-?\d+))?)?$")
_PADIC_O_RE = re.compile(r"^O\((\d+)\^(-?\d+)\)$")
_PADIC_COMPACT_RE = re.compile(r"^(\d+)\^(-?\d+)\*\[([\d,]*)\]\+O\((\d+)\^(-?\d+)\)$")
_SERIES_O_RE = re.compile(r"^O\(([A-Za-z])\^(-?\d+)\)$")
_SERIES_TERM_RE = re.compile(
    r"^(?:(-?\d+(?:/\d+)?)\*)?([A-Za-z])(?:\^(-?\d+))?$|^(-?\d+(?:/\d+)?)$"
)
_POLY_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?\s*\*?\s*([A-Za-z])(?:\^(\d+))?$|^(\d+(?:/\d+)?)$")


def parse_rational(text):
    """An exact rational from "a" or "a/b"."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator")
    return Fraction(num, den)


# ------------------------------------------------------------------ p-adics


def parse_padic(text, p=None, abs_prec=None, cap=None):
    """A Padic from JSON, compact, pretty, or rational literal text."""
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
        return padic_from_json(data)
    m = _PADIC_COMPACT_RE.match(text.replace(" ", ""))
    if m:
        return _padic_from_compact(m)
    if "O(" in text:
        return _padic_from_pretty(text)
    # plain rational literal: needs the ambient prime and precision
    value = parse_rational(text)
    if p is None or abs_prec is None:
        raise ParseError(
            f"rational literal {text!r} needs --p and --prec context"
        )
    kwargs = {"cap": cap} if cap is not None else {}
    return Padic.from_rational(value, 1, p, abs_prec, **kwargs)


def _padic_from_compact(m):
    p = int(m.group(1))
    v = int(m.group(2))
    digit_text = m.group(3)
    base = int(m.group(4))
    n = int(m.group(5))
    if base != p:
        raise ParseError("mismatched primes in compact form")
    digits = [int(d) for d in digit_text.split(",")] if digit_text else []
    return Padic.from_json_dict(
        {"p": p, "valuation": v, "digits": digits, "abs_prec": n}
        if digits
        else {"p": p, "digits": [], "abs_prec": n}
    )


def _padic_from_pretty(text):
    parts = [part.strip() for part in text.split("+")]
    if not parts:
        raise ParseError("empty p-adic literal")
    om = _PADIC_O_RE.match(parts[-1].replace(" ", ""))
    if not om:
        raise ParseError(f"p-adic literal must end with O(p^N): {text!r}")
    p = int(om.group(1))
    abs_prec = int(om.group(2))
    total = Fraction(0)
    for part in parts[:-1]:
        tm = _PADIC_TERM_RE.match(part.replace(" ", ""))
        if not tm:
            raise ParseError(f"bad p-adic term: {part!r}")
        digit = int(tm.group(1))
        if tm.group(2) is None:
            exp = 0
        else:
            if int(tm.group(2)) != p:
                raise ParseError("mismatched primes in p-adic literal")
            exp = int(tm.group(3)) if tm.group(3) is not None else 1
        total += Fraction(digit) * Fraction(p) ** exp
    if total == 0:
        return Padic.zero(p, abs_prec)
    return Padic.from_rational(total, 1, p, abs_prec, cap=10**6)


def padic_from_json(data):
    try:
        return Padic.from_json_dict(data)
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad p-adic JSON: {e}") from None


def padic_to_json(x):
    return json.dumps(x.to_json_dict(), sort_keys=True)


# ------------------------------------------------------------------- series


def parse_field(text):
    """A coefficient field from "fp:5" / "q" style descriptors."""
    text = text.strip().lower()
    if text in ("q", "qq", "rational", "rationals"):
        return QQ
    m = re.match(r"^(?:fp?|gf):?(\d+)$", text)
    if m:
        return PrimeFieldCoefficients(int(m.group(1)))
    raise ParseError(f"unknown coefficient field {text!r}")


def _field_to_json(field):
    if field.kind == "fp":
        return {"Fp": field.p}
    return "QQ"


def _field_from_json(data):
    if data == "QQ":
        return QQ
    if isinstance(data, dict) and "Fp" in data:
        return PrimeFieldCoefficients(data["Fp"])
    raise ParseError(f"unknown field descriptor {data!r}")


def _coeff_to_json(field, c):
    if field.kind == "fp":
        return c
    return str(c)


def _coeff_from_json(field, raw):
    if field.kind == "fp":
        if not isinstance(raw, int):
            raise ParseError(f"prime-field coefficient must be an int: {raw!r}")
        return raw
    if isinstance(raw, int):
        return Fraction(raw)
    return Fraction(str(raw))


def series_to_json(s):
    if isinstance(s, LaurentSeries):
        if s.is_zero:
            data = {
                "field": _field_to_json(s.field),
                "order_prec": s.order_bound,
                "coeffs": [],
                "tail_valuation": 0,
            }
        else:
            data = {
                "field": _field_to_json(s.field),
                "order_prec": s.unit.prec,
                "coeffs": [_coeff_to_json(s.field, c) for c in s.unit.coeffs],
                "tail_valuation": s.tail,
            }
        return json.dumps(data, sort_keys=True)
    data = {
        "field": _field_to_json(s.field),
        "order_prec": s.prec,
        "coeffs": [_coeff_to_json(s.field, c) for c in s.coeffs],
    }
    return json.dumps(data, sort_keys=True)


def series_from_json(data):
    try:
        field = _field_from_json(data["field"])
        coeffs = [_coeff_from_json(field, c) for c in data["coeffs"]]
        prec = data["order_prec"]
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad series JSON: {e}") from None
    check_term_count(prec, "series order")
    check_term_count(len(coeffs), "series length")
    if "tail_valuation" in data:
        check_term_count(data["tail_valuation"], "series exponent")
        return LaurentSeries(field, coeffs, data["tail_valuation"], prec)
    return PowerSeries(field, coeffs, prec)


def parse_series(text, field=None, variable="T"):
    """A series from JSON or pretty text like ``1 + 2*T^2 + O(T^4)``.

    Pretty text with any negative exponent yields a LaurentSeries,
    otherwise a PowerSeries.
    """
    text = text.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
        return series_from_json(data)
    if field is None:
        raise ParseError("pretty series text needs a --field context")
    parts = [part.strip() for part in text.split("+")]
    om = _SERIES_O_RE.match(parts[-1].replace(" ", ""))
    if not om:
        raise ParseError(f"series literal must end with O({variable}^N): {text!r}")
    prec_exp = int(om.group(2))
    check_term_count(prec_exp, "series order")
    terms = {}
    for part in parts[:-1]:
        tm = _SERIES_TERM_RE.match(part.replace(" ", ""))
        if not tm:
            raise ParseError(f"bad series term: {part!r}")
        if tm.group(4) is not None:
            exp = 0
            coeff = Fraction(tm.group(4))
        else:
            coeff = Fraction(tm.group(1)) if tm.group(1) else Fraction(1)
            exp = int(tm.group(3)) if tm.group(3) is not None else 1
        check_term_count(exp, "series exponent")
        if exp in terms:
            raise ParseError(f"repeated exponent {exp} in series literal")
        terms[exp] = coeff
    min_exp = min(terms, default=0)
    if min_exp < 0 or prec_exp < 0:
        tail = min(min_exp, prec_exp)
        coeffs = [terms.get(e, 0) for e in range(tail, prec_exp)]
        return LaurentSeries(field, coeffs, tail, max(prec_exp - tail, 0))
    coeffs = [terms.get(e, 0) for e in range(prec_exp)]
    return PowerSeries(field, coeffs, prec_exp)


def parse_laurent(text, field=None):
    """Like parse_series, but always a LaurentSeries."""
    s = parse_series(text, field)
    if isinstance(s, PowerSeries):
        return LaurentSeries.from_power_series(s)
    return s


# -------------------------------------------------------------- polynomials


def parse_polynomial_rational_coeffs(text, variable="x"):
    """Coefficient list (rationals) from a grammar like ``x^2 - 2``.

    Terms are ``c``, ``c*x^k``, or ``x^k`` joined by + and -.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    text = text.replace("-", "+-")
    parts = [part.strip() for part in text.split("+") if part.strip()]
    coeffs = {}
    for part in parts:
        sign = 1
        while part.startswith("-"):
            sign = -sign
            part = part[1:].strip()
        tm = _POLY_TERM_RE.match(part)
        if not tm:
            raise ParseError(f"bad polynomial term: {part!r}")
        if tm.group(4) is not None:
            exp = 0
            coeff = Fraction(tm.group(4))
        else:
            coeff = Fraction(tm.group(1)) if tm.group(1) else Fraction(1)
            exp = int(tm.group(3)) if tm.group(3) is not None else 1
        check_term_count(exp, "polynomial degree")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
    degree = max(coeffs)
    return [coeffs.get(e, Fraction(0)) for e in range(degree + 1)]


def polynomial_to_json(f):
    return json.dumps(
        {"p": f.p, "coeffs": [c.to_json_dict() for c in f.coeffs]},
        sort_keys=True,
    )


def polynomial_from_json(data, cls):
    try:
        p = data["p"]
        coeffs = [Padic.from_json_dict(c) for c in data["coeffs"]]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad polynomial JSON: {e}") from None
    check_term_count(len(coeffs) - 1, "polynomial degree")
    return cls(p, coeffs)


# -------------------------------------------------------------- clopen sets


def clopen_to_json(s):
    return json.dumps(s.to_json_dict(), sort_keys=True)


# Series exponents and polynomial degrees allowed in input.  Series and
# polynomial commands build and multiply that many coefficients; at this
# limit the slowest of them, series compose over QQ with one-digit
# coefficients, takes about 6 s (larger coefficients cost more still).
MAX_TERMS = 256


def check_term_count(n, what):
    """Reject a series exponent or polynomial degree: not an int, or past MAX_TERMS."""
    if type(n) is not int:
        raise ParseError(f"{what} must be an integer, got {n!r}")
    if abs(n) > MAX_TERMS:
        raise ParseError(f"{what} {n} exceeds the limit of {MAX_TERMS}")


def check_ball_level(p, level):
    """Reject a ball level whose modulus p**level cannot be printed.

    Outputs print the modulus (a measure's denominator) or centers below
    it, and CPython refuses to print an int of more digits than its limit.
    Where there is no limit (0, or Python before 3.10.7) the default 4300
    still bounds the level.  Past 2**(4*limit) the modulus is too long
    without computing it, so a huge level is refused at once.
    """
    if not isinstance(level, int) or isinstance(level, bool):
        raise ParseError(f"ball level must be an integer, got {level!r}")
    if not isinstance(p, int) or p < 2 or level < 0:
        return  # Ball rejects these
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if (p.bit_length() - 1) * level > 4 * limit or p**level >= 10**limit:
        raise ParseError(f"ball modulus {p}^{level} has more than {limit} digits")


def parse_clopen(text):
    try:
        data = json.loads(text)
        for ball in data["balls"]:
            check_ball_level(data["p"], ball["level"])
        return ClopenSet.from_json_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ParseError(f"bad clopen-set JSON: {e}") from None


# ----------------------------------------------------------------- families


def parse_family(text):
    """A FiniteFamily from JSON.

    Rational: {"mode": "rational", "labels": [...], "values": ["1", "-1/2"]}.
    P-adic:   {"mode": "padic", "labels": [...], "values": [<padic json>...]}.
    Labels default to 0..n-1.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from None
    return family_from_json(data)


def family_from_json(data):
    try:
        mode = data["mode"]
        raw_values = data["values"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad family JSON: {e}") from None
    labels = data.get("labels", list(range(len(raw_values))))
    if mode == "rational":
        try:
            values = [Fraction(str(v)) for v in raw_values]
        except ValueError as e:
            raise ParseError(f"bad rational value: {e}") from None
    elif mode == "padic":
        values = [padic_from_json(v) for v in raw_values]
    else:
        raise ParseError(f"unknown family mode {mode!r}")
    return FiniteFamily(labels, values)


def family_to_json(fam):
    if fam.mode == "rational":
        values = [str(v) for v in fam.values]
    else:
        values = [v.to_json_dict() for v in fam.values]
    return json.dumps(
        {"labels": list(fam.labels), "mode": fam.mode, "values": values},
        sort_keys=True,
    )
