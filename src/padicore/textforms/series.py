"""The series forms: JSON, pretty text such as ``1 + 2*T^2 + O(T^4)``,
coefficient fields, and the ratio of a series norm."""

import json
import re
from fractions import Fraction

from ..errors import ParseError
from ..series import QQ, LaurentSeries, PowerSeries, PrimeFieldCoefficients
from . import _fraction, _int, _json, _term, check_term_count

_SERIES_O_RE = re.compile(r"^O\(([A-Za-z])\^(-?\d+)\)$")
_SERIES_TERM_RE = re.compile(
    r"^(?:(-?\d+(?:/\d+)?)\*)?([A-Za-z])(?:\^(-?\d+))?$|^(-?\d+(?:/\d+)?)$"
)


def parse_field(text):
    """A coefficient field from "fp:5" / "q" style descriptors."""
    text = text.strip().lower()
    if text in ("q", "qq", "rational", "rationals"):
        return QQ
    m = re.match(r"^(?:fp?|gf):?(\d+)$", text)
    if m:
        return PrimeFieldCoefficients(_int(m.group(1)))
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
        if type(raw) is not int:  # JSON true is not an int
            raise ParseError(f"prime-field coefficient must be an int: {raw!r}")
        return raw
    if type(raw) is int:
        return Fraction(raw)
    return _fraction(str(raw), "series coefficient")


def series_to_json(s):
    data, unit = {"field": _field_to_json(s.field)}, s
    if isinstance(s, LaurentSeries):  # T**tail * unit; the zero series has no unit and tail 0
        data["tail_valuation"], unit = s.tail, s.unit
    if unit is None:
        data.update(order_prec=s.order_bound, coeffs=[])
    else:
        data.update(order_prec=unit.prec, coeffs=[_coeff_to_json(s.field, c) for c in unit.coeffs])
    return json.dumps(data, sort_keys=True)


def series_from_json(data):
    try:
        field = _field_from_json(data["field"])
        coeffs = [_coeff_from_json(field, c) for c in data["coeffs"]]
        prec = data["order_prec"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad series JSON: {e}") from None
    check_term_count(prec, "series order")
    check_term_count(len(coeffs), "series length")
    if "tail_valuation" in data:
        check_term_count(data["tail_valuation"], "series exponent")
        return LaurentSeries(field, coeffs, data["tail_valuation"], prec)
    return PowerSeries(field, coeffs, prec)


def parse_series(text, field=None):
    """A series from JSON or pretty text like ``1 + 2*T^2 + O(T^4)``.

    Pretty text with any negative exponent yields a LaurentSeries,
    otherwise a PowerSeries.
    """
    text = text.strip()
    if text.startswith("{"):
        return series_from_json(_json(text))
    if field is None:
        raise ParseError("pretty series text needs a --field context")
    parts = [part.strip() for part in text.split("+")]
    om = _SERIES_O_RE.match(parts[-1].replace(" ", ""))
    if not om:
        raise ParseError(f"series literal must end with O(T^N): {text!r}")
    prec_exp = _int(om.group(2))
    check_term_count(prec_exp, "series order")
    terms = {}
    for part in parts[:-1]:
        tm = _SERIES_TERM_RE.match(part.replace(" ", ""))
        if not tm:
            raise ParseError(f"bad series term: {part!r}")
        exp, coeff = _term(tm, "series exponent")
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


def parse_ratio(text):
    """The ratio r of a series norm r**order, such as 1/2 or 0.5."""
    return _fraction(text, "ratio")
