"""Parsers and serializers for the canonical textual and JSON forms.

Every serializer here round-trips bit-exactly through the matching
parser; the CLI tests and the round-trip property tests enforce that.
Malformed input raises ParseError, never anything else.
"""

import json
import re
from fractions import Fraction

from .errors import ParseError
from .intmath import check_prime, int_valuation, power_prints, str_digit_limit
from .padics import DEFAULT_PRECISION_CAP, Padic, _check_unit_modulus_prints

# The series, polynomial, clopen-set and family forms import their modules
# inside the functions that build them: a command then loads only the
# modules of its own group.

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")
_PADIC_TERM_RE = re.compile(r"^(\d+)(?:\*(\d+)(?:\^(-?\d+))?)?$")
_PADIC_O_RE = re.compile(r"^O\((\d+)\^(-?\d+)\)$")
_PADIC_COMPACT_RE = re.compile(r"^(\d+)\^(-?\d+)\*\[([\d,]*)\]\+O\((\d+)\^(-?\d+)\)$")
_SERIES_O_RE = re.compile(r"^O\(([A-Za-z])\^(-?\d+)\)$")
_SERIES_TERM_RE = re.compile(
    r"^(?:(-?\d+(?:/\d+)?)\*)?([A-Za-z])(?:\^(-?\d+))?$|^(-?\d+(?:/\d+)?)$"
)
_DECIMAL_EXPONENT_RE = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_POLY_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?\s*\*?\s*([A-Za-z])(?:\^(\d+))?$|^(\d+(?:/\d+)?)$")


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


def _labels(data, what):
    """Index labels: the items of data, none an array or an object."""
    labels = _items(data, what)
    if any(isinstance(label, (list, dict)) for label in labels):
        raise ParseError(f"bad {what}: a label is an array or an object")
    return labels


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
    m, limit = _DECIMAL_EXPONENT_RE.search(text), str_digit_limit()
    if m and abs(_int(m.group(1).replace("_", ""))) >= limit:
        raise ParseError(f"bad {what}: decimal exponent {m.group(1)} exceeds the limit of {limit}")
    try:
        return Fraction(text)
    except ValueError:
        raise ParseError(f"bad {what}: not a rational literal: {text!r}") from None
    except ZeroDivisionError:
        raise ParseError(f"bad {what}: zero denominator") from None


def parse_rational(text):
    """An exact rational from "a" or "a/b"."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    num = _int(m.group(1))
    den = _int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator")
    return Fraction(num, den)


# ------------------------------------------------------------------ p-adics


def parse_padic(text, p=None, abs_prec=None, cap=None):
    """A Padic from JSON, compact, pretty, or rational literal text.

    A rational literal is read at prime p, mod p**abs_prec; any other
    form must be p-adic for that p when p is given.  A pretty term
    exponent below -cap (default: the default precision cap) is refused.
    """
    text = text.strip()
    if text.startswith("{"):
        value = padic_from_json(_json(text))
    elif m := _PADIC_COMPACT_RE.match(text.replace(" ", "")):
        value = _padic_from_compact(m)
    elif "O(" in text:
        value = _padic_from_pretty(text, DEFAULT_PRECISION_CAP if cap is None else cap)
    else:
        # plain rational literal: needs the ambient prime and precision
        rational = parse_rational(text)
        if p is None or abs_prec is None:
            raise ParseError(
                f"rational literal {text!r} needs --p and --prec context"
            )
        return _rational_ball(rational, p, abs_prec)
    if p is not None and value.p != p:
        raise ParseError(f"operand is {value.p}-adic but --p is {p}")
    return value


def _rational_ball(rational, p, abs_prec):
    """The ball rational + O(p**abs_prec): the one reader of a rational
    literal at (p, --prec), for operands and text polynomial coefficients.

    As in the other forms, a unit known mod p**(abs_prec - v) that does
    not print is refused; -v is below the bit length of the denominator.
    """
    num, den = rational.numerator, rational.denominator
    if num and not power_prints(check_prime(p), abs_prec + den.bit_length()):
        rel = abs_prec - int_valuation(num, p) + int_valuation(den, p)
        if rel > 0:
            _check_unit_modulus_prints(p, rel)
    return Padic.from_rational(rational, 1, p, abs_prec)


def _padic_from_compact(m):
    p = _int(m.group(1))
    v = _int(m.group(2))
    digit_text = m.group(3)
    base = _int(m.group(4))
    n = _int(m.group(5))
    if base != p:
        raise ParseError("mismatched primes in compact form")
    digits = [_int(d) for d in digit_text.split(",")] if digit_text else []
    return Padic.from_json_dict(
        {"p": p, "valuation": v, "digits": digits, "abs_prec": n}
        if digits
        else {"p": p, "digits": [], "abs_prec": n}
    )


def _padic_from_pretty(text, cap):
    """A Padic from ``d*p^e + ... + O(p^N)``; no term exponent below -cap.

    The terms below p**N are summed over the integers as d * p**(e - low),
    low the least exponent among them, and low becomes the valuation, so
    no term builds its own power p**e.  An exponent far below zero would
    make the value as large as p**(N - low); past the precision cap it is
    refused.  The value keeps every digit it is given: as in the JSON
    form, a unit known mod p**(N - v) is refused when that power does not
    print, and v is then found from the terms before their sum is built.
    """
    parts = [part.strip() for part in text.split("+")]
    if not parts:
        raise ParseError("empty p-adic literal")
    om = _PADIC_O_RE.match(parts[-1].replace(" ", ""))
    if not om:
        raise ParseError(f"p-adic literal must end with O(p^N): {text!r}")
    p = _int(om.group(1))
    abs_prec = _int(om.group(2))
    terms, low = [], abs_prec
    for part in parts[:-1]:
        tm = _PADIC_TERM_RE.match(part.replace(" ", ""))
        if not tm:
            raise ParseError(f"bad p-adic term: {part!r}")
        digit = _int(tm.group(1))
        if tm.group(2) is None:
            exp = 0
        else:
            if _int(tm.group(2)) != p:
                raise ParseError("mismatched primes in p-adic literal")
            exp = _int(tm.group(3)) if tm.group(3) is not None else 1
        if exp < -cap:
            raise ParseError(f"p-adic term exponent {exp} is below -{cap}, the precision cap")
        if exp < abs_prec and digit:  # a zero term or one in p**abs_prec: never build it
            terms.append((digit, exp))
            low = min(low, exp)
    if not terms:
        return Padic.zero(p, abs_prec)
    # the valuation is needed only when p**(abs_prec - low) does not print
    if not power_prints(p, abs_prec - low):
        rel = abs_prec - _sum_valuation(p, terms)
        if rel > 0:
            _check_unit_modulus_prints(p, rel)
    check_prime(p)
    total = sum(digit * p ** (exp - low) for digit, exp in terms)
    return Padic._normalised(p, low, total, abs_prec - low)


def _sum_valuation(p, terms):
    """The valuation of the sum of digit * p**exp over terms, digits > 0.

    The terms are walked from the least exponent with the sum so far
    divided by p**pos, pos the exponent reached: the sum's valuation is
    found as soon as that quotient is not divisible by p up to the next
    exponent, and no power of p larger than the quotient is built.
    """
    carry = pos = 0
    for digit, exp in sorted(terms, key=lambda term: term[1]):
        if carry:
            k = int_valuation(carry, p)
            if k < exp - pos:
                return pos + k
            carry //= p ** (exp - pos)
        carry, pos = carry + digit, exp
    return pos + int_valuation(carry, p)


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
    from .series import QQ, PrimeFieldCoefficients

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
    from .series import QQ, PrimeFieldCoefficients

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
    from .series import LaurentSeries

    data, unit = {"field": _field_to_json(s.field)}, s
    if isinstance(s, LaurentSeries):  # T**tail * unit; the zero series has no unit and tail 0
        data["tail_valuation"], unit = s.tail, s.unit
    if unit is None:
        data.update(order_prec=s.order_bound, coeffs=[])
    else:
        data.update(order_prec=unit.prec, coeffs=[_coeff_to_json(s.field, c) for c in unit.coeffs])
    return json.dumps(data, sort_keys=True)


def series_from_json(data):
    from .series import LaurentSeries, PowerSeries

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


def _term(tm, what):
    """(exponent, coefficient) of a matched ``c``, ``c*X^e`` or ``X^e``
    term of a series or polynomial; an exponent past MAX_TERMS is refused
    as what."""
    if tm.group(4) is not None:
        return 0, parse_rational(tm.group(4))
    coeff = parse_rational(tm.group(1)) if tm.group(1) else Fraction(1)
    exp = _int(tm.group(3)) if tm.group(3) is not None else 1
    check_term_count(exp, what)
    return exp, coeff


def parse_series(text, field=None):
    """A series from JSON or pretty text like ``1 + 2*T^2 + O(T^4)``.

    Pretty text with any negative exponent yields a LaurentSeries,
    otherwise a PowerSeries.
    """
    from .series import LaurentSeries, PowerSeries

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
    from .series import LaurentSeries, PowerSeries

    s = parse_series(text, field)
    if isinstance(s, PowerSeries):
        return LaurentSeries.from_power_series(s)
    return s


# -------------------------------------------------------------- polynomials


def parse_polynomial(text, p, abs_prec):
    """A PadicPolynomial from JSON, or from text like ``x^2 - 2``.

    Each text coefficient is read at prime p to precision abs_prec as a
    rational operand is, and refused as one is; trailing zero terms are
    dropped.  A JSON polynomial must be p-adic for that p when p is given.
    """
    from .analytic import PadicPolynomial

    text = text.strip()
    if text.startswith("{"):
        poly = polynomial_from_json(_json(text))
        if p is not None and poly.p != p:
            raise ParseError(f"polynomial is {poly.p}-adic but --p is {p}")
        return poly
    coeffs = parse_polynomial_rational_coeffs(text)
    if p is None or abs_prec is None:
        raise ParseError("text polynomials need --p and --prec")
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return PadicPolynomial(p, [_rational_ball(c, p, abs_prec) for c in coeffs], abs_prec=abs_prec)


def parse_polynomial_rational_coeffs(text):
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
        exp, coeff = _term(tm, "polynomial degree")
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
    degree = max(coeffs)
    return [coeffs.get(e, Fraction(0)) for e in range(degree + 1)]


def polynomial_to_json(f):
    return json.dumps(
        {"p": f.p, "coeffs": [c.to_json_dict() for c in f.coeffs]},
        sort_keys=True,
    )


def polynomial_from_json(data):
    from .analytic import PadicPolynomial

    try:
        p = data["p"]
        coeffs = [Padic.from_json_dict(c) for c in data["coeffs"]]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad polynomial JSON: {e}") from None
    check_term_count(len(coeffs) - 1, "polynomial degree")
    return PadicPolynomial(p, coeffs)


# -------------------------------------------------------------- clopen sets


def clopen_to_json(s):
    """The text of json.dumps(s.to_json_dict(), sort_keys=True), written a
    level at a time from the sorted centers with no dict per ball."""
    return '{"balls": [%s], "p": %d}' % (", ".join(balls_json_items(level, xs) for level, xs in s.levels()), s.p)


def balls_json_items(level, centers):
    """The JSON objects of the balls with these centers at one level, as
    json.dumps(sort_keys=True) writes them in an array: comma-separated."""
    tail = f', "level": {level}}}'
    return '{"center": ' + (tail + ', {"center": ').join(map(str, centers)) + tail


# Series exponents and polynomial degrees allowed in input (an n-th root
# builds x^n - u, so n counts too).  Series and polynomial commands build
# and multiply that many coefficients; at this limit the slowest of them,
# series compose over QQ with one-digit numerators and denominators,
# takes about 0.6 s on a 2-vCPU host (larger coefficients cost more still).
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
    it; see ``intmath.power_prints`` for the limit.
    """
    if not isinstance(level, int) or isinstance(level, bool):
        raise ParseError(f"ball level must be an integer, got {level!r}")
    if not isinstance(p, int) or p < 2 or level < 0:
        return  # Ball rejects these
    if not power_prints(p, level):
        limit = str_digit_limit()
        raise ParseError(f"ball modulus {p}^{level} has more than {limit} digits")


def check_ball_center(center):
    """Reject a ball center that is not a JSON integer (a float, bool or string)."""
    if not isinstance(center, int) or isinstance(center, bool):
        raise ParseError(f"ball center must be an integer, got {center!r}")


def parse_clopen(text):
    from .measure import ClopenSet

    data = _json(text, "clopen-set JSON")
    try:
        for ball in data["balls"]:
            check_ball_level(data["p"], ball["level"])
            check_ball_center(ball.get("center", 0))  # a missing one is reported where it is read
        return ClopenSet.from_json_dict(data)
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad clopen-set JSON: {e}") from None


def parse_ball(text, p):
    """A Ball from {"level": L, "center": c} at prime p, to be split.

    The p sub-balls have centers up to p**(L + 1), so that modulus must
    print as well.
    """
    from .measure import Ball

    data = _json(text, "ball JSON")
    try:
        check_ball_level(p, data["level"])
        check_ball_level(p, data["level"] + 1)
        check_ball_center(data["center"])
        return Ball(p, data["level"], data["center"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad ball JSON: {e}") from None


# ----------------------------------------------------------------- families


def parse_family(text):
    """A FiniteFamily from JSON.

    Rational: {"mode": "rational", "labels": [...], "values": ["1", "-1/2"]}.
    P-adic:   {"mode": "padic", "labels": [...], "values": [<padic json>...]}.
    Labels default to 0..n-1.
    """
    return family_from_json(_json(text))


def family_from_json(data):
    from .sumlab import FiniteFamily

    try:
        mode = data["mode"]
        raw_values = _items(data["values"], "family JSON")
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad family JSON: {e}") from None
    if mode not in ("rational", "padic"):
        raise ParseError(f"unknown family mode {mode!r}")
    values = _values(mode, raw_values)
    if "labels" in data:
        labels = _labels(data["labels"], "family JSON")
    else:
        labels = range(len(values))
    return FiniteFamily(labels, values)


def _values(mode, raw_values):
    """Rationals in mode "rational"; p-adic JSON in any other mode."""
    if mode != "rational":
        return [padic_from_json(v) for v in raw_values]
    return [_fraction(str(v), "rational value") for v in raw_values]


def parse_grid(text):
    """The rows of a grid: {"mode": "rational", "rows": [["1", "2"], ...]}.

    Values are read as in a family, except that every mode other than
    "rational" reads p-adic JSON.
    """
    data = _json(text, "grid JSON")
    try:
        mode = data["mode"]
        rows = data["rows"]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad grid JSON: {e}") from None
    return [_values(mode, _items(row, "grid JSON")) for row in _items(rows, "grid JSON")]


def parse_blocks(text):
    """A partition of a family's labels: an array of arrays of labels."""
    blocks = _items(_json(text, "blocks JSON"), "blocks JSON")
    return [_labels(block, "blocks JSON") for block in blocks]


# The largest finite r of an l^r norm.  The norm sums |v|**r exactly, and
# |v|**r has r times the digits of |v|: at this limit a value of 16
# digits still gives an answer that prints.
MAX_NORM_EXPONENT = 256


def parse_norm_exponent(text):
    """The r of an l^r norm: "inf" or an integer up to MAX_NORM_EXPONENT.

    The norm itself checks r >= 1.
    """
    if text == "inf":
        return "inf"
    try:
        r = int(text)
    except ValueError:
        raise ParseError(f"r must be an integer or 'inf', got {text!r}") from None
    if r > MAX_NORM_EXPONENT:
        raise ParseError(f"r {r} exceeds the limit of {MAX_NORM_EXPONENT}")
    return r


def parse_ratio(text):
    """The ratio r of a series norm r**order, such as 1/2 or 0.5."""
    return _fraction(text, "ratio")


def family_to_json(fam):
    if fam.mode == "rational":
        values = [str(v) for v in fam.values]
    else:
        values = [v.to_json_dict() for v in fam.values]
    return json.dumps(
        {"labels": list(fam.labels), "mode": fam.mode, "values": values},
        sort_keys=True,
    )
