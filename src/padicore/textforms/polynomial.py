"""The p-adic polynomial forms: JSON, and text such as ``x^2 - 2`` with
rational coefficients read at a prime and precision."""

import json
import re

from ..analytic import PadicPolynomial
from ..errors import ParseError
from ..padics import Padic
from . import _json, _term, check_term_count
from .padic import _rational_ball

_POLY_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?\s*\*?\s*([A-Za-z])(?:\^(\d+))?$|^(\d+(?:/\d+)?)$")


def parse_polynomial(text, p, abs_prec):
    """A PadicPolynomial from JSON, or from text like ``x^2 - 2``.

    Each text coefficient is read at prime p to precision abs_prec as a
    rational operand is, and refused as one is; trailing zero terms are
    dropped.  A JSON polynomial must be p-adic for that p when p is given.
    """
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

    Terms are ``c``, ``c*x^k``, or ``x^k`` joined by + and -.  A
    coefficient is an int, or a Fraction where a term with a written
    denominator enters it, as ``parse_rational`` reads them.
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
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    degree = max(coeffs)
    return [coeffs.get(e, 0) for e in range(degree + 1)]


def polynomial_to_json(f):
    return json.dumps(
        {"p": f.p, "coeffs": [c.to_json_dict() for c in f.coeffs]},
        sort_keys=True,
    )


def polynomial_from_json(data):
    try:
        p = data["p"]
        coeffs = [Padic.from_json_dict(c) for c in data["coeffs"]]
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad polynomial JSON: {e}") from None
    check_term_count(len(coeffs) - 1, "polynomial degree")
    return PadicPolynomial(p, coeffs)
