"""The p-adic forms: JSON, compact, pretty, and a rational literal read
at a prime and precision."""

import json
import re

from ..errors import ParseError
from ..intmath import DEFAULT_PRECISION_CAP, check_prime, int_valuation, power_prints
from ..padics import Padic, _check_unit_modulus_prints
from . import _int, _json, parse_rational

# the pretty form's patterns, matched through re.match, whose cache
# compiles each on first use: a compact or rational operand never meets them
_PADIC_TERM_RE = r"^(\d+)(?:\*(\d+)(?:\^(-?\d+))?)?$"
_PADIC_O_RE = r"^O\((\d+)\^(-?\d+)\)$"
_PADIC_COMPACT_RE = re.compile(r"^(\d+)\^(-?\d+)\*\[([\d,]*)\]\+O\((\d+)\^(-?\d+)\)$")


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
    om = re.match(_PADIC_O_RE, parts[-1].replace(" ", ""))
    if not om:
        raise ParseError(f"p-adic literal must end with O(p^N): {text!r}")
    p = _int(om.group(1))
    abs_prec = _int(om.group(2))
    terms, low = [], abs_prec
    for part in parts[:-1]:
        tm = re.match(_PADIC_TERM_RE, part.replace(" ", ""))
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
