"""The CLI's command groups, one module each, and what they share.

A group's module has ``arguments(parser, subcommand)``, which adds the
arguments of one of its subcommands, and ``run(args, cap)``, which runs
it and imports the library modules it needs.  Each reads and writes
values through the lazy ``textforms`` namespace, which loads only the
forms asked for.  A command thus compiles ``cli.py``, this package, its
own group's module, the text forms it uses and the library modules
behind them, and nothing of the other groups.

Nothing here imports ``padicore.cli``: ``python -m padicore.cli`` runs
``cli.py`` as ``__main__``, and importing it by name would run it again.
"""

import json
import math
import operator

from .. import textforms
from ..errors import DomainError, ParseError
from ..intmath import int_prints, is_fraction, str_digit_limit


def _check_prec(prec, cap):
    if prec is None:
        raise ParseError("--prec is required here")
    if prec < 1:
        raise ParseError("--prec must be at least 1")
    if prec > cap:
        raise ParseError(f"--prec {prec} exceeds the precision cap {cap}")
    return prec


def _check_prints(*numbers):
    """An answer with a rational or int whose numerator or denominator has
    more digits than str() prints is a DomainError."""
    for q in numbers:
        if not (int_prints(q.numerator) and int_prints(q.denominator)):
            raise DomainError(f"the answer has more than {str_digit_limit()} digits")


def _check_exponents(x):
    """A Padic answer prints exponents from its valuation to its precision."""
    _check_prints(x.v, x.abs_prec)


def _field(v):
    """A report field as a JSON value: a rational's checked text, a checked
    int, a Padic's checked pretty form, "inf" for infinity, a list for a
    tuple; any other value as it is."""
    if isinstance(v, int):
        _check_prints(v)
        return v
    if is_fraction(v):
        _check_prints(v)
        return str(v)
    if isinstance(v, tuple):
        return [_field(x) for x in v]
    if v is math.inf:
        return "inf"
    if hasattr(v, "pretty"):
        _check_exponents(v)
        return v.pretty()
    return v


# The textforms serializer of each value answer, by class name: a command
# loads only its own group's modules, so the classes are not imported here.
_TO_JSON = {
    "Padic": "padic_to_json",
    "PowerSeries": "series_to_json",
    "LaurentSeries": "series_to_json",
    "PadicPolynomial": "polynomial_to_json",
    "ClopenSet": "clopen_to_json",
}


def _emit(args, answer, pretty=None, to_json=None):
    """Print one answer, rendered once, in the format asked for.

    With no pretty, the answer is a value (a Padic, series, polynomial or
    clopen set): it prints its canonical textforms JSON, or its pretty()
    form; a clopen set's pretty form is its JSON.  Otherwise the answer is
    a report namedtuple or a dict of fields, each encoded by _field, or a
    list of JSON values; it prints as JSON, or as pretty(fields).  A
    to_json renderer writes the JSON text in place of json.dumps.
    """
    if pretty is None:
        name = type(answer).__name__
        if name in ("Padic", "PadicPolynomial"):
            for x in getattr(answer, "coeffs", (answer,)):
                _check_exponents(x)
        if args.format == "json" or name == "ClopenSet":
            text = getattr(textforms, _TO_JSON[name])(answer)
        else:
            text = answer.pretty()
    else:
        fields = answer._asdict() if hasattr(answer, "_asdict") else answer
        if isinstance(fields, dict):
            fields = {name: _field(v) for name, v in fields.items()}
        if args.format != "json":
            text = pretty(fields)
        else:
            text = to_json(fields) if to_json else json.dumps(fields, sort_keys=True)
    print(text)
    return 0


def _format(sp):
    sp.add_argument("--format", choices=("pretty", "json"), default="pretty")


def _common(sp):
    sp.add_argument("--p", type=int, help="prime of the ambient field")
    sp.add_argument("--prec", type=int, help="absolute precision in digits")
    _format(sp)


def _poly(sp):
    _common(sp)
    sp.add_argument("--poly", required=True)


# the binary operations of padic and series
_ARITHMETIC = dict(add=operator.add, sub=operator.sub, mul=operator.mul, div=operator.truediv)
