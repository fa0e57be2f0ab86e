"""padicore series: formal power and Laurent series."""

from .. import textforms
from ..errors import DomainError, ParseError
from . import _ARITHMETIC, _check_prints, _emit, _format


def _operand(text, field, order):
    from ..series import PowerSeries

    s = textforms.parse_series(text, field)
    if order is not None:
        if isinstance(s, PowerSeries):
            s = s.truncate(min(order, s.prec))
        else:
            s = s._truncated(min(order, s.prec_exponent))
    return s


def run(args, cap):
    from ..series import LaurentSeries, PowerSeries

    cmd = args.subcommand
    field = textforms.parse_field(args.field) if args.field else None
    ops = [_operand(t, field, args.order) for t in args.operands]
    if cmd in ("add", "sub", "mul", "compose"):
        if len(ops) != 2:
            raise ParseError(f"series {cmd} takes exactly two operands")
        a, b = ops
        if cmd == "compose":
            if not isinstance(a, PowerSeries) or not isinstance(b, PowerSeries):
                raise DomainError("composition is defined for power series")
            out = a.compose(b)
        else:
            if isinstance(a, LaurentSeries) or isinstance(b, LaurentSeries):
                if isinstance(a, PowerSeries):
                    a = LaurentSeries.from_power_series(a)
                if isinstance(b, PowerSeries):
                    b = LaurentSeries.from_power_series(b)
            out = _ARITHMETIC[cmd](a, b)
    else:
        if len(ops) != 1:
            raise ParseError(f"series {cmd} takes exactly one operand")
        s = ops[0]
        if cmd == "order":
            n = s.order()
            if n is None:
                bound = s.prec if isinstance(s, PowerSeries) else s.order_bound
                return _emit(args, {"at_least": bound}, ">= {at_least}".format_map)
            return _emit(args, {"order": n}, "{order}".format_map)
        if cmd == "norm":
            r = textforms.parse_ratio(args.ratio)
            value = s.norm(r)
            pretty = "0" if value.is_zero else "({r})^{exponent}"
            return _emit(args, {"r": r, "exponent": value.exponent}, pretty.format_map)
        if cmd == "derive":
            if not isinstance(s, PowerSeries):
                raise DomainError("derivative is provided for power series")
            out = s.derive()
        else:  # invert
            if isinstance(s, PowerSeries):
                s = LaurentSeries.from_power_series(s)
            out = s.invert()
    unit = getattr(out, "unit", out)  # a LaurentSeries is T**tail * unit
    for c in unit.coeffs if unit is not None else ():
        _check_prints(c)
    return _emit(args, out)


def arguments(parser, sub):
    parser.add_argument("--field", help="coefficient field, e.g. fp:3 or q")
    parser.add_argument("--order", type=int, help="truncate operands to this order")
    if sub == "norm":
        parser.add_argument("--ratio", default="1/2", help="the ratio r in (0,1)")
    _format(parser)
    parser.add_argument("operands", nargs="+")
