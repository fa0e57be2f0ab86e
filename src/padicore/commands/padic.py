"""padicore padic: p-adic arithmetic."""

from .. import textforms
from ..errors import ParseError
from . import _ARITHMETIC, _check_prec, _common, _emit


def run(args, cap):
    p = args.p
    prec = _check_prec(args.prec, cap)
    ops = [textforms.parse_padic(t, p, prec, cap) for t in args.operands]
    cmd = args.subcommand
    if cmd in ("add", "sub", "mul", "div"):
        if len(ops) != 2:
            raise ParseError(f"padic {cmd} takes exactly two operands")
        return _emit(args, _ARITHMETIC[cmd](*ops))
    if len(ops) != 1:
        raise ParseError(f"padic {cmd} takes exactly one operand")
    x = ops[0]
    if cmd == "invert":
        return _emit(args, x.invert())
    if cmd == "valuation":
        if x.is_zero:
            return _emit(args, {"at_least": x.abs_prec}, ">= {at_least}".format_map)
        return _emit(args, {"valuation": x.valuation()}, "{valuation}".format_map)
    if cmd == "digits":
        return _emit(
            args,
            {
                "digits": x.digits(),
                "valuation": None if x.is_zero else x.v,
                "abs_prec": x.abs_prec,
            },
            lambda f: f"digits {f['digits']} from exponent {x.valuation_bound}, "
            f"known mod {x.p}^{x.abs_prec}",
        )
    fields = {"p": x.p, "level": args.level, "value": x.residue(args.level)}  # reduce
    return _emit(args, fields, "{value} mod {p}^{level}".format_map)


def arguments(parser, sub):
    _common(parser)
    if sub == "reduce":
        parser.add_argument("--level", type=int, required=True)
    parser.add_argument("operands", nargs="+")
