"""padicore plog: the p-adic logarithm."""

from .. import textforms
from ..errors import ParseError
from . import _check_prec, _common, _emit


def _operand(args):
    """The operand of log or invert, given positionally or by flag."""
    flag = args.x_flag if args.subcommand == "log" else args.z_flag
    if flag is not None and args.operands:
        raise ParseError("give the operand once: positionally or by flag")
    if flag is None and not args.operands:
        raise ParseError("an operand is required")
    return flag if flag is not None else args.operands[0]


def run(args, cap):
    from .. import plog

    cmd = args.subcommand
    operand = _operand(args) if cmd in ("log", "invert") else None
    p = args.p
    prec = _check_prec(args.prec, cap)
    if cmd in ("log", "invert"):
        x = textforms.parse_padic(operand, p, prec, cap)
        return _emit(args, plog.log1p(x) if cmd == "log" else plog.log_inverse(x))
    return _emit(args, plog.log_series_polynomial(p, prec, args.domain_val))  # poly


def arguments(parser, sub):
    _common(parser)
    if sub == "poly":
        parser.add_argument("--domain-val", type=int, default=1)
        return
    if sub == "log":
        parser.add_argument("--x", dest="x_flag", default=None)
    else:
        parser.add_argument("--z", dest="z_flag", default=None)
    parser.add_argument("operands", nargs="*")
