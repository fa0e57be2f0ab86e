"""padicore hensel: ball root solving."""

from .. import textforms
from ..errors import ParseError
from . import _check_prec, _common, _emit, _poly


def run(args, cap):
    from .. import hensel

    p = args.p
    prec = _check_prec(args.prec, cap)
    cmd = args.subcommand
    if cmd == "sqrt":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, hensel.sqrt(u))
    if cmd == "nthroot":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        # nth_root builds x^n - u densely, so n is a polynomial degree
        if args.n > textforms.MAX_TERMS:
            raise ParseError(f"root degree {args.n} exceeds the limit of {textforms.MAX_TERMS}")
        return _emit(args, hensel.nth_root(u, args.n))
    if cmd == "teichmuller":
        u = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, hensel.teichmuller(u))
    poly = textforms.parse_polynomial(args.poly, p, prec)
    x0 = textforms.parse_padic(args.x0, p, prec, cap)
    if cmd == "check":
        verdict = ("fails", "ok")
        return _emit(
            args,
            hensel.check_condition(poly, x0, args.m, args.t),
            lambda f: f"strict={verdict[f['ok']]} nonstrict={verdict[f['ok_nonstrict']]} "
            f"v(f'(x0))={f['derivative_valuation']} mu2={f['mu2']} gap={f['gap']}",
        )
    if cmd == "solve":
        z = textforms.parse_padic(args.z, p, prec, cap)
        problem = hensel.HenselProblem(poly, x0, m=args.m, t_exp=args.t)
        return _emit(args, hensel.solve(problem, z))
    return _emit(  # image
        args,
        hensel.ball_image_check(poly, x0, args.m, args.t, args.level),
        "{status}: image==target is {equal} "
        "(level {level}, {source_size} source residues)".format_map,
    )


def arguments(parser, sub):
    if sub in ("sqrt", "teichmuller", "nthroot"):
        _common(parser)
        if sub == "nthroot":
            parser.add_argument("--n", type=int, required=True)
        parser.add_argument("operands", nargs=1)
        return
    _poly(parser)  # solve, check, image
    parser.add_argument("--x0", required=True)
    if sub == "solve":
        parser.add_argument("--z", default="0")
    parser.add_argument("--m", type=int, default=0)
    if sub == "solve":
        parser.add_argument("--t", type=int, default=None)
    else:
        parser.add_argument("--t", type=int, required=True)
    if sub == "image":
        parser.add_argument("--level", type=int, required=True)
