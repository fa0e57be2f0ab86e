"""padicore analytic: p-adic polynomials on balls."""

from .. import textforms
from . import _check_prec, _emit, _poly


def run(args, cap):
    from .. import analytic

    p = args.p
    prec = _check_prec(args.prec, cap)
    poly = textforms.parse_polynomial(args.poly, p, prec)
    cmd = args.subcommand
    if cmd == "eval":
        x = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, poly.evaluate(x, min_valuation=args.ball_exp))
    if cmd == "recenter":
        x0 = textforms.parse_padic(args.operands[0], p, prec, cap)
        return _emit(args, poly.recenter(x0))
    m = args.radius_exp  # bounds
    return _emit(
        args,
        {
            "lipschitz": analytic.lipschitz_bound(poly, m),
            "second_order": analytic.quadratic_bound(poly, m),
            "radius_exp": m,
        },
        "lipschitz valuation {lipschitz}, second-order valuation {second_order}".format_map,
    )


def arguments(parser, sub):
    _poly(parser)
    if sub == "eval":
        parser.add_argument("--ball-exp", type=int, default=None)
    if sub == "bounds":
        parser.add_argument("--radius-exp", type=int, default=0)
    else:
        parser.add_argument("operands", nargs=1)
