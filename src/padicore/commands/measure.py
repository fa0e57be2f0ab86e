"""padicore measure: clopen ball algebra and measure."""

from .. import textforms
from . import _emit, _format


def run(args, cap):
    from .. import measure

    cmd = args.subcommand
    if cmd == "count":
        textforms.check_ball_level(args.p, args.level)
        n = measure.residue_count(args.p, args.level)
        return _emit(args, {"count": n}, "{count}".format_map)
    if cmd == "split":
        ball = textforms.parse_ball(args.operands[0], args.p)
        level, step = ball.level + 1, args.p**ball.level
        mod = f" mod {args.p}^{level}"
        return _emit(
            args,
            range(ball.center, args.p * step, step),  # the centers of the p sub-balls
            lambda centers: (mod + ", ").join(map(str, centers)) + mod,
            lambda centers: f"[{textforms.balls_json_items(level, centers)}]",
        )
    sets = [textforms.parse_clopen(t) for t in args.operands]
    if cmd == "measure":
        return _emit(args, {"measure": sets[0].measure()}, "{measure}".format_map)
    if cmd == "complement":
        out = sets[0].complement()
    elif cmd == "translate":
        out = sets[0].translate(args.shift)
    else:
        a, b = sets
        out = {"union": a.union, "intersect": a.intersect, "diff": a.difference}[cmd](b)
    return _emit(args, out)


def arguments(parser, sub):
    if sub in ("split", "count"):
        parser.add_argument("--p", type=int, required=True)
    if sub == "count":
        parser.add_argument("--level", type=int, required=True)
    _format(parser)
    if sub == "translate":
        parser.add_argument("--shift", type=int, required=True)
    if sub in ("union", "intersect", "diff"):
        parser.add_argument("operands", nargs=2)
    elif sub != "count":
        parser.add_argument("operands", nargs=1)
