"""padicore sums: the finite summation laboratory."""

from .. import textforms
from . import _emit, _format


def run(args, cap):
    from .. import sumlab

    cmd = args.subcommand
    if cmd == "fubini":
        return _emit(
            args,
            sumlab.fubini_check(textforms.parse_grid(args.operands[0])),
            "row-first {row_first}, column-first {column_first}, "
            "direct {direct}, equal={equal}".format_map,
        )
    family = textforms.parse_family(args.operands[0])
    if cmd == "bfs":
        return _emit(args, {"bfs": sumlab.bfs_norm(family)}, "{bfs}".format_map)
    if cmd == "norms":
        report = sumlab.norms(family, textforms.parse_norm_exponent(args.r))
        pretty = "sup {sup}" if report.r == "inf" else "sup {sup}, ||f||_{r}^{r} = {lr_power}"
        return _emit(args, report, pretty.format_map)
    return _emit(  # partition
        args,
        sumlab.partition_check(family, textforms.parse_blocks(args.blocks)),
        "blocks {block_totals} -> {total_from_blocks}, direct {direct}, equal={equal}".format_map,
    )


def arguments(parser, sub):
    if sub == "norms":
        parser.add_argument("--r", default="1")
    if sub == "partition":
        parser.add_argument("--blocks", required=True)
    _format(parser)
    parser.add_argument("operands", nargs=1)
