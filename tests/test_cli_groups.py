"""A CLI call loads only the command group it names, and a command builds
only the parser of its own subcommand.

Checked here: the exact modules that every subcommand loads when run
as ``python -m padicore.cli``, ``fractions`` only where a rational is
read or written, the lazy package namespaces, the one
parser a command builds, and help, usage and edge-case output
byte-identical to that of the parser with every group built.  The last check also runs without pytest, on any interpreter:

    PYTHONPATH=src python tests/test_cli_groups.py
"""

import argparse
import functools
import importlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from unittest import mock

import padicore
from padicore import cli, textforms

SRC = os.path.dirname(os.path.dirname(os.path.abspath(padicore.__file__)))

# what a command run as ``python -m padicore.cli`` loads, as runpy runs it:
# its exit code, the padicore modules (and dataclasses or inspect) in
# sys.modules, and the rational modules that it loaded itself, since what
# site imports at start-up differs between hosts
_LOADED_AFTER_RUN = """
import io, json, runpy, sys
from contextlib import redirect_stdout
before = set(sys.modules)
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("padicore.cli", run_name="__main__")
    except SystemExit as e:
        code = e.code
loaded = [m for m in sys.modules if m in ("dataclasses", "inspect") or m.split(".")[0] == "padicore"]
rational = [m for m in ("fractions", "decimal") if m in sys.modules and m not in before]
print(json.dumps([code, sorted(loaded), rational]))
"""

# what every command loads, beside its group's module padicore.commands.<group>
BASE_MODULES = {
    "padicore",
    "padicore.commands",
    "padicore.errors",
    "padicore.intmath",
    "padicore.textforms",
}

# the library and text-form modules of each kind of value
PADIC = {"padicore.padics", "padicore.textforms.padic"}
SERIES = {"padicore._kernels", "padicore.primefield", "padicore.series", "padicore.textforms.series"}
POLYNOMIAL = PADIC | {"padicore.analytic", "padicore.textforms.polynomial"}
CLOPEN = {"padicore.measure", "padicore.textforms.clopen"}
FAMILY = {"padicore.sumlab", "padicore.textforms.family"}
HENSEL = PADIC | {"padicore.analytic", "padicore.hensel"}
PLOG = PADIC | {"padicore.plog"}

# the text forms each group may read or write
GROUP_FORMS = {
    "padic": {"padic"},
    "series": {"series"},
    "analytic": {"padic", "polynomial"},
    "hensel": {"padic", "polynomial"},
    "plog": {"padic", "polynomial"},
    "measure": {"clopen"},
    "sums": {"family", "padic"},
}

_POLY = ["--p", "7", "--prec", "12", "--poly", "x^2-2", "--x0", "3"]
_Q = ["--field", "q", "1 + T + O(T^3)"]
_SET = '{"p":5,"balls":[{"level":2,"center":7}]}'
_SET2 = '{"p":5,"balls":[{"level":1,"center":2}]}'
_RATIONAL = '{"mode":"rational","values":["1","-1/2"]}'

# every subcommand, some in both formats, and the modules it loads beyond
# BASE_MODULES and its group's module
COMMANDS = [
    *[(["padic", op, "--p", "5", "--prec", "4", "1/2", "1/3"], PADIC) for op in ("add", "sub", "mul", "div")],
    (["padic", "add", "--p", "5", "--prec", "4", "--format", "json", "1/2", "1/3"], PADIC),
    *[(["padic", op, "--p", "5", "--prec", "4", "10"], PADIC) for op in ("invert", "valuation", "digits")],
    (["padic", "reduce", "--p", "5", "--prec", "4", "--level", "2", "10"], PADIC),
    *[(["series", op, *_Q, "T + O(T^3)"], SERIES) for op in ("add", "sub", "mul", "compose")],
    (["series", "mul", "--format", "json", *_Q, "T + O(T^3)"], SERIES),
    (["series", "derive", "--field", "fp:5", "1 + T + O(T^3)"], SERIES),
    *[(["series", op, *_Q], SERIES) for op in ("invert", "order", "norm")],
    *[(["analytic", op, "--p", "7", "--prec", "4", "--poly", "x^2+1", "3"], POLYNOMIAL) for op in ("eval", "recenter")],
    (["analytic", "bounds", "--p", "7", "--prec", "4", "--poly", "x^2+1"], POLYNOMIAL),
    (["hensel", "sqrt", "--p", "7", "--prec", "3", "2"], HENSEL),
    (["hensel", "sqrt", "--p", "7", "--prec", "3", "--format", "json", "2"], HENSEL),
    (["hensel", "teichmuller", "--p", "7", "--prec", "3", "3"], HENSEL),
    (["hensel", "nthroot", "--p", "7", "--prec", "3", "--n", "3", "1"], HENSEL),
    (["hensel", "solve", *_POLY], HENSEL | POLYNOMIAL),
    (["hensel", "check", *_POLY, "--t", "1"], HENSEL | POLYNOMIAL),
    (["hensel", "image", *_POLY, "--t", "1", "--level", "3"], HENSEL | POLYNOMIAL | {"padicore.measure"}),
    *[(["plog", op, "--p", "5", "--prec", "3", "5"], PLOG) for op in ("log", "invert")],
    (["plog", "poly", "--p", "5", "--prec", "4"], (PLOG - {"padicore.textforms.padic"}) | {"padicore.analytic"}),
    (["plog", "poly", "--p", "5", "--prec", "4", "--format", "json"], PLOG | POLYNOMIAL),
    *[(["measure", op, _SET], CLOPEN) for op in ("measure", "complement")],
    *[(["measure", op, _SET, _SET2], CLOPEN) for op in ("union", "intersect", "diff")],
    (["measure", "translate", "--shift", "1", _SET], CLOPEN),
    (["measure", "split", "--p", "5", '{"level":1,"center":2}'], CLOPEN),
    (["measure", "count", "--p", "2", "--level", "5"], CLOPEN),
    (["sums", "bfs", _RATIONAL], FAMILY),
    (["sums", "bfs", '{"mode":"padic","values":[{"p":5,"valuation":0,"digits":[1],"abs_prec":3}]}'], FAMILY | PADIC),
    (["sums", "fubini", '{"mode":"rational","rows":[["1","2"],["3","4"]]}'], FAMILY),
    (["sums", "norms", "--r", "2", _RATIONAL], FAMILY),
    (["sums", "partition", "--blocks", "[[0],[1]]", _RATIONAL], FAMILY),
]


def _python(code, *args):
    """Stdout of a fresh interpreter running code with args."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    return proc.stdout


@functools.lru_cache(maxsize=None)
def _loaded(argv):
    """(exit code, padicore modules loaded, rational modules it loaded) of
    argv run as python -m padicore.cli."""
    code, loaded, rational = json.loads(_python(_LOADED_AFTER_RUN, *argv))
    return code, set(loaded), set(rational)


def test_every_subcommand_has_a_command():
    assert {tuple(argv[:2]) for argv, _ in COMMANDS} == {
        (group, sub) for group, (_, subcommands) in cli._GROUPS.items() for sub in subcommands
    }


def test_each_group_loads_only_its_modules():
    for argv, extra in COMMANDS:
        code, loaded, _ = _loaded(tuple(argv))
        assert code == 0, argv
        # the value types are namedtuples; dataclasses imports inspect, ast and dis
        assert not {"dataclasses", "inspect"} & loaded, argv
        assert loaded == BASE_MODULES | {f"padicore.commands.{argv[0]}"} | extra, argv
        forms = {m.rpartition(".")[2] for m in loaded if m.startswith("padicore.textforms.")}
        assert forms <= GROUP_FORMS[argv[0]], argv


def test_padic_commands_load_no_other_group():
    others = ("series", "hensel", "analytic", "measure", "plog", "sumlab")
    for argv, _ in COMMANDS:
        loaded = _loaded(tuple(argv))[1]
        assert {m for m in loaded if m.startswith("padicore.commands.")} == {f"padicore.commands.{argv[0]}"}
        if argv[0] == "padic":
            assert not {f"padicore.{m}" for m in others} & loaded, argv


def test_series_measure_and_rational_sums_load_no_padics():
    for argv, _ in COMMANDS:
        if argv[0] in ("series", "measure") or (argv[0] == "sums" and "padic" not in argv[-1]):
            assert "padicore.padics" not in _loaded(tuple(argv))[1], argv


# the subcommands whose operands and answers are integers, p-adic numbers
# or clopen sets when given integer operands and polynomials
_INTEGER_SUBCOMMANDS = {
    *[("padic", op) for op in ("invert", "valuation", "digits", "reduce")],
    *[("hensel", op) for op in ("sqrt", "nthroot", "teichmuller")],
    *[("plog", op) for op in ("log", "invert")],
    *[("measure", op) for op in ("complement", "union", "intersect", "diff", "translate", "split", "count")],
    *[("analytic", op) for op in ("eval", "recenter")],
}
INTEGER_COMMANDS = [
    *[argv for argv, _ in COMMANDS if tuple(argv[:2]) in _INTEGER_SUBCOMMANDS],
    ["padic", "add", "--p", "5", "--prec", "4", "10", "-3"],
    ["padic", "div", "--p", "5", "--prec", "4", "--format", "json", "10", "3"],
    ["padic", "mul", "--p", "7", "--prec", "4", "3 + 1*7 + O(7^4)", "7^0*[2]+O(7^3)"],
    ["hensel", "sqrt", "--p", "7", "--prec", "3", "2 + O(7^3)"],
    ["analytic", "eval", "--p", "7", "--prec", "4", "--poly", "x^3 - 2*x + 5", "-3"],
]

# commands that read or write a rational, a QQ series or a rational family
RATIONAL_COMMANDS = [
    ["padic", "add", "--p", "5", "--prec", "4", "1/2", "1/3"],
    ["padic", "add", "--p", "5", "--prec", "4", "1/2", "3"],
    ["analytic", "eval", "--p", "7", "--prec", "4", "--poly", "x^2+1/2", "3"],
    ["hensel", "sqrt", "--p", "7", "--prec", "3", "4/2"],
    ["measure", "measure", _SET],
    ["series", "mul", *_Q, "T + O(T^3)"],
    ["sums", "bfs", _RATIONAL],
]


def test_integer_operands_load_no_fractions():
    arithmetic = {("padic", op) for op in ("add", "div", "mul")}
    assert {tuple(argv[:2]) for argv in INTEGER_COMMANDS} == _INTEGER_SUBCOMMANDS | arithmetic
    for argv in INTEGER_COMMANDS:
        code, _, rational = _loaded(tuple(argv))
        assert code == 0, argv
        assert not rational, argv


def test_a_rational_operand_or_answer_loads_fractions():
    for argv in RATIONAL_COMMANDS:
        code, _, rational = _loaded(tuple(argv))
        assert code == 0, argv
        assert rational == {"fractions", "decimal"}, argv


def test_plog_log_and_invert_compile_no_polynomial_code():
    for op in ("log", "invert"):
        for operand in ("5", "1*5 + O(5^3)"):
            loaded = _loaded(("plog", op, "--p", "5", "--prec", "3", operand))[1]
            assert "padicore.plog" in loaded and "padicore.analytic" not in loaded, (op, operand)
    assert "padicore.analytic" in _loaded(("plog", "poly", "--p", "5", "--prec", "4"))[1]


def test_a_command_run_as_main_leaves_no_padicore_cli():
    """cli.py runs once, as __main__: no module imports padicore.cli."""
    for argv, _ in COMMANDS:
        assert "padicore.cli" not in _loaded(tuple(argv))[1], argv


def test_help_loads_every_group_but_no_library_module():
    code, loaded, rational = _loaded(("--help",))
    assert code == 0
    assert loaded == BASE_MODULES | {f"padicore.commands.{group}" for group in cli._GROUPS}
    assert not rational


def test_import_padicore_loads_no_submodule():
    code = "import json, sys, padicore; print(json.dumps([m for m in sys.modules if 'padicore' in m]))"
    assert json.loads(_python(code)) == ["padicore"]


def test_every_public_name_resolves_to_its_home_module():
    namespace = {}
    exec("from padicore import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(padicore.__all__)
    assert set(padicore.__all__) <= set(dir(padicore))
    assert padicore.KERNEL_BACKEND == "pure"
    for name in padicore.__all__:
        if name == "KERNEL_BACKEND":
            continue
        home = importlib.import_module(f"padicore.{padicore._HOME[name]}")
        value = getattr(padicore, name)
        assert value is getattr(home, name) and namespace[name] is value, name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__, name
    assert set(padicore.__all__) <= set(vars(padicore))  # resolved once, then kept
    assert not hasattr(padicore, "no_such_name")


# the names that padicore.textforms defines, each in the submodule of its form
TEXTFORMS_NAMES = {
    "MAX_NORM_EXPONENT",
    "MAX_TERMS",
    "balls_json_items",
    "check_ball_center",
    "check_ball_level",
    "check_term_count",
    "clopen_to_json",
    "family_from_json",
    "family_to_json",
    "padic_from_json",
    "padic_to_json",
    "parse_ball",
    "parse_blocks",
    "parse_clopen",
    "parse_family",
    "parse_field",
    "parse_grid",
    "parse_laurent",
    "parse_norm_exponent",
    "parse_padic",
    "parse_polynomial",
    "parse_polynomial_rational_coeffs",
    "parse_ratio",
    "parse_rational",
    "parse_series",
    "polynomial_from_json",
    "polynomial_to_json",
    "series_from_json",
    "series_to_json",
}


def test_import_textforms_loads_no_form():
    code = "import json, sys, padicore.textforms; print(json.dumps(sorted(m for m in sys.modules if 'padicore' in m)))"
    assert json.loads(_python(code)) == ["padicore", "padicore.errors", "padicore.intmath", "padicore.textforms"]


def test_every_textforms_name_resolves():
    assert set(textforms.__all__) == TEXTFORMS_NAMES <= set(dir(textforms))
    namespace = {}
    exec("from padicore.textforms import *", namespace)
    assert set(namespace) - {"__builtins__"} == TEXTFORMS_NAMES
    for name in TEXTFORMS_NAMES:
        exec(f"from padicore.textforms import {name} as value", namespace)
        value = getattr(textforms, name)
        assert namespace["value"] is value is namespace[name], name
        home = textforms._HOME.get(name)
        if home is not None:
            module = importlib.import_module(f"padicore.textforms.{home}")
            assert getattr(module, name) is value, name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert not hasattr(textforms, "no_such_name")


def test_the_precision_cap_is_defined_once():
    from padicore import intmath, padics

    assert padics.DEFAULT_PRECISION_CAP == padicore.DEFAULT_PRECISION_CAP == intmath.DEFAULT_PRECISION_CAP == 64


# ---------------------------------------------------------- help and usage


def run_main(argv, all_groups=False):
    """(exit code, stdout, stderr) of cli.main; all_groups parses argv with
    the parser of every group, then runs the group's runner."""
    out, err = io.StringIO(), io.StringIO()
    reference = mock.patch.object(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    with reference if all_groups else nullcontext(), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_BALLS = '{"p":5,"balls":[{"level":2,"center":7}]}'

# argparse corners of a command line that names its group and subcommand
EDGE_ARGVS = [
    ["padic", "add", "--pre", "8", "--p", "5", "1/3", "2/7"],  # abbreviated option
    ["padic", "add", "--p=5", "--prec=8", "1/3", "2/7"],
    ["padic", "add", "--p", "5", "--prec", "8", "--", "1/3", "2/7"],
    ["hensel", "sqrt", "--p", "7", "--prec", "3", "--", "2"],
    ["padic", "add", "--p", "5", "--prec", "8", "1/3", "2/7", "-h"],
    ["sums", "bfs", '{"mode":"rational","values":["1"]}', "--help"],
    ["padic", "mul", "1/3", "2/7", "--p", "5", "--prec", "8"],  # operands first
    ["hensel", "nthroot", "6", "--p", "7", "--prec", "8", "--n", "3"],
    ["padic", "add", "--p", "5", "--prec", "4", "padic", "1"],  # a group as operand
    ["measure", "union", _BALLS, "series"],
    ["plog", "log", "--p", "5", "--prec", "3", "--x", "hensel"],
    ["padic", "add", "--p", "3", "--p", "5", "--prec", "8", "1/3", "2/7"],  # repeated
    ["series", "add", "--order", "2", "--order", "3", "--field", "q", "1 + T + O(T^4)", "T + O(T^4)"],
    ["padic", "add", "--p", "5", "--prec", "8", "-5", "1"],
    ["measure", "translate", "--shift", "-5", _BALLS],
    ["padic", "add", "--p", "5", "--prec", "8", "-1/2", "1"],
    ["padic", "sub", "--p", "5", "--prec", "8", "--", "-1/2", "1"],
    # help within a subcommand, which the parser of every group answers
    ["padic", "add", "--p", "5", "--prec", "8", "1/3", "2/7", "-hx"],
    ["padic", "add", "--p", "5", "--prec", "8", "1/3", "2/7", "--he"],
    ["padic", "add", "--p", "5", "--prec", "8", "1/3", "2/7", "--help=1"],
    ["padic", "add", "--p", "5", "--prec", "8", "--=x", "1/3", "2/7"],  # ambiguous, --help too
    ["padic", "add", "--p", "5", "--prec", "8", "--", "1/3", "-h"],  # an operand: not help
    ["analytic", "eval", "--p", "7", "--prec", "4", "--poly=-h", "3"],  # a value: not help
]


def help_and_usage_argvs():
    """--help, a missing subcommand, an invalid choice and a missing
    required flag or operand, at the top level, for every group and
    for every subcommand; group names after the one that runs; and the
    edge argv."""
    argvs = [[], ["--help"], ["nonsense"], ["--nonsense", "padic"]]
    for group, (_, subcommands) in cli._GROUPS.items():
        argvs += [[group], [group, "--help"], [group, "nonsense"], [group, "--help", *cli._GROUPS]]
        for sub in subcommands:
            argvs += [
                [group, sub, "--help"],
                [group, sub],
                [group, sub, "1"],
                [group, sub, "--format", "xml", "1"],
                [group, sub, "--nonsense", "1"],
            ]
    return argvs + EDGE_ARGVS


def help_and_usage_runs():
    """(argv, output, output of the all-groups parser) for each argv."""
    return [(argv, run_main(argv), run_main(argv, True)) for argv in help_and_usage_argvs()]


def test_help_and_usage_match_the_all_groups_parser():
    runs = help_and_usage_runs()
    assert len(runs) == 4 + 7 * 4 + 5 * 40 + 23  # 7 groups of 40 subcommands, 23 edge argv
    assert [argv for argv, output, oracle in runs if output != oracle] == []
    outputs = [output for _, output, _ in runs]
    helps = sum(code == 0 and out.startswith("usage: padicore") for code, out, _ in outputs)
    assert helps == 1 + 7 * 2 + 40 + 3  # three edge argv ask for help
    errors = [err for code, _, err in outputs if code == 2]
    assert all(err.startswith("usage error: ") and err.count("\n") == 1 for err in errors)
    for message in ("invalid choice", "the following arguments are required", "unrecognized arguments"):
        assert any(message in err for err in errors), message


def _each_command_builds_one_parser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, **kw: built.append(self) or init(self, **kw)
    )
    for argv, _ in COMMANDS:
        built.clear()
        assert run_main(argv)[0] == 0, argv
        assert [(type(p), p.prog) for p in built] == [(cli._Parser, "padicore " + " ".join(argv[:2]))], argv


def test_a_command_builds_one_parser(monkeypatch):
    _each_command_builds_one_parser(monkeypatch)


def test_a_command_never_asks_the_terminal_size(monkeypatch):
    def no_terminal(*args, **kwargs):
        raise AssertionError("a subcommand's parser asked for the terminal size")

    monkeypatch.setattr(shutil, "get_terminal_size", no_terminal)
    _each_command_builds_one_parser(monkeypatch)


def test_only_help_within_a_subcommand_goes_to_the_all_groups_parser():
    for token in ("-h", "-hx", "--h", "--he", "--help", "--help=1", "--he=", "--=x", "--="):
        assert cli._asks_help(["1/3", token, "--"]), token
        assert not cli._asks_help(["1/3", "--", token]), token  # an operand
    for token in ("--", "---", "--poly=-h", "--format=-h", "--p", "--hx", "--helpx", "-", "-5", "-H", "1/3"):
        assert not cli._asks_help([token]), token


if __name__ == "__main__":
    runs = help_and_usage_runs()
    differences = [argv for argv, output, oracle in runs if output != oracle]
    print(
        f"Python {sys.version.split()[0]}: {len(runs)} argument lists, "
        f"{len(differences)} differ from the all-groups parser"
    )
    for argv in differences:
        print("  ", argv)
    sys.exit(1 if differences else 0)
