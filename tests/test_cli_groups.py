"""A CLI call loads only the command group it names, and a command builds
only the parser of its own subcommand.

Checked here: the modules that one command of each group loads, the lazy
package namespace, the one parser a command builds, and help, usage and
edge-case output byte-identical to that of the parser with every group
built.  The last check also runs without pytest, on any interpreter:

    PYTHONPATH=src python tests/test_cli_groups.py
"""

import argparse
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
from padicore import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(padicore.__file__)))

_LOADED_AFTER_MAIN = """
import io, json, sys
from contextlib import redirect_stdout
from padicore import cli
with redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m in ("dataclasses", "inspect") or m.split(".")[0] == "padicore"]
print(json.dumps([code, sorted(loaded)]))
"""

# what every command loads
BASE_MODULES = {
    "padicore",
    "padicore.cli",
    "padicore.errors",
    "padicore.intmath",
    "padicore.padics",
    "padicore.textforms",
}

# one command per group, and the modules it loads beyond BASE_MODULES
GROUP_MODULES = [
    (["padic", "add", "--p", "5", "--prec", "4", "1/2", "1/2"], set()),
    (
        ["series", "compose", "--field", "q", "1 + T + O(T^3)", "T + O(T^3)"],
        {"padicore._kernels", "padicore.primefield", "padicore.series"},
    ),
    (
        ["analytic", "eval", "--p", "7", "--prec", "4", "--poly", "x^2+1", "3"],
        {"padicore.analytic"},
    ),
    (
        ["hensel", "sqrt", "--p", "7", "--prec", "3", "2"],
        {"padicore.analytic", "padicore.hensel"},
    ),
    (
        ["plog", "log", "--p", "5", "--prec", "3", "5"],
        {"padicore.analytic", "padicore.plog"},
    ),
    (["measure", "count", "--p", "2", "--level", "5"], {"padicore.measure"}),
    (["sums", "bfs", '{"mode":"rational","values":["1"]}'], {"padicore.sumlab"}),
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


def test_each_group_loads_only_its_modules():
    for argv, extra in GROUP_MODULES:
        code, loaded = json.loads(_python(_LOADED_AFTER_MAIN, *argv))
        assert code == 0, argv
        # the value types are namedtuples; dataclasses imports inspect, ast and dis
        assert not {"dataclasses", "inspect"} & set(loaded), argv
        assert set(loaded) == BASE_MODULES | extra, argv


def test_padic_commands_load_no_other_group():
    _, loaded = json.loads(_python(_LOADED_AFTER_MAIN, *GROUP_MODULES[0][0]))
    others = ("series", "hensel", "analytic", "measure", "plog", "sumlab")
    assert not {f"padicore.{m}" for m in others} & set(loaded)
    assert "dataclasses" not in loaded


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
    for group, (_, subcommands, _, _) in cli._GROUPS.items():
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
    for argv, _ in GROUP_MODULES:
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
