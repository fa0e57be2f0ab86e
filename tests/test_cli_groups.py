"""A CLI call loads and builds only the command group it names.

Checked here: the modules that one command of each group loads, the lazy
package namespace, and help and usage output byte-identical to that of a
parser with every group built.  The last check also runs without pytest,
on any interpreter:

    PYTHONPATH=src python tests/test_cli_groups.py
"""

import argparse
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

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


def _subcommands(parser):
    """Name -> parser of the subcommands of an argparse parser ({} if none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


_build_parser = cli._build_parser


def run_main(argv, all_groups=False):
    """(exit code, stdout, stderr) of cli.main; all_groups builds every group."""
    out, err = io.StringIO(), io.StringIO()
    build = cli._build_parser
    if all_groups:
        cli._build_parser = lambda groups: build(cli._GROUPS)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli._build_parser = build
    return code, out.getvalue(), err.getvalue()


def help_and_usage_argvs():
    """--help, a missing subcommand, an invalid choice and a missing
    required flag or operand, at the top level, for every group and
    for every subcommand; and group names after the one that runs."""
    argvs = [[], ["--help"], ["nonsense"], ["--nonsense", "padic"]]
    for group, group_parser in _subcommands(_build_parser(cli._GROUPS)).items():
        argvs += [[group], [group, "--help"], [group, "nonsense"], [group, "--help", *cli._GROUPS]]
        for sub in _subcommands(group_parser):
            argvs += [
                [group, sub, "--help"],
                [group, sub],
                [group, sub, "1"],
                [group, sub, "--format", "xml", "1"],
                [group, sub, "--nonsense", "1"],
            ]
    return argvs


def help_and_usage_runs():
    """(argv, output, output of the all-groups parser) for each argv."""
    return [(argv, run_main(argv), run_main(argv, True)) for argv in help_and_usage_argvs()]


def test_help_and_usage_match_the_all_groups_parser():
    runs = help_and_usage_runs()
    assert len(runs) == 4 + 7 * 4 + 5 * 40  # 7 groups of 40 subcommands
    assert [argv for argv, output, oracle in runs if output != oracle] == []
    outputs = [output for _, output, _ in runs]
    assert sum(code == 0 and out.startswith("usage: padicore") for code, out, _ in outputs) == 1 + 7 * 2 + 40
    errors = [err for code, _, err in outputs if code == 2]
    assert all(err.startswith("usage error: ") and err.count("\n") == 1 for err in errors)
    for message in ("invalid choice", "the following arguments are required", "unrecognized arguments"):
        assert any(message in err for err in errors), message


def test_main_builds_the_named_group_only(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda groups: built.append(set(groups)) or _build_parser(groups))
    for argv, _ in GROUP_MODULES:
        assert run_main(argv)[0] == 0
    assert run_main(["--help"])[0] == 0
    assert built == [{argv[0]} for argv, _ in GROUP_MODULES] + [{None}]


def test_only_the_named_group_gets_its_subcommands():
    groups = _subcommands(_build_parser({"hensel"}))
    assert list(groups) == list(cli._GROUPS)
    assert [name for name, parser in groups.items() if _subcommands(parser)] == ["hensel"]
    assert not any(_subcommands(parser) for parser in _subcommands(_build_parser({None})).values())


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
