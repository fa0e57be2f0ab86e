"""CLI behaviour: golden outputs, exit codes, determinism, round-trips."""

import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest

import padicore
from padicore.cli import main
from padicore.padics import DEFAULT_PRECISION_CAP
from padicore.textforms import MAX_NORM_EXPONENT, MAX_TERMS
from helpers import arnault_composite


def run(argv, env_cap=None, monkeypatch=None):
    if env_cap is not None:
        monkeypatch.setenv("PADICORE_PREC_CAP", str(env_cap))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------ golden paths


def test_hensel_sqrt_golden():
    code, out, err = run(["hensel", "sqrt", "--p", "7", "--prec", "3", "2"])
    assert code == 0 and err == ""
    assert out.strip() == "3 + 1*7 + 2*7^2 + O(7^3)"


def test_padic_add_golden():
    code, out, _ = run(["padic", "add", "--p", "5", "--prec", "4", "1/2", "1/2"])
    assert code == 0
    assert out.strip() == "1 + O(5^4)"


def test_plog_log_golden():
    code, out, _ = run(["plog", "log", "--p", "5", "--prec", "3", "5"])
    assert code == 0
    assert out.strip() == "1*5 + 2*5^2 + O(5^3)"  # 55 mod 125


def test_plog_flag_and_positional_agree():
    _, a, _ = run(["plog", "log", "--p", "5", "--prec", "3", "5"])
    _, b, _ = run(["plog", "log", "--p", "5", "--prec", "3", "--x", "5"])
    assert a == b


def test_plog_invert_golden():
    code, out, _ = run(
        ["plog", "invert", "--p", "5", "--prec", "3", "--z", "1*5 + 2*5^2 + O(5^3)"]
    )
    assert code == 0
    assert out.strip() == "1*5 + O(5^3)"


def test_teichmuller_golden():
    code, out, _ = run(["hensel", "teichmuller", "--p", "5", "--prec", "3", "2"])
    assert code == 0
    assert out.strip() == "2 + 1*5 + 2*5^2 + O(5^3)"  # 57 mod 125


def test_series_compose_golden():
    code, out, _ = run(
        [
            "series",
            "compose",
            "--field",
            "q",
            "1 + T + T^2 + T^3 + O(T^4)",
            "T + T^2 + O(T^4)",
        ]
    )
    assert code == 0
    assert out.strip() == "1 + T + 2*T^2 + 3*T^3 + O(T^4)"


def test_measure_golden():
    code, out, _ = run(
        ["measure", "measure", '{"p": 5, "balls": [{"level": 1, "center": 0}]}']
    )
    assert code == 0 and out.strip() == "1/5"


def test_sums_bfs_golden():
    code, out, _ = run(
        ["sums", "bfs", '{"mode": "rational", "values": ["1", "-1", "1"]}']
    )
    assert code == 0 and out.strip() == "2"


def test_hensel_solve_with_poly_grammar():
    code, out, _ = run(
        [
            "hensel",
            "solve",
            "--p",
            "7",
            "--prec",
            "3",
            "--poly",
            "x^2-2",
            "--x0",
            "3",
        ]
    )
    assert code == 0
    assert out.strip() == "3 + 1*7 + 2*7^2 + O(7^3)"


def test_analytic_eval_and_bounds():
    code, out, _ = run(
        ["analytic", "eval", "--p", "7", "--prec", "4", "--poly", "x^2+1", "3"]
    )
    assert code == 0
    assert out.strip() == "3 + 1*7 + O(7^4)"  # 10
    code, out, _ = run(
        [
            "analytic",
            "bounds",
            "--p",
            "7",
            "--prec",
            "4",
            "--poly",
            "x + x^3",
            "--radius-exp",
            "1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    assert json.loads(out) == {"lipschitz": 0, "second_order": 1, "radius_exp": 1}


def test_analytic_recenter():
    code, out, _ = run(
        ["analytic", "recenter", "--p", "7", "--prec", "4", "--poly", "x^2", "3"]
    )
    assert code == 0
    assert out.strip() == "[2 + 1*7 + O(7^4), 6 + O(7^4), 1 + O(7^4)]"


def test_measure_count_and_split():
    code, out, _ = run(["measure", "count", "--p", "2", "--level", "5"])
    assert code == 0 and out.strip() == "32"
    code, out, _ = run(
        ["measure", "split", "--p", "2", '{"level": 1, "center": 1}']
    )
    assert code == 0 and out.strip() == "1 mod 2^2, 3 mod 2^2"


def test_measure_split_writes_the_sub_balls_of_split():
    """The answer is written from the sub-ball centers; it reads as the
    JSON and pretty forms of Ball.split()."""
    from padicore import Ball

    rng = random.Random(5)
    for p in (2, 3, 7, 101):
        for level in (0, 1, 5):
            ball = Ball(p, level, rng.randrange(p ** (level + 1)))
            argv = ["measure", "split", "--p", str(p), json.dumps({"level": level, "center": ball.center})]
            parts = ball.split()
            code, out, _ = run(argv + ["--format", "json"])
            assert (code, out) == (0, json.dumps([b.to_json_dict() for b in parts], sort_keys=True) + "\n")
            code, out, _ = run(argv)
            assert (code, out) == (0, ", ".join(f"{b.center} mod {p}^{b.level}" for b in parts) + "\n")


def test_padic_full_surface():
    base = ["--p", "5", "--prec", "6"]
    assert run(["padic", "sub", *base, "1", "1/2"])[1].strip().startswith("3 +")
    assert run(["padic", "div", *base, "1", "2"])[0] == 0
    assert run(["padic", "invert", *base, "2"])[0] == 0
    code, out, _ = run(["padic", "valuation", *base, "50"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(["padic", "valuation", *base, "0"])
    assert code == 0 and out.strip() == ">= 6"
    code, out, _ = run(["padic", "digits", *base, "108"])
    assert code == 0 and "digits [3, 1, 4, 0, 0, 0]" in out  # 108 base 5
    code, out, _ = run(
        ["padic", "reduce", "--p", "7", "--prec", "4", "--level", "2", "108"]
    )
    assert code == 0 and out.strip() == "10 mod 7^2"


def test_measure_full_surface():
    a = '{"p": 3, "balls": [{"level": 1, "center": 0}]}'
    b = '{"p": 3, "balls": [{"level": 2, "center": 4}]}'
    code, out, _ = run(["measure", "union", a, b])
    assert code == 0 and "balls" in out
    code, out, _ = run(["measure", "intersect", a, b])
    assert code == 0
    code, out, _ = run(["measure", "diff", a, b])
    assert code == 0
    code, out, _ = run(["measure", "complement", a, "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["balls"]) == 2
    code, out, _ = run(["measure", "translate", "--shift", "1", a])
    assert code == 0 and json.loads(out)["balls"] == [{"level": 1, "center": 1}]


def test_sums_full_surface():
    fam = '{"mode": "rational", "values": ["1", "-1", "2"]}'
    code, out, _ = run(["sums", "norms", "--r", "2", fam, "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data == {"sup": "2", "r": 2, "lr_power": "6"}
    code, out, _ = run(["sums", "norms", "--r", "inf", fam])
    assert code == 0 and out.strip() == "sup 2"
    grid = '{"mode": "rational", "rows": [["1", "2"], ["3", "4"]]}'
    code, out, _ = run(["sums", "fubini", grid, "--format", "json"])
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run(
        ["sums", "partition", "--blocks", "[[0, 1], [2]]", fam, "--format", "json"]
    )
    assert code == 0 and json.loads(out)["equal"] is True


def test_series_full_surface():
    f = "1 + 2*T + O(T^4)"
    assert run(["series", "add", "--field", "fp:3", f, f])[0] == 0
    assert run(["series", "sub", "--field", "fp:3", f, f])[0] == 0
    code, out, _ = run(["series", "invert", "--field", "fp:3", "T + T^2 + O(T^5)"])
    assert code == 0 and out.strip().startswith("T^-1")
    code, out, _ = run(["series", "order", "--field", "fp:3", "T^2 + O(T^5)"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        ["series", "norm", "--field", "fp:3", "--ratio", "1/2", "T^2 + O(T^5)"]
    )
    assert code == 0 and out.strip() == "(1/2)^2"
    code, out, _ = run(
        ["series", "mul", "--field", "fp:3", "--order", "2", f, f]
    )
    assert code == 0 and out.strip() == "1 + T + O(T^2)"


def test_hensel_check_image_nthroot_surface():
    code, out, _ = run(
        [
            "hensel", "check", "--p", "2", "--prec", "8",
            "--poly", "x^2-17", "--x0", "1", "--m", "0", "--t", "1",
            "--format", "json",
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is False and data["ok_nonstrict"] is True
    code, out, _ = run(
        [
            "hensel", "image", "--p", "3", "--prec", "8",
            "--poly", "x^2", "--x0", "1", "--t", "1", "--level", "3",
            "--format", "json",
        ]
    )
    assert code == 0 and json.loads(out)["equal"] is True
    code, out, _ = run(
        ["hensel", "nthroot", "--p", "5", "--prec", "2", "--n", "3", "6"]
    )
    assert code == 0 and out.strip() == "1 + 2*5 + O(5^2)"


def test_plog_poly_surface():
    code, out, _ = run(
        ["plog", "poly", "--p", "5", "--prec", "3", "--domain-val", "1", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["coeffs"]) == 3  # degree 2: 0 + x - x^2/2


# -------------------------------------------------------------- exit codes


def test_domain_error_exit_1():
    code, out, err = run(["hensel", "sqrt", "--p", "5", "--prec", "3", "3"])
    assert code == 1 and out == ""
    assert "not a quadratic residue" in err
    # a pretty form's prime is checked before the value is built
    code, out, err = run(["padic", "add", "--p", "7", "--prec", "8", "1*0^-1 + O(0^3)", "1"])
    assert (code, out, err) == (1, "", "error: modulus must be an integer >= 2, got 0\n")


def test_divergent_log_exit_1():
    code, _, err = run(["plog", "log", "--p", "5", "--prec", "4", "3"])
    assert code == 1
    assert "diverges" in err


def test_usage_error_exit_2():
    assert run(["padic", "add", "--p", "5", "1/2", "1/2"])[0] == 2
    assert run(["padic", "nonsense"])[0] == 2
    assert run(["series", "mul", "--field", "fp:3", "(bad"])[0] == 2
    assert run(["padic", "add", "--p", "5", "--prec", "4", "1/0", "1"])[0] == 2


_PREC_GROUPS = [
    ["padic", "add", "--p", "5", "1", "2"],
    ["analytic", "bounds", "--p", "5", "--poly", "x^2"],
    ["hensel", "sqrt", "--p", "7", "2"],
    ["plog", "poly", "--p", "5"],
]
_SERIES_OPERAND = ["--field", "q", "1 + T + O(T^3)"]

# the CLI's own usage checks, past argparse: (argv, the one stderr line)
OWN_USAGE_CHECKS = (
    [(argv, "--prec is required here") for argv in _PREC_GROUPS]
    + [(argv + ["--prec", "0"], "--prec must be at least 1") for argv in _PREC_GROUPS]
    + [
        (["padic", sub, "--p", "5", "--prec", "4", "1"], f"padic {sub} takes exactly two operands")
        for sub in ("add", "sub", "mul", "div")
    ]
    + [
        (["padic", sub, "--p", "5", "--prec", "4", "1", "2"], f"padic {sub} takes exactly one operand")
        for sub in ("invert", "valuation", "digits")
    ]
    + [
        (["padic", "reduce", "--p", "5", "--prec", "4", "--level", "2", "1", "2"], "padic reduce takes exactly one operand"),
    ]
    + [(["series", sub, *_SERIES_OPERAND], f"series {sub} takes exactly two operands") for sub in ("add", "sub", "mul", "compose")]
    + [
        (["series", sub, *_SERIES_OPERAND, "T + O(T^3)"], f"series {sub} takes exactly one operand")
        for sub in ("derive", "invert", "order", "norm")
    ]
    + [
        (["plog", "log", "--p", "5", "--prec", "3", "--x", "5", "5"], "give the operand once: positionally or by flag"),
        (["plog", "invert", "--p", "5", "--prec", "3", "--z", "5", "5"], "give the operand once: positionally or by flag"),
        (["plog", "log", "--p", "5", "--prec", "3"], "an operand is required"),
        (["plog", "invert", "--p", "5", "--prec", "3"], "an operand is required"),
        (["plog", "log", "--p", "5", "--x", "5", "5"], "give the operand once: positionally or by flag"),  # before --prec
        (["plog", "invert", "--p", "5"], "an operand is required"),
    ]
)


@pytest.mark.parametrize("argv, message", OWN_USAGE_CHECKS)
def test_own_usage_checks_exit_2(argv, message):
    assert run(argv) == (2, "", f"usage error: {message}\n")


def test_malformed_json_exit_2():
    assert run(["measure", "measure", "{broken"])[0] == 2
    assert run(["sums", "bfs", '{"mode": "weird", "values": []}'])[0] == 2


def _valuation_of(p, valuation, digits, abs_prec):
    operand = json.dumps(
        {"p": p, "valuation": valuation, "digits": digits, "abs_prec": abs_prec}
    )
    return run(["padic", "valuation", "--p", "5", "--prec", "4", operand])


def test_padic_json_composite_prime_exit_1():
    code, out, err = _valuation_of(6, 0, [1], 2)
    assert code == 1 and out == ""
    assert err == "error: 6 is not prime\n"


def test_padic_json_digit_out_of_range_exit_2():
    code, out, err = _valuation_of(5, 0, [7, 9], 2)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_padic_json_precision_below_valuation_exit_2():
    code, out, err = _valuation_of(5, 3, [1], 1)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_padic_json_non_integer_fields_exit_2():
    for digits, abs_prec in (([1.5], 2), ([1], 2.5), ([True], 2)):
        code, out, err = _valuation_of(5, 0, digits, abs_prec)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    code, _, err = run(
        ["padic", "digits", "--p", "5", "--prec", "4", "--format", "json",
         '{"p":5,"valuation":0,"digits":[1.5],"abs_prec":2}']
    )
    assert code == 2 and err.startswith("usage error:")


def test_root_seeds_for_large_primes_are_fast():
    started = time.perf_counter()
    code, out, err = run(["hensel", "sqrt", "--p", "2305843009213693951", "--prec", "2", "3"])
    assert code == 1 and out == "" and err.count("\n") == 1
    code, out, err = run(
        ["hensel", "nthroot", "--p", "1000000007", "--n", "3", "--prec", "2", "5"]
    )
    assert code == 0 and err == ""
    assert time.perf_counter() - started < 2.0


def test_two_adic_sqrt_delivers_the_proven_precision():
    code, out, _ = run(["hensel", "sqrt", "--p", "2", "--prec", "64", "--format", "json", "17"])
    assert code == 0 and json.loads(out)["abs_prec"] == 63


def test_text_polynomials_carry_the_requested_precision(monkeypatch):
    code, out, _ = run(
        ["hensel", "solve", "--p", "7", "--prec", "100", "--format", "json",
         "--poly", "x^2-2", "--x0", "3"],
        env_cap=200,
        monkeypatch=monkeypatch,
    )
    assert code == 0 and json.loads(out)["abs_prec"] == 100


def test_unprintable_ball_levels_exit_2():
    started = time.perf_counter()
    for level in (7000, 10**7):
        for argv in (
            ["measure", "measure", f'{{"p":5,"balls":[{{"level":{level},"center":3}}]}}'],
            ["measure", "split", "--p", "5", f'{{"level":{level},"center":3}}'],
        ):
            code, out, err = run(argv)
            assert code == 2 and out == ""
            assert err.startswith("usage error:") and err.count("\n") == 1
    assert time.perf_counter() - started < 2.0
    code, out, _ = run(["measure", "measure", '{"p":5,"balls":[{"level":6000,"center":3}]}'])
    assert code == 0 and out.strip() == f"1/{5**6000}"


def test_non_integer_ball_centers_exit_2():
    """A float, bool or string center is refused, not reduced into an answer."""
    for center in ("1.5", "2.5", "true", '"3"', "null"):
        for argv in (
            ["measure", "complement", f'{{"p":5,"balls":[{{"level":2,"center":{center}}}]}}'],
            ["measure", "translate", "--shift", "2", f'{{"p":5,"balls":[{{"level":1,"center":{center}}}]}}'],
            ["measure", "union", '{"p":5,"balls":[]}', f'{{"p":5,"balls":[{{"level":1,"center":{center}}}]}}'],
            ["measure", "split", "--p", "5", f'{{"level":1,"center":{center}}}'],
        ):
            code, out, err = run(argv)
            assert code == 2 and out == "", argv
            assert err.startswith("usage error:") and err.count("\n") == 1, argv
    code, out, err = run(["measure", "complement", '{"p":5,"balls":[{"level":2,"center":1.5}]}'])
    assert err == "usage error: ball center must be an integer, got 1.5\n"


def test_measure_trie_golden():
    code, out, _ = run(["measure", "complement", '{"p":5,"balls":[{"level":2,"center":7}]}'])
    assert code == 0 and out == (
        '{"balls": [{"center": 0, "level": 1}, {"center": 1, "level": 1}, {"center": 3, "level": 1}, '
        '{"center": 4, "level": 1}, {"center": 2, "level": 2}, {"center": 12, "level": 2}, '
        '{"center": 17, "level": 2}, {"center": 22, "level": 2}], "p": 5}\n'
    )
    code, out, _ = run(
        ["measure", "union", '{"p":3,"balls":[{"level":1,"center":0}]}',
         '{"p":3,"balls":[{"level":1,"center":1},{"level":2,"center":2}]}']
    )
    assert code == 0 and out == (
        '{"balls": [{"center": 0, "level": 1}, {"center": 1, "level": 1}, '
        '{"center": 2, "level": 2}], "p": 3}\n'
    )


def test_split_refuses_unprintable_sub_ball_centers():
    """Sub-ball centers of a level-L ball run up to p**(L + 1)."""
    started = time.perf_counter()
    center = 5**6151 - 1
    code, out, err = run(["measure", "split", "--p", "5", f'{{"level":6151,"center":{center}}}'])
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert time.perf_counter() - started < 2.0
    center = 5**6150 - 1
    code, out, _ = run(["measure", "split", "--p", "5", f'{{"level":6150,"center":{center}}}'])
    expected = ", ".join(f"{center + k * 5**6150} mod 5^6151" for k in range(5))
    assert code == 0 and out == expected + "\n"


def test_series_order_and_polynomial_degree_are_capped():
    started = time.perf_counter()
    for argv in (
        ["series", "invert", "--field", "fp:5", "1+T+O(T^100000000)"],
        ["series", "invert", "--field", "fp:5", "T^-100000000 + O(T^2)"],
        ["series", "order", '{"field":"QQ","order_prec":100000000,"coeffs":[]}'],
        ["series", "order", '{"field":"QQ","order_prec":"5","coeffs":[]}'],
        ["series", "order", '{"field":"QQ","order_prec":3,"coeffs":[1],"tail_valuation":0.5}'],
        ["analytic", "eval", "--p", "5", "--prec", "4", "--poly", "x^100000000", "1"],
        ["series", "derive", "--field", "q", f"1 + O(T^{MAX_TERMS + 1})"],
        ["analytic", "eval", "--p", "5", "--prec", "4", "--poly", f"x^{MAX_TERMS + 1}", "1"],
    ):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
    assert time.perf_counter() - started < 2.0
    code, out, _ = run(["series", "derive", "--field", "q", f"T^{MAX_TERMS} + O(T^{MAX_TERMS})"])
    assert code == 0 and out.strip() == f"O(T^{MAX_TERMS - 1})"
    code, out, _ = run(["analytic", "eval", "--p", "5", "--prec", "4", "--poly", f"x^{MAX_TERMS}", "1"])
    assert code == 0 and out.strip() == "1 + O(5^4)"


def _usage_error(code, out, err):
    return code == 2 and out == "" and err.startswith("usage error:") and err.count("\n") == 1


_F1 = '{"mode":"rational","values":["1"]}'

# inputs that reached a parser of the CLI's own and ended in a traceback
MALFORMED_OPTION_AND_SHAPE_REPROS = [
    ["sums", "fubini", '{"mode":"rational","rows":[["x"]]}'],
    ["sums", "fubini", '{"mode":"rational","rows":5}'],
    ["sums", "partition", "--blocks", "5", _F1],
    ["sums", "partition", "--blocks", "[5]", _F1],
    ["sums", "partition", "--blocks", "[[[0]]]", _F1],
    ["sums", "norms", "--r", "x", _F1],
    ["sums", "norms", "--r", "1.5", _F1],
    ["series", "norm", "--field", "q", "--ratio", "x", "1+O(T^2)"],
    ["series", "norm", "--field", "q", "--ratio", "1/0", "1+O(T^2)"],
    ["sums", "bfs", '{"mode":"rational","values":["1"],"labels":[[1]]}'],
    ["sums", "bfs", '{"mode":"rational","values":["1","2"],"labels":5}'],
]

_FAR = '{"p":7,"valuation":100000000,"digits":[1],"abs_prec":100000001}'
# a unit known mod 7**100000001: its modulus has more than 4300 digits
_FINE = '{"p":7,"valuation":0,"digits":[1],"abs_prec":100000001}'
_IMAGE = ["hensel", "image", "--p", "7", "--prec", "4", "--poly", "x^2-2", "--x0", "3", "--t", "1"]

# inputs that built a power p**e they then discarded: (argv, exit code, stdout)
DISCARDED_POWER_REPROS = [
    (["padic", "add", "--p", "7", "--prec", "8", _FAR, "1"], 0, "1 + O(7^8)\n"),
    (["padic", "add", "--p", "7", "--prec", "8", "7^100000000*[1]+O(7^100000001)", "1"], 0, "1 + O(7^8)\n"),
    (["padic", "add", "--p", "7", "--prec", "8", "1*7^1000000 + O(7^3)", "1"], 0, "1 + O(7^3)\n"),
    (["padic", "reduce", "--p", "7", "--prec", "8", "--level", "2", _FAR], 0, "0 mod 7^2\n"),
    (["measure", "count", "--p", "11", "--level", "100000000"], 2, ""),
    (_IMAGE + ["--level", "100000000"], 1, ""),
    (["hensel", "nthroot", "--p", "7", "--prec", "8", "--n", "100001", "1"], 2, ""),
]


_HUGE_PAIR = '["9e4299","9e4299"]'

# sums whose answer has more digits than str() prints
UNPRINTABLE_SUMS = [
    ["sums", "norms", "--r", "2", '{"mode":"rational","values":["1e3000"]}'],
    ["sums", "norms", "--r", "256", '{"mode":"rational","values":["1e17"]}'],
    ["sums", "bfs", f'{{"mode":"rational","values":{_HUGE_PAIR}}}'],
    ["sums", "fubini", f'{{"mode":"rational","rows":[{_HUGE_PAIR}]}}'],
    ["sums", "partition", "--blocks", "[[0],[1]]", f'{{"mode":"rational","values":{_HUGE_PAIR}}}'],
]

_BIG_QQ = '{"field":"QQ","order_prec":3,"coeffs":["1e4000"]}'
_BIG_QQ_LAURENT = '{"field":"QQ","order_prec":3,"coeffs":["1e4000"],"tail_valuation":-1}'

# QQ series answers with a coefficient of more digits than str() prints
UNPRINTABLE_SERIES = [
    ["series", "mul", "--field", "q", _BIG_QQ, _BIG_QQ],
    ["series", "mul", _BIG_QQ_LAURENT, _BIG_QQ_LAURENT],
    ["series", "invert", '{"field":"QQ","order_prec":3,"coeffs":["2e-3000","1"]}'],
]

_NINES = "-" + "9" * 4298
_HUGE_PADIC = json.dumps({"p": 7, "valuation": 6 * 10**4299, "digits": [1], "abs_prec": 6 * 10**4299 + 1})

# answers with an int of more digits than str() prints: an exponent bound,
# a condition report, the valuation of a product
UNPRINTABLE_INTS = [
    ["analytic", "bounds", "--p", "7", "--prec", "12", "--poly", "x^200 + x^2", "--radius-exp", _NINES],
    [
        "hensel", "check", "--p", "7", "--prec", "12", "--poly", "x^200 + x", "--x0", "0",
        "--m", _NINES, "--t", _NINES, "--format", "json",
    ],
    ["padic", "mul", "--p", "7", "--prec", "8", _HUGE_PADIC, _HUGE_PADIC],
]

# inputs that hung or ended in a traceback: an n-th root seed that scanned
# range(p), decimal exponents and pretty p-adic terms that built a huge
# power, an l^r norm that built 2**(10**8), a residue and a JSON operand
# that built 7**(10**8), a pretty operand cut to 10**6 digits, and
# unprintable answers: (argv, exit code, stdout)
UNBOUNDED_INPUT_REPROS = [
    (["hensel", "nthroot", "--p", "1000000009", "--n", "3", "--prec", "2", "5"], 1, ""),
    (["hensel", "nthroot", "--p", "1000000009", "--n", "3", "--prec", "2", "8"], 0, "2 + O(1000000009^2)\n"),
    (["sums", "bfs", '{"mode":"rational","values":["1e100000000"]}'], 2, ""),
    (["sums", "bfs", '{"mode":"rational","values":["1e-100000000"]}'], 2, ""),
    (["series", "order", '{"field":"QQ","order_prec":3,"coeffs":["1e5000"]}'], 2, ""),
    (["series", "norm", "--field", "q", "--ratio", "1e-100000000", "T + O(T^3)"], 2, ""),
    (["sums", "norms", "--r", "100000000", '{"mode":"rational","values":["2"]}'], 2, ""),
    (["padic", "add", "--p", "7", "--prec", "8", "1*7^-1000000+O(7^3)", "1"], 2, ""),
    (["plog", "log", "--p", "7", "--prec", "8", _FAR], 0, "1*7^100000000 + O(7^100000001)\n"),
    (["plog", "invert", "--p", "7", "--prec", "8", _FAR], 0, "1*7^100000000 + O(7^100000001)\n"),
    (["padic", "reduce", "--p", "7", "--prec", "8", "--level", "100000001", _FAR], 1, ""),
    (["padic", "reduce", "--p", "7", "--prec", "8", "--level", "3", _FINE], 1, ""),
    (["hensel", "sqrt", "--p", "7", "--prec", "8", _FINE], 1, ""),
    (["padic", "add", "--p", "7", "--prec", "8", "1 + O(7^100000001)", "1 + O(7^100000001)"], 1, ""),
    (["padic", "digits", "--p", "7", "--prec", "8", "1 + O(7^100000001)"], 1, ""),
    (["padic", "add", "--p", "7", "--prec", "8", "1*7^99999 + O(7^100000)", "1"], 0, "1 + O(7^8)\n"),
    (["padic", "add", "--p", "7", "--prec", "8", "1*7^9999999 + O(7^10000000)", "1"], 0, "1 + O(7^8)\n"),
] + [(argv, 1, "") for argv in UNPRINTABLE_SUMS + UNPRINTABLE_SERIES + UNPRINTABLE_INTS]


def _finish_as_processes(repros):
    src = os.path.dirname(os.path.dirname(padicore.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, expected_code, expected_out in repros:
        proc = subprocess.run(
            [sys.executable, "-m", "padicore.cli", *argv],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert (proc.returncode, proc.stdout) == (expected_code, expected_out), argv
        assert proc.stderr.count("\n") == (expected_code != 0), argv


def test_malformed_options_and_shapes_exit_2():
    for argv in MALFORMED_OPTION_AND_SHAPE_REPROS:
        assert _usage_error(*run(argv)), argv
    # accepted before, and still: a decimal ratio, string labels
    code, out, _ = run(["series", "norm", "--field", "q", "--ratio", "0.5", "T + O(T^3)"])
    assert code == 0 and out == "(1/2)^1\n"
    code, out, err = run(["sums", "bfs", '{"mode":"rational","values":["1"],"labels":"ab"}'])
    assert code == 1 and out == "" and err == "error: labels and values must have equal length\n"


def test_discarded_power_repros_finish_as_processes():
    _finish_as_processes(DISCARDED_POWER_REPROS)


def test_unbounded_input_repros_finish_as_processes():
    _finish_as_processes(UNBOUNDED_INPUT_REPROS)


def test_unprintable_sums_are_domain_errors():
    for argv in UNPRINTABLE_SUMS:
        code, out, err = run(argv + ["--format", "json"])
        assert (code, out) == (1, "") and err == "error: the answer has more than 4300 digits\n"
    # the largest answers that print still answer
    code, out, _ = run(["sums", "norms", "--r", "256", '{"mode":"rational","values":["1e16"]}'])
    assert code == 0 and out == f"sup {10**16}, ||f||_256^256 = {10**4096}\n"
    code, out, _ = run(["sums", "bfs", '{"mode":"rational","values":["4e4299","5e4299"]}'])
    assert code == 0 and out == f"{9 * 10**4299}\n"


def test_unprintable_ints_are_domain_errors():
    for argv in UNPRINTABLE_INTS:
        for fmt in ("pretty", "json"):
            code, out, err = run(argv + ["--format", fmt])
            assert (code, out) == (1, "") and err == "error: the answer has more than 4300 digits\n"
    # the largest that print still answer
    m = -(10**4299 - 1)
    code, out, _ = run(["analytic", "bounds", "--p", "7", "--prec", "12", "--poly", "x^2", "--radius-exp", str(m)])
    assert code == 0 and out == f"lipschitz valuation {m}, second-order valuation 0\n"
    a = json.dumps({"p": 7, "valuation": 5 * 10**4299, "digits": [1], "abs_prec": 5 * 10**4299 + 1})
    code, out, _ = run(["padic", "invert", "--p", "7", "--prec", "8", a, "--format", "json"])
    assert code == 0 and json.loads(out)["valuation"] == -5 * 10**4299


def test_unprintable_series_are_domain_errors():
    for argv in UNPRINTABLE_SERIES:
        for fmt in ("pretty", "json"):
            code, out, err = run(argv + ["--format", fmt])
            assert (code, out) == (1, "") and err == "error: the answer has more than 4300 digits\n"
    # the largest coefficients that print still answer, and a zero Laurent series
    a, b = ('{"field":"QQ","order_prec":2,"coeffs":["%s"]}' % c for c in ("1e2150", "1e2149"))
    code, out, _ = run(["series", "mul", a, b])
    assert code == 0 and out == f"{10**4299} + O(T^2)\n"
    code, out, _ = run(["series", "mul", "--field", "q", "T^-1 + O(T^2)", "O(T^3)"])
    assert code == 0 and out == "O(T^2)\n"


def test_bounded_literals_keep_what_they_accepted():
    """Exponents and r inside the limits answer as before."""
    code, out, _ = run(["sums", "bfs", '{"mode":"rational","values":["1.5e3","-2E-1"]}'])
    assert code == 0 and out == "1500\n"
    code, out, _ = run(["series", "order", '{"field":"QQ","order_prec":3,"coeffs":["0","1e4000"]}'])
    assert code == 0 and out == "1\n"
    r, ones = MAX_NORM_EXPONENT, '{"mode":"rational","values":["1","-1"]}'
    code, out, _ = run(["sums", "norms", "--r", str(r), ones])
    assert code == 0 and out == f"sup 1, ||f||_{r}^{r} = 2\n"
    assert _usage_error(*run(["sums", "norms", "--r", str(r + 1), ones]))
    e = -DEFAULT_PRECISION_CAP
    code, out, _ = run(["padic", "add", "--p", "7", "--prec", "8", f"1*7^{e} + O(7^3)", "1"])
    assert code == 0 and out == f"1*7^{e} + 1 + O(7^3)\n"
    assert _usage_error(*run(["padic", "add", "--p", "7", "--prec", "8", f"1*7^{e - 1} + O(7^3)", "1"]))


def test_measure_count_prints_every_printable_level():
    code, out, _ = run(["measure", "count", "--p", "11", "--level", "8"])
    assert code == 0 and out == "214358881\n"
    code, out, _ = run(["measure", "count", "--p", "5", "--level", "6000", "--format", "json"])
    assert code == 0 and json.loads(out) == {"count": 5**6000}
    assert _usage_error(*run(["measure", "count", "--p", "5", "--level", "7000"]))
    code, out, err = run(["measure", "count", "--p", "4", "--level", "1"])
    assert code == 1 and err == "error: 4 is not prime\n"


def test_ball_image_guard_compares_exponents(monkeypatch):
    """A level the data reach answers however many residues it holds, a
    finer one is a PrecisionError, and a level whose power of p does not
    print is refused."""
    image = ["hensel", "image", "--p", "7", "--prec", "12", "--poly", "x^2-2", "--x0", "3", "--t", "1"]
    code, out, _ = run(image + ["--level", "9"])
    assert code == 0 and out == "verified: image==target is True (level 9, 5764801 source residues)\n"
    for level in ("9", "100000000"):
        code, out, err = run(_IMAGE + ["--level", level])
        assert code == 1 and out == ""
        assert err == f"error: known only mod p^4, cannot reduce mod p^{level}\n"
    # 7^1000, as x0 and as both coefficients, is known mod 7^6000 to 5000
    # digits past its valuation, which print
    c = str(7**1000)
    deep = ["hensel", "image", "--p", "7", "--prec", "6000", "--poly", f"{c}*x^2+{c}*x", "--x0", c, "--t", "1"]
    code, out, err = run(deep + ["--level", "6000"], env_cap=6000, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: level 6000 too fine: 7^6000 has more than 4300 digits\n"
    # a unit x0 or unit coefficients known mod 7^6000 are refused as operands, before any level
    refused = (1, "", "error: relative precision too fine: 7^(abs_prec - valuation) has more than 4300 digits\n")
    for option, text in (("--x0", "3"), ("--poly", "x^2+x")):
        unit = list(deep)
        unit[unit.index(option) + 1] = text
        assert run(unit + ["--level", "6000"], env_cap=6000, monkeypatch=monkeypatch) == refused


def test_nthroot_degree_is_capped():
    base = ["hensel", "nthroot", "--p", "7", "--prec", "8"]
    assert _usage_error(*run(base + ["--n", str(MAX_TERMS + 1), "1"]))
    code, out, _ = run(base + ["--n", str(MAX_TERMS), "1"])
    assert code == 0 and out == "1 + O(7^8)\n"
    for n in ("0", "-1", "-300"):
        code, out, err = run(base + ["--n", n, "1"])
        assert code == 1 and err == "error: root degree must be a positive integer\n"


def test_prec_cap_env(monkeypatch):
    code, _, err = run(
        ["padic", "add", "--p", "5", "--prec", "40", "1", "1"],
        env_cap=10,
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "exceeds the precision cap" in err
    code, out, _ = run(
        ["padic", "add", "--p", "5", "--prec", "8", "1", "1"],
        env_cap=10,
        monkeypatch=monkeypatch,
    )
    assert code == 0 and out.strip() == "2 + O(5^8)"


# ------------------------------------------------------------- determinism


def test_identical_argv_identical_bytes():
    argv = ["hensel", "sqrt", "--p", "7", "--prec", "6", "2", "--format", "json"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_answers_are_rendered_once(monkeypatch):
    """A clopen answer is serialised once in each format, from one walk of
    its trie and with no dict per ball, and no answer is read back:
    json.loads runs only on the JSON operands."""
    from padicore import textforms
    from padicore.measure import ClopenSet

    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ClopenSet, "to_json_dict", counted("to_json_dict", ClopenSet.to_json_dict))
    monkeypatch.setattr(ClopenSet, "levels", counted("levels", ClopenSet.levels))
    monkeypatch.setattr(textforms, "clopen_to_json", counted("clopen_to_json", textforms.clopen_to_json))
    monkeypatch.setattr(json, "loads", counted("loads", json.loads))
    clopen = '{"p":5,"balls":[{"level":2,"center":7}]}'
    text_operands = [
        ["series", "mul", "--field", "q", "1 + T + O(T^3)", "2 + O(T^3)"],
        ["series", "invert", "--field", "fp:5", "T + O(T^3)"],
        ["analytic", "recenter", "--p", "5", "--prec", "4", "--poly", "x^2-2", "3"],
        ["plog", "poly", "--p", "5", "--prec", "4"],
        ["padic", "add", "--p", "5", "--prec", "4", "1", "2"],
        ["hensel", "check", "--p", "7", "--prec", "12", "--poly", "x^2-2", "--x0", "3", "--t", "1"],
    ]
    for fmt in ("pretty", "json"):
        calls.clear()
        assert run(["measure", "complement", "--format", fmt, clopen])[0] == 0
        assert calls == {"clopen_to_json": 1, "levels": 1, "loads": 1}  # loads: the operand
        for argv in text_operands:
            calls.clear()
            assert run(argv + ["--format", fmt])[0] == 0
            assert calls["loads"] == 0, argv


def test_json_outputs_round_trip():
    code, out, _ = run(
        ["padic", "mul", "--p", "3", "--prec", "6", "7/2", "2/7", "--format", "json"]
    )
    assert code == 0
    code2, out2, _ = run(
        ["padic", "mul", "--p", "3", "--prec", "6", out.strip(), "1", "--format", "json"]
    )
    assert code2 == 0
    assert json.loads(out) == json.loads(out2)
    code3, out3, _ = run(
        [
            "series",
            "mul",
            "--field",
            "fp:3",
            "--format",
            "json",
            "1 + 2*T^2 + O(T^4)",
            "1 + O(T^4)",
        ]
    )
    assert code3 == 0
    assert json.loads(out3)["coeffs"] == [1, 0, 2, 0]


# primes: the least past 2**31, 2**61 - 1, and the greatest below 2**64
P31, P61, P64 = "2147483659", "2305843009213693951", "18446744073709551557"
_S256 = " + ".join(f"{k % 9 + 1}*T^{k}" for k in range(1, 256)) + " + 1 + O(T^256)"

# well-formed commands at the edges of what the CLI accepts: primes from
# 2**31 to 2**64, digits >= p, huge levels, orders and degrees, and n-th roots
# with gcd(n, p - 1) > 1
EDGE_VALUE_CASES = [
    ["padic", "div", "--p", P61, "--prec", "64", "1/3", "2/7"],
    ["padic", "digits", "--p", P64, "--prec", "64", "2/3"],
    ["padic", "add", "--p", "5", "--prec", "4", "7 + 9*5 + O(5^4)", "1"],
    ["padic", "add", "--p", "5", "--prec", "4", "5^0*[7,9]+O(5^2)", "1"],
    ["padic", "reduce", "--p", "7", "--prec", "8", "--level", "100000000", "3"],
    ["hensel", "sqrt", "--p", P64, "--prec", "64", "3"],
    ["hensel", "teichmuller", "--p", P61, "--prec", "64", "2"],
    ["hensel", "solve", "--p", P61, "--prec", "64", "--poly", "x^2-4", "--x0", "2", "--t", "1"],
    ["hensel", "solve", "--p", "7", "--prec", "64", "--poly", "x^256-2", "--x0", "1", "--t", "1"],
    ["hensel", "check", "--p", P61, "--prec", "64", "--poly", "x^256-2", "--x0", "1", "--t", "100000000"],
    ["hensel", "image", "--p", P31, "--prec", "64", "--poly", "x^2-2", "--x0", "3", "--t", "1", "--level", "2"],
    # each branch of the image's piece test: a point at the level, a
    # contraction with v(f'(x0)) = 1, and f'(x0) zero to precision
    ["hensel", "image", "--p", "7", "--prec", "8", "--poly", "x^2-2", "--x0", "3", "--t", "3", "--level", "3"],
    ["hensel", "image", "--p", "2", "--prec", "12", "--poly", "x^2-17", "--x0", "1", "--t", "2", "--level", "6"],
    ["hensel", "image", "--p", "7", "--prec", "4", "--poly", "5", "--x0", "1", "--t", "1", "--level", "2"],
    ["hensel", "nthroot", "--p", P61, "--prec", "64", "--n", "256", "2"],
    ["hensel", "nthroot", "--p", P61, "--prec", "64", "--n", "6", "64"],
    ["hensel", "nthroot", "--p", "13", "--prec", "8", "--n", "12", "1"],
    ["hensel", "nthroot", "--p", "7", "--prec", "8", "--n", "6", "2"],
    ["hensel", "nthroot", "--p", "2", "--prec", "64", "--n", "256", "1"],
    ["plog", "log", "--p", P31, "--prec", "64", P31],
    ["plog", "invert", "--p", P61, "--prec", "64", P61],
    ["plog", "poly", "--p", P61, "--prec", "64", "--domain-val", "100000000"],
    ["analytic", "recenter", "--p", P61, "--prec", "64", "--poly", "x^256+x+1", "3"],
    ["analytic", "bounds", "--p", P61, "--prec", "64", "--poly", "x^256+x+1", "--radius-exp", "100000000"],
    ["series", "invert", "--field", f"fp:{P61}", _S256],
    ["series", "compose", "--field", "q", _S256, "T + T^2 + O(T^256)"],
    ["series", "mul", "--field", "q", "--order", "100000000", _S256, _S256],
    ["measure", "count", "--p", P31, "--level", "300"],
    ["measure", "split", "--p", "2", '{"level":14000,"center":1}'],
    ["measure", "translate", "--shift", P64, '{"p":2,"balls":[{"level":4000,"center":1}]}'],
]

# rational operands of negative valuation, which were read to fewer digits
# than --prec asked for: 1/7 to O(7^63) at --prec 64, 1/2^100 to O(2^-36)
# at --prec 8, and 3/25 to abs_prec 62 at --prec 64; then a --poly
# coefficient whose answer did not read back (1/2^14280), and the last
# power of 2 below it that is still read (1/2^14220)
RATIONAL_OPERAND_REPROS = [
    ["padic", "add", "--p", "7", "--prec", "64", "1/7", "0"],
    ["padic", "add", "--p", "2", "--prec", "8", f"1/{2**100}", "0"],
    ["padic", "digits", "--p", "5", "--prec", "64", "3/25"],
    ["analytic", "eval", "--p", "2", "--prec", "64", "--poly", f"1/{2**14280}", "0"],
    ["analytic", "eval", "--p", "2", "--prec", "64", "--poly", f"1/{2**14220}", "0"],
]


def test_a_rational_operand_is_read_to_prec():
    """x + O(p^N) read at --prec N is that ball, whatever the valuation of x."""
    seven, two, digits = RATIONAL_OPERAND_REPROS[:3]
    assert run(seven) == (0, "1*7^-1 + O(7^64)\n", "")
    assert run(two) == (0, "1*2^-100 + O(2^8)\n", "")
    code, out, err = run(digits + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"valuation": -2, "digits": [3] + [0] * 65, "abs_prec": 64}
    # a --poly coefficient was already read to --prec
    code, out, _ = run(["analytic", "eval", "--p", "7", "--prec", "64", "--poly", "1/7", "0"])
    assert (code, out) == (0, "1*7^-1 + O(7^64)\n")


def test_a_rational_operand_whose_answer_would_not_read_back_is_refused():
    """1/2^k at --prec 64 is a unit known mod 2^(64 + k); past the largest
    power of 2 that prints (2^14284 under the 4300-digit limit) the literal is
    refused as its JSON form is, so every answer reads back as an operand."""
    add = ["padic", "add", "--p", "2", "--prec", "64", "--format", "json"]
    code, out, err = run(add + [f"1/{2**14220}", "0"])
    assert (code, err) == (0, "")
    assert run(add + [out.strip(), "0"]) == (0, out, "")
    refused = (1, "", "error: relative precision too fine: 2^(abs_prec - valuation) has more than 4300 digits\n")
    one_more = out.strip().replace('"valuation": -14220', '"valuation": -14221')
    assert run(add + [one_more, "0"]) == refused
    for k in (14221, 14280):
        assert run(add + [f"1/{2**k}", "1"]) == refused
        assert run(add + [f"3/{2**k}", "1"]) == refused
    # a nonzero numerator of positive valuation is read to --prec as zero
    assert run(add + [f"{2**14280}/3", "0"]) == (0, '{"abs_prec": 64, "digits": [], "p": 2}\n', "")


# every CLI argument read at (p, --prec), with {q} where the rational goes
_AT_P_AND_PREC = ["--p", "2", "--prec", "64", "--format", "json"]
RATIONAL_INPUT_BOUNDARY = [
    ["padic", "add", *_AT_P_AND_PREC, "{q}", "0"],
    ["analytic", "eval", *_AT_P_AND_PREC, "--poly", "x", "{q}"],
    ["analytic", "recenter", *_AT_P_AND_PREC, "--poly", "x", "{q}"],
    ["hensel", "sqrt", *_AT_P_AND_PREC, "{q}"],
    ["hensel", "nthroot", *_AT_P_AND_PREC, "--n", "2", "{q}"],
    ["hensel", "teichmuller", *_AT_P_AND_PREC, "{q}"],
    ["plog", "log", *_AT_P_AND_PREC, "{q}"],
    ["plog", "invert", *_AT_P_AND_PREC, "{q}"],
    ["hensel", "check", *_AT_P_AND_PREC, "--poly", "x^2-2", "--x0", "{q}", "--t", "1"],
    ["hensel", "solve", *_AT_P_AND_PREC, "--poly", "x", "--x0", "0", "--z", "{q}"],
    ["analytic", "eval", *_AT_P_AND_PREC, "--poly", "{q}", "0"],
    ["analytic", "eval", *_AT_P_AND_PREC, "--poly", "x^2+{q}*x", "1"],
]


@pytest.mark.parametrize("argv", RATIONAL_INPUT_BOUNDARY, ids=lambda argv: " ".join(argv[:2] + argv[8:]))
def test_every_rational_input_is_read_by_one_rule(argv):
    """Operands, --x0, --z and --poly coefficients alike: 1/2^14280 at
    --prec 64 is refused, 1/2^14220 is read, and a value answer reads back."""
    refused = "error: relative precision too fine: 2^(abs_prec - valuation) has more than 4300 digits\n"
    assert run([a.replace("{q}", f"1/{2**14280}") for a in argv]) == (1, "", refused)
    code, out, err = run([a.replace("{q}", f"1/{2**14220}") for a in argv])
    assert err != refused
    if code == 0:
        answer = json.loads(out)
        for value in answer.get("coeffs", [answer]):
            text = json.dumps(value)
            assert run(["padic", "add", *_AT_P_AND_PREC, text, "0"])[0] == 0


def test_a_poly_coefficient_past_the_print_limit_is_refused_at_once(monkeypatch):
    """Under a raised cap, -1/3 at --prec 3000000 is a unit known mod
    7^3000000: refused as the operand 1/3 is, before any arithmetic."""
    argv = ["analytic", "eval", "--p", "7", "--prec", "3000000", "--poly", "x-1/3", "0"]
    started = time.perf_counter()
    code, out, err = run(argv, env_cap=100000000, monkeypatch=monkeypatch)
    assert time.perf_counter() - started < FUZZ_CALL_SECONDS
    assert (code, out) == (1, "")
    assert err == "error: relative precision too fine: 7^(abs_prec - valuation) has more than 4300 digits\n"


# the slowest edge case above takes under a second on a 2-vCPU host
FUZZ_CALL_SECONDS = 10


def test_cli_never_crashes_on_fuzzed_argv():
    """Every input exits 0, 1 or 2 in bounded time, never with an exception."""
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    tokens = st.sampled_from(
        [
            "padic", "series", "hensel", "plog", "measure", "sums", "analytic",
            "add", "sqrt", "log", "bfs", "measure", "compose", "solve",
            "--p", "--prec", "--field", "--format", "--poly", "--x0", "--z",
            "5", "7", "-3", "1/2", "0", "x^2-2", "fp:3", "q", "json",
            "{", "}", "{}", '{"p":5}', "O(5^2)", "1 + O(5^4)", "T + O(T^3)",
            "", "nonsense", "--level", "--n", "--t", "--m", "--help", "-h",
            "split", '{"level":7000,"center":3}', '{"level":10000000,"center":3}',
            '{"p":5,"balls":[{"level":7000,"center":3}]}',
            '{"p":5,"balls":[{"level":10000000,"center":3}]}',
            "invert", "eval", "--field", "fp:5", "1+T+O(T^100000000)", "x^100000000",
            "norm", "--ratio", "norms", "--r", "fubini", "partition", "--blocks",
            "count", "nthroot", "image",
            P31, P61, P64, "7 + 9*5 + O(5^4)", "100000000", "256", "12", "x^256+x+1",
            "--order", "reduce", "digits", "teichmuller", "recenter", "--domain-val",
        ]
    )

    repros = MALFORMED_OPTION_AND_SHAPE_REPROS + EDGE_VALUE_CASES + RATIONAL_OPERAND_REPROS + [
        argv for argv, _, _ in DISCARDED_POWER_REPROS + UNBOUNDED_INPUT_REPROS
    ]

    def with_repros(test):
        for argv in repros:
            test = example(argv)(test)
        return test

    @settings(max_examples=120, deadline=None)
    @given(st.lists(tokens, max_size=8))
    @example(["series", "invert", "--field", "fp:5", "1+T+O(T^100000000)"])
    @example(["analytic", "eval", "--p", "5", "--prec", "4", "--poly", "x^100000000", "1"])
    @with_repros
    def run_fuzz(argv):
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - started < FUZZ_CALL_SECONDS, argv
        assert code in (0, 1, 2)
        if code != 0:
            assert out.getvalue() == ""
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")

    run_fuzz()


def test_series_json_operand_round_trip():
    _, out, _ = run(
        ["series", "derive", "--field", "fp:5", "--format", "json", "1 + T + 2*T^3 + O(T^4)"]
    )
    data = json.loads(out)
    _, out2, _ = run(["series", "order", json.dumps(data)])
    assert out2.strip() == "0"


def test_every_group_rejects_a_strong_pseudoprime_modulus():
    """A composite that passes Miller-Rabin on the bases 2..41 is a domain error in every group."""
    n = arnault_composite()
    padic = {"p": n, "valuation": 0, "digits": [1], "abs_prec": 3}
    commands = [
        ["padic", "add", "--p", str(n), "--prec", "3", "1", "2"],
        ["series", "invert", "--field", f"fp:{n}", "4713580168362724685203+T+O(T^3)"],
        ["analytic", "bounds", "--p", str(n), "--prec", "3", "--poly", "x^2-2"],
        ["hensel", "sqrt", "--p", str(n), "--prec", "3", "4"],
        ["plog", "log", "--p", str(n), "--prec", "3", str(n)],
        ["measure", "count", "--p", str(n), "--level", "1"],
        ["sums", "bfs", json.dumps({"mode": "padic", "values": [padic]})],
    ]
    assert {argv[0] for argv in commands} == {"padic", "series", "analytic", "hensel", "plog", "measure", "sums"}
    for argv in commands:
        code, out, err = run(argv)
        assert (code, out, err) == (1, "", f"error: {n} is not prime\n"), argv


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_stdout_exits_141_without_a_traceback(unbuffered):
    """The console script's reader has gone before it writes: exit 141, nothing on stderr.

    Unbuffered, ``print`` raises BrokenPipeError; buffered, the flush at
    the end does.  The pipe's read end is closed before the process
    starts, so its first write fails in both modes.
    """
    src = os.path.dirname(os.path.dirname(padicore.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "padicore.cli", "padic", "add", "--p", "5", "--prec", "4", "1/2", "1/2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")
