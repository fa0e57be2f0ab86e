"""Serialization round-trips: pretty, compact, and JSON forms."""

import json
import time
from fractions import Fraction

import pytest

from padicore import (
    QQ,
    Ball,
    ClopenSet,
    FiniteFamily,
    LaurentSeries,
    DomainError,
    Padic,
    PadicPolynomial,
    ParseError,
    PowerSeries,
    PrimeFieldCoefficients,
)
from padicore import textforms as tf
from padicore.intmath import int_valuation, str_digit_limit
from padicore.padics import DEFAULT_PRECISION_CAP
from padicore.textforms.padic import _sum_valuation
from helpers import parts, random_padic, rng_for

F3 = PrimeFieldCoefficients(3)


# ------------------------------------------------------------------ padics


def test_padic_pretty_round_trip_random():
    rng = rng_for("padic-pretty-rt")
    for p in (2, 3, 5, 7):
        for _ in range(50):
            x = random_padic(rng, p, rng.randrange(1, 9), -4, 4)
            assert tf.parse_padic(x.pretty()) == x
            assert tf.parse_padic(x.compact()) == x
            assert tf.parse_padic(tf.padic_to_json(x)) == x


def test_padic_zero_round_trip():
    z = Padic.zero(7, 5)
    assert tf.parse_padic(z.pretty()) == z
    assert tf.parse_padic(z.compact()) == z
    assert tf.parse_padic(tf.padic_to_json(z)) == z


def test_padic_rational_literal_needs_context():
    assert tf.parse_padic("1/2", 5, 4) == Padic.from_rational(1, 2, 5, 4)
    with pytest.raises(ParseError):
        tf.parse_padic("1/2")


def test_pretty_terms_at_or_past_the_precision_build_no_power():
    """A term d*p^e with e >= N vanishes mod p^N and is dropped unbuilt.

    Reading a built 7^100000 took seconds, so the time bound fails, not
    hangs, if the term comes back.
    """
    started = time.perf_counter()
    x = tf.parse_padic("1*7^100000 + O(7^3)")
    assert (x.p, x.v, x.unit, x.rel) == (7, 3, 0, 0)
    y = tf.parse_padic("1*7^100000 + 2 + 3*7^-1 + O(7^3)")
    z = Padic.from_rational(Fraction(2) + Fraction(3, 7), 1, 7, 3)
    assert (y.p, y.v, y.unit, y.rel) == (z.p, z.v, z.unit, z.rel)
    assert time.perf_counter() - started < 0.5
    for e in range(0, 6):
        w = tf.parse_padic(f"4 + 1*5^{e} + O(5^3)")
        u = Padic.from_int(4 + 5**e, 5, 3)
        assert (w.v, w.unit, w.rel) == (u.v, u.unit, u.rel)


def test_pretty_terms_are_summed_over_the_integers():
    """The pretty form's value is the rational sum of its terms below p^N,
    digits past p and repeated exponents included, and the valuation the
    carry walk finds is that of the integer sum."""
    rng = rng_for("pretty-integer-sum")
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 101))
        n = rng.randrange(-3, 12)
        digits = (1, p - 1, p, p * p + 1, rng.randrange(1, p**3))
        terms = [(rng.choice(digits), rng.randrange(-4, 14)) for _ in range(rng.randrange(1, 6))]
        text = " + ".join(f"{d}*{p}^{e}" for d, e in terms) + f" + O({p}^{n})"
        kept = [(d, e) for d, e in terms if e < n]
        x = tf.parse_padic(text)
        if not kept:
            assert parts(x) == (p, n, 0, 0)
            continue
        low = min(e for _, e in kept)
        value = sum(Fraction(d) * Fraction(p) ** e for d, e in kept)
        assert parts(x) == parts(Padic.from_rational(value, 1, p, n, cap=n - low))
        total = sum(d * p ** (e - low) for d, e in kept)
        assert _sum_valuation(p, kept) == low + int_valuation(total, p)


def test_padic_operand_must_match_the_given_prime():
    assert tf.parse_padic("1 + O(5^3)", 5, 3) == Padic.from_int(1, 5, 3)
    with pytest.raises(ParseError, match="operand is 7-adic but --p is 5"):
        tf.parse_padic("1 + O(7^3)", 5, 3)


def test_padic_parse_rejects_garbage():
    for bad in ("", "1 + 2", "O(6^2)x", "3 + 1*5 + O(7^3)", "{not json}"):
        with pytest.raises(ParseError):
            tf.parse_padic(bad)


# ------------------------------------------------------------------ series


def test_series_pretty_round_trip():
    rng = rng_for("series-pretty-rt")
    for _ in range(40):
        f = PowerSeries(F3, [rng.randrange(3) for _ in range(6)], 6)
        assert tf.parse_series(f.pretty(), F3) == f
    g = PowerSeries(QQ, [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3)], 4)
    assert tf.parse_series(g.pretty(), QQ) == g


def test_series_json_round_trip():
    f = PowerSeries(F3, [1, 0, 2, 0], 4)
    assert tf.series_from_json(json.loads(tf.series_to_json(f))) == f
    q = PowerSeries(QQ, [Fraction(1, 2), Fraction(-3)], 2)
    assert tf.series_from_json(json.loads(tf.series_to_json(q))) == q


def test_series_json_exact_shape():
    f = PowerSeries(F3, [1, 0, 2, 0], 4)
    data = json.loads(tf.series_to_json(f))
    assert data == {"field": {"Fp": 3}, "order_prec": 4, "coeffs": [1, 0, 2, 0]}


def test_laurent_round_trips():
    rng = rng_for("laurent-rt")
    for _ in range(40):
        coeffs = [rng.randrange(3) for _ in range(6)]
        tail = rng.randrange(-4, 4)
        f = LaurentSeries(F3, coeffs, tail, 6)
        assert tf.parse_laurent(f.pretty(), F3) == f
        assert tf.series_from_json(json.loads(tf.series_to_json(f))) == f
    zero = LaurentSeries(F3, [], -2, 0)
    assert tf.parse_laurent(zero.pretty(), F3) == zero


def test_laurent_pretty_example_shape():
    f = LaurentSeries(F3, [1, 1, 1, 0], -1, 4)
    assert f.pretty() == "T^-1 + 1 + T + O(T^3)"


def test_field_descriptor_parsing():
    assert tf.parse_field("fp:3") == F3
    assert tf.parse_field("GF:7") == PrimeFieldCoefficients(7)
    assert tf.parse_field("q") == QQ
    with pytest.raises(ParseError):
        tf.parse_field("galaxy")


# ------------------------------------------------------------- polynomials


def test_polynomial_grammar():
    assert tf.parse_polynomial_rational_coeffs("x^2-2") == [-2, 0, 1]
    assert tf.parse_polynomial_rational_coeffs("3*x^4 + x - 7") == [-7, 1, 0, 0, 3]
    assert tf.parse_polynomial_rational_coeffs("5") == [5]
    assert tf.parse_polynomial_rational_coeffs("-x") == [0, -1]
    with pytest.raises(ParseError):
        tf.parse_polynomial_rational_coeffs("x^^2")
    with pytest.raises(ParseError):
        tf.parse_polynomial_rational_coeffs("")


def test_text_polynomial_coefficients_are_read_as_operands():
    """Each coefficient is the operand it would be at (p, abs_prec); a zero
    leading coefficient is dropped, interior zeros stay."""
    f = tf.parse_polynomial("x^3 - x^3 + 1/7*x^2 + 2", 7, 8)
    assert f.coeffs == tuple(tf.parse_padic(t, 7, 8) for t in ("2", "0", "1/7"))
    assert f == PadicPolynomial(7, [2, 0, Fraction(1, 7)], abs_prec=8)
    assert tf.parse_polynomial("x - x", 7, 8) == PadicPolynomial(7, [], abs_prec=8)
    with pytest.raises(ParseError):
        tf.parse_polynomial("x - 1", 7, None)


def test_polynomial_json_round_trip():
    f = PadicPolynomial(7, [-2, 0, 1], abs_prec=5)
    data = json.loads(tf.polynomial_to_json(f))
    g = tf.polynomial_from_json(data)
    assert f == g


# ------------------------------------------------------------- clopen sets


def test_clopen_json_round_trip():
    s = ClopenSet(5, [Ball(5, 1, 0), Ball(5, 2, 7)])
    text = tf.clopen_to_json(s)
    assert tf.parse_clopen(text) == s
    data = json.loads(text)
    assert data["p"] == 5
    assert {"level": 2, "center": 7} in data["balls"]


def test_clopen_canonical_serialization():
    b = Ball(3, 1, 0)
    via_split = ClopenSet(3, [c for c in b.split()])
    direct = ClopenSet(3, [b])
    assert tf.clopen_to_json(via_split) == tf.clopen_to_json(direct)


# ----------------------------------------------------------------- families


def test_family_json_round_trip():
    fam = FiniteFamily(["a", "b"], [Fraction(1, 2), Fraction(-3)])
    text = tf.family_to_json(fam)
    back = tf.parse_family(text)
    assert back.labels == fam.labels and back.values == fam.values
    pfam = FiniteFamily([0, 1], [Padic.from_int(5, 5, 4), Padic.from_int(2, 5, 4)])
    back2 = tf.parse_family(tf.family_to_json(pfam))
    assert back2.values == pfam.values


def test_family_parse_rejects_bad_modes():
    with pytest.raises(ParseError):
        tf.parse_family('{"mode": "complex", "values": ["1"]}')
    with pytest.raises(ParseError):
        tf.parse_family("[]")
    with pytest.raises(ParseError):
        tf.parse_family("{bad json")


def test_grid_and_blocks_check_the_shapes_they_index():
    for bad in (
        '{"mode": "rational", "rows": 5}',
        '{"mode": "rational", "rows": [5]}',
        '{"mode": "rational", "rows": [["x"]]}',
        '{"mode": "rational", "rows": [[null]]}',
        '{"mode": "rational", "rows": [["1/0"]]}',
        '{"mode": "padic", "rows": [[5]]}',
        '{"rows": []}',
    ):
        with pytest.raises(ParseError):
            tf.parse_grid(bad)
    assert tf.parse_grid('{"mode": "rational", "rows": [["1", 2], ["1/2", 0.5]]}') == [
        [1, 2],
        [Fraction(1, 2), Fraction(1, 2)],
    ]
    # strings iterate as before: each row "12" is the row [1, 2]
    assert tf.parse_grid('{"mode": "rational", "rows": ["12", "34"]}') == [[1, 2], [3, 4]]
    for bad in ("5", "null", "[5]", "[null]", "[[[0]]]", '[[{"a": 1}]]', "[", "{"):
        with pytest.raises(ParseError):
            tf.parse_blocks(bad)
    assert tf.parse_blocks('[[0, 1], ["a"]]') == [[0, 1], ["a"]]
    assert tf.parse_blocks('"ab"') == [["a"], ["b"]]


def test_family_labels_and_values_are_checked():
    for bad in (
        '{"mode": "rational", "values": ["1"], "labels": [[1]]}',
        '{"mode": "rational", "values": ["1"], "labels": [{"a": 1}]}',
        '{"mode": "rational", "values": ["1", "2"], "labels": 5}',
        '{"mode": "rational", "values": ["1"], "labels": null}',
        '{"mode": "rational", "values": 5}',
        '{"mode": "rational", "values": ["1/0"]}',
    ):
        with pytest.raises(ParseError):
            tf.parse_family(bad)
    assert tf.parse_family('{"mode": "rational", "values": ["1", "2"], "labels": "ab"}').labels == (
        "a",
        "b",
    )


def test_one_json_decoder_names_what_it_read():
    parsers = {
        "JSON": [tf.parse_padic, tf.parse_family, lambda t: tf.parse_polynomial(t, 5, 4)],
        "clopen-set JSON": [tf.parse_clopen],
        "ball JSON": [lambda t: tf.parse_ball(t, 5)],
        "grid JSON": [tf.parse_grid],
        "blocks JSON": [tf.parse_blocks],
    }
    # undecodable, an int past CPython's digit limit, nesting past the recursion limit
    for bad in ("{", '{"p": ' + "1" * 5000 + "}", '{"p": ' + "[" * 100000):
        for what, fns in parsers.items():
            for parse in fns:
                with pytest.raises(ParseError, match=f"^bad {what}: "):
                    parse(bad)


def test_ratio_and_norm_exponent_literals():
    assert tf.parse_ratio("1/2") == tf.parse_ratio("0.5") == tf.parse_ratio(" 1/2") == Fraction(1, 2)
    assert tf.parse_ratio("1e-1") == Fraction(1, 10)
    for bad in ("x", "1/0", "", "1" * 5000):
        with pytest.raises(ParseError):
            tf.parse_ratio(bad)
    assert tf.parse_norm_exponent("inf") == "inf"
    assert tf.parse_norm_exponent("2") == tf.parse_norm_exponent(" 2") == 2
    assert tf.parse_norm_exponent("0") == 0  # sumlab.norms refuses it
    for bad in ("x", "1.5", "", "1" * 5000):
        with pytest.raises(ParseError):
            tf.parse_norm_exponent(bad)


def test_overlong_and_empty_digit_runs_are_parse_errors():
    long = "1" * 5000
    for parse, text in (
        (tf.parse_padic, f"5^0*[1]+O(5^{long})"),
        (tf.parse_padic, "5^0*[1,,2]+O(5^3)"),
        (tf.parse_padic, f"1*5^{long} + O(5^3)"),
        (lambda t: tf.parse_padic(t, 5, 3), long),
        (lambda t: tf.parse_series(t, tf.parse_field("q")), f"{long} + O(T^3)"),
        (lambda t: tf.parse_series(t, tf.parse_field("q")), "1/0 + O(T^3)"),
        (tf.parse_field, f"fp:{long}"),
        (tf.parse_polynomial_rational_coeffs, f"x^{long}"),
        (tf.parse_polynomial_rational_coeffs, "1/0"),
        (tf.parse_series, '{"field": "QQ", "order_prec": 3, "coeffs": ["1/0"]}'),
    ):
        with pytest.raises(ParseError):
            parse(text)


def test_decimal_exponents_are_bounded_before_the_power_is_built():
    """Fraction("1e<e>") builds 10**e; past the int digit limit it is refused."""
    limit = str_digit_limit()
    started = time.perf_counter()
    assert tf.parse_ratio(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    assert tf.family_from_json({"mode": "rational", "values": [f"2E+{limit - 1}"]}).values == (2 * 10 ** (limit - 1),)
    for e in (f"{limit}", f"-{limit}", "100000000", "-1_000_000_000", "9" * 5000):
        with pytest.raises(ParseError):
            tf.parse_ratio(f"1e{e}")
        with pytest.raises(ParseError):
            tf.family_from_json({"mode": "rational", "values": [f"1.5e{e}"]})
        with pytest.raises(ParseError):
            tf.series_from_json({"field": "QQ", "order_prec": 1, "coeffs": [f"1e{e}"]})
    assert time.perf_counter() - started < 1


def test_pretty_padic_terms_stop_at_minus_the_cap():
    cap = DEFAULT_PRECISION_CAP
    x = tf.parse_padic(f"1*7^-{cap} + O(7^3)")
    assert (x.v, x.abs_prec) == (-cap, 3)
    with pytest.raises(ParseError, match="below"):
        tf.parse_padic(f"1*7^-{cap + 1} + O(7^3)")
    assert tf.parse_padic(f"1*7^-{cap + 1} + O(7^3)", cap=cap + 1).v == -cap - 1
    started = time.perf_counter()
    with pytest.raises(ParseError):
        tf.parse_padic("1*7^-1000000 + O(7^3)", 7, 8, cap)
    assert time.perf_counter() - started < 0.5


def test_pretty_padic_keeps_every_digit_or_is_refused_as_json_is():
    """The pretty form's unit is known mod p**(N - v), as in the JSON form:
    it is read in full while that power prints, and refused past it with
    the JSON form's message, never cut to fewer digits."""
    assert tf.parse_padic("1 + O(7^5088)").rel == 5088  # 7**5088 has 4300 digits
    assert tf.parse_padic("1*7^5 + O(7^5093)").rel == 5088
    assert tf.parse_padic("7 + O(7^5089)").rel == 5088  # the digit 7 is 1*7^1
    started = time.perf_counter()
    for text, json_form in [
        ("1 + O(7^5089)", {"valuation": 0, "abs_prec": 5089}),
        ("1*7^-1 + O(7^5088)", {"valuation": -1, "abs_prec": 5088}),
        ("1 + O(7^100000001)", {"valuation": 0, "abs_prec": 100000001}),
        ("1 + 1*7^9999999 + O(7^10000000)", {"valuation": 0, "abs_prec": 10**7}),
        ("6 + 6*7 + 6*7^2 + 1 + 1*7^9999999 + O(7^10000000)", {"valuation": 3, "abs_prec": 10**7}),
    ]:
        with pytest.raises(DomainError) as pretty:
            tf.parse_padic(text)
        with pytest.raises(DomainError) as from_json:
            tf.padic_from_json(dict(json_form, p=7, digits=[1]))
        assert str(pretty.value) == str(from_json.value)
        assert str(pretty.value).startswith("relative precision too fine")
    assert time.perf_counter() - started < 0.5


def test_norm_exponent_is_capped():
    assert tf.parse_norm_exponent(str(tf.MAX_NORM_EXPONENT)) == tf.MAX_NORM_EXPONENT
    for bad in (str(tf.MAX_NORM_EXPONENT + 1), "100000000"):
        with pytest.raises(ParseError, match="exceeds the limit"):
            tf.parse_norm_exponent(bad)


def test_a_json_true_is_no_series_coefficient():
    for field, message in (({"Fp": 5}, "must be an int"), ("QQ", "not a rational literal")):
        with pytest.raises(ParseError, match=message):
            tf.series_from_json({"field": field, "order_prec": 3, "coeffs": [True, 1]})
