"""The immutable value types: balls and the report records.

Each is a namedtuple subclass, so equality, hashing and ordering are those
of its field tuple, and its repr is ``Name(field=value, ...)``.  The
slotted classes (Padic, ResidueClass, PadicPolynomial, HenselProblem) are
immutable too.
"""

import math
from fractions import Fraction

import pytest

from padicore import Ball, HenselProblem, Padic, PadicPolynomial, RadiusReport, ResidueClass, ValuationGrowthRule
from padicore.errors import DomainError, UnsupportedRuleError
from padicore.hensel import BallImageReport, ConditionReport, ball_image_check, check_condition
from padicore.sumlab import (
    FiniteFamily,
    FubiniReport,
    NormReport,
    PartitionReport,
    fubini_check,
    norms,
    partition_check,
)


def _reports():
    """One report of each kind, from the functions that make them."""
    f = PadicPolynomial(7, [-2, 0, 1], abs_prec=6)
    family = FiniteFamily(range(3), [Fraction(1, 2), 3, -1])
    return [
        check_condition(f, Padic.from_int(3, 7, 6), 0, 1),
        ball_image_check(f, Padic.from_int(3, 7, 6), 0, 1, 3),
        norms(family, 2),
        fubini_check([[1, 2], [3, 4]]),
        partition_check(family, [[0], [1, 2]]),
        ValuationGrowthRule(1, 1),
    ]


def test_repr_names_every_field():
    assert repr(Ball(5, 2, 7)) == "Ball(p=5, level=2, center=7)"
    assert repr(ValuationGrowthRule(1)) == "ValuationGrowthRule(slope=Fraction(1, 1), logflag=0, offset=0)"
    assert repr(RadiusReport(Fraction(1, 2), False, "w")) == (
        "RadiusReport(rho_exponent=Fraction(1, 2), terms_vanish_on_boundary=False, witness='w')"
    )
    assert repr(ConditionReport(True, True, 0, math.inf, math.inf)) == (
        "ConditionReport(ok=True, ok_nonstrict=True, derivative_valuation=0, mu2=inf, gap=inf)"
    )
    assert repr(BallImageReport("verified", True, 3, 49, 49, 49)) == (
        "BallImageReport(status='verified', equal=True, level=3, source_size=49, "
        "image_size=49, target_size=49)"
    )
    assert repr(NormReport(Fraction(3), "inf", Fraction(3))) == (
        "NormReport(sup=Fraction(3, 1), r='inf', lr_power=Fraction(3, 1))"
    )
    assert repr(FubiniReport(10, 10, 10, True)) == (
        "FubiniReport(row_first=10, column_first=10, direct=10, equal=True)"
    )
    assert repr(PartitionReport((1, 2), 3, 3, True)) == (
        "PartitionReport(block_totals=(1, 2), total_from_blocks=3, direct=3, equal=True)"
    )


def test_equal_fields_make_equal_values_with_equal_hashes():
    for value in [Ball(5, 2, 7), RadiusReport(Fraction(1), False, "w"), *_reports()]:
        twin = type(value)(*value)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert len({value, twin}) == 1
    assert Ball(5, 2, 7) != Ball(5, 2, 8) and Ball(5, 2, 7) != Ball(5, 1, 2)
    assert ConditionReport(True, True, 0, 1, 2) != ConditionReport(True, False, 0, 1, 2)
    assert Ball(5, 2, 32) == Ball(5, 2, 7)  # the center is reduced first


def test_balls_order_by_prime_level_and_center():
    balls = [Ball(5, 1, 4), Ball(3, 2, 1), Ball(5, 1, 0), Ball(3, 1, 2), Ball(5, 0, 0)]
    assert sorted(balls) == [Ball(3, 1, 2), Ball(3, 2, 1), Ball(5, 0, 0), Ball(5, 1, 0), Ball(5, 1, 4)]
    assert Ball(5, 1, 4) < Ball(5, 2, 0) < Ball(7, 0, 0)


def test_values_are_immutable():
    f = PadicPolynomial(7, [-2, 0, 1], abs_prec=6)
    slotted = [Padic.from_int(3, 7, 6), Padic.zero(7, 4), ResidueClass(7, 2, 3), f, HenselProblem(f, 3)]
    for value in [Ball(5, 2, 7), *_reports(), *slotted]:
        fields = getattr(type(value), "_fields", None) or type(value).__slots__
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert not hasattr(value, "__dict__")


def test_ball_constructor_validates():
    with pytest.raises(DomainError):
        Ball(6, 1, 0)
    with pytest.raises(DomainError):
        Ball(5, -1, 0)
    assert Ball(p=5, level=1, center=-1) == Ball(5, 1, 4)


def test_growth_rule_defaults_and_slope():
    rule = ValuationGrowthRule(2)
    assert (rule.slope, rule.logflag, rule.offset) == (Fraction(2), 0, 0)
    assert type(rule.slope) is Fraction
    assert ValuationGrowthRule("1/2", offset=3) == ValuationGrowthRule(Fraction(1, 2), 0, 3)
    assert ValuationGrowthRule(slope=1, logflag=1).logflag == 1
    with pytest.raises(UnsupportedRuleError):
        ValuationGrowthRule(-1)
    with pytest.raises(UnsupportedRuleError):
        ValuationGrowthRule(0, 2)


def test_ball_image_report_is_true_only_when_verified_equal():
    assert BallImageReport("verified", True, 3, 1, 1, 1)
    assert not BallImageReport("verified", False, 3, 1, 1, 1)
    assert not BallImageReport("condition-not-met", False, 3, 0, 0, 0)
    f = PadicPolynomial(7, [-2, 0, 1], abs_prec=6)
    assert ball_image_check(f, Padic.from_int(3, 7, 6), 0, 1, 3)
    assert not ball_image_check(f, Padic.from_int(3, 7, 6), 0, 0, 3)
