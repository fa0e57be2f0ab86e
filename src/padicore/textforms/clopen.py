"""The clopen-set and ball forms, and the checks of a ball's level and
center."""

from ..errors import ParseError
from ..intmath import power_prints, str_digit_limit
from ..measure import Ball, ClopenSet
from . import _json


def clopen_to_json(s):
    """The text of json.dumps(s.to_json_dict(), sort_keys=True), written a
    level at a time from the sorted centers with no dict per ball."""
    return '{"balls": [%s], "p": %d}' % (", ".join(balls_json_items(level, xs) for level, xs in s.levels()), s.p)


def balls_json_items(level, centers):
    """The JSON objects of the balls with these centers at one level, as
    json.dumps(sort_keys=True) writes them in an array: comma-separated."""
    tail = f', "level": {level}}}'
    return '{"center": ' + (tail + ', {"center": ').join(map(str, centers)) + tail


def check_ball_level(p, level):
    """Reject a ball level whose modulus p**level cannot be printed.

    Outputs print the modulus (a measure's denominator) or centers below
    it; see ``intmath.power_prints`` for the limit.
    """
    if not isinstance(level, int) or isinstance(level, bool):
        raise ParseError(f"ball level must be an integer, got {level!r}")
    if not isinstance(p, int) or p < 2 or level < 0:
        return  # Ball rejects these
    if not power_prints(p, level):
        limit = str_digit_limit()
        raise ParseError(f"ball modulus {p}^{level} has more than {limit} digits")


def check_ball_center(center):
    """Reject a ball center that is not a JSON integer (a float, bool or string)."""
    if not isinstance(center, int) or isinstance(center, bool):
        raise ParseError(f"ball center must be an integer, got {center!r}")


def parse_clopen(text):
    data = _json(text, "clopen-set JSON")
    try:
        for ball in data["balls"]:
            check_ball_level(data["p"], ball["level"])
            check_ball_center(ball.get("center", 0))  # a missing one is reported where it is read
        return ClopenSet.from_json_dict(data)
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad clopen-set JSON: {e}") from None


def parse_ball(text, p):
    """A Ball from {"level": L, "center": c} at prime p, to be split.

    The p sub-balls have centers up to p**(L + 1), so that modulus must
    print as well.
    """
    data = _json(text, "ball JSON")
    try:
        check_ball_level(p, data["level"])
        check_ball_level(p, data["level"] + 1)
        check_ball_center(data["center"])
        return Ball(p, data["level"], data["center"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad ball JSON: {e}") from None
