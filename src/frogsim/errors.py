"""Exception types shared across the package, and the rules of parameter values.

A rule returns None for a value it accepts, else the rest of the message
after the value's name: "must be an integer >= 1, got 0".  The library
applies rules at entry with ``require``, and the CLI's ``COMMANDS`` table
reads the same rules, so a plan and a library call break a rule alike.
"""

import math
from numbers import Integral, Real


class FrogsimError(Exception):
    """Base class for all frogsim errors."""


class LawParameterError(FrogsimError):
    """A parameter value that breaks its rule: a law's parameter, a sample size, a ladder, ..."""


class GeometryError(FrogsimError):
    """Requested computation does not fit inside the sampled box."""


class EmptySetError(FrogsimError):
    """An operation over a set of sites received an empty set."""


class SearchCapError(FrogsimError):
    """A search exceeded its configured size cap."""


class CensoringBudgetError(FrogsimError):
    """Too many replicas were censored at the configured horizon."""

    def __init__(self, message: str, horizon: int, censored: int, total: int):
        super().__init__(message)
        self.horizon = horizon
        self.censored = censored
        self.total = total


class PlanError(FrogsimError):
    """Invalid experiment plan or command-line parameters."""


def require(name: str, value, rule):
    """``value``, if ``rule`` accepts it; else LawParameterError "{name} must be ..."."""
    problem = rule(value)
    if problem:
        raise LawParameterError(f"{name} {problem}")
    return value


def require_site(name: str, point, dim: int):
    """``point``, if it is a list or tuple of ``dim`` integers; else GeometryError "{name} must have ..."."""
    if not (_sequence(point) and len(point) == dim):
        raise GeometryError(f"{name} must have dim = {dim} coordinates, got {point!r}")
    if not all(map(_integer, point)):
        raise GeometryError(f"{name} must have integer coordinates, got {point!r}")
    return point


def must(ok, what: str):
    """A rule: None if ``ok(value)``, else "must be {what}, got ..."."""
    return lambda value: None if ok(value) else f"must be {what}, got {value!r}"


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)  # a bool is not a number here


def _real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _sequence(value) -> bool:
    return isinstance(value, (list, tuple))


INTEGER = must(_integer, "an integer")
COUNT = must(lambda v: _integer(v) and v >= 0, "an integer >= 0")
SIZE = must(lambda v: _integer(v) and v >= 1, "an integer >= 1")
POSITIVE = must(lambda v: _real(v) and v > 0, "a finite number > 0")
NONNEGATIVE = must(lambda v: _real(v) and v >= 0, "a finite number >= 0")
PROBABILITY = must(lambda v: _real(v) and 0 <= v <= 1, "a number in [0, 1]")
# a repeated scale would fit a slope through one point twice, or count its replicas twice
LADDER = must(lambda v: _sequence(v) and v and all(_integer(k) and k >= 1 for k in v)
              and len(set(v)) == len(v), "a non-empty list of positive integers, each once")
# the sites of a ladder |x|_1 -> infinity: the origin has log |x|_1 = -inf
SITE_LADDER = must(
    lambda v: _sequence(v) and v and all(_sequence(x) and x and all(map(_integer, x)) and any(x) for x in v)
    and len({len(x) for x in v}) == 1 and len(set(map(tuple, v))) == len(v),
    "a non-empty list of distinct integer sites of one dim, none the origin")
# coordinates, which require_site checks against dim; a zero direction has no ray
SITES = must(_sequence, "a list")
DIRECTION = must(lambda v: _sequence(v) and any(v), "a nonzero site")
TEXT = must(lambda v: isinstance(v, str), "a string")
SWITCH = must(lambda v: type(v) is bool, "true or false")
