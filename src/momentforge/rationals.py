"""Exact-rational JSON encoding: "p/q" strings, integers as plain digits, and
the rules every argument passes on its way in: exact for a rational, natural
for an integer, and quote for the value a refusal names, which clips it and
cannot itself fail however large an int it holds."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from .errors import BudgetExceededError, InputError


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past sys.get_int_max_str_digits(): as check_printable words it
        raise BudgetExceededError(
            f"the exact result is too long to print: over {sys.get_int_max_str_digits()} digits"
        ) from exc


def exact(value, what: str) -> Fraction:
    """value as a Fraction, when it is exactly an int or a Fraction: no float's
    binary expansion, and no bool read as 0 or 1, enters an exact result."""
    if type(value) is not int and type(value) is not Fraction:
        raise InputError(f"{what} must be an int or a Fraction, got {quote(value)}")
    return Fraction(value)


def natural(value, what: str, least: int = 0) -> int:
    """value, when it is an int (not a bool) >= least: the one rule for an
    integer argument, such as an exponent, a depth or a count."""
    if type(value) is int and value >= least:
        return value
    raise InputError(f"{what} must be an integer >= {least}, got {quote(value)}")


def over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(numerators, d): the values as numerators over d, their least common
    denominator, so a weighted sum of them is one integer sum and one Fraction."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def check_printable(bits: int) -> None:
    """Refuse before computing, as format_rational would after, a result known to
    be at least 2**bits when that has more digits than sys.get_int_max_str_digits(),
    or than MAX_DIGITS where that limit is off (0)."""
    limit = sys.get_int_max_str_digits() or MAX_DIGITS
    if bits >= (limit + 1) / math.log10(2):
        raise BudgetExceededError(f"the exact result is too long to print: over {limit} digits")


# the exponent that ends Fraction's decimal syntax, e.g. "1.5e-3", and a run of
# digits as int() and Fraction() read one, single underscores allowed
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
# Python's default int-string limit, held fixed: input with a longer run of
# digits, or a decimal exponent past it, is refused before int() or Fraction()
# spends quadratic time on it, whatever the interpreter's own limit
MAX_DIGITS = 4300
_QUOTED = 200  # characters of input a message quotes


def clip(text: str) -> str:
    """text, or its first _QUOTED characters and its length: input a message quotes."""
    return text if len(text) <= _QUOTED else f"{text[:_QUOTED]}... ({len(text)} characters)"


def clip_int(n: int) -> str:
    """n in decimal, clipped, for a message; past 2**2048, where str() could pass
    any digit limit (640 at the least) or take quadratic time, its bit length."""
    if n.bit_length() > 2048:
        return f"<a {n.bit_length()}-bit integer>"
    return clip(str(n))


def quote(value) -> str:
    """value for a message: an int by clip_int, anything else by clip(repr()),
    or by its type alone where repr() would pass the digit limit."""
    if type(value) is int:
        return clip_int(value)
    try:
        return clip(repr(value))
    except ValueError:  # it holds an int past sys.get_int_max_str_digits()
        return f"<a {type(value).__name__} too long to print>"


def parse_rational(s) -> Fraction | int:
    """The exact value of a JSON value: an int, or a string of plain ASCII
    digits, as an int; any other string as the Fraction Fraction() reads. A
    run of more than MAX_DIGITS digits, or an exponent past MAX_DIGITS in
    magnitude, is refused before int() or Fraction() converts it or builds
    10**exponent, whatever the interpreter's digit limit."""
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return int(s)
    if not isinstance(s, str):
        raise InputError(f"rational values must be strings or integers, got {quote(s)}")
    try:
        if len(s) > MAX_DIGITS:  # only so long a string holds so long a run
            run = max((len(r) - r.count("_") for r in _DIGIT_RUN.findall(s)), default=0)
            if run > MAX_DIGITS:
                raise ValueError(f"a run of {run} digits is past {MAX_DIGITS}")
        if s.isascii() and s.isdigit():  # a digit-limit refusal worded as by Fraction()
            return int(s)
        exponent = _EXPONENT.search(s)
        if exponent and abs(int(exponent[1])) > MAX_DIGITS:
            raise ValueError(f"exponent past {MAX_DIGITS} in magnitude")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {clip(repr(s))}: {clip(str(exc))}") from exc
