"""Exact-rational JSON encoding: "p/q" strings, integers as plain digits."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import BudgetExceededError, InputError


def format_rational(x: Fraction | int) -> str:
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise BudgetExceededError(f"the exact result is too long to print: {exc}") from exc


def check_printable(bits: int) -> None:
    """Refuse before computing, as format_rational would after, a result known to
    be at least 2**bits when that has more digits than sys.get_int_max_str_digits()."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and bits >= (limit + 1) / math.log10(2):
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


def parse_rational(s) -> Fraction:
    """Fraction from a JSON value: an int, or a string Fraction() reads. A run
    of more than MAX_DIGITS digits, or an exponent past MAX_DIGITS in
    magnitude, is refused before Fraction() converts it or builds
    10**exponent, whatever the interpreter's digit limit."""
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise InputError(f"rational values must be strings or integers, got {clip(repr(s))}")
    try:
        if len(s) > MAX_DIGITS:  # only so long a string holds so long a run
            run = max((len(r) - r.count("_") for r in _DIGIT_RUN.findall(s)), default=0)
            if run > MAX_DIGITS:
                raise ValueError(f"a run of {run} digits is past {MAX_DIGITS}")
        exponent = _EXPONENT.search(s)
        if exponent and abs(int(exponent[1])) > MAX_DIGITS:
            raise ValueError(f"exponent past {MAX_DIGITS} in magnitude")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {clip(repr(s))}: {clip(str(exc))}") from exc
