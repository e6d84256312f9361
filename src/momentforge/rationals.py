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


# the exponent that ends Fraction's decimal syntax, e.g. "1.5e-3"
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
MAX_DECIMAL_EXPONENT = 4300  # 10**4300 has the digits of Python's default int-string limit


def parse_rational(s) -> Fraction:
    """Fraction from a JSON value: an int, or a string Fraction() reads. An
    exponent past MAX_DECIMAL_EXPONENT in magnitude is refused before
    Fraction() builds 10**exponent, whatever the interpreter's digit limit."""
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise InputError(f"rational values must be strings or integers, got {s!r}")
    try:
        exponent = _EXPONENT.search(s)
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"exponent past {MAX_DECIMAL_EXPONENT} in magnitude")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {s!r}: {exc}") from exc
