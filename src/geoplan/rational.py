"""Exact rational helpers used throughout the package.

Round-trip times and demand probabilities are read as `Fraction`
values, so optimizer results, oracle results and report values can be
compared for exact equality.  The hot paths sum and compare them on
integers over one cached common scale per network (see
`NetworkSpec.cost_scale`) and build a `Fraction` only where a value is
reported.  Floats only appear at ingestion and are read through their
shortest decimal representation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def to_fraction(value) -> Fraction:
    """Coerce a JSON-ish numeric value to an exact Fraction.

    Strings may be decimal literals ("0.025") or ratios ("1/40").
    Floats are interpreted via their decimal repr, so 0.025 means
    exactly 1/40 rather than the nearest binary double.  A zero
    denominator is a ValueError, like any other malformed literal.
    """
    if isinstance(value, str):
        text = value.strip()
        # plain digits and "p/q" skip Fraction's literal parser
        num, slash, den = text.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash):
            q = int(den or 1)
            if q == 0:
                raise ValueError(f"zero denominator in {value!r}")
            return Fraction(int(num), q)
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def common_denominator(matrix) -> int:
    """Least common multiple of a Fraction matrix's denominators."""
    return lcm(*(x.denominator for row in matrix for x in row))


def scale_matrix(matrix, scale: int) -> tuple[tuple[int, ...], ...]:
    """Every entry of a Fraction matrix times ``scale``, a common
    multiple of its denominators, as exact integers."""
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in row) for row in matrix)


def unscale_matrix(rows, scale: int) -> tuple[tuple[Fraction, ...], ...]:
    """The Fractions ``x / scale`` of an integer matrix."""
    return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)


def frac_str(value: Fraction) -> str:
    """Exact rendering: integers bare, everything else as "p/q"."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def frac_decimal(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal rendering with round-half-to-even."""
    f = Fraction(value)
    sign = "-" if f < 0 else ""
    scaled = abs(f) * 10**places
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    # round half to even on the remainder
    double = 2 * rem
    if double > scaled.denominator or (double == scaled.denominator and whole % 2 == 1):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
