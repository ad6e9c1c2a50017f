"""Exact rational helpers used throughout the package.

Round-trip times and demand probabilities are parsed as exact rationals
and held as integers over one scale per matrix, the least common
multiple of its denominators (``scaled_rows``), so optimizer results,
oracle results and report values can be compared for exact equality.
The hot paths sum and compare those integers (see
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


def scaled_rows(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A matrix of rationals as exact integers over one scale.

    Returns ``(rows, scale)``: ``rows[i][j] / scale`` is
    ``to_fraction(matrix[i][j])``, rows keep their lengths, and
    ``scale`` is the lcm of the denominators, so equal matrices give
    equal pairs.  Each distinct string cell is parsed once; any other
    cell is coerced on its own, since a value-keyed cache would take
    ``True`` for ``1``.  The first bad cell in row-major order raises.
    """
    exact: dict = {}  # a string cell, or a non-string cell's value -> Fraction

    def key(x):
        if not isinstance(x, str):
            x = to_fraction(x)
            exact[x] = x
        elif x not in exact:
            exact[x] = to_fraction(x)
        return x

    keyed = [tuple(map(key, row)) for row in matrix]
    scale = lcm(*(f.denominator for f in exact.values()))
    scaled = {x: f.numerator * (scale // f.denominator) for x, f in exact.items()}
    return tuple(tuple(map(scaled.__getitem__, row)) for row in keyed), scale


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
