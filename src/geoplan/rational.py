"""Exact rational helpers used throughout the package.

Round-trip times and demand probabilities are parsed as exact rationals
and held as integers over one scale per matrix, the least common
multiple of its denominators, so optimizer results, oracle results and
report values can be compared for exact equality.  ``to_ratio`` parses
one value and ``lowest_terms`` is the one reduction; ``scaled_rows``
joins them.  The hot paths sum and compare those integers (see
`NetworkSpec.cost_scale`) and build a `Fraction` only where a value is
reported.  Input files reach ``scaled_rows`` as text; in-process floats
are read through their shortest decimal representation.

An RTT matrix is symmetric and its cells are rounded distances, so most
of its string cells repeat.  ``scaled_rows`` therefore parses each
distinct literal of a matrix once, within one call and for string cells
only: hashing a ``Fraction`` costs more than reading its ratio, and
cells of other types can compare equal yet parse differently (``True ==
1``, the float ``0.1`` and its exact binary ``Fraction``).  When every
distinct literal is plain, digits or digits/digits as files and the
benchmark write them, the matrix is read in a few C-level passes over
all its literals (split at the slash, one ``int`` map over the
numerators, one scale factor per distinct denominator).  In any other
literal matrix the plain literals are still read that way, and only
the others go through ``to_ratio``, which reads each with
``Fraction``'s own parser.

A well-formed string literal whose digit run or exponent takes it past
``MAX_DIGITS`` digits is refused before any conversion, so neither the
interpreter's 4,300-digit limit on int conversion nor ``10**999999999``
stops it; a malformed string is an input error at any length.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from math import gcd, lcm
from operator import itemgetter, mul, not_

from .errors import BudgetExceededError

#: Most decimal digits of a count, a matrix scale or a scaled cell, so
#: every derived value stays well inside what ``str(int)`` prints (4,300).
MAX_DIGITS = 1000
_BOUND = 10**MAX_DIGITS  # built once: each power costs microseconds
#: Digits after the point in ``frac_decimal``.
DECIMAL_PLACES = 6
#: A run of digits, single underscores allowed between them as ``int`` does.
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
#: A decimal literal with an exponent, as ``Fraction`` reads one.
_EXPONENT_LITERAL = re.compile(
    r"\s*[-+]?(?=\.?\d)(\d+(?:_\d+)*)?(?:\.(\d+(?:_\d+)*)?)?[eE]([-+]?\d+(?:_\d+)*)\s*"
)


def to_ratio(value) -> tuple[int, int]:
    """A JSON-ish numeric value as exact integers ``(p, q)``, ``q > 0``,
    in lowest terms.

    Strings may be decimal literals ("0.025") or ratios ("1/40").
    Floats are interpreted via their decimal repr, so 0.025 means
    exactly 1/40 rather than the nearest binary double.  A zero
    denominator is a ValueError, like any other malformed literal.  A
    well-formed string with a run of more than ``MAX_DIGITS`` digits, or
    with an exponent that puts its value or reduced denominator past
    them, raises ``BudgetExceededError`` before any conversion (a zero
    mantissa gives ``(0, 1)``); a malformed one is a ValueError.
    """
    if isinstance(value, str):
        if len(value) > MAX_DIGITS and _over_long(value):
            raise BudgetExceededError(f"a number literal has more than {MAX_DIGITS} digits")
        literal = _EXPONENT_LITERAL.fullmatch(value)
        if literal:  # the value is mantissa * 10**shift
            whole, fraction, exponent = literal.groups("")
            mantissa = int(whole + fraction)
            if not mantissa:
                return 0, 1
            shift = int(exponent) - len(fraction.replace("_", ""))
            if shift >= MAX_DIGITS or -shift > MAX_DIGITS + len(str(mantissa)):
                raise BudgetExceededError(f"a number literal has more than {MAX_DIGITS} digits")
        try:
            return Fraction(value.strip()).as_integer_ratio()
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        return to_ratio(str(value))
    if isinstance(value, bool):
        raise TypeError("booleans are not numeric values")
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _over_long(text: str) -> bool:
    """Whether ``text`` has a run of more than ``MAX_DIGITS`` digits and
    is a well-formed literal.  The shape is checked on a copy with every
    run cut to one digit, so no long run is ever converted; a malformed
    string is left to the parser's own ValueError, whatever its length."""
    if all(len(run) - run.count("_") <= MAX_DIGITS for run in _DIGIT_RUN.findall(text)):
        return False
    try:
        Fraction(_DIGIT_RUN.sub("1", text).strip())
    except ValueError:
        return False
    return True


def scaled_rows(matrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A matrix of rationals as exact integers over one scale.

    Returns ``(rows, scale)``: ``rows[i][j] / scale`` is
    ``to_ratio(matrix[i][j])``, rows keep their lengths, and ``scale``
    is the lcm of the reduced denominators, so equal matrices give equal
    pairs.  When every distinct cell is exactly a ``str``, as every cell
    read from a file is, each distinct literal is parsed once: the
    plain ones all together (``_scaled_plain``), any others by one
    ``to_ratio`` call each in row-major order of first use
    (``_scaled_mixed``).  Each row is
    then read from that memo of literal to scaled value with one
    ``itemgetter(*row)`` call; in-process numbers are parsed once per
    cell (see the module docstring for why).  The memo lives for this
    call only.  The first bad cell, or row that is not a list, in
    row-major order raises.  A scale or a cell of more than
    ``MAX_DIGITS`` digits raises ``BudgetExceededError``.
    """
    rows = []
    try:
        for row in matrix:
            if isinstance(row, str):
                raise TypeError("a matrix row must be a list, not a string")
            rows.append(tuple(row))
    except TypeError:  # a row that is not a list: earlier bad cells raise first
        for cell in chain.from_iterable(rows):
            to_ratio(cell)
        raise
    # the first cell settles a bare-number matrix without a per-cell scan
    literal = type(next(chain.from_iterable(rows), None)) is str
    if literal:
        try:
            cells = dict.fromkeys(chain.from_iterable(rows))
            literal = {*map(type, cells)} == {str}
        except TypeError:  # an unhashable cell, which the per-cell path names
            literal = False
    if not literal:
        cells = chain.from_iterable(rows)
    scaled = literal and (_scaled_plain(cells) or _scaled_mixed(cells))
    if scaled:
        values, scale = scaled
    else:
        ratios = [*map(to_ratio, cells)]
        scale = lcm(*{q for _, q in ratios})
        values = [p * (scale // q) for p, q in ratios]
    (values,), scale = lowest_terms([values], scale)
    if max(map(abs, chain((scale,), values))) >= _BOUND:
        raise BudgetExceededError(f"a matrix needs numbers of more than {MAX_DIGITS} digits")
    if literal:
        memo = dict(zip(cells, values))
        # one itemgetter call per row; it returns a bare value for one key
        return tuple(
            itemgetter(*row)(memo) if len(row) > 1 else tuple(map(memo.__getitem__, row))
            for row in rows
        ), scale
    values = iter(values)  # row-major, one value per cell
    return tuple(tuple(islice(values, len(row))) for row in rows), scale


def _scaled_plain(literals) -> tuple[list[int], int] | None:
    """``(values, scale)`` with ``values[i] / scale`` the rational that
    ``to_ratio`` reads from the i-th of the distinct string ``literals``
    and ``scale`` the lcm of their denominators as written, when every
    literal is plain, else None.  A plain literal is a run of decimal
    digits, or two runs joined by one slash, each of at most
    ``MAX_DIGITS`` digits, with no zero denominator.  Each check and
    conversion runs over all the literals at once; each distinct
    denominator is read once."""
    # zip's arguments come from a list, not from the map: a tuple built
    # from an iterator is grown by resizing, not taken from the tuple free
    # list, so each one freed would add to that list (up to 2,000 tuples
    # per length below 20) and to the process's peak memory
    nums, slashes, dens = zip(*[*map(str.partition, literals, repeat("/"))])
    digits = "".join(nums)
    keys = {*dens}  # the distinct denominators of the literals with a slash
    keys.discard("")
    den_digits = "".join(keys)
    if not (
        digits.isdecimal()
        and (den_digits.isdecimal() or not keys)
        # a slash with nothing after it counts in both
        and slashes.count("/") + dens.count("") == len(dens)
        and (
            len(digits) + len(den_digits) <= MAX_DIGITS
            or max(map(len, chain(nums, keys))) <= MAX_DIGITS
        )
    ):
        return None
    qs = [*map(int, keys)]
    scale = lcm(*qs)
    if not scale:  # a zero denominator
        return None
    factor = dict(zip(keys, map(scale.__floordiv__, qs)))
    factor[""] = scale
    try:
        return [*map(mul, map(int, nums), map(factor.__getitem__, dens))], scale
    except ValueError:  # an empty numerator
        return None


def _scaled_mixed(literals) -> tuple[list[int], int] | None:
    """``_scaled_plain`` for distinct string ``literals`` of which only
    some are plain: the plain-shaped ones (digits with at most one
    slash) are read together by ``_scaled_plain`` and only the others,
    in first-use order, by ``to_ratio``.  None when no literal is
    plain-shaped, or when ``_scaled_plain`` refuses the plain-shaped
    ones, which it does only for a literal that ``to_ratio`` refuses too
    (a zero denominator, an empty side of the slash, a run past
    ``MAX_DIGITS``).  The caller's ``to_ratio`` pass over every literal
    then raises at the first bad one in first-use order."""
    shaped = [*map(str.isdecimal, map(str.replace, literals, repeat("/"), repeat(""), repeat(1)))]
    plain = any(shaped) and _scaled_plain(compress(literals, shaped))
    if not plain:
        return None
    values, plain_scale = plain
    ratios = [*map(to_ratio, compress(literals, map(not_, shaped)))]
    scale = lcm(plain_scale, *{q for _, q in ratios})
    # each literal takes the next value of its own kind, in first-use order
    sources = (
        iter([p * (scale // q) for p, q in ratios]),
        map(mul, values, repeat(scale // plain_scale)),
    )
    return [*map(next, map(sources.__getitem__, shaped))], scale


def lowest_terms(rows, scale: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows over ``scale`` divided by their gcd with it, which
    leaves the lcm of the cells' reduced denominators as the scale."""
    g = gcd(scale, *chain.from_iterable(rows))
    if g == 1:
        return tuple(map(tuple, rows)), scale
    return tuple(tuple(x // g for x in row) for row in rows), scale // g


def unscale_matrix(rows, scale: int) -> tuple[tuple[Fraction, ...], ...]:
    """The Fractions ``x / scale`` of an integer matrix."""
    return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)


def frac_str(value: Fraction) -> str:
    """Exact rendering: integers bare, everything else as "p/q".  A
    Fraction renders as it is; any other value is read as
    ``Fraction(value)`` first."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def frac_decimal(value: Fraction) -> str:
    """Fixed-point decimal rendering to ``DECIMAL_PLACES`` places with
    round-half-to-even."""
    f = Fraction(value)
    # round() of a Fraction rounds half to even
    digits = str(round(abs(f) * 10**DECIMAL_PLACES)).rjust(DECIMAL_PLACES + 1, "0")
    return f"{'-' if f < 0 else ''}{digits[:-DECIMAL_PLACES]}.{digits[-DECIMAL_PLACES:]}"
