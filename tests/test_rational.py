import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import geoplan.rational
from crosscheck import per_cell_scaled_rows
from geoplan.errors import BudgetExceededError
from geoplan.rational import MAX_DIGITS, frac_decimal, frac_str, scaled_rows, to_ratio


def exact(value) -> Fraction:
    return Fraction(*to_ratio(value))


def test_decimal_string_is_exact():
    assert exact("0.025") == Fraction(1, 40)


def test_float_reads_as_printed():
    # 0.025 the double is not 1/40, but its shortest repr is
    assert exact(0.025) == Fraction(1, 40)


def test_ratio_string():
    assert exact("9/40") == Fraction(9, 40)
    assert exact(" 13/10 ") == Fraction(13, 10)


def test_int_and_fraction_pass_through():
    assert exact(7) == Fraction(7)
    assert exact(Fraction(3, 2)) == Fraction(3, 2)


def test_bool_rejected():
    with pytest.raises(TypeError):
        exact(True)


def test_other_types_rejected():
    with pytest.raises(TypeError):
        exact(None)


def test_frac_str():
    assert frac_str(Fraction(13, 10)) == "13/10"
    assert frac_str(Fraction(4, 2)) == "2"
    assert frac_str(Fraction(0)) == "0"
    assert frac_str(Fraction(-9, 40)) == "-9/40"


def test_frac_decimal():
    assert frac_decimal(Fraction(13, 10)) == "1.300000"
    assert frac_decimal(Fraction(1, 3)) == "0.333333"
    assert frac_decimal(Fraction(2, 3)) == "0.666667"
    assert frac_decimal(Fraction(-13, 10)) == "-1.300000"
    assert frac_decimal(Fraction(2)) == "2.000000"


def test_frac_decimal_half_to_even():
    assert frac_decimal(Fraction(1, 2_000_000)) == "0.000000"
    assert frac_decimal(Fraction(3, 2_000_000)) == "0.000002"


# strings Fraction accepts, strings it rejects, and the edges of what
# scaled_rows reads as plain (signs, spaces, underscores, non-ASCII digits)
PARSE_CORPUS = (
    "3", "007", "1/40", "0.025", " 3 ", "+3", "-3/4", "3/-4", "3/ 4",
    "1_000/3", "٣/٤", "3/", "/3", "1e3", "",
    # exponent literals, which the exponent check reads before Fraction
    "1.5e-3", "-2E+2", " 1.e2 ", ".5e1", "1_0.0_1e1_0", "٣e٢", "0e5", "-0.0e-7",
    "e5", ".e5", "1e", "1e+", "1e_5", "1_e5", "1._5e1", "1e5.0", "1e5/2", "--1e5",
)


def test_string_parse_agrees_with_fraction():
    for text in PARSE_CORPUS:
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError):
                exact(text)
            with pytest.raises(ValueError):
                to_ratio(text)
            continue
        got = exact(text)
        assert type(got) is Fraction
        assert got == expected, text
        p, q = to_ratio(text)
        assert type(p) is type(q) is int and q > 0
        assert Fraction(p, q) == expected, text


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", "0/0", " 7/000 ", "1_0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            exact(text)


def test_long_digit_runs_are_refused_before_conversion():
    """A well-formed literal with a run of more than MAX_DIGITS digits is
    a budget refusal whatever the interpreter's own limit on integer
    string conversion; a malformed one stays a ValueError at any length;
    runs of at most MAX_DIGITS digits parse as before."""
    long_runs = (
        "1" * 5000, "-" + "1" * 5000, "1/" + "1" * 5000, "1_" * 5000 + "1",
        "1." + "0" * 2000, "1e" + "1" * 5000, "1" * (MAX_DIGITS + 1), "1/" + "0" * 5000,
    )
    malformed = ("x" + "1" * 5000, "1" * 5000 + "/", "1__" + "1" * 5000, "1" * 5000 + "x")
    kept = {
        "9" * MAX_DIGITS: (10**MAX_DIGITS - 1, 1),
        "1" * 600 + "/" + "1" * 600: (int("1" * 600), int("1" * 600)),
        "1_" * 999 + "1": (int("1" * 1000), 1),
        "0." + "0" * 999 + "1": (1, 10**1000),
    }
    old_limit = sys.get_int_max_str_digits()
    try:
        for limit in (old_limit, 0):
            sys.set_int_max_str_digits(limit)
            for text in long_runs:
                with pytest.raises(BudgetExceededError, match=f"more than {MAX_DIGITS} digits"):
                    to_ratio(text)
            for text in malformed:
                with pytest.raises(ValueError, match="Invalid literal"):
                    to_ratio(text)
            for text, (p, q) in kept.items():
                assert Fraction(*to_ratio(text)) == Fraction(p, q)
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_exponents_are_checked_before_the_power_is_built():
    """A zero mantissa reads as 0 whatever its exponent; a nonzero value
    of MAX_DIGITS or more digits, or one whose reduced denominator has
    more than MAX_DIGITS digits, is a budget refusal before Fraction
    builds 10**exponent (each of these would take seconds or never end)."""
    for text in ("0e999999999", "-0.000e-999999999", "0_0.0e1_000_000_000"):
        assert to_ratio(text) == (0, 1)
    refused = (
        "1e999999999", "1e-999999999", "1e3000000", f"1e{MAX_DIGITS}",
        f"0.1e{MAX_DIGITS + 1}", f"1e-{MAX_DIGITS + 2}", f"123e-{MAX_DIGITS + 4}",
        "1e" + "9" * MAX_DIGITS,
    )
    for text in refused:
        with pytest.raises(BudgetExceededError, match=f"more than {MAX_DIGITS} digits"):
            to_ratio(text)
    # the edges of the check, and values it lets through to Fraction
    kept = (
        f"9e{MAX_DIGITS - 1}", f"1e-{MAX_DIGITS + 1}", f"123e-{MAX_DIGITS + 3}",
        f"10e{MAX_DIGITS - 1}", "1e400", "1e-400",
    )
    for text in kept:
        assert exact(text) == Fraction(text), text


# --- scaled_rows: one parse per distinct string literal -------------------


def bench_shaped(rng: random.Random, n: int, k: int) -> tuple[list[list[str]], list[list[str]]]:
    """An RTT matrix of plane distances in tenths and a demand matrix of
    random weights over their total, both as strings, as the benchmark
    and the README write them."""
    points = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n)]
    rtt = [[str(Fraction(round(math.dist(a, b) * 10), 10)) for b in points] for a in points]
    weights = [[rng.randint(1, 20) for _ in range(k)] for _ in range(n)]
    total = sum(map(sum, weights))
    return rtt, [[str(Fraction(w, total)) for w in row] for row in weights]


def outcome(fn, matrix):
    try:
        return fn(matrix)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_scaled_rows_matches_the_per_cell_definition():
    rng = random.Random(22)
    matrices = []
    for _ in range(40):
        rtt, demands = bench_shaped(rng, rng.randint(2, 30), rng.randint(2, 4))
        # the same values as bare JSON numbers read with parse_float=Fraction
        bare = [[Fraction(cell) if "/" in cell else int(cell) for cell in row] for row in rtt]
        matrices += [rtt, demands, bare, [list(map(Fraction, row)) for row in demands]]
    big = "1" + "0" * MAX_DIGITS
    matrices += [
        [["1/2", "0.5"], ["2/4", " 1/2 "]],
        [[1, True], ["1", 1]],
        [[True, 1]],
        [["1", Decimal("1")]],
        [[Decimal("1"), "1"]],
        [[0.1, Fraction(0.1)], [Fraction(0.1), 0.1]],
        [["0.1", 0.1]],
        [["1", [2]]],
        [["1", "2"], ["3", {"4": 5}]],
        [["1", "x"], ["y", "2"]],
        [["1", "x"], [None, "2"]],
        [[None, "x"]],
        [["x", "1"], 5],
        [["1", "2"], 5],
        [[big, "1"], ["1", big]],
        [[f"1/{10**(MAX_DIGITS - 1)}"] * 3] * 2,
        [["1e-600", "1e-600"], [10**600, "1"]],
        [["1/0", "1/0"]],
        [],
        [[]],
        [[], []],
        [["1"], ["1", "2/3", "3"], []],
        [[1], [Fraction(1, 3), 2, 3], []],
        ["12", "34"],
        [["1", "2"], "34"],
        [["x", "2"], "34"],
        "0",
        "",
    ]
    for matrix in matrices:
        expected = outcome(per_cell_scaled_rows, matrix)
        assert outcome(scaled_rows, matrix) == expected, matrix


def test_scaled_rows_parses_each_distinct_literal_once_per_call(monkeypatch):
    """Plain literals are read in bulk, with no ``to_ratio`` call; one
    literal that is not plain sends every distinct literal of its matrix
    through ``to_ratio``, once each; in-process numbers go once per cell;
    and no call keeps anything for the next."""
    calls = []

    def counted(value):
        calls.append(value)
        return to_ratio(value)

    monkeypatch.setattr(geoplan.rational, "to_ratio", counted)
    rtt, _ = bench_shaped(random.Random(3), 30, 2)
    distinct = set().union(*rtt)
    assert len(distinct) < 30 * 30 / 2
    mixed = [row[:] for row in rtt]
    mixed[4][7] = mixed[7][4] = "0.5"  # one literal that is not plain
    for _ in range(2):  # nothing is kept from one call to the next
        calls.clear()
        assert scaled_rows(rtt) == per_cell_scaled_rows(rtt)
        assert calls == []
        calls.clear()
        assert scaled_rows(mixed) == per_cell_scaled_rows(mixed)
        assert sorted(calls) == sorted(set().union(*mixed))
    fractions = [[Fraction(cell) for cell in row] for row in rtt]
    calls.clear()
    assert scaled_rows(fractions) == per_cell_scaled_rows(rtt)
    assert len(calls) == 30 * 30


# literals of every form the bulk path must refuse or read like to_ratio
LITERAL_FORMS = (
    "007", "0/9", "1_0/2", "٣/٤", "12", "3/10", "٣",
    "5/0", "0/00", "1/", "/2", "1//2", "1/2/3", "1/-2", "",
    "-1/2", "+3", " 4", "4 ", "1 /2",
    "0.25", "1e3", "1.5e-3",
    "1" * (MAX_DIGITS + 1), "0" * (MAX_DIGITS + 1), "1/" + "0" * MAX_DIGITS + "1",
    "9" * MAX_DIGITS, "1/" + "9" * MAX_DIGITS,
)


def test_bulk_parse_matches_the_per_cell_definition():
    """Seeded matrices that mix plain literals with each form above, and
    with cells and rows that are not strings, give what the per-cell
    definition gives: the same rows and scale, or the same exception type
    and message (the first bad cell in row-major order)."""
    rng = random.Random(31)
    plain = ("0", "1", "7", "12", "3/10", "9/2", "101/5", "2/4", "0/3")
    others = (True, None, [1], 3, Fraction(1, 3))
    cases = []
    for i in range(600):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.choice(plain) for _ in range(m)] for _ in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            pool = LITERAL_FORMS + PARSE_CORPUS if rng.random() < 0.8 else others
            matrix[rng.randrange(n)][rng.randrange(m)] = rng.choice(pool)
        if i % 25 == 0:  # a ragged row, or a row that is a string
            matrix[rng.randrange(n)] = rng.choice(([], ["1"], "12", ["1", "2/3", "4", "5"] * 2))
        cases.append(matrix)
    for form in LITERAL_FORMS + PARSE_CORPUS:  # each form alone and among plain cells
        cases += [[[form]], [["0", "1/2"], ["1/2", form]], [[form, "0"], ["1", form]]]
    rtt, demands = bench_shaped(random.Random(5), 300, 3)
    cases += [rtt, demands]
    odd = [row[:] for row in rtt]
    odd[150][3] = "0.5"
    cases.append(odd)
    for matrix in cases:
        expected = outcome(per_cell_scaled_rows, matrix)
        assert outcome(scaled_rows, matrix) == expected, matrix
