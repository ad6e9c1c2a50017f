from fractions import Fraction

import pytest

from geoplan.rational import frac_decimal, frac_str, to_fraction, to_ratio


def test_decimal_string_is_exact():
    assert to_fraction("0.025") == Fraction(1, 40)


def test_float_reads_as_printed():
    # 0.025 the double is not 1/40, but its shortest repr is
    assert to_fraction(0.025) == Fraction(1, 40)


def test_ratio_string():
    assert to_fraction("9/40") == Fraction(9, 40)
    assert to_fraction(" 13/10 ") == Fraction(13, 10)


def test_int_and_fraction_pass_through():
    assert to_fraction(7) == Fraction(7)
    assert to_fraction(Fraction(3, 2)) == Fraction(3, 2)


def test_bool_rejected():
    with pytest.raises(TypeError):
        to_fraction(True)


def test_other_types_rejected():
    with pytest.raises(TypeError):
        to_fraction(None)


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


# strings Fraction accepts, strings it rejects, and the edges of the
# digits-only shortcut (signs, spaces, underscores, non-ASCII digits)
PARSE_CORPUS = (
    "3", "007", "1/40", "0.025", " 3 ", "+3", "-3/4", "3/-4", "3/ 4",
    "1_000/3", "٣/٤", "3/", "/3", "1e3", "",
)


def test_string_parse_agrees_with_fraction():
    for text in PARSE_CORPUS:
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError):
                to_fraction(text)
            with pytest.raises(ValueError):
                to_ratio(text)
            continue
        got = to_fraction(text)
        assert type(got) is Fraction
        assert got == expected, text
        p, q = to_ratio(text)
        assert type(p) is type(q) is int and q > 0
        assert Fraction(p, q) == expected, text


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", "0/0", " 7/000 ", "1_0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            to_fraction(text)
