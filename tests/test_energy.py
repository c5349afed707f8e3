"""Exact fixed-point energies: parsing, formatting, identity and the one infinity."""

import math
import operator
import pytest
from fractions import Fraction
from hypothesis import example, given, strategies as st

from basincycles import Energy, INFINITY, enumerate_path_cycles, make_landscape
from basincycles.energy import format_exact, from_units, parse_exact, parse_units
from basincycles.errors import MalformedInput, ScaleOverflow


def test_parse_whole_and_decimal():
    assert Energy.parse("2", 1000).units == 2000
    assert Energy.parse("-0.125", 1000).units == -125
    assert Energy.parse("2.5", 10).units == 25
    assert Energy.parse("inf", 10) is INFINITY


def test_parse_fraction_string():
    assert Energy.parse("1/4", 8).units == 2


def test_scale_overflow():
    with pytest.raises(ScaleOverflow):
        Energy.parse("0.0000001", 1_000_000)
    with pytest.raises(ScaleOverflow):
        Energy.parse("1/3", 1000)


def test_parse_garbage():
    with pytest.raises(MalformedInput):
        Energy.parse("two", 1000)
    with pytest.raises(MalformedInput):
        Energy.parse("1/0", 1000)


def test_ordering_and_arithmetic():
    a = Energy.from_int(2, 100)
    assert a == Energy(200, 100)


def test_energy_has_no_ordering_or_arithmetic():
    # every comparison and difference is an int operation on ``units``
    a, b = Energy.from_int(2, 100), Energy.from_int(5, 100)
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.sub):
        for other in (b, INFINITY):
            with pytest.raises(TypeError):
                op(a, other)


def test_infinity_absorbs():
    a = Energy.from_int(3, 100)
    assert INFINITY == INFINITY
    assert INFINITY != a


def test_one_infinity(fig1):
    assert INFINITY.units == math.inf
    assert from_units(math.inf, 100) is INFINITY
    assert from_units(-7, 100) == Energy(-7, 100)
    assert enumerate_path_cycles(fig1).root.depth is INFINITY


def test_mixed_scales_rejected():
    # the same value at two scales is two different energies
    assert Energy(1, 10) != Energy(10, 100)


def test_str_canonical():
    assert str(Energy(2_500_000, 1_000_000)) == "2.5"
    assert str(Energy.from_int(3, 1000)) == "3"
    assert str(Energy(-125, 1000)) == "-0.125"
    assert str(INFINITY) == "inf"


def test_format_exact_fraction_fallback():
    assert format_exact(Fraction(1, 3)) == "1/3"
    assert format_exact(Fraction(7, 50)) == "0.14"
    assert format_exact(Fraction(-3, 2)) == "-1.5"


_SCALES = st.one_of(
    st.sampled_from([1, 3, 7, 10**6]),
    st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 12), st.integers(0, 12)),
)


@given(st.one_of(st.integers(-10**6, 10**6), st.integers(-10**40, 10**40)), _SCALES)
@example(0, 7)
@example(-1, 10**6)
@example(-(10**40) - 3, 2**12 * 5**3)
def test_str_formats_units_like_the_fraction(units, scale):
    # __str__ formats from the ints; format_exact is the reference
    assert str(Energy(units, scale)) == format_exact(Fraction(units, scale))


@given(st.integers(-10**9, 10**9), st.sampled_from([1, 10, 1000, 10**6, 7, 24]))
def test_round_trip_through_text(units, scale):
    e = Energy(units, scale)
    assert Energy.parse(str(e), scale) == e


@given(st.fractions(max_denominator=1000))
def test_parse_format_exact_inverse(value):
    assert parse_exact(format_exact(value)) == value


def _parse_by_fraction(text, scale):
    """``Energy.parse`` without its whole-number shortcut: every string
    through ``Fraction``."""
    if text.strip() == "inf":
        return INFINITY
    frac = parse_exact(text) * scale
    if frac.denominator != 1:
        raise ScaleOverflow(f"{text!r} is not representable at scale {scale}")
    return Energy(int(frac), scale)


def _outcome(parse, text, scale):
    try:
        return parse(text, scale)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


WHOLE_LIKE = [
    "0", "7", " 7 ", "-3", "+12", "+0", "007", "0012", "-0", " 42\n", "\t+5 ",
    "1_000", "١٢", "٣", "²", "12.", "1e3", "+-1", "--1", "+", "-", "", "1 2", "0x10",
    "inf", "+inf", "9" * 5000, "-" + "1" * 4301,
]


@pytest.mark.parametrize("text", WHOLE_LIKE)
@pytest.mark.parametrize("scale", [1, 10, 1_000_000])
def test_whole_number_shortcut_parses_like_fraction(text, scale):
    want = _outcome(_parse_by_fraction, text, scale)
    assert _outcome(Energy.parse, text, scale) == want
    # the units parse is the one the loader calls
    assert _outcome(parse_units, text, scale) == getattr(want, "units", want)


def test_units_parse_of_whole_numbers():
    assert [parse_units(t, 10) for t in (" 7 ", "+0", "-0", "0012", "1_000", "٣")] == [
        70, 0, 0, 120, 10_000, 30
    ]
    assert parse_units("inf", 10) == math.inf
    with pytest.raises(MalformedInput, match="^energy of 'x' must be finite$"):
        make_landscape({"x": " inf ", "y": 0}, [("x", "y")])
    with pytest.raises(MalformedInput, match="not an exact number"):
        parse_units("9" * 5000, 10)


@given(
    st.one_of(st.text(), st.from_regex(r"\A\s*[+-]?[0-9_]{0,6}[.eE/]?[0-9]{0,3}\s*\Z")),
    st.sampled_from([1, 7, 1_000_000]),
)
def test_parse_matches_the_fraction_path(text, scale):
    assert _outcome(Energy.parse, text, scale) == _outcome(_parse_by_fraction, text, scale)


def test_whole_numbers_skip_fraction(monkeypatch):
    from basincycles import energy

    def refuse(text):
        raise AssertionError(f"{text!r} went through Fraction")

    monkeypatch.setattr(energy, "parse_exact", refuse)
    assert Energy.parse(" -12 ", 1000).units == -12000
    assert parse_units("+7", 1000) == 7000
    with pytest.raises(AssertionError):
        Energy.parse("1.5", 1000)
