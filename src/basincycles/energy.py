"""Exact fixed-point energies.

An energy is an integer count of ``1/scale`` units.  The package computes on
those ints, never on ``Energy`` objects, so comparisons and differences never
round.  The decompositions branch on exact equalities (zero renormalized
cost, flat plateaus), which is why floats are banned everywhere outside the
Monte Carlo sampler.

``math.inf`` is the one infinity: it stands for the cost between
disconnected sets and for minima over empty sets, and it compares and adds
exactly against ints.  ``INFINITY`` is its ``Energy`` (``INFINITY.units`` is
``math.inf``), and ``from_units`` is the one way back from units, mapping
``math.inf`` to ``INFINITY`` itself.  ``Energy`` only parses, formats and
serves the public views.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import MalformedInput, ScaleOverflow

DEFAULT_SCALE = 1_000_000


def parse_exact(text: str) -> Fraction:
    """Parse a decimal string (``"2"``, ``"-0.125"``) or a fraction string
    (``"1/3"``) to an exact rational."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"not an exact number: {text!r}") from exc


def parse_units(text: str, scale: int):
    """The int units of an exact string at ``scale``, or ``math.inf`` for
    ``"inf"``.  A whole number scales in int arithmetic; anything else goes
    through ``parse_exact`` and must land on a whole unit."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():  # 0-9 only
        try:
            return int(text) * scale
        except ValueError as exc:  # past the int conversion digit limit
            raise MalformedInput(f"not an exact number: {text!r}") from exc
    if text == "inf":
        return math.inf
    frac = parse_exact(text) * scale
    if frac.denominator != 1:
        raise ScaleOverflow(f"{text!r} is not representable at scale {scale}")
    return int(frac)


def format_exact(value: Fraction) -> str:
    """Render a rational canonically: a finite decimal when one exists
    (no trailing zeros), otherwise ``"num/den"``."""
    return _format_lowest(value.numerator, value.denominator)


def _format_lowest(num: int, den: int) -> str:
    """``format_exact`` of ``num/den``, given in lowest terms with ``den > 0``."""
    if den == 1:
        return str(num)
    two = (den & -den).bit_length() - 1
    rest = den >> two
    five = 0
    while rest % 5 == 0:
        rest //= 5
        five += 1
    if rest != 1:
        return f"{num}/{den}"
    # minimal number of decimal places: max of the 2- and 5-adic valuations
    places = max(two, five)
    scaled = num * 10**places // den
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


class Energy:
    """An exact energy value: ``units / scale``, or the +infinity sentinel."""

    __slots__ = ("units", "scale")

    def __init__(self, units: int, scale: int = DEFAULT_SCALE):
        if scale <= 0:
            raise ValueError("scale must be a positive integer")
        self.units = units
        self.scale = scale

    # -- construction -----------------------------------------------------

    @classmethod
    def from_int(cls, value: int, scale: int = DEFAULT_SCALE) -> "Energy":
        return cls(value * scale, scale)

    @classmethod
    def parse(cls, text: str, scale: int = DEFAULT_SCALE) -> "Energy":
        return from_units(parse_units(text, scale), scale)

    @property
    def is_infinite(self) -> bool:
        return self is INFINITY

    def to_float(self) -> float:
        if self.is_infinite:
            return float("inf")
        return self.units / self.scale

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Energy):
            return NotImplemented
        return self.units == other.units and self.scale == other.scale

    def __hash__(self) -> int:
        return hash((self.units, self.scale))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        divisor = math.gcd(self.units, self.scale)
        return _format_lowest(self.units // divisor, self.scale // divisor)

    def __repr__(self) -> str:
        if self.is_infinite:
            return "Energy.INFINITY"
        return f"Energy({self.units}, scale={self.scale})"


INFINITY = Energy.__new__(Energy)
INFINITY.units = math.inf  # type: ignore[assignment]
INFINITY.scale = 0


def from_units(units, scale: int) -> Energy:
    """The ``Energy`` of ``units`` at ``scale``; ``INFINITY`` for ``math.inf``."""
    return INFINITY if units == math.inf else Energy(units, scale)
