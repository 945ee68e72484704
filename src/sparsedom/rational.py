"""Exact rational arithmetic helpers shared across the toolkit.

All geometric coordinates and step-function values are ``fractions.Fraction``
instances.  Every report writes them through ``rat_str``, as the string
``"num/den"`` (always with an explicit denominator), or None past 4,096
bits; parsing additionally accepts plain integers and decimal strings,
both converted exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["rat", "rat_str", "parse_scalar", "pow2"]

ZERO = Fraction(0)
THIRD = Fraction(1, 3)
# Fraction builds 10**e for a decimal exponent e: seconds once e passes 10^6
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")
MAX_BITS = 4096  # rat_str prints None from here, about 1,233 decimal digits


def rat(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts Fraction, int, "num/den" strings, decimal strings and floats.
    Floats are converted exactly (no decimal rounding), so a float input
    denotes the dyadic rational it actually stores.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(q) -> str | None:
    """Serialize a rational as ``"num/den"`` (denominator always explicit),
    or as None once either has ``MAX_BITS`` bits or more: past any sensible
    printout, and past Python's int-to-str digit limit."""
    q = Fraction(q)
    if max(q.numerator.bit_length(), q.denominator.bit_length()) >= MAX_BITS:
        return None
    return f"{q.numerator}/{q.denominator}"


def rat_floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def rat_ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def floor_log2_ratio(n: int, d: int) -> int:
    """Largest integer t with 2**t <= n/d, for positive integers n and d
    (not necessarily coprime)."""
    t = n.bit_length() - d.bit_length()
    # bit_length gives t within 1; correct exactly.
    while not _pow2_le(t, n, d):
        t -= 1
    while _pow2_le(t + 1, n, d):
        t += 1
    return t


def _pow2_le(t: int, n: int, d: int) -> bool:
    """Exact test 2**t <= n/d for positive n, d."""
    if t >= 0:
        return (d << t) <= n
    return d <= (n << (-t))


def ldexp_ratio(num: int, den: int, e: int) -> float:
    """num/den·2^-e as one correctly rounded float: the power of two goes
    into the integers before their one true division, so neither leaves
    the float range on the way."""
    return (num << max(-e, 0)) / (den << max(e, 0))


def pow2(t: int) -> Fraction:
    """2**t as an exact Fraction, for any integer t."""
    if t >= 0:
        return Fraction(1 << t)
    return Fraction(1, 1 << (-t))


def parse_scalar(text: str) -> Fraction:
    """Parse a scalar from CSV/CLI input: "num/den", integer or decimal;
    ValueError for a zero denominator or an exponent past ±MAX_EXPONENT."""
    exp = _EXPONENT.search(text)
    digits = exp and exp.group(1).replace("_", "").lstrip("0")
    if digits and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
        raise ValueError(f"decimal exponent out of range in {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
