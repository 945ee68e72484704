"""Dyadic grids, shifted grids and cube covering.

The toolkit works on R^n (n = 1 or 2) with exact rational coordinates.
Besides the standard dyadic grid there is one shifted grid per axis
(offset one third of the sidelength), giving 2^n grids in total.  The
central geometric fact implemented here: every axis-parallel cube is
contained in a single cube of one of these grids with sidelength at most
6 times larger (``cover_cube``).

Shift convention.  At scale 2**-k the shifted tiling is offset by
(-1)**k * (1/3) * 2**-k.  The alternating sign is what makes the shifted
family an honest dyadic grid: each cube at scale k is the exact union of
two (2^n) cubes at scale k+1.  With a constant offset the tilings at
adjacent scales would not nest.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .rational import THIRD, ZERO, floor_log2_ratio, pow2, rat, rat_str

__all__ = [
    "GridId",
    "Box",
    "Cube",
    "cover_cube",
    "concentric",
    "dilate",
]

ALPHA_CHOICES = (ZERO, THIRD)


def _shift_sign(k: int) -> int:
    return 1 if k % 2 == 0 else -1


def _first_child(k: int, j, shifted: bool):
    """On one axis, the index of the first of the two scale-(k+1) children
    of the scale-k grid cube of index j (the other is one more): 2j + (-1)^k
    on a shifted axis, 2j on a standard one.  j may be an integer array."""
    return 2 * j + (_shift_sign(k) if shifted else 0)


def _parent_index(k: int, j, shifted: bool):
    """On one axis, the index of the scale-(k-1) parent of the scale-k grid
    cube of index j, by inverting ``_first_child``."""
    return (j - _first_child(k - 1, 0, shifted)) // 2


def _thirds(u: int, k: int) -> Fraction:
    """u thirds of the scale-k sidelength, u * 2**-k / 3, exactly."""
    if k >= 0:
        return Fraction(u, 3 << k)
    return Fraction(u << -k, 3)


@dataclass(frozen=True)
class GridId:
    """One of the 2^n dyadic grids: per-axis shift component 0 or 1/3."""

    alpha: tuple[Fraction, ...]

    def __post_init__(self):
        for a in self.alpha:
            if a not in ALPHA_CHOICES:
                raise ValueError(f"grid shift component must be 0 or 1/3, got {a}")

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def is_standard(self) -> bool:
        return all(a == 0 for a in self.alpha)

    def offset_at(self, k: int) -> tuple[Fraction, ...]:
        """Signed per-axis shift (in units of the sidelength) at scale k."""
        s = _shift_sign(k)
        return tuple(s * a for a in self.alpha)

    @staticmethod
    def standard(dim: int) -> "GridId":
        return GridId((ZERO,) * dim)

    @staticmethod
    def shifted(dim: int) -> "GridId":
        return GridId((THIRD,) * dim)

    @staticmethod
    def all_grids(dim: int) -> list["GridId"]:
        return [GridId(c) for c in itertools.product(ALPHA_CHOICES, repeat=dim)]

    def to_json(self) -> list:
        return [0 if a == 0 else "1/3" for a in self.alpha]


@functools.lru_cache(maxsize=None)
def _grid_of(shifted: tuple[bool, ...]) -> GridId:
    """The grid shifted on exactly the flagged axes (built once per pattern)."""
    return GridId(tuple(THIRD if b else ZERO for b in shifted))


@dataclass(frozen=True)
class Box:
    """Half-open axis-parallel box: product of [lo_i, hi_i)."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box corner dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if b <= a:
                raise ValueError("box must have positive sides")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[Fraction, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def is_cube(self) -> bool:
        s = self.sides
        return all(x == s[0] for x in s)

    @property
    def side(self) -> Fraction:
        if not self.is_cube:
            raise ValueError("box is not a cube")
        return self.hi[0] - self.lo[0]

    @property
    def measure(self) -> Fraction:
        m = Fraction(1)
        for s in self.sides:
            m *= s
        return m

    @property
    def center(self) -> tuple[Fraction, ...]:
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))

    def contains_point(self, x) -> bool:
        return all(a <= xi < b for a, xi, b in zip(self.lo, x, self.hi))

    def contains_box(self, other: "Box") -> bool:
        return all(a <= oa and ob <= b
                   for a, oa, ob, b in zip(self.lo, other.lo, other.hi, self.hi))

    def intersect(self, other: "Box"):
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def to_json(self) -> dict:
        return {"lo": [rat_str(a) for a in self.lo],
                "hi": [rat_str(b) for b in self.hi]}

    @staticmethod
    def interval(lo, hi) -> "Box":
        return Box((rat(lo),), (rat(hi),))

    @staticmethod
    def square(lo, hi) -> "Box":
        return Box((rat(lo), rat(lo)), (rat(hi), rat(hi)))


@dataclass(frozen=True)
class Cube:
    """Grid cube: scale k (sidelength 2**-k) and integer index per axis.

    The corner on axis i sits at (j_i + sign(k) * alpha_i) * 2**-k where
    sign(k) = (-1)**k (see module docstring).
    """

    grid: GridId
    k: int
    j: tuple[int, ...]

    def __post_init__(self):
        if len(self.j) != self.grid.dim:
            raise ValueError("cube index dimension mismatch")

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def side(self) -> Fraction:
        return pow2(-self.k)

    def _corner_thirds(self) -> tuple[int, ...]:
        """Per-axis corner as an integer count of thirds of the side."""
        s = _shift_sign(self.k)
        return tuple(3 * ji + (s if a else 0)
                     for a, ji in zip(self.grid.alpha, self.j))

    @property
    def corner(self) -> tuple[Fraction, ...]:
        k = self.k
        return tuple([_thirds(u, k) for u in self._corner_thirds()])

    @property
    def box(self) -> Box:
        k = self.k
        u = self._corner_thirds()
        return Box(tuple([_thirds(x, k) for x in u]),
                   tuple([_thirds(x + 3, k) for x in u]))

    @property
    def measure(self) -> Fraction:
        return self.side ** self.dim

    def children(self) -> list["Cube"]:
        """The 2^n cubes of the next scale tiling this cube exactly."""
        base = [_first_child(self.k, ji, a != 0)
                for a, ji in zip(self.grid.alpha, self.j)]
        return [Cube(self.grid, self.k + 1, combo)
                for combo in itertools.product(*((i, i + 1) for i in base))]

    def parent(self) -> "Cube":
        return Cube(self.grid, self.k - 1, tuple(
            _parent_index(self.k, ji, a != 0)
            for a, ji in zip(self.grid.alpha, self.j)))

    def to_json(self) -> dict:
        return {"grid": self.grid.to_json(), "k": self.k, "j": list(self.j)}


def cover_cube(q: Box) -> tuple[GridId, Cube]:
    """Smallest-scale grid cube containing ``q`` with sidelength <= 6 * side(q).

    Per axis: pick the scale with 2**-(k0+1) <= 3*side < 2**-k0.  If the
    interval misses every standard gridpoint at that scale it fits in a
    standard interval; otherwise it is short enough to fit in a shifted
    one.  The standard choice is tried first on each axis.

    The search runs on integers: each endpoint x is carried as the ratio
    n / d = x * 2**k0, so gridpoints of the scale are the integers and
    grid-cube corners are whole thirds of them.
    """
    ends = [(a.numerator, a.denominator, b.numerator, b.denominator)
            for a, b in zip(q.lo, q.hi)]
    # each axis side as an unreduced (numerator, denominator) pair
    sides = [(bn * ad - an * bd, ad * bd) for an, ad, bn, bd in ends]
    sn, sd = sides[0]
    if any(n * sd != sn * d for n, d in sides):
        raise ValueError("cover_cube requires equal sidelengths")
    # 2**-k0 is the least power of 2 > 3 * side
    k0 = -(floor_log2_ratio(3 * sn, sd) + 1)
    sign = _shift_sign(k0)
    shifted = []
    index = []
    for an, ad, bn, bd in ends:
        if k0 >= 0:
            an <<= k0
            bn <<= k0
        else:
            ad <<= -k0
            bd <<= -k0
        # Standard grid first: does [a, b) avoid all multiples of 2**-k0?
        j_first = -(-an // ad)
        standard = j_first * bd >= bn
        if standard:
            j = an // ad
            u = 3 * j
        else:
            j = (3 * an - sign * ad) // (3 * ad)
            u = 3 * j + sign
        # the chosen cube, [u/3, u/3 + 1) after scaling, must hold [a, b)
        if u * ad > 3 * an or 3 * bn > (u + 3) * bd:
            raise AssertionError("covering construction failed to contain input")
        shifted.append(not standard)
        index.append(j)
    grid = _grid_of(tuple(shifted))
    return grid, Cube(grid, k0, tuple(index))


def concentric(box: Box, factor) -> Box:
    """Box with the same center and sides scaled by ``factor`` (rational > 0)."""
    f = rat(factor)
    if f <= 0:
        raise ValueError("scale factor must be positive")
    ctr = box.center
    half = tuple(s * f / 2 for s in box.sides)
    return Box(tuple(c - h for c, h in zip(ctr, half)),
               tuple(c + h for c, h in zip(ctr, half)))


def dilate(q: Cube | Box, m: int) -> Box:
    """Concentric dilate 2**m * q as a Box."""
    if m < 0:
        raise ValueError("dilation exponent must be >= 0")
    box = q.box if isinstance(q, Cube) else q
    return concentric(box, pow2(m))

