"""Exact-arithmetic tests for grids, cube covering and the rational helpers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedom.geometry import (
    Box,
    Cube,
    GridId,
    concentric,
    cover_cube,
    dilate,
)
from sparsedom.rational import (MAX_EXPONENT, THIRD, ZERO, floor_log2_ratio, parse_scalar,
                                pow2, rat, rat_ceil, rat_floor, rat_str)

from meshtools import cube_at

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# rationals with denominator 2^a * 3^b, the only denominators the
# constructions ever produce
rationals = st.builds(
    lambda num, a, b: Fraction(num, 2**a * 3**b),
    st.integers(-400, 400),
    st.integers(0, 6),
    st.integers(0, 2),
)

side_lengths = st.builds(
    lambda num, a: Fraction(num, 2**a),
    st.integers(1, 48),
    st.integers(0, 12),
).filter(lambda q: Fraction(1, 2**12) <= q <= 1)

grids_1d = st.sampled_from(GridId.all_grids(1))
grids_2d = st.sampled_from(GridId.all_grids(2))


def interval_cubes():
    return st.builds(lambda lo, ell: Box((lo,), (lo + ell,)), rationals, side_lengths)


def square_cubes():
    return st.builds(
        lambda x, y, ell: Box((x, y), (x + ell, y + ell)),
        rationals,
        rationals,
        side_lengths,
    )


def test_parse_scalar_bounds_exponent_and_denominator():
    e = MAX_EXPONENT
    assert parse_scalar(" 1e%d " % e) == 10**e
    assert parse_scalar("-2.5E-%d" % e) == Fraction(-5, 2 * 10**e)
    assert parse_scalar("3/4") == rat("3/4") == Fraction(3, 4)
    for text in ("1e%d" % (e + 1), "1e-%d" % (e + 1), "1e1_000_000",
                 "1e" + "0" * 50 + "1" * 50):
        with pytest.raises(ValueError, match="exponent out of range"):
            parse_scalar(text)
    for text in ("1/0", "-0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            rat(text)


def test_rat_str_leaves_out_values_of_4096_bits_or_more():
    small, big = (1 << 4094) + 1, 1 << 4095  # 4,095 and 4,096 bits
    assert rat_str(Fraction(small, 3)) == "%d/3" % small
    assert rat_str(Fraction(-3, small)) == "-3/%d" % small
    for q in (Fraction(big, 3), Fraction(-big, 3), Fraction(3, big)):
        assert rat_str(q) is None


# ---------------------------------------------------------------------------
# GridId / Cube basics
# ---------------------------------------------------------------------------

def test_grid_count():
    assert len(GridId.all_grids(1)) == 2
    assert len(GridId.all_grids(2)) == 4


def test_grid_rejects_bad_shift():
    with pytest.raises(ValueError):
        GridId((Fraction(1, 2),))


def test_children_of_shifted_unit_interval():
    # [1/3, 4/3) in the shifted grid splits at 5/6, not at 1/3 + 1/2 = 5/6
    # on the left piece boundary: children are [1/3, 5/6) and [5/6, 4/3)
    q = Cube(GridId.shifted(1), 0, (0,))
    assert q.box == Box((rat("1/3"),), (rat("4/3"),))
    kids = q.children()
    assert [c.box for c in kids] == [
        Box((rat("1/3"),), (rat("5/6"),)),
        Box((rat("5/6"),), (rat("4/3"),)),
    ]


@given(grids_1d, st.integers(-3, 8), st.integers(-40, 40))
def test_children_partition_parent_1d(grid, k, j):
    q = Cube(grid, k, (j,))
    kids = q.children()
    assert len(kids) == 2
    assert kids[0].box.hi == kids[1].box.lo
    assert kids[0].box.lo == q.box.lo
    assert kids[1].box.hi == q.box.hi
    assert sum(c.measure for c in kids) == q.measure


@given(grids_2d, st.integers(-2, 6), st.integers(-20, 20), st.integers(-20, 20))
def test_children_partition_parent_2d(grid, k, jx, jy):
    q = Cube(grid, k, (jx, jy))
    kids = q.children()
    assert len(kids) == 4
    assert sum(c.measure for c in kids) == q.measure
    for c in kids:
        assert q.box.contains_box(c.box)


@given(grids_1d, st.integers(-3, 8), st.integers(-40, 40))
def test_parent_child_roundtrip(grid, k, j):
    q = Cube(grid, k, (j,))
    for c in q.children():
        assert c.parent() == q
    p = q.parent()
    assert q in p.children()
    assert p.box.contains_box(q.box)


@given(grids_1d, st.integers(-2, 10), rationals)
def test_cube_at_contains_point(grid, k, x):
    q = cube_at(grid, k, (x,))
    assert q.box.contains_point((x,))
    # neighbours do not
    left = Cube(grid, k, (q.j[0] - 1,))
    right = Cube(grid, k, (q.j[0] + 1,))
    assert not left.box.contains_point((x,))
    assert not right.box.contains_point((x,))


@given(grids_1d, st.integers(-2, 8), rationals, rationals)
def test_same_grid_cubes_nest_or_disjoint(grid, k, x, y):
    # two cubes from one grid at possibly different scales
    a = cube_at(grid, k, (x,))
    b = cube_at(grid, k + 2, (y,))
    inter = a.box.intersect(b.box)
    if inter is not None:
        assert a.box.contains_box(b.box)
        assert inter == b.box


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------

def test_cover_unit_interval():
    grid, q = cover_cube(Box.interval(0, 1))
    assert grid.alpha == (THIRD,)
    assert q.k == -2 and q.j == (-1,)
    assert q.box == Box((rat("-8/3"),), (rat("4/3"),))


def test_cover_middle_third():
    grid, q = cover_cube(Box.interval(rat("1/3"), rat("2/3")))
    assert grid.is_standard
    assert q.box == Box.interval(0, 2)
    assert q.side == 6 * rat("1/3")  # boundary case of the 6x guarantee


@given(interval_cubes())
@settings(max_examples=400)
def test_cover_contains_and_6x_1d(q):
    grid, big = cover_cube(q)
    assert big.box.contains_box(q)
    assert big.side <= 6 * q.side


@given(square_cubes())
@settings(max_examples=200)
def test_cover_contains_and_6x_2d(q):
    grid, big = cover_cube(q)
    assert big.box.contains_box(q)
    assert big.side <= 6 * q.side


def reference_cover(q):
    """The cover search and the cube corner in plain Fraction arithmetic,
    the formula cover_cube used before its integer form: the oracle for
    (grid, k, j, box)."""
    k0 = -(floor_log2_ratio(3 * q.side.numerator, q.side.denominator) + 1)
    s = pow2(-k0)
    sign = 1 if k0 % 2 == 0 else -1
    alpha, index = [], []
    for a, b in zip(q.lo, q.hi):
        if Fraction(rat_ceil(a / s)) * s >= b:
            alpha.append(ZERO)
            index.append(rat_floor(a / s))
        else:
            alpha.append(THIRD)
            index.append(rat_floor(a / s - sign * THIRD))
    lo = tuple((j + sign * al) * s for j, al in zip(index, alpha))
    box = Box(lo, tuple(x + s for x in lo))
    assert box.contains_box(q)
    return GridId(tuple(alpha)), k0, tuple(index), box


@st.composite
def cover_boundary_cubes(draw, dim):
    """Cubes with negative corners, arbitrary denominators, and ends that
    land exactly on a standard gridpoint of the cover scale, where the
    standard-grid test is decided by equality."""
    ell = draw(st.one_of(side_lengths, st.fractions(
        Fraction(1, 2048), 8, max_denominator=2048)))
    s = pow2(floor_log2_ratio(3 * ell.numerator, ell.denominator) + 1)
    lo = []
    for _ in range(dim):
        end = draw(st.sampled_from(("free", "hi-on-grid", "lo-on-grid")))
        if end == "free":
            lo.append(draw(st.one_of(rationals, st.fractions(
                -100, 100, max_denominator=64))))
        else:
            gridpoint = draw(st.integers(-64, 64)) * s
            lo.append(gridpoint - ell if end == "hi-on-grid" else gridpoint)
    return Box(tuple(lo), tuple(x + ell for x in lo))


@given(cover_boundary_cubes(1))
@settings(max_examples=400)
def test_cover_matches_fraction_reference_1d(q):
    grid, big = cover_cube(q)
    assert (grid, big.k, big.j, big.box) == reference_cover(q)


@given(cover_boundary_cubes(2))
@settings(max_examples=400)
def test_cover_matches_fraction_reference_2d(q):
    grid, big = cover_cube(q)
    assert (grid, big.k, big.j, big.box) == reference_cover(q)


def test_cover_rejects_non_cube():
    with pytest.raises(ValueError):
        cover_cube(Box((rat(0), rat(0)), (rat(1), rat(2))))


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilate_identity():
    q = Cube(GridId.standard(1), 1, (1,))
    assert dilate(q, 0) == q.box


def test_dilate_doubling():
    q = Cube(GridId.standard(1), 1, (1,))  # [1/2, 1)
    assert dilate(q, 1) == Box.interval(rat("1/4"), rat("5/4"))


def test_dilate_square():
    q = Box.square(0, rat("1/2"))
    assert dilate(q, 2) == Box.square(rat("-3/4"), rat("5/4"))


def test_concentric_triple():
    box = Box.interval(rat("3/8"), rat("1/2"))
    assert concentric(box, 3) == Box.interval(rat("1/4"), rat("5/8"))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_cube_json_roundtrip():
    q = Cube(GridId.shifted(2), 3, (-4, 7))
    assert q.to_json() == {"grid": ["1/3", "1/3"], "k": 3, "j": [-4, 7]}


def test_box_json_roundtrip():
    b = Box.interval(rat("-8/3"), rat("4/3"))
    assert b.to_json() == {"lo": ["-8/3"], "hi": ["4/3"]}
