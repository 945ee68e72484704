"""Exact-arithmetic tests for grids, covering and Whitney decomposition."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsedom.geometry import (
    Box,
    Cube,
    GridId,
    concentric,
    cover_cube,
    dilate,
    whitney_decompose,
)
from sparsedom.rational import (MAX_EXPONENT, THIRD, ZERO, floor_log2, parse_scalar, pow2,
                                rat, rat_ceil, rat_floor)

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
    k0 = -(floor_log2(3 * q.side) + 1)
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
    s = pow2(floor_log2(3 * ell) + 1)
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
# whitney
# ---------------------------------------------------------------------------

DOMAIN_1D = Box.interval(-1, 2)
DOMAIN_2D = Box.square(-1, 2)


def check_whitney(cubes, mask, domain, level):
    """Independent verifier for every guaranteed Whitney property."""
    mask = np.asarray(mask, dtype=bool)
    dim = mask.ndim
    h = Fraction(1, 2**level)
    n_axis = mask.shape[0]

    def cell_range(box):
        lo = [(a - domain.lo[d]) / h for d, a in enumerate(box.lo)]
        hi = [(b - domain.lo[d]) / h for d, b in enumerate(box.hi)]
        assert all(x.denominator == 1 for x in lo + hi)
        return [(int(a), int(b)) for a, b in zip(lo, hi)]

    def in_omega(rng):
        for a, b in rng:
            if a < 0 or b > n_axis:
                return False
        if dim == 1:
            return bool(mask[rng[0][0]:rng[0][1]].all())
        return bool(mask[rng[0][0]:rng[0][1], rng[1][0]:rng[1][1]].all())

    covered = np.zeros_like(mask, dtype=np.int64)
    for q in cubes:
        assert q.grid.is_standard
        rng = cell_range(q.box)
        assert in_omega(rng), "cube leaves omega"
        if dim == 1:
            covered[rng[0][0]:rng[0][1]] += 1
        else:
            covered[rng[0][0]:rng[0][1], rng[1][0]:rng[1][1]] += 1
        if q.side > h:
            assert in_omega(cell_range(concentric(q.box, 3))), "3Q leaves omega"
        # maximality: parent not inside omega, or parent triple leaves omega
        p = q.parent()
        p_ok = in_omega(cell_range(p.box)) and in_omega(cell_range(concentric(p.box, 3)))
        assert not p_ok, "parent would also qualify"
    assert (covered[mask] == 1).all(), "omega not covered exactly once"
    assert (covered[~mask] == 0).all(), "spill outside omega"


def test_whitney_empty():
    assert whitney_decompose(np.zeros(24, dtype=bool), DOMAIN_1D, 3) == []


def test_whitney_full_domain_rejected():
    with pytest.raises(ValueError):
        whitney_decompose(np.ones(24, dtype=bool), DOMAIN_1D, 3)


def test_whitney_interior_band():
    # omega = [1/4, 3/4) inside [-1, 2) at level 4: the two maximal dyadic
    # cubes with 3Q inside omega are [3/8, 1/2) and [1/2, 5/8)
    level = 4
    n_axis = 3 * 2**level
    mask = np.zeros(n_axis, dtype=bool)
    lo = (rat("1/4") + 1) * 2**level
    hi = (rat("3/4") + 1) * 2**level
    mask[int(lo):int(hi)] = True
    cubes = whitney_decompose(mask, DOMAIN_1D, level)
    boxes = {c.box for c in cubes}
    assert Box.interval(rat("3/8"), rat("1/2")) in boxes
    assert Box.interval(rat("1/2"), rat("5/8")) in boxes
    check_whitney(cubes, mask, DOMAIN_1D, level)
    assert sum(c.measure for c in cubes) == rat("1/2")


@given(st.integers(0, 2**12 - 1))
@settings(max_examples=200)
def test_whitney_random_1d(bits):
    level = 2
    mask = np.zeros(12, dtype=bool)
    for i in range(12):
        mask[i] = bool(bits >> i & 1)
    assume(mask.any() and not mask.all())
    cubes = whitney_decompose(mask, DOMAIN_1D, level)
    check_whitney(cubes, mask, DOMAIN_1D, level)


@given(st.integers(0, 2**24 - 1), st.integers(0, 1))
@settings(max_examples=120)
def test_whitney_random_2d(bits, extra):
    level = 1
    mask = np.zeros((6, 6), dtype=bool)
    for i in range(24):
        mask[i // 6, i % 6] = bool(bits >> i & 1)
    mask[4, 4 + extra] = True
    assume(not mask.all())
    cubes = whitney_decompose(mask, DOMAIN_2D, level)
    check_whitney(cubes, mask, DOMAIN_2D, level)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_cube_json_roundtrip():
    q = Cube(GridId.shifted(2), 3, (-4, 7))
    assert Cube.from_json(q.to_json()) == q
    assert q.to_json()["grid"] == ["1/3", "1/3"]


def test_box_json_roundtrip():
    b = Box.interval(rat("-8/3"), rat("4/3"))
    assert Box.from_json(b.to_json()) == b
    assert b.to_json()["lo"] == ["-8/3"]
