"""Tests for step functions, rearrangements, medians, oscillations and
the maximal operators, against brute-force definitional oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsedom import stepfn
from sparsedom.geometry import Box, Cube, GridId, _parent_index
from sparsedom.rational import rat, rat_str
from sparsedom.stepfn import (
    Mesh,
    StepFunction,
    average,
    dyadic_maximal,
    hl_maximal,
    local_mean_oscillation,
    median,
    rearrangement,
    sharp_maximal,
    _cube_sums,
    _grid_scale_sums,
    _hl_1d,
    _LATTICE_DEPTH,
    _prefix_table,
    _runs,
    _TOP_SCALE,
)

from sparsedom.harness import GENERATOR_KINDS, generate_function
from sparsedom.sparse import amalgam_adjoint, cz_sparse, split_families

from meshtools import (assert_python_ints, both_paths, cell_masses, cell_of_point,
                       cube_at, edge_input, flat, indicator, le, unflat)

# ---------------------------------------------------------------------------
# strategies: small random step functions with gentle denominators
# ---------------------------------------------------------------------------

cell_values = st.builds(
    lambda num, den: Fraction(num, den),
    st.integers(-8, 8),
    st.sampled_from([1, 2, 4, 8]),
)


# unrelated denominators, negatives and zeros: the maximal operators carry
# |f| over the lcm of the cell denominators
rational_values = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-200, 200), st.sampled_from([3, 7, 96, 97])),
)


def step_functions(level=2, dim=1, values=cell_values):
    mesh = Mesh(dim, level)
    return st.builds(
        lambda vals: StepFunction(mesh, vals),
        st.lists(values, min_size=mesh.size, max_size=mesh.size),
    )


UNIT = Box.interval(0, 1)


def mk(level, pairs, dim=1):
    """Step function from {box: value} with everything else zero."""
    mesh = Mesh(dim, level)
    vals = [Fraction(0)] * mesh.size
    f = StepFunction(mesh, vals)
    for box, v in pairs:
        ind = indicator(mesh, box)
        f = f + ind * rat(v)
    return f


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def oracle_rearrangement(f, b, t):
    """Definitional scan: smallest candidate s with |{|f|>s} ∩ b| <= t."""
    masses = cell_masses(f, b, absolute=True, pad_zero=False)
    candidates = sorted({Fraction(0), *masses.keys()})
    for s in candidates:
        d = sum(m for v, m in masses.items() if v > s)
        if d <= t:
            return s
    raise AssertionError("no candidate works")


def oracle_oscillation(f, q, lam):
    """Definitional infimum over candidate c of ((f-c)χ_q)*(λ|q|)."""
    masses = cell_masses(f, q)
    vals = sorted(masses.keys())
    cands = set(vals)
    for i, a in enumerate(vals):
        for b in vals[i:]:
            cands.add((a + b) / 2)
    t = rat(lam) * q.measure
    best = None
    for c in cands:
        d_at = lambda s: sum(m for v, m in masses.items() if abs(v - c) > s)
        scand = sorted({Fraction(0), *[abs(v - c) for v in vals]})
        star = next(s for s in scand if d_at(s) <= t)
        if best is None or star < best:
            best = star
    return best


def oracle_hl_2d(f):
    """All mesh-aligned squares inside the domain."""
    n = f.mesh.cells_axis
    best = [abs(v) for v in f.values]
    for size in range(2, n + 1):
        for i0 in range(n - size + 1):
            for j0 in range(n - size + 1):
                s = sum(abs(f.values[i * n + j])
                        for i in range(i0, i0 + size)
                        for j in range(j0, j0 + size))
                avg = s / (size * size)
                for i in range(i0, i0 + size):
                    for j in range(j0, j0 + size):
                        best[i * n + j] = max(best[i * n + j], avg)
    return best


def oracle_hl_1d(f):
    """All O(N^2) mesh intervals."""
    n = f.mesh.size
    best = [Fraction(0)] * n
    for a in range(n):
        acc = Fraction(0)
        for b in range(a + 1, n + 1):
            acc += abs(f.values[b - 1])
            avg = acc / (b - a)
            for c in range(a, b):
                if avg > best[c]:
                    best[c] = avg
    return best


def oracle_hl_pairs(pref):
    """Per cell the best (sum, length) over the intervals [a, b) holding it,
    in O(N^2) integer steps: for each left end a the suffix maximum over
    right ends b, then the running maximum over a <= c."""
    n = len(pref) - 1
    best = [(0, 1)] * n
    for a in range(n):
        suffix = (0, 1)
        for b in range(n, a, -1):  # suffix is now the best [a, b') with b' >= b
            s, l = pref[b] - pref[a], b - a
            if s * suffix[1] > suffix[0] * l:
                suffix = (s, l)
            c = b - 1
            if suffix[0] * best[c][1] > best[c][0] * suffix[1]:
                best[c] = suffix
    return best


# ---------------------------------------------------------------------------
# mesh mechanics
# ---------------------------------------------------------------------------

def test_mesh_counts():
    m = Mesh(1, 3)
    assert m.cells_axis == 24 and m.size == 24
    m2 = Mesh(2, 2)
    assert m2.shape == (12, 12) and m2.size == 144


def test_atom_count_matches_measure_for_grid_cubes():
    # any interval whose length is a whole number of cells holds exactly
    # that many cell centers, no matter how it is shifted
    m = Mesh(1, 3)
    i0, i1 = m.axis_atoms(0, rat("1/3"), rat("4/3"))
    assert i1 - i0 == 8
    i0, i1 = m.axis_atoms(0, rat("-5/24"), rat("19/24"))
    assert i1 - i0 == 8


@given(step_functions(level=3))
def test_integral_additive_under_split(f):
    box = Box.interval(rat("-1/3"), rat("5/4"))
    left = Box.interval(rat("-1/3"), rat("1/5"))
    right = Box.interval(rat("1/5"), rat("5/4"))
    assert f.integral(box) == f.integral(left) + f.integral(right)


def test_indicator_requires_alignment():
    with pytest.raises(ValueError):
        indicator(Mesh(1, 2), Box.interval(0, rat("1/3")))


def test_refine_preserves_values_and_integral():
    f = mk(2, [(Box.interval(0, rat("1/2")), rat("3/4"))])
    g = f.refine(2)
    assert g.mesh.level == 4
    assert g.integral() == f.integral()
    assert g.values[cell_of_point(g.mesh, (rat("1/4"),))[0]] == rat("3/4")


def test_csv_roundtrip(tmp_path):
    f = mk(2, [(Box.interval(rat("1/4"), rat("3/4")), rat("7/8"))])
    p = tmp_path / "f.csv"
    p.write_text("".join(rat_str(v) + "\n" for v in f.values))
    g = StepFunction.from_csv(p, 1, 2)
    assert g == f


def random_box(rng, dim, lo=-2, hi=3):
    """A box with rational corners, possibly leaving the domain."""
    ends = []
    for _ in range(dim):
        a, b = sorted(Fraction(rng.randint(lo * 12, hi * 12), rng.choice([1, 3, 8, 12]))
                      for _ in range(2))
        ends.append((a, b if b > a else a + Fraction(1, 5)))
    return Box(tuple(a for a, _ in ends), tuple(b for _, b in ends))


@pytest.mark.parametrize("mesh", [Mesh(1, 2), Mesh(2, 1), Mesh(2, 2)],
                         ids=["1d", "2d", "2d-level2"])
def test_mesh_cells_are_the_cells_with_centers_in_box(mesh):
    rng = random.Random(mesh.size)
    centers = [mesh.centers(a) for a in range(mesh.dim)]
    for _ in range(60):
        box = random_box(rng, mesh.dim)
        cells = mesh.cells(box)
        assert len(cells) == mesh.dim
        inside = np.zeros(mesh.shape, dtype=bool)
        inside[cells] = True
        for i in range(mesh.size):
            idx = unflat(mesh, i)
            center = tuple(c[j] for c, j in zip(centers, idx))
            assert mesh.cell_box(idx).center == center
            assert inside[idx] == box.contains_point(center)


def test_integral_and_atom_sum_cellwise_2d():
    # every cell weighted by its overlap with the box, against the n-D
    # prefix table with partial cells on both axes
    rng = random.Random(5)
    for mesh in (Mesh(2, 1), Mesh(2, 2)):
        f = StepFunction(mesh, [Fraction(rng.randint(-40, 40), rng.choice([1, 3, 7, 96]))
                                for _ in range(mesh.size)])
        for _ in range(40):
            box = random_box(rng, 2)
            want_int = want_atoms = Fraction(0)
            for i, v in enumerate(f.values):
                cell = mesh.cell_box(unflat(mesh, i))
                part = cell.intersect(box)
                if part is not None:
                    want_int += v * part.measure
                if box.contains_point(cell.center):
                    want_atoms += v * cell.measure
            assert f.integral(box) == want_int
            assert f.atom_sum(box) == want_atoms
        assert f.integral() == mesh.h ** 2 * sum(f.values)


def test_box_beyond_the_domain_holds_no_cells():
    f = StepFunction.constant(Mesh(1, 2), 1)
    beyond = Box.interval(5, 6)
    assert f.mesh.cells(beyond) == (slice(12, 12),)
    assert f.atom_sum(beyond) == 0 and f.integral(beyond) == 0


@pytest.mark.parametrize("level", [1, 2])
def test_grid_scale_sums_is_exact_through_its_depth(level):
    # against Cube.box on the h/3 lattice, down to scale level - 61: on the
    # table of 1 per cell a cube sums to its clipped length.  The cube
    # holding cell i's center, i - 2^level at scale level and its parents
    # above (dyadic_maximal's positions), against cube_at.  One scale
    # coarser the int64 side 3·2^62 of the lattice overflows
    mesh = Mesh(1, level)
    lo, n3 = mesh.domain.lo[0], 3 * mesh.cells_axis
    centers = [lo + (i + Fraction(1, 2)) * mesh.h for i in range(mesh.cells_axis)]
    ones = _prefix_table(np.ones(mesh.shape, dtype=np.int64), np.int64)

    def clipped(x):
        return min(max(3 * (x - lo) / mesh.h, 0), n3)

    ks = (level - _LATTICE_DEPTH, level - _LATTICE_DEPTH + 1)
    for grid in GridId.all_grids(1):
        scales = _grid_scale_sums(ones, mesh, grid, ks)
        j = [i - (1 << level) for i in range(mesh.cells_axis)]
        for k in range(level, ks[0] - 1, -1):
            assert j == [cube_at(grid, k, (x,)).j[0] for x in centers]
            if k in scales:
                sums, (j0,) = scales[k]
                boxes = [Cube(grid, k, (j0 + i,)).box for i in range(len(sums))]
                lengths = [clipped(b.hi[0]) - clipped(b.lo[0]) for b in boxes]
                assert list(sums) == lengths and min(lengths) > 0
                assert clipped(boxes[0].lo[0]) == 0 and sum(lengths) == n3
                assert all(0 <= x - j0 < len(sums) for x in j)
            j = [_parent_index(k, x, grid.alpha[0] != 0) for x in j]
        with pytest.raises(OverflowError):
            _grid_scale_sums(ones, mesh, grid, [level - _LATTICE_DEPTH - 1])


# ---------------------------------------------------------------------------
# average
# ---------------------------------------------------------------------------

def test_average_constant():
    f = StepFunction.constant(Mesh(1, 2), rat("5/8"))
    assert average(f, Box.interval(rat("-1/2"), rat("7/8"))) == rat("5/8")


def test_average_half_indicator():
    f = mk(2, [(Box.interval(0, rat("1/2")), 1)])
    assert average(f, UNIT) == rat("1/2")
    assert average(f, Box.interval(rat("1/4"), rat("3/4"))) == rat("1/2")


def test_average_zero_extension():
    # box sticking out of the domain: numerator clipped, denominator full
    f = StepFunction.constant(Mesh(1, 2), 1)
    assert average(f, Box.interval(-4, 2)) == rat("1/2")


# ---------------------------------------------------------------------------
# rearrangement / profile
# ---------------------------------------------------------------------------

def test_rearrangement_spec_values():
    f = mk(2, [(Box.interval(0, rat("1/2")), 1)])
    assert rearrangement(f, UNIT, rat("1/2")) == 0
    assert rearrangement(f, UNIT, rat("1/4")) == 1
    zero = StepFunction.zeros(Mesh(1, 2))
    assert rearrangement(zero, UNIT, rat("1/8")) == 0


def test_rearrangement_rejects_bad_t():
    f = StepFunction.zeros(Mesh(1, 2))
    with pytest.raises(ValueError):
        rearrangement(f, UNIT, 0)


@given(step_functions(), st.integers(1, 15))
def test_rearrangement_matches_oracle(f, tnum):
    t = Fraction(tnum, 8)
    assert rearrangement(f, UNIT, t) == oracle_rearrangement(f, UNIT, t)


@given(step_functions())
def test_profile_consistency(f):
    # the integer runs of |f| that rearrangement reads
    box = Box.interval(rat("-1/8"), rat("7/8"))
    values, masses, u, den = _runs(abs(f), box)
    assert values == sorted(set(values))
    assert all(m > 0 for m in masses)
    assert Fraction(sum(v * m for v, m in zip(values, masses)), den * u) \
        == abs(f).integral(box)
    assert Fraction(sum(masses), u) == box.measure


# ---------------------------------------------------------------------------
# median
# ---------------------------------------------------------------------------

def test_median_spec_values():
    assert median(StepFunction.constant(Mesh(1, 2), rat("2/3")), UNIT) == rat("2/3")
    f = mk(2, [(Box.interval(0, rat("1/2")), 1)])
    assert median(f, UNIT) == 1  # maximal-median convention
    g = StepFunction(Mesh(1, 2), [1] * 4 + [2] * 4 + [3] * 4)
    assert median(g, Box.interval(-1, 2)) == 2


@given(step_functions())
def test_median_is_maximal_qualifying_value(f):
    q = UNIT
    m = median(f, q)
    half = q.measure / 2

    def qualifies(c):
        above = sum(f.mesh.h for v in f.values[4:8] if v > c)
        below = sum(f.mesh.h for v in f.values[4:8] if v < c)
        return above <= half and below <= half

    assert qualifies(m)
    larger = [v for v in set(f.values[4:8]) if v > m]
    assert all(not qualifies(c) for c in larger)


@given(step_functions())
def test_median_left_continuous_display(f):
    # |m_f(q)| <= inf{s : |{|f χ_q| > s}| < |q|/2}, the variant that
    # survives exact ties on atomic functions
    q = UNIT
    m = median(f, q)
    masses = {}
    for v in f.values[4:8]:
        masses[abs(v)] = masses.get(abs(v), Fraction(0)) + f.mesh.h
    half = q.measure / 2
    cands = sorted({Fraction(0), *masses.keys()})
    s_star = next(s for s in cands
                  if sum(mm for vv, mm in masses.items() if vv > s) < half)
    assert abs(m) <= s_star


# ---------------------------------------------------------------------------
# local mean oscillation
# ---------------------------------------------------------------------------

def test_oscillation_spec_values():
    const = StepFunction.constant(Mesh(1, 2), rat("9/7"))
    assert local_mean_oscillation(const, UNIT, rat("1/8")) == 0
    f = mk(2, [(Box.interval(0, rat("1/2")), 1)])
    assert local_mean_oscillation(f, UNIT, rat("1/8")) == rat("1/2")
    spike = mk(4, [(Box.interval(0, rat("1/16")), 1)])
    assert local_mean_oscillation(spike, UNIT, rat("1/4")) == 0


def test_oscillation_rejects_bad_lambda():
    f = StepFunction.zeros(Mesh(1, 2))
    with pytest.raises(ValueError):
        local_mean_oscillation(f, UNIT, 1)


@given(step_functions(), st.sampled_from([Fraction(1, 8), Fraction(1, 4),
                                          Fraction(1, 2), Fraction(7, 8)]))
def test_oscillation_matches_definitional_oracle(f, lam):
    assert local_mean_oscillation(f, UNIT, lam) == oracle_oscillation(f, UNIT, lam)


@given(step_functions(), st.sampled_from([Fraction(1, 8), Fraction(1, 4)]))
def test_oscillation_bounded_by_median_rearrangement(f, lam):
    m = median(f, UNIT)
    bound = rearrangement(f - m, UNIT, lam * UNIT.measure)
    assert local_mean_oscillation(f, UNIT, lam) <= bound


# ---------------------------------------------------------------------------
# sharp maximal
# ---------------------------------------------------------------------------

Q0 = Cube(GridId.standard(1), 0, (0,))  # [0, 1)


def oracle_sharp(f, q0, lam):
    mesh = f.mesh
    out = [Fraction(0)] * mesh.size

    def visit(cube):
        w = local_mean_oscillation(f, cube.box, lam)
        for i in range(mesh.size):
            if cube.box.contains_point(mesh.cell_box(unflat(mesh, i)).center):
                out[i] = max(out[i], w)
        if cube.side > mesh.h:
            for child in cube.children():
                visit(child)

    visit(q0)
    return out


def test_sharp_constant_is_zero():
    f = StepFunction.constant(Mesh(1, 3), rat("3/2"))
    assert sharp_maximal(f, Q0, rat("1/8")).values == [Fraction(0)] * 24


def test_sharp_rejects_fine_cube():
    f = StepFunction.zeros(Mesh(1, 2))
    with pytest.raises(ValueError):
        sharp_maximal(f, Cube(GridId.standard(1), 5, (0,)), rat("1/8"))


def test_sharp_rejects_shifted_cube():
    f = StepFunction.zeros(Mesh(1, 2))
    with pytest.raises(ValueError):
        sharp_maximal(f, Cube(GridId.shifted(1), 0, (0,)), rat("1/8"))


@given(step_functions(level=3), st.sampled_from([Fraction(1, 8), Fraction(1, 2)]))
@settings(max_examples=60)
def test_sharp_matches_oracle(f, lam):
    assert sharp_maximal(f, Q0, lam).values == oracle_sharp(f, Q0, lam)


@given(step_functions(level=3))
@settings(max_examples=40)
def test_sharp_monotone_in_lambda(f):
    small = sharp_maximal(f, Q0, rat("1/8"))
    large = sharp_maximal(f, Q0, rat("1/2"))
    assert le(large, small)


@given(step_functions(level=3), step_functions(level=3))
@settings(max_examples=40)
def test_sharp_subadditive_at_half_lambda(f, g):
    lam = rat("1/4")
    both = sharp_maximal(f + g, Q0, lam)
    parts = sharp_maximal(f, Q0, lam / 2) + sharp_maximal(g, Q0, lam / 2)
    assert le(both, parts)


@given(step_functions(level=1, dim=2, values=rational_values))
@settings(max_examples=5, deadline=None)
def test_sharp_2d_matches_oracle(f):
    q0 = Cube(GridId.standard(2), -1, (0, 0))  # [0, 2)^2, 4 x 4 cells
    assert sharp_maximal(f, q0, rat("1/16")).values == \
        oracle_sharp(f, q0, rat("1/16"))


def test_sharp_2d_matches_point_oscillations():
    mesh = Mesh(2, 2)
    rng = np.random.default_rng(7)
    vals = [Fraction(int(x), 4) for x in rng.integers(-6, 7, mesh.size)]
    f = StepFunction(mesh, vals)
    q0 = Cube(GridId.standard(2), 0, (0, 0))
    lam = rat("1/16")
    got = sharp_maximal(f, q0, lam)
    # check one full cell against the ancestor chain
    cell = cell_of_point(mesh, (rat("5/8"), rat("3/8")))
    expect = Fraction(0)
    cube = q0
    while True:
        expect = max(expect, local_mean_oscillation(f, cube.box, lam))
        if cube.side == mesh.h:
            break
        cube = next(c for c in cube.children()
                    if c.box.contains_point((rat("5/8"), rat("3/8"))))
    assert got.values[flat(mesh, cell)] == expect


# ---------------------------------------------------------------------------
# dyadic maximal
# ---------------------------------------------------------------------------

def oracle_dyadic(f, grid):
    mesh = f.mesh
    g = abs(f)
    out = []
    for flat in range(mesh.size):
        idx = unflat(mesh, flat)
        center = tuple(mesh.domain.lo[d] + (idx[d] + Fraction(1, 2)) * mesh.h
                       for d in range(mesh.dim))
        best = Fraction(0)
        for k in range(_TOP_SCALE, mesh.level + 1):
            q = cube_at(grid, k, center)
            best = max(best, g.integral(q.box) / q.measure)
        out.append(best)
    return out


def test_dyadic_maximal_constant():
    f = StepFunction.constant(Mesh(1, 2), 1)
    assert dyadic_maximal(f, GridId.standard(1)).values == [Fraction(1)] * 12


def test_dyadic_maximal_indicator_decay():
    # χ over [1/2, 1): value 1 there, 1/2 on the sibling [0,1/2), and
    # 1/4 on [1, 2) via the size-4 standard cube [0,4) clipped to domain?
    # no: [1,2) sits in [0,2) whose average is 1/4
    f = mk(3, [(Box.interval(rat("1/2"), 1), 1)])
    out = dyadic_maximal(f, GridId.standard(1))
    mesh = f.mesh
    assert out.values[cell_of_point(mesh, (rat("3/4"),))[0]] == 1
    assert out.values[cell_of_point(mesh, (rat("1/4"),))[0]] == rat("1/2")
    assert out.values[cell_of_point(mesh, (rat("3/2"),))[0]] == rat("1/4")


@given(step_functions(level=2))
@settings(max_examples=40)
def test_dyadic_maximal_matches_oracle_standard(f):
    assert dyadic_maximal(f, GridId.standard(1)).values == oracle_dyadic(
        f, GridId.standard(1))


@given(step_functions(level=2))
@settings(max_examples=40)
def test_dyadic_maximal_matches_oracle_shifted(f):
    grid = GridId.shifted(1)
    assert dyadic_maximal(f, grid).values == oracle_dyadic(f, grid)


@given(step_functions(level=2))
@settings(max_examples=30)
def test_dyadic_maximal_dominates_f(f):
    out = dyadic_maximal(f, GridId.standard(1))
    assert le(abs(f), out)


@given(step_functions(level=2), step_functions(level=2))
@settings(max_examples=30)
def test_dyadic_maximal_sublinear(f, g):
    grid = GridId.shifted(1)
    lhs = dyadic_maximal(f + g, grid)
    rhs = dyadic_maximal(f, grid) + dyadic_maximal(g, grid)
    assert le(lhs, rhs)


@given(step_functions(level=3, values=rational_values), st.booleans())
@settings(max_examples=30, deadline=None)
def test_dyadic_maximal_rational_values(f, shifted):
    grid = GridId.shifted(1) if shifted else GridId.standard(1)
    assert dyadic_maximal(f, grid).values == oracle_dyadic(f, grid)


@pytest.mark.parametrize("dim, level", [(1, lv) for lv in range(1, 7)]
                         + [(2, lv) for lv in range(1, 4)])
def test_dyadic_maximal_matches_oracle_on_signed_inputs(dim, level):
    # the ancestor maximum down the scales, on every grid
    f = _rational(Mesh(dim, level), level)
    for grid in GridId.all_grids(dim):
        assert dyadic_maximal(f, grid).values == oracle_dyadic(f, grid)


@given(step_functions(level=2, dim=2, values=rational_values))
@settings(max_examples=5, deadline=None)
def test_dyadic_maximal_2d_all_grids(f):
    for grid in GridId.all_grids(2):
        assert dyadic_maximal(f, grid).values == oracle_dyadic(f, grid)


def test_dyadic_maximal_2d_shifted_small():
    mesh = Mesh(2, 1)
    rng = np.random.default_rng(3)
    f = StepFunction(mesh, [Fraction(int(x), 2) for x in
                            rng.integers(-4, 5, mesh.size)])
    grid = GridId.shifted(2)
    assert dyadic_maximal(f, grid).values == oracle_dyadic(f, grid)


# ---------------------------------------------------------------------------
# Hardy-Littlewood surrogate
# ---------------------------------------------------------------------------

def test_hl_constant():
    f = StepFunction.constant(Mesh(1, 2), 1)
    assert hl_maximal(f).values == [Fraction(1)] * 12


def test_hl_half_indicator_spec_value():
    # f = χ_[0,1/2): on the cell just left of 3/4 the best interval is
    # [0, 3/4), giving (1/2)/(3/4) = 2/3
    f = mk(4, [(Box.interval(0, rat("1/2")), 1)])
    out = hl_maximal(f)
    cell = cell_of_point(f.mesh, (rat("3/4") - f.mesh.h,))[0]
    assert out.values[cell] == rat("2/3")


@given(step_functions(level=2))
@settings(max_examples=60)
def test_hl_matches_bruteforce(f):
    assert hl_maximal(f).values == oracle_hl_1d(f)


@given(st.lists(cell_values, min_size=48, max_size=48))
@settings(max_examples=20)
def test_hl_matches_bruteforce_L4(vals):
    f = StepFunction(Mesh(1, 4), vals)
    assert hl_maximal(f).values == oracle_hl_1d(f)


@given(step_functions(level=3, values=rational_values))
@settings(max_examples=30, deadline=None)
def test_hl_matches_bruteforce_rational_values(f):
    assert hl_maximal(f).values == oracle_hl_1d(f)


@given(step_functions(level=2, dim=2, values=rational_values))
@settings(max_examples=10, deadline=None)
def test_hl_2d_matches_bruteforce(f):
    assert hl_maximal(f).values == oracle_hl_2d(f)


@given(step_functions(level=2), step_functions(level=2))
@settings(max_examples=30)
def test_hl_sublinear(f, g):
    assert le(hl_maximal(f + g), hl_maximal(f) + hl_maximal(g))


@given(step_functions(level=2))
@settings(max_examples=30)
def test_hl_sandwich(f):
    # M^{D_0} f <= Mf <= 6 * (M^{D_0}f + M^{D_{1/3}}f) in one dimension
    m = hl_maximal(f)
    std = dyadic_maximal(f, GridId.standard(1))
    sh = dyadic_maximal(f, GridId.shifted(1))
    assert le(std, m)
    assert le(m, 6 * (std + sh))


def test_hl_2d_exhaustive_small():
    mesh = Mesh(2, 1)
    rng = np.random.default_rng(11)
    f = StepFunction(mesh, [Fraction(int(x), 2) for x in
                            rng.integers(0, 5, mesh.size)])
    assert hl_maximal(f).values == oracle_hl_2d(f)


# cell values in runs drawn mostly from a few small integers: zeros,
# repeats and plateaus put collinear points on both hulls and ties between
# candidate intervals
plateaus = st.lists(
    st.tuples(st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**40)),
              st.integers(1, 8)),
    min_size=1, max_size=64,
).map(lambda runs: [v for v, k in runs for _ in range(k)][:64])


@given(plateaus)
@example([0])
@example([3] * 64)
@settings(max_examples=300, deadline=None)
def test_hl_sweep_matches_integer_oracle(cells):
    pref = np.cumsum([0] + cells, dtype=object).tolist()
    got, want = _hl_1d(pref), oracle_hl_pairs(pref)
    assert len(got) == len(want)
    assert all(s * m == r * l for (s, l), (r, m) in zip(got, want))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_hl_matches_integer_oracle_at_level_7(kind, seed):
    # 384 cells, past the reach of the O(N^3) Fraction oracle
    f = generate_function(seed, kind, Mesh(1, 7))
    nums, den = f._num
    want = oracle_hl_pairs(_prefix_table(abs(nums)).tolist())
    assert hl_maximal(f).values == [Fraction(s, l * den) for s, l in want]


# ---------------------------------------------------------------------------
# the int64 / object rule of the |f| table, at its edge
# ---------------------------------------------------------------------------

EDGE_MESHES = pytest.mark.parametrize("mesh", [Mesh(1, 2), Mesh(2, 1)], ids=["1d", "2d"])
EDGE = pytest.mark.parametrize("over", [False, True], ids=["at-limit", "over-limit"])


def test_table_dtype_rule():
    mesh = Mesh(1, 2)
    for multiplier in (1, 3, 192, 2**40):
        for over in (False, True):
            f = edge_input(mesh, multiplier, over)
            table = f._abs_table(multiplier)
            assert table[-1] == sum(abs(v) for v in f._num[0])
            assert table.dtype == (object if over else np.int64)
            assert table.tolist() == f._abs_table(2**62).tolist()


@EDGE
@EDGE_MESHES
def test_dyadic_maximal_at_the_int64_edge(monkeypatch, mesh, over):
    # largest factor (3·2^(level - top))^n
    multiplier = (3 << (mesh.level - _TOP_SCALE)) ** mesh.dim
    f = edge_input(mesh, multiplier, over)
    for grid in GridId.all_grids(mesh.dim):
        got, dtypes, forced = both_paths(monkeypatch, lambda: dyadic_maximal(f, grid))
        assert dtypes == [np.dtype(object if over else np.int64)]
        assert got._num[1] == forced._num[1]
        assert got._num[0].tolist() == forced._num[0].tolist()
        assert got.values == oracle_dyadic(f, grid)


def test_grid_sums_memo_never_crosses_dtypes(monkeypatch):
    # one f read by both kernels on one grid: the int64 sums are read once
    # and shared; forced object tables are read again, and each memo entry
    # holds its key's dtype, read-only
    f = _rational(Mesh(1, 4), 4)
    grid = GridId.shifted(1)
    reads = []
    read = stepfn._grid_scale_sums

    def spy(p, *args):
        reads.append(p.dtype)
        return read(p, *args)

    monkeypatch.setattr(stepfn, "_grid_scale_sums", spy)
    got, dtypes, forced = both_paths(
        monkeypatch, lambda: (dyadic_maximal(f, grid), cz_sparse(f, grid)))
    assert set(dtypes) == {np.dtype(np.int64)}
    assert reads == [np.dtype(np.int64), np.dtype(object)]
    assert got[0].values == forced[0].values and got[1] == forced[1]
    assert set(f._grid_memo) == {(grid, np.dtype(np.int64)), (grid, np.dtype(object))}
    for (_, dtype), scales in f._grid_memo.items():
        for sums, _ in scales.values():
            assert sums.dtype == dtype and not sums.flags.writeable


@EDGE
@EDGE_MESHES
def test_hl_maximal_at_the_int64_edge(monkeypatch, mesh, over):
    # largest factor: the n^dim cells of the largest cube
    f = edge_input(mesh, mesh.size, over)
    got, dtypes, forced = both_paths(monkeypatch, lambda: hl_maximal(f))
    assert dtypes == [np.dtype(object if over else np.int64)]
    assert got.values == forced.values
    oracle = oracle_hl_1d if mesh.dim == 1 else oracle_hl_2d
    assert got.values == oracle(f)


@pytest.mark.parametrize("dim, level", [(1, 4), (2, 2)], ids=["1d", "2d"])
def test_maximal_kernels_return_python_ints(dim, level):
    # on an input the int64 tables serve, nothing int64 leaves a kernel
    f = _rational(Mesh(dim, level), 4)
    assert f._abs_table(f.mesh.size).dtype == np.int64
    for out in [dyadic_maximal(f, grid) for grid in GridId.all_grids(dim)] \
            + [hl_maximal(f)]:
        assert_python_ints(out)


@pytest.mark.parametrize("mesh", [Mesh(1, 4), Mesh(2, 2)], ids=["1d", "2d"])
def test_table_reads_agree_across_dtypes(mesh):
    # one reader serves the exact tables and the float tables of the A2
    # search: on small integers every read is exact in every dtype
    rng = np.random.default_rng(5)
    cells = rng.integers(0, 100, mesh.shape)
    exact = _prefix_table(cells.astype(object))
    for dtype in (np.float64, np.longdouble):
        table = _prefix_table(cells, dtype)
        assert table.dtype == dtype
        ks = range(_TOP_SCALE, mesh.level + 1)
        for grid in GridId.all_grids(mesh.dim):
            want, got = (_grid_scale_sums(t, mesh, grid, ks) for t in (exact, table))
            for k in ks:
                assert got[k][0].dtype == dtype
                assert np.array_equal(got[k][0], want[k][0].astype(dtype))
        for d in range(1, mesh.cells_axis + 1):
            assert np.array_equal(_cube_sums(table, d),
                                  _cube_sums(exact, d).astype(dtype))


# ---------------------------------------------------------------------------
# the integer form kernels hand on
# ---------------------------------------------------------------------------

def _rational(mesh, seed):
    """Signed rationals with unrelated denominators, zeros included."""
    rng = random.Random(seed)
    return StepFunction(mesh, [
        Fraction(rng.randint(-60, 60), rng.choice([1, 3, 7, 96, 97]))
        if rng.random() < 0.8 else Fraction(0) for _ in range(mesh.size)])


@pytest.mark.parametrize("dim, level", [(1, 4), (2, 2)], ids=["1d", "2d"])
def test_maximal_kernels_hand_on_their_integer_form(dim, level):
    f = _rational(Mesh(dim, level), 3)
    q0 = Cube(GridId.standard(dim), 0, (0,) * dim)
    outputs = [(dyadic_maximal(f, grid), oracle_dyadic(f, grid))
               for grid in GridId.all_grids(dim)]
    outputs.append((sharp_maximal(f, q0, Fraction(1, 4)),
                    oracle_sharp(f, q0, Fraction(1, 4))))
    for out, want in outputs:
        assert "values" not in vars(out)
        assert out.values == want
        assert out.values is out.values


def test_arithmetic_matches_fraction_cells():
    mesh = Mesh(1, 4)
    f, g = _rational(mesh, 5), _rational(mesh, 6)
    # integer-built operands over unrelated denominators: D·3·2^(level-top)
    # for the dyadic maximal function, 2D for the sharp one
    m = dyadic_maximal(g, GridId.shifted(1))
    s = sharp_maximal(f, Q0, Fraction(1, 8))
    for u in (f, m, s):
        assert abs(u).values == [abs(a) for a in u.values]
        assert (-u).values == [-a for a in u.values]
        for c in (Fraction(-3, 7), 2, Fraction(0)):
            assert (c * u).values == (u * c).values == [c * a for a in u.values]
        assert (u + Fraction(1, 3)).values == [a + Fraction(1, 3) for a in u.values]
        for v in (f, g, m, s):
            assert (u + v).values == [a + b for a, b in zip(u.values, v.values)]
            assert (u - v).values == [a - b for a, b in zip(u.values, v.values)]
    assert m.norm_l2_sq() == mesh.h * sum(a * a for a in m.values)
    assert f.refine(1).values == [a for a in f.values for _ in range(2)]
    with pytest.raises(ValueError):
        f + StepFunction.zeros(Mesh(1, 3))


def test_arithmetic_keeps_the_integer_form():
    f = _rational(Mesh(1, 3), 7)
    m = dyadic_maximal(f, GridId.standard(1))
    for out in (abs(m), -m, 3 * m, m + m, m - f, m.refine(1),
                StepFunction.zeros(f.mesh)):
        assert "values" not in vars(out)
    assert StepFunction.constant(f.mesh, Fraction(5, 3)).values == \
        [Fraction(5, 3)] * f.mesh.size


def oracle_median(f, q):
    """The largest value c with |{f > c} ∩ q|, |{f < c} ∩ q| <= |q|/2, from
    per-cell Fraction masses."""
    masses = cell_masses(f, q)
    half = q.measure / 2
    return max(c for c in masses
               if sum(m for v, m in masses.items() if v > c) <= half
               and sum(m for v, m in masses.items() if v < c) <= half)


def test_distribution_toolkit_reads_the_integer_form():
    # kernel outputs keep their integer form through the toolkit, on boxes
    # with partial cells and beyond the domain
    mesh = Mesh(1, 5)
    f = abs(_rational(mesh, 8))
    sh = split_families(cz_sparse(f, GridId.standard(1)), 1)
    outputs = [amalgam_adjoint(sh, grid, f) for grid in GridId.all_grids(1)] \
        + [dyadic_maximal(f, grid) for grid in GridId.all_grids(1)]
    boxes = [UNIT, Box.interval(rat("-1/3"), rat("5/7")),
             Box.interval(rat("3/2"), rat("11/4"))]
    lam, t = Fraction(1, 4), Fraction(1, 3)
    for out in outputs:
        got = [(median(out, b), local_mean_oscillation(out, b, lam),
                rearrangement(out, b, t)) for b in boxes]
        assert "values" not in vars(out)
        assert got == [(oracle_median(out, b), oracle_oscillation(out, b, lam),
                        oracle_rearrangement(out, b, t)) for b in boxes]
