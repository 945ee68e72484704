"""Tests for sparse families, the two constructions, and their operators.

Derived values are checked against independent recomputations: maximality
by walking ancestor chains, coverage against the grid maximal function,
the decomposition against its own exactly-evaluated inequality, pairings
by direct rational summation on both sides.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsedom import sparse
from sparsedom.geometry import Box, Cube, GridId
from sparsedom.harness import GENERATOR_KINDS, generate_function
from sparsedom.stepfn import (
    Mesh,
    StepFunction,
    average,
    dyadic_maximal,
    local_mean_oscillation,
    sharp_maximal,
    _fits_int64,
    _grid_scale_sums,
    _TOP_SCALE,
)
from sparsedom.sparse import (
    SparseFamily,
    amalgam,
    amalgam_adjoint,
    cz_pointwise_gap,
    cz_sparse,
    oscillation_decompose,
    shifted_operator,
    sparse_operator,
    split_families,
    verify_decomposition,
    verify_sparse_family,
    weak_norm,
    _accumulate,
    _family_averages,
    _over_lcm,
)

from meshtools import (assert_python_ints, both_paths, cell_of_point, cube_at, edge_input,
                       flat, flat_cells, indicator, unflat)

STD = GridId.standard(1)
SHIFTED = GridId.shifted(1)


def mk_random(mesh, seed, lo=0, hi=8, support=None):
    rng = random.Random(seed)
    vals = []
    for i in range(mesh.size):
        if support is not None:
            idx = unflat(mesh, i)
            center = tuple(mesh.domain.lo[d] + (idx[d] + Fraction(1, 2)) * mesh.h
                           for d in range(mesh.dim))
            if not support.contains_point(center):
                vals.append(Fraction(0))
                continue
        vals.append(Fraction(rng.randrange(lo, hi + 1)))
    return StepFunction(mesh, vals)


def pairing(u, v):
    h = u.mesh.h
    return h**u.mesh.dim * sum(a * b for a, b in zip(u.values, v.values))


# ---------------------------------------------------------------------------
# cz_sparse
# ---------------------------------------------------------------------------

def test_cz_sparse_indicator_ancestor_chain():
    # f = chi_[0,1/2): thresholds 4^k for k=-3,-2,-1 pick the ancestors
    # [0,16), [0,4), [0,1); averages 1/32, 1/8, 1/2.
    mesh = Mesh(dim=1, level=4)
    f = indicator(mesh, Box.interval(0, Fraction(1, 2)))
    fam = cz_sparse(f, STD)
    assert fam.level_keys() == [-3, -2, -1]
    expect = {
        -3: (Fraction(0), Fraction(16), Fraction(1, 32)),
        -2: (Fraction(0), Fraction(4), Fraction(1, 8)),
        -1: (Fraction(0), Fraction(1), Fraction(1, 2)),
    }
    for k, (corner, side, avg) in expect.items():
        (q,) = fam.levels[k]
        assert q.corner[0] == corner and q.side == side
        assert average(f, q.box) == avg
        assert avg > Fraction(4)**k              # selected above threshold
    verify_sparse_family(fam)
    assert cz_pointwise_gap(f, fam, dyadic_maximal(f, STD)) >= 0


def test_cz_sparse_zero_function_empty():
    mesh = Mesh(dim=1, level=3)
    fam = cz_sparse(StepFunction.zeros(mesh), STD)
    assert fam.is_empty


def test_verify_sparse_family_rejects_level_gap():
    # [7/4, 2) at level 2 lies outside [0, 1) at level 0; with no level 1
    # between them, nesting was never checked across the gap
    outside = SparseFamily(STD, {0: [Cube(STD, 0, (0,))], 2: [Cube(STD, 2, (7,))]})
    nested = SparseFamily(STD, {0: [Cube(STD, 0, (0,))], 2: [Cube(STD, 2, (1,))]})
    for fam in (outside, nested):
        with pytest.raises(AssertionError, match="consecutive"):
            verify_sparse_family(fam)
    verify_sparse_family(SparseFamily(STD, {0: [Cube(STD, 0, (0,))],
                                            1: [Cube(STD, 1, (0,))],
                                            2: [Cube(STD, 2, (1,))]}))


def _assert_cz_postconditions(f, grid, fam):
    """Independent recheck: selection above threshold, maximality along the
    full ancestor chain, coverage of the maximal-function level set."""
    n = f.mesh.dim
    g = abs(f)
    l1 = g.norm_l1()
    for k in fam.level_keys():
        t = Fraction(2)**((n + 1) * k)
        for q in fam.levels[k]:
            assert average(g, q.box) > t
            anc = q.parent()
            while anc.measure * t <= 4 * l1:
                assert average(g, anc.box) <= t
                anc = anc.parent()
    mf = dyadic_maximal(f, grid)
    mesh = f.mesh
    for k in fam.level_keys():
        t = Fraction(2)**((n + 1) * k)
        covered = set()
        for q in fam.levels[k]:
            covered.update(flat_cells(mesh, q.box))
        for i in range(mesh.size):
            if mf.values[i] > t:
                assert i in covered


def test_cz_sparse_postconditions_both_grids():
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 7)
    for grid in (STD, SHIFTED):
        fam = cz_sparse(f, grid)
        verify_sparse_family(fam)
        _assert_cz_postconditions(f, grid, fam)
        assert cz_pointwise_gap(f, fam, dyadic_maximal(f, grid)) >= 0


def test_cz_sparse_postconditions_2d():
    mesh = Mesh(dim=2, level=3)
    for kind, seed in itertools.product(GENERATOR_KINDS, (1, 2)):
        f = generate_function(seed, kind, mesh)
        for grid in GridId.all_grids(2):
            fam = cz_sparse(f, grid)
            verify_sparse_family(fam)
            _assert_cz_postconditions(f, grid, fam)
            assert cz_pointwise_gap(f, fam, dyadic_maximal(f, grid)) >= 0


@pytest.mark.parametrize("mesh", [Mesh(1, 4), Mesh(2, 2)], ids=["1d", "2d"])
def test_scale_averages_match_cube_integrals(mesh):
    # unrelated denominators, negatives and zeros
    rng = random.Random(mesh.size)
    f = StepFunction(mesh, [
        Fraction(rng.randint(-50, 50), rng.choice([1, 3, 7, 96, 97]))
        if rng.random() < 0.7 else Fraction(0) for _ in range(mesh.size)])
    g = abs(f)
    den = f._numerators()[1]
    ks = range(_TOP_SCALE - 2, mesh.level + 1)
    for grid in GridId.all_grids(mesh.dim):
        scales = _grid_scale_sums(f._abs_table(3 ** mesh.dim), mesh, grid, ks)
        for k in ks:
            # the nonzero averages cz_sparse reads off the integer cube sums
            sums, first = scales[k]
            unit = den * (3 << (mesh.level - k)) ** mesh.dim
            got = {tuple(int(i + j) for i, j in zip(idx, first)): Fraction(v, unit)
                   for idx, v in np.ndenumerate(sums) if v}
            # every cube meeting the domain, from the cubes at its corners
            ranges = [range(a - 1, b + 2) for a, b in
                      zip(cube_at(grid, k, mesh.domain.lo).j,
                          cube_at(grid, k, mesh.domain.hi).j)]
            want = {}
            for j in itertools.product(*ranges):
                q = Cube(grid, k, j)
                avg = g.integral(q.box) / q.measure
                if avg:
                    want[j] = avg
            assert got == want
            assert list(got) == sorted(got)


def test_cz_sparse_rejects_grid_of_another_dimension():
    f = mk_random(Mesh(dim=2, level=2), 1)
    with pytest.raises(ValueError):
        cz_sparse(f, GridId.standard(1))
    with pytest.raises(ValueError):
        cz_sparse(mk_random(Mesh(dim=1, level=2), 1), GridId.standard(2))


@pytest.mark.parametrize("dim, level, e", [(1, 1, 58), (1, 3, 58), (2, 1, 116)])
def test_cz_sparse_stops_at_the_lattice_scale_bound(dim, level, e):
    # 1 beside 2^-e: the scale climb above the mesh grows with e, and the
    # int64 lattice corners hold the scales down to level - 61.  At e the
    # climb stays within that on every grid, at e + 1 it leaves it on the
    # fully shifted grid.
    mesh = Mesh(dim=dim, level=level)

    def tiny(e):
        return StepFunction(mesh, [Fraction(1), Fraction(1, 2**e)]
                            + [Fraction(0)] * (mesh.size - 2))

    f = tiny(e)
    for grid in GridId.all_grids(dim):
        fam = cz_sparse(f, grid)
        verify_sparse_family(fam)
        assert cz_pointwise_gap(f, fam, dyadic_maximal(f, grid)) >= 0
    *grids, shifted = GridId.all_grids(dim)
    for grid in grids:
        verify_sparse_family(cz_sparse(tiny(e + 1), grid))
    with pytest.raises(ValueError, match="level - 61 = %d" % (level - 61)):
        cz_sparse(tiny(e + 1), shifted)


@pytest.mark.parametrize("mesh", [Mesh(1, 2), Mesh(2, 1)], ids=["1d", "2d"])
def test_accumulate_matches_cellwise_sums(mesh):
    # blocks of every shape, empty ones included, and unrelated denominators
    rng = random.Random(mesh.size)
    n = mesh.cells_axis
    terms = []
    for _ in range(30):
        cells = []
        for _ in range(mesh.dim):
            a = rng.randint(0, n)
            cells.append(slice(a, rng.randint(a, n)))
        terms.append((tuple(cells), Fraction(rng.randint(-9, 9),
                                             rng.choice([1, 3, 8, 97]))))
    ints, den = _over_lcm(terms)
    nums = _accumulate(mesh, ints)
    assert nums.shape == mesh.shape
    for i in range(mesh.size):
        idx = unflat(mesh, i)
        want = sum((v for cells, v in terms
                    if all(s.start <= j < s.stop for s, j in zip(cells, idx))),
                   Fraction(0))
        assert Fraction(nums[idx], den) == want
    assert _accumulate(mesh, []).shape == mesh.shape
    assert _over_lcm([]) == ([], 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_cz_sparse_invariants_random(seed, shifted):
    mesh = Mesh(dim=1, level=4)
    rng = random.Random(seed)
    vals = [Fraction(rng.randrange(0, 9)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(mesh.size)]
    f = StepFunction(mesh, vals)
    grid = SHIFTED if shifted else STD
    fam = cz_sparse(f, grid)
    if fam.is_empty:
        assert all(v == 0 for v in vals)
        return
    verify_sparse_family(fam)
    assert cz_pointwise_gap(f, fam, dyadic_maximal(f, grid)) >= 0


# ---------------------------------------------------------------------------
# oscillation decomposition
# ---------------------------------------------------------------------------

def test_decompose_constant_empty():
    mesh = Mesh(dim=1, level=4)
    f = StepFunction.constant(mesh, Fraction(5, 3))
    res = oscillation_decompose(f, Cube(STD, 0, (0,)))
    assert res.family.is_empty
    assert res.base_median == Fraction(5, 3)
    assert verify_decomposition(f, res) >= 0
    sharp = sharp_maximal(f, res.cube, res.lam)
    assert all(sharp.values[i] == 0 for i in flat_cells(mesh, res.cube.box))


def test_decompose_half_indicator():
    # f = chi_[0,1/2) on q0 = [0,1): maximal median 1, empty family, and the
    # bound holds through 4*M^# alone since omega_{1/8}(f;q0) = 1/2.
    mesh = Mesh(dim=1, level=4)
    f = indicator(mesh, Box.interval(0, Fraction(1, 2)))
    q0 = Cube(STD, 0, (0,))
    assert local_mean_oscillation(f, q0.box, Fraction(1, 8)) == Fraction(1, 2)
    res = oscillation_decompose(f, q0)
    assert res.base_median == 1
    assert res.family.is_empty
    sharp = sharp_maximal(f, q0, res.lam)
    for i in flat_cells(mesh, q0.box):
        assert sharp.values[i] == Fraction(1, 2)
    assert verify_decomposition(f, res) == 1  # RHS-LHS minimized on [1/2,1)


def test_decompose_random_exact_bound():
    mesh = Mesh(dim=1, level=5)
    q0 = Cube(STD, 0, (0,))
    for seed in range(12):
        rng = random.Random(seed)
        f = StepFunction(mesh, [Fraction(rng.randrange(-8, 9))
                                for _ in range(mesh.size)])
        res = oscillation_decompose(f, q0)
        verify_sparse_family(res.family)
        for k, q in res.family.pairs():
            assert q0.box.contains_box(q.box)
            assert q.grid == STD
            assert res.coefficients[q] == local_mean_oscillation(
                f, q.box, res.lam)
        assert verify_decomposition(f, res) >= 0


def test_decompose_random_exact_bound_2d():
    mesh = Mesh(dim=2, level=3)
    q0 = Cube(GridId.standard(2), 0, (0, 0))
    for seed in range(4):
        rng = random.Random(100 + seed)
        f = StepFunction(mesh, [Fraction(rng.randrange(-6, 7))
                                for _ in range(mesh.size)])
        res = oscillation_decompose(f, q0)
        verify_sparse_family(res.family)
        assert verify_decomposition(f, res) >= 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_decompose_property(seed):
    mesh = Mesh(dim=1, level=4)
    rng = random.Random(seed)
    f = StepFunction(mesh, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                            for _ in range(mesh.size)])
    res = oscillation_decompose(f, Cube(STD, 0, (0,)))
    verify_sparse_family(res.family)
    assert verify_decomposition(f, res) >= 0


# ---------------------------------------------------------------------------
# sparse_operator / shifted_operator
# ---------------------------------------------------------------------------

def test_sparse_operator_single_cube():
    mesh = Mesh(dim=1, level=4)
    f = mk_random(mesh, 1)
    q = Cube(STD, 1, (0,))
    fam = SparseFamily(STD, {0: [q]})
    out = sparse_operator(fam, f)
    fq = average(f, q.box)
    for i in range(mesh.size):
        inside = i in set(flat_cells(mesh, q.box))
        assert out.values[i] == (fq if inside else 0)


def test_sparse_operator_nested_count():
    mesh = Mesh(dim=1, level=4)
    one = StepFunction.constant(mesh, 1)
    fam = SparseFamily(STD, {0: [Cube(STD, 0, (0,))],
                             1: [Cube(STD, 1, (0,))],
                             2: [Cube(STD, 2, (0,))]})
    verify_sparse_family(fam)
    out = sparse_operator(fam, one)
    x = flat(mesh, cell_of_point(mesh, (Fraction(1, 8),)))
    assert out.values[x] == 3


def test_sparse_operator_rejects_negative():
    mesh = Mesh(dim=1, level=3)
    f = StepFunction.constant(mesh, -1)
    fam = SparseFamily(STD, {0: [Cube(STD, 0, (0,))]})
    with pytest.raises(ValueError):
        sparse_operator(fam, f)
    with pytest.raises(ValueError):
        shifted_operator(fam, 1, f)


def test_cz_composition_domination():
    # M^{grid} f <= 2^{n+1} A_{grid,S} f pointwise on the cz family
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 5)
    for grid in (STD, SHIFTED):
        fam = cz_sparse(f, grid)
        af = sparse_operator(fam, f)
        mf = dyadic_maximal(f, grid)
        assert all(mf.values[i] <= 4 * af.values[i] for i in range(mesh.size))


def test_shifted_operator_single_cube_dilate():
    # q = [1/2,1), m=1, f = chi_[0,1/2): average over [1/4,5/4) is 1/4
    mesh = Mesh(dim=1, level=5)
    f = indicator(mesh, Box.interval(0, Fraction(1, 2)))
    q = Cube(STD, 1, (1,))
    fam = SparseFamily(STD, {0: [q]})
    out = shifted_operator(fam, 1, f)
    inside = set(flat_cells(mesh, q.box))
    for i in range(mesh.size):
        assert out.values[i] == (Fraction(1, 4) if i in inside else 0)


def test_shifted_operator_m0_matches_sparse_operator():
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 9)
    fam = cz_sparse(f, STD)
    assert shifted_operator(fam, 0, f).values == sparse_operator(fam, f).values


# ---------------------------------------------------------------------------
# split_families and amalgams
# ---------------------------------------------------------------------------

def test_split_families_cover_bounds():
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 13)
    fam = cz_sparse(f, STD)
    for m in (0, 1, 2):
        sh = split_families(fam, m)
        total = 0
        for alpha in GridId.all_grids(1):
            members = list(sh.family_of(alpha))
            total += len(members)
            for _, q, cover in members:
                assert cover.grid == alpha
                assert cover.box.contains_box(Box(
                    tuple(c - (2**m - 1) * q.side / 2 for c in q.corner),
                    tuple(c + (2**m + 1) * q.side / 2 for c in q.corner)))
                assert cover.side <= 6 * 2**m * q.side
        assert total == fam.cube_count()  # the two families partition S


def test_amalgam_single_pair_and_empty():
    mesh = Mesh(dim=1, level=4)
    f = mk_random(mesh, 21)
    q = Cube(STD, 2, (1,))
    fam = SparseFamily(STD, {0: [q]})
    sh = split_families(fam, 0)
    (grid, cover), = [sh.assignment[q]]
    other = SHIFTED if grid == STD else STD
    assert all(v == 0 for v in amalgam(sh, other, f).values)
    out = amalgam(sh, grid, f)
    val = f.atom_sum(cover.box) / cover.measure
    inside = set(flat_cells(mesh, q.box))
    for i in range(mesh.size):
        assert out.values[i] == (val if i in inside else 0)
    adj = amalgam_adjoint(sh, grid, f)
    val2 = f.atom_sum(q.box) / cover.measure
    inside2 = set(flat_cells(mesh, cover.box))
    for i in range(mesh.size):
        assert adj.values[i] == (val2 if i in inside2 else 0)


def test_amalgam_duality_exact():
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 31)
    g = mk_random(mesh, 32)
    fam = cz_sparse(f, STD)
    for m in (0, 1, 3):
        sh = split_families(fam, m)
        for alpha in GridId.all_grids(1):
            assert pairing(amalgam(sh, alpha, f), g) == \
                pairing(f, amalgam_adjoint(sh, alpha, g))


def test_majorization_by_amalgams():
    # T_{S,m} f <= 6^n sum_alpha A_{m,alpha} f cell-by-cell, exact
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 41)
    fam = cz_sparse(f, STD)
    for m in (0, 1, 2):
        sh = split_families(fam, m)
        tm = shifted_operator(fam, m, f)
        tot = StepFunction.zeros(mesh)
        for alpha in GridId.all_grids(1):
            tot = tot + amalgam(sh, alpha, f)
        assert all(tm.values[i] <= 6 * tot.values[i] for i in range(mesh.size))


def test_amalgam_l2_bound_8():
    mesh = Mesh(dim=1, level=6)
    fam_src = mk_random(mesh, 55)
    fam = cz_sparse(fam_src, STD)
    for m in (0, 2):
        sh = split_families(fam, m)
        for f_seed in (56, 57):
            f = mk_random(mesh, f_seed)
            nf = f.norm_l2_sq()
            for alpha in GridId.all_grids(1):
                assert amalgam(sh, alpha, f).norm_l2_sq() <= 64 * nf
                assert amalgam_adjoint(sh, alpha, f).norm_l2_sq() <= 64 * nf


def test_adjoint_weak_type_doubling():
    mesh = Mesh(dim=1, level=6)
    f = mk_random(mesh, 61)
    fam = cz_sparse(f, STD)
    l1 = f.norm_l1()
    r = {}
    for m in (1, 2, 4, 8):
        sh = split_families(fam, m)
        r[m] = max(weak_norm(amalgam_adjoint(sh, alpha, f)) / l1
                   for alpha in GridId.all_grids(1))
    for m in (1, 2, 4):
        assert r[2 * m] <= 3 * r[m]


def test_adjoint_oscillation_display_exact():
    # |A* f - c| chi_q <= A*(f chi_q) for grid cubes q of the cover grid,
    # with c the sum of the coefficients of covers containing q.
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 71)
    fam = cz_sparse(f, STD)
    sh = split_families(fam, 1)
    for alpha in GridId.all_grids(1):
        adj = amalgam_adjoint(sh, alpha, f)
        pairs = list(sh.family_of(alpha))
        for k_q in (0, 1, 2):
            for jq in range(-4, 10):
                q = Cube(alpha, k_q, (jq,))
                atoms = list(flat_cells(mesh, q.box))
                if not atoms:
                    continue
                c = sum(f.atom_sum(qb.box) / cov.measure
                        for _, qb, cov in pairs
                        if cov.box.contains_box(q.box))
                sel = set(atoms)
                fq = StepFunction(mesh, [f.values[i] if i in sel else Fraction(0)
                                         for i in range(mesh.size)])
                adj_q = amalgam_adjoint(sh, alpha, fq)
                for i in atoms:
                    assert abs(adj.values[i] - c) <= adj_q.values[i]


def test_adjoint_oscillation_doubling():
    mesh = Mesh(dim=1, level=6)
    f = mk_random(mesh, 81)
    fam = cz_sparse(f, STD)
    lam = Fraction(1, 8)

    def ratio(m, alpha):
        sh = split_families(fam, m)
        adj = amalgam_adjoint(sh, alpha, f)
        best = Fraction(0)
        for k_q in (1, 2, 3):
            for jq in range(-2, 2**k_q * 3):
                q = Cube(alpha, k_q, (jq,))
                if not list(flat_cells(mesh, q.box)):
                    continue
                av = average(f, q.box)
                if av == 0:
                    continue
                best = max(best, local_mean_oscillation(adj, q.box, lam) / av)
        return best

    for alpha in GridId.all_grids(1):
        r1, r2 = ratio(1, alpha), ratio(2, alpha)
        if r1 > 0:
            assert r2 <= 3 * r1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_decomposition_json():
    mesh = Mesh(dim=1, level=4)
    f = mk_random(mesh, 23, lo=-5, hi=5)
    res = oscillation_decompose(f, Cube(STD, 0, (0,)))
    data = res.to_json()
    assert data["median"] == "%d/%d" % (res.base_median.numerator,
                                        res.base_median.denominator)
    assert len(data["coefficients"]) == res.family.cube_count()


# ---------------------------------------------------------------------------
# the integer form the operators hand on
# ---------------------------------------------------------------------------

def _cellwise(mesh, terms) -> list:
    """Σ value·χ_box over (box, value) terms, one Fraction sum per cell."""
    out = [Fraction(0)] * mesh.size
    for box, value in terms:
        for i in flat_cells(mesh, box):
            out[i] += value
    return out


def test_operators_hand_on_their_integer_form():
    mesh = Mesh(dim=1, level=6)
    f = mk_random(mesh, 71)
    fam = cz_sparse(f, STD)
    maximal = dyadic_maximal(f, STD)
    assert cz_pointwise_gap(f, fam, maximal) >= 0
    # the gap reads the maximal function's integer form: no lcm, no Fraction
    assert "values" not in vars(maximal)
    out = sparse_operator(fam, f)
    assert "values" not in vars(out)
    assert out.values == _cellwise(mesh, ((q.box, average(f, q.box))
                                          for _, q in fam.pairs()))
    sh = split_families(fam, 2)
    for alpha in GridId.all_grids(1):
        adj = amalgam_adjoint(sh, alpha, f)
        assert "values" not in vars(adj)
        assert adj.values == _cellwise(
            mesh, ((cover.box, f.atom_sum(q.box) / cover.measure)
                   for _, q, cover in sh.family_of(alpha)))


def _weak_norm_oracle(g) -> Fraction:
    """max over the attained levels v > 0 of v·|{|g| >= v}|, the sup of
    β·|{|g| > β}| as β rises to v."""
    h = g.mesh.h**g.mesh.dim
    levels = {abs(v) for v in g.values} - {0}
    return max((v * h * sum(abs(x) >= v for x in g.values) for v in levels),
               default=Fraction(0))


@pytest.mark.parametrize("dim", [1, 2])
def test_weak_norm_matches_level_sup(dim):
    mesh = Mesh(dim, 3 if dim == 1 else 2)
    rng = random.Random(dim)
    for _ in range(20):
        # signed rationals, with ties and zeros from a small value pool
        pool = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
                for _ in range(rng.randint(1, 5))]
        f = StepFunction(mesh, [rng.choice(pool) for _ in range(mesh.size)])
        for g in (f, -f, abs(f) * Fraction(2, 3),
                  dyadic_maximal(f, GridId.standard(dim))):
            assert weak_norm(g) == _weak_norm_oracle(g)
    assert weak_norm(StepFunction.zeros(mesh)) == 0
    assert weak_norm(StepFunction(mesh, [0] * mesh.size)) == 0


# ---------------------------------------------------------------------------
# the int64 / object rule of the |f| table, at its edge
# ---------------------------------------------------------------------------

EDGE_MESHES = pytest.mark.parametrize("mesh", [Mesh(1, 2), Mesh(2, 1)], ids=["1d", "2d"])
EDGE = pytest.mark.parametrize("over", [False, True], ids=["at-limit", "over-limit"])


@EDGE
@EDGE_MESHES
def test_cz_sparse_at_the_int64_edge(monkeypatch, mesh, over):
    # largest factor (3·2^(level - top))^n, at the first top
    multiplier = (3 << (mesh.level - _TOP_SCALE)) ** mesh.dim
    f = edge_input(mesh, multiplier, over)
    for grid in GridId.all_grids(mesh.dim):
        got, dtypes, forced = both_paths(monkeypatch, lambda: cz_sparse(f, grid))
        assert dtypes[0] == (object if over else np.int64)
        assert got == forced and not got.is_empty
        verify_sparse_family(got)


def test_cz_sparse_moves_to_object_ints_mid_climb(monkeypatch):
    # a 1 beside 2^40: the climb lowers top until 3·2^(level - top) has
    # 22 bits, where the 41-bit table no longer fits int64
    f = StepFunction(Mesh(1, 2), [0] * 4 + [1, 0, 0, 2**40] + [0] * 4)
    for grid in GridId.all_grids(1):
        got, dtypes, forced = both_paths(monkeypatch, lambda: cz_sparse(f, grid))
        assert dtypes[0] == np.int64 and dtypes[-1] == object
        assert got == forced
        verify_sparse_family(got)


@EDGE
@EDGE_MESHES
def test_family_averages_at_the_int64_edge(monkeypatch, mesh, over):
    # largest factor 6^n, the window reads of _window_sums
    f = edge_input(mesh, 6**mesh.dim, over)
    g = abs(f)
    for grid in GridId.all_grids(mesh.dim):
        fam, md = cz_sparse(f, grid), dyadic_maximal(f, grid)
        got, dtypes, forced = both_paths(
            monkeypatch, lambda: (sparse_operator(fam, g), cz_pointwise_gap(f, fam, md)))
        assert dtypes == [np.dtype(object if over else np.int64)] * 2
        assert got[0].values == forced[0].values and got[1] == forced[1] >= 0


@EDGE
@EDGE_MESHES
def test_cz_pointwise_gap_at_the_int64_edge(monkeypatch, mesh, over):
    # the comparison's products rhs·(2^(n+1)·m_den) and m·den: one family
    # against f scaled by the power of two that puts the larger at 62 bits,
    # or one more; the gap scales with f
    f0 = mk_random(mesh, 3, lo=-8)
    for grid in GridId.all_grids(mesh.dim):
        fam = cz_sparse(f0, grid)

        def bits(f):
            _, nums, den = _family_averages(f, [q for _, q in fam.pairs()])
            m, m_den = dyadic_maximal(f, grid)._numerators()
            return max(max(nums).bit_length() + ((2 << mesh.dim) * m_den).bit_length(),
                       max(m.flat).bit_length() + den.bit_length())

        shift = 62 - bits(f0) + over
        f = f0 * (1 << shift)
        assert bits(f) == 62 + over
        want = cz_pointwise_gap(f0, fam, dyadic_maximal(f0, grid)) * (1 << shift)
        fits = []

        def spy(*products):
            fits.append(_fits_int64(*products))
            return fits[-1]

        with monkeypatch.context() as m:
            m.setattr(sparse, "_fits_int64", spy)
            got, _, forced = both_paths(
                monkeypatch, lambda: cz_pointwise_gap(f, fam, dyadic_maximal(f, grid)))
        assert fits == [not over, False]
        assert got == forced == want


@EDGE
@EDGE_MESHES
def test_accumulate_at_the_int64_edge(monkeypatch, mesh, over):
    # Σ|num| of 61 - n bits, the most the int64 difference array takes with
    # its 2^n corners, or one more bit: blocks of every shape, empty ones
    # included, both signs, and cells holding over half of Σ|num|
    rng = random.Random(mesh.size)
    n = mesh.cells_axis
    total = (1 << 61 - mesh.dim) - 1 + over
    blocks = [(slice(0, n),) * mesh.dim, (slice(0, 1),) * mesh.dim]
    for _ in range(10):
        blocks.append(tuple(slice(a, rng.randint(a, n))
                            for a in (rng.randint(0, n) for _ in range(mesh.dim))))
    nums = [total // 3, total // 5] + [total // 40] * 10
    nums[2] += total - sum(nums)
    nums = [-v if i > 2 and i % 2 else v for i, v in enumerate(nums)]
    terms = list(zip(blocks, nums))
    fits = []

    def spy(*products):
        fits.append(_fits_int64(*products))
        return fits[-1]

    with monkeypatch.context() as m:
        m.setattr(sparse, "_fits_int64", spy)
        got, _, forced = both_paths(monkeypatch, lambda: _accumulate(mesh, terms))
    assert fits == [not over, False]
    for i in range(mesh.size):
        idx = unflat(mesh, i)
        want = sum(v for cells, v in terms
                   if all(s.start <= j < s.stop for s, j in zip(cells, idx)))
        assert type(got[idx]) is int and got[idx] == forced[idx] == want
    assert max(got.flat) > total // 2


@pytest.mark.parametrize("dim, level", [(1, 6), (2, 3)], ids=["1d", "2d"])
def test_cz_sparse_and_dyadic_maximal_agree_in_either_order(dim, level):
    # the grid sums f memoises serve both kernels: each result is the same
    # whichever reads first, and on a fresh f
    mesh = Mesh(dim, level)
    first, second = mk_random(mesh, 4, lo=-8), mk_random(mesh, 4, lo=-8)
    for grid in GridId.all_grids(dim):
        a = dyadic_maximal(first, grid), cz_sparse(first, grid)
        fam = cz_sparse(second, grid)
        b = dyadic_maximal(second, grid), fam
        c = dyadic_maximal(mk_random(mesh, 4, lo=-8), grid), \
            cz_sparse(mk_random(mesh, 4, lo=-8), grid)
        assert a[0].values == b[0].values == c[0].values
        assert a[1] == b[1] == c[1] and not a[1].is_empty


@pytest.mark.parametrize("dim, level", [(1, 4), (2, 2)], ids=["1d", "2d"])
def test_family_kernels_return_python_ints(dim, level):
    # on an input the int64 tables serve, nothing int64 leaves a kernel
    f = mk_random(Mesh(dim, level), 3, lo=-8)
    assert f._abs_table(6**dim).dtype == np.int64
    for grid in GridId.all_grids(dim):
        fam = cz_sparse(f, grid)
        assert not fam.is_empty
        assert_python_ints(sparse_operator(fam, abs(f)))
        gap = cz_pointwise_gap(f, fam, dyadic_maximal(f, grid))
        assert (type(gap.numerator), type(gap.denominator)) == (int, int)
