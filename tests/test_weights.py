"""Tests for weights, A2 constants, and weighted operator-norm estimation."""

import itertools
import json
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from sparsedom.geometry import Box, Cube, GridId
from sparsedom.rational import pow2
from sparsedom.stepfn import (Mesh, StepFunction, average, _cube_sums,
                              _grid_scale_sums, _prefix_table, _TOP_SCALE)
from sparsedom.sparse import SparseFamily
from sparsedom.weights import (
    A2Report,
    CellOperator,
    Weight,
    a2_constant,
    a2_scan,
    amalgam_pair_operator,
    hilbert_full_operator,
    operator_norm_weighted,
    sparse_family_operator,
    tower_family,
    _bracket,
    _certified_band,
    _side_score,
    _side_search,
    _window_sum_exact,
)
from sparsedom.czo import hilbert_apply


def mk_weight(mesh, seed, hi=9):
    rng = random.Random(seed)
    return Weight(StepFunction(
        mesh, [Fraction(rng.randrange(1, hi), rng.randrange(1, 4))
               for _ in range(mesh.size)]))


def identity_operator(mesh):
    return CellOperator(mesh.size, lambda v: v.copy(), lambda v: v.copy())


def dense(op):
    return np.stack([op.apply(np.eye(op.size)[:, i]) for i in range(op.size)],
                    axis=1)


def grid_cube_regions(mesh):
    """Every grid cube of every shifted grid from the mesh scale up to the
    domain cover, clipped to the domain, enumerated in Fractions."""
    dom = mesh.domain
    for grid in GridId.all_grids(mesh.dim):
        for k in range(mesh.level, _TOP_SCALE - 1, -1):
            s = pow2(-k)
            off = grid.offset_at(k)
            ranges = [range(math.floor(dom.lo[a] / s - off[a]),
                            math.ceil(dom.hi[a] / s - off[a]))
                      for a in range(mesh.dim)]
            for j in itertools.product(*ranges):
                region = Cube(grid, k, j).box.intersect(dom)
                if region is not None:
                    yield region


def grid_blocks(mesh):
    """(grid, k, the clipped lattice corners per axis) of every (grid,
    scale) in the A2 search's order: grid, then scale from fine to
    coarse.  The first cube and the count per axis are those of
    ``_grid_scale_sums``, the corners those of ``Cube.corner``, and the
    sums of 1 per cell must be the areas."""
    n3 = 3 * mesh.cells_axis
    ones = _prefix_table(np.ones(mesh.shape, dtype=np.int64), np.int64)
    ks = range(mesh.level, _TOP_SCALE - 1, -1)

    def clipped(grid, k, j, axis):
        # the h/3-lattice point of cube j's corner on the axis, clipped
        x = 3 * (Cube(grid, k, (j,) * mesh.dim).corner[axis] - mesh.domain.lo[axis])
        x = min(max(x / mesh.h, 0), n3)
        assert x.denominator == 1
        return int(x)

    for grid in GridId.all_grids(mesh.dim):
        scales = _grid_scale_sums(ones, mesh, grid, ks)
        for k in ks:
            area, first = scales[k]
            corners = [[clipped(grid, k, j0 + i, axis) for i in range(m + 1)]
                       for axis, (j0, m) in enumerate(zip(first, area.shape))]
            assert np.array_equal(area, math.prod(np.ix_(*map(np.diff, corners))))
            yield grid, k, corners


def grid_scores(mesh, tw, tv):
    """Per (grid, scale) of ``grid_blocks``, its corners and the scores
    sw·sv/area² of its cubes read from the prefix tables tw and tv."""
    for grid, k, corners in grid_blocks(mesh):
        area = math.prod(np.ix_(*map(np.diff, corners))).astype(tw.dtype)
        sw, sv = (_grid_scale_sums(t, mesh, grid, [k])[k][0] for t in (tw, tv))
        yield corners, sw * sv / (area * area)


def brute_a2(w):
    """Independent exhaustive max over the whole search family using the
    generic average() routine."""
    mesh = w.mesh
    best = Fraction(0)
    if mesh.dim == 1:
        h = mesh.h
        lo = mesh.domain.lo[0]
        for i in range(mesh.size):
            for j in range(i + 1, mesh.size + 1):
                b = Box.interval(lo + i * h, lo + j * h)
                best = max(best, average(w.fn, b) * average(w.reciprocal, b))
    else:
        h = mesh.h
        lo = mesh.domain.lo
        n = mesh.cells_axis
        for d in range(1, n + 1):
            for i in range(n - d + 1):
                for j in range(n - d + 1):
                    b = Box((lo[0] + i * h, lo[1] + j * h),
                            (lo[0] + (i + d) * h, lo[1] + (j + d) * h))
                    best = max(best,
                               average(w.fn, b) * average(w.reciprocal, b))
    for region in grid_cube_regions(mesh):
        m = region.measure
        val = (w.fn.integral(region) / m) * (w.reciprocal.integral(region) / m)
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# Weight
# ---------------------------------------------------------------------------

def test_weight_requires_positive():
    mesh = Mesh(dim=1, level=2)
    with pytest.raises(ValueError):
        Weight(StepFunction.zeros(mesh))
    w = mk_weight(mesh, 0)
    assert all(a * b == 1 for a, b in zip(w.fn.values, w.reciprocal.values))


# ---------------------------------------------------------------------------
# a2_constant
# ---------------------------------------------------------------------------

def test_a2_constant_weight_is_one():
    for c in (1, Fraction(7, 3), 100):
        rep = a2_constant(Weight(StepFunction.constant(Mesh(dim=1, level=3), c)))
        assert rep.constant == 1


def test_a2_exceeds_one_for_nonconstant():
    mesh = Mesh(dim=1, level=2)
    vals = [Fraction(1)] * mesh.size
    vals[3] = Fraction(2)
    rep = a2_constant(Weight(StepFunction(mesh, vals)))
    assert rep.constant > 1


def test_a2_matches_brute_force_1d():
    mesh = Mesh(dim=1, level=3)
    for seed in range(4):
        w = mk_weight(mesh, seed)
        rep = a2_constant(w)
        assert rep.constant == brute_a2(w)


def test_a2_power_weight_matches_brute_force():
    mesh = Mesh(dim=1, level=4)
    w = Weight.power(mesh, 0.5)
    rep = a2_constant(w)
    assert rep.constant == brute_a2(w)


def test_a2_witness_achieves_constant():
    mesh = Mesh(dim=1, level=5)
    w = Weight.power(mesh, 0.7)
    rep = a2_constant(w)
    b = rep.witness
    got = (w.fn.integral(b) / b.measure) * (w.reciprocal.integral(b) / b.measure)
    assert got == rep.constant


def test_a2_scaling_invariance():
    mesh = Mesh(dim=1, level=4)
    w = mk_weight(mesh, 9)
    base = a2_constant(w).constant
    for c in (2, Fraction(1, 3), Fraction(7, 5)):
        assert a2_constant(Weight(w.fn * c)).constant == base


def test_a2_power_monotone_in_exponent():
    mesh = Mesh(dim=1, level=6)
    vals = [a2_constant(Weight.power(mesh, a)).constant
            for a in (0.3, 0.6, 0.9)]
    assert vals[0] < vals[1] < vals[2]
    assert all(v > 1 for v in vals)


def continuum_a2_power(a, p):
    """avg(w)·avg(1/w) for w = |x - c|^a over an interval containing c
    with the fraction p of its length to the left of c (closed form)."""
    return ((p ** (1 + a) + (1 - p) ** (1 + a)) / (1 + a)) \
        * ((p ** (1 - a) + (1 - p) ** (1 - a)) / (1 - a))


def continuum_a2_sup(a):
    """Continuum A2 constant of |x - c|^a: the maximum of the product over
    p in [0, 1/2] (it is symmetric under p -> 1 - p and scale invariant;
    intervals missing c give at most the p = 0 value 1/(1 - a²))."""
    res = minimize_scalar(lambda p: -continuum_a2_power(a, p),
                          bounds=(0, 0.5), method="bounded",
                          options={"xatol": 1e-12})
    coarse = max(continuum_a2_power(a, p) for p in np.linspace(0, 0.5, 2001))
    assert -res.fun >= coarse  # the bounded search found the global maximum
    return -res.fun, res.x


@pytest.mark.parametrize("a, expected",
                         [(0.3, 1.1443), (0.9, 8.4854), (0.95, 18.0461)])
def test_continuum_a2_power_closed_form(a, expected):
    sup, p_star = continuum_a2_sup(a)
    assert sup == pytest.approx(expected, abs=1e-4)
    for p in (p_star, 0.25, 0.5):
        avg_w = (quad(lambda t: abs(t) ** a, -p, 0)[0]
                 + quad(lambda t: abs(t) ** a, 0, 1 - p)[0])
        avg_inv = (quad(lambda t: abs(t) ** -a, -p, 0)[0]
                   + quad(lambda t: abs(t) ** -a, 0, 1 - p)[0])
        assert avg_w * avg_inv == pytest.approx(
            continuum_a2_power(a, p), rel=1e-9)
    assert sup > 1 / (1 - a * a)
    # the a2-scan criterion asks for span >= 20 over exponents up to 0.95;
    # the span is the A2 constant at 0.95, which is below 20 even here
    assert sup < 20


@pytest.mark.parametrize("a", [0.9, 0.95])
def test_a2_power_below_continuum_and_rising(a):
    sup, _ = continuum_a2_sup(a)
    vals = [a2_constant(Weight.power(Mesh(dim=1, level=L), a)).constant
            for L in (4, 6, 8)]
    assert vals == sorted(vals)
    assert float(vals[-1]) <= sup


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_a2_at_least_one_random(seed):
    w = mk_weight(Mesh(dim=1, level=2), seed)
    assert a2_constant(w).constant >= 1


def test_a2_2d_constant_and_brute():
    mesh = Mesh(dim=2, level=1)
    assert a2_constant(Weight(StepFunction.constant(mesh, 3))).constant == 1
    w = mk_weight(mesh, 21)
    rep = a2_constant(w)
    assert rep.constant == brute_a2(w)
    assert a2_constant(Weight(w.fn * 5)).constant == rep.constant


def test_a2_2d_level2_matches_brute_with_grid_cube_witness():
    w = mk_weight(Mesh(dim=2, level=2), 0)
    rep = a2_constant(w)
    assert rep.witness_kind == "grid-cube"
    assert rep.constant == brute_a2(w)
    b = rep.witness
    assert average(w.fn, b) * average(w.reciprocal, b) == rep.constant


def test_a2_1d_grid_cube_witness():
    # a shifted-grid cube clipped at the domain's lower end beats every
    # mesh interval
    mesh = Mesh(dim=1, level=1)
    w = Weight(StepFunction(mesh, [1, 2, 3, 4, 4, Fraction(5, 2)]))
    rep = a2_constant(w)
    assert rep.witness_kind == "grid-cube"
    assert rep.witness == Box.interval(-1, Fraction(4, 3))
    assert rep.constant == Fraction(513, 392) == brute_a2(w)


def test_grid_windows_match_fraction_enumeration():
    # cube i of a (grid, scale) spans [corners[i], corners[i + 1]) per axis
    for mesh in (Mesh(dim=1, level=4), Mesh(dim=2, level=2)):
        origin, third = mesh.domain.lo, mesh.h / 3
        got = []
        for _, _, corners in grid_blocks(mesh):
            for pos in itertools.product(*(range(len(x) - 1) for x in corners)):
                got.append(Box(
                    tuple(c + int(x[i]) * third
                          for c, x, i in zip(origin, corners, pos)),
                    tuple(c + int(x[i + 1]) * third
                          for c, x, i in zip(origin, corners, pos))))
        assert got == list(grid_cube_regions(mesh))


def _band_before(w):
    """The prescreen band of the four-search implementation: 16 times the
    long-double cumulative-sum bound 4·N·eps·Σ/min of each factor."""
    eps = float(np.finfo(np.longdouble).eps)
    bound = 0.0
    for g in (w.fn, w.reciprocal):
        fl = [float(v) for v in g.values]
        bound += 4.0 * w.mesh.size * eps * sum(fl) / min(fl)
    return 16.0 * bound + 1e-14


@pytest.mark.parametrize("a", [0.3, 0.6, 0.8, 0.9, 0.95])
def test_band_of_a2_scan_weights(a):
    w = Weight.power(Mesh(dim=1, level=12), a)
    factors = [np.array([float(v) for v in g.values])
               for g in (w.fn, w.reciprocal)]
    band = _certified_band(1, w.mesh.cells_axis, factors,
                           float(np.finfo(np.longdouble).eps) / 2)
    assert band < 1e-4
    assert band <= _band_before(w)


def _pairwise_window_sum(terms, n, lo, hi):
    """Exact Σ over the lattice window [lo, hi) as an unreduced pair (num,
    den): each cell weighted by the lattice cells it holds, the terms added
    pairwise in a balanced tree (the summation a2_constant used before it
    grouped cells by the odd part of their denominator)."""
    axes = [[(c, min(b, 3 * c + 3) - max(a, 3 * c))
             for c in range(a // 3, (b + 2) // 3)] for a, b in zip(lo, hi)]
    pairs = []
    for cells in itertools.product(*axes):
        flat, wt = 0, 1
        for c, x in cells:
            flat, wt = flat * n + c, wt * x
        num, den = terms[flat]
        pairs.append((wt * num, den))
    while len(pairs) > 1:
        pairs = [(a + c, b) if b == d else (a * d + c * b, b * d)
                 for (a, b), (c, d) in zip(pairs[::2], pairs[1::2])] \
            + pairs[len(pairs) - len(pairs) % 2:]
    return pairs[0]


def _a2_one_pass(w):
    """The single-pass search that a2_constant replaced: long-double scores
    of every mesh cube of every side, with the running best."""
    mesh = w.mesh
    dim, n = mesh.dim, mesh.cells_axis
    factors = [np.array([float(v) for v in g.values]).reshape(mesh.shape)
               for g in (w.fn, w.reciprocal)]
    band = _certified_band(dim, n, factors,
                           float(np.finfo(np.longdouble).eps) / 2)
    assert band <= 1e-4
    keep = 1 - np.longdouble(band)
    tw, tv = (_prefix_table(f, np.longdouble) for f in factors)
    blocks = list(grid_scores(mesh, tw, tv))
    best = max(score.max() for _, score in blocks)
    kept = []
    for d in range(1, n + 1):
        raw = (_cube_sums(tw, d) * _cube_sums(tv, d)).ravel()
        norm = np.longdouble(d) ** (2 * dim)
        best = max(best, raw.max() / norm)
        idx = np.flatnonzero(raw >= best * keep * norm)
        if idx.size:
            kept.append((d, idx, raw[idx]))
    thresh = best * keep
    windows = []
    for d, idx, raw in kept:
        for i in idx[raw >= thresh * np.longdouble(d) ** (2 * dim)]:
            lo = [3 * int(c) for c in np.unravel_index(i, (n - d + 1,) * dim)]
            windows.append((lo, [c + 3 * d for c in lo], "mesh-aligned"))
    for corners, score in blocks:
        for pos in np.argwhere(score >= thresh).tolist():
            windows.append(([int(x[i]) for x, i in zip(corners, pos)],
                            [int(x[i + 1]) for x, i in zip(corners, pos)],
                            "grid-cube"))
    terms = [[(v.numerator, v.denominator) for v in g.values]
             for g in (w.fn, w.reciprocal)]
    best_q, best_win = Fraction(0), None
    for lo, hi, kind in windows:
        (nw, dw), (nv, dv) = (_pairwise_window_sum(t, n, lo, hi) for t in terms)
        area = math.prod(b - a for a, b in zip(lo, hi))
        q = Fraction(nw * nv, dw * dv * area * area)
        if q > best_q:
            best_q, best_win = q, (lo, hi, kind)
    lo, hi, kind = best_win
    corner, third = mesh.domain.lo, mesh.h / 3
    return A2Report(
        constant=best_q,
        witness=Box(tuple(c + a * third for c, a in zip(corner, lo)),
                    tuple(c + b * third for c, b in zip(corner, hi))),
        witness_kind=kind,
        search="search-family constant: mesh-corner-aligned cubes + "
               "all shifted-grid cubes clipped to the domain",
        candidates_confirmed=len(windows))


def _mirrored(mesh, seed):
    """A random weight invariant under x -> -x on every axis (and, in 2-D,
    under swapping the axes), so its maximisers come in exact ties."""
    rng = random.Random(seed)
    n = mesh.cells_axis
    half = {}
    vals = []
    for idx in itertools.product(range(n), repeat=mesh.dim):
        key = tuple(sorted(min(i, n - 1 - i) for i in idx))
        if key not in half:
            half[key] = Fraction(rng.randrange(1, 40), rng.randrange(1, 5))
        vals.append(half[key])
    return Weight(StepFunction(mesh, vals))


def _periodic(mesh, period, seed):
    """Cell values repeating with the given period along the flat index, so
    every side that is a multiple of the period ties in 1-D."""
    rng = random.Random(seed)
    motif = [Fraction(rng.randrange(1, 30)) for _ in range(period)]
    return Weight(StepFunction(mesh, [motif[i % period]
                                      for i in range(mesh.size)]))


def _oracle_weights():
    for level in (8, 10):
        for a in (0.3, 0.6, 0.8, 0.9, 0.95):  # criterion 11's exponents
            yield Weight.power(Mesh(dim=1, level=level), a)
    for a in (0.203, 0.489, 0.882):  # the weighted benchmark, seed 1
        yield Weight.power(Mesh(dim=1, level=10), a)
    for seed in range(24):
        rng = random.Random(seed)
        yield mk_weight(Mesh(dim=1, level=rng.randrange(1, 7)), seed,
                        hi=rng.choice((3, 9, 200)))
        yield mk_weight(Mesh(dim=2, level=rng.randrange(1, 3)), seed,
                        hi=rng.choice((3, 9, 200)))
    for seed in range(4):
        yield _mirrored(Mesh(dim=1, level=seed + 2), seed)
        yield _mirrored(Mesh(dim=2, level=1 + seed % 2), seed)
        yield _periodic(Mesh(dim=1, level=seed + 3), 2 + seed, seed)
    # a sum of cell values near the float64 maximum: a2_constant scales
    # its float images by a power of two, the oracle's long-double reads
    # of grid cubes, up to three times that sum, pass it
    rng = random.Random(5)
    yield Weight(StepFunction(Mesh(dim=1, level=4), [
        Fraction(rng.randrange(1, 4) * 10 ** 306) for _ in range(48)]))


def test_a2_matches_one_pass_search():
    # the oracle confirms every long-double candidate, a2_constant only
    # those its bracket keeps
    for w in _oracle_weights():
        got, want = a2_constant(w), _a2_one_pass(w)
        # compared before asserting: the constants can be too long to print
        same = (got.constant, got.witness, got.witness_kind, got.search) \
            == (want.constant, want.witness, want.witness_kind, want.search)
        assert same and got.candidates_confirmed <= want.candidates_confirmed, (
            w.mesh.dim, w.mesh.level, got.witness, want.witness,
            got.candidates_confirmed, want.candidates_confirmed)


def test_bracket_rule_on_hand_made_sums():
    up, down = (2 ** 53 + 1) ** 2, (2 ** 53 - 1) ** 2
    # exact ties of P̂/a² keep both, in order; the lower third is dropped
    assert _bracket([12, 3, 2], [2, 1, 1]) == [0, 1]
    # closer than the bracket's width: both kept, whichever is first
    assert _bracket([10 ** 20, 10 ** 20 + 1], [1, 1]) == [0, 1]
    assert _bracket([10 ** 20 + 1, 10 ** 20], [1, 1]) == [0, 1]
    # the upper end of the first exactly reaches the lower end of the second
    assert _bracket([7 * down, 7 * up], [1, 1]) == [0, 1]
    assert _bracket([7 * up, 4 * 7 * down], [1, 2]) == [0, 1]
    # one below that: farther apart than the width, the lower is dropped
    assert _bracket([7 * down - 1, 7 * up], [1, 1]) == [1]
    assert _bracket([7 * up, 4 * 7 * down - 1], [1, 2]) == [0]


def _fraction_window_sum(values, mesh, lo, hi):
    """Σ over the lattice window [lo, hi) in lattice units, one Fraction
    per cell: its value times the lattice cells it shares with the
    window."""
    total = Fraction(0)
    for idx in itertools.product(range(mesh.cells_axis), repeat=mesh.dim):
        wt = math.prod(max(0, min(b, 3 * c + 3) - max(a, 3 * c))
                       for c, a, b in zip(idx, lo, hi))
        total += wt * values[int(np.ravel_multi_index(idx, mesh.shape))]
    return total


@pytest.mark.parametrize("make", [
    lambda: Weight.power(Mesh(dim=1, level=4), 0.7),  # dyadic values
    lambda: mk_weight(Mesh(dim=1, level=3), 2),
    lambda: Weight(StepFunction(Mesh(dim=1, level=3), [
        Fraction(random.Random(i).randrange(1, 99), random.Random(-i).randrange(1, 48))
        for i in range(24)])),
    lambda: Weight.power(Mesh(dim=2, level=2), -0.6),
    lambda: mk_weight(Mesh(dim=2, level=1), 7, hi=200),
], ids=["power-1d", "mixed-1d", "random-dens-1d", "power-2d", "mixed-2d"])
def test_grouped_window_sum_matches_fraction_sum(make):
    # w and w⁻¹ (dyadic, odd and mixed denominators) over random windows,
    # whose ends mostly cut lattice cells out of a mesh cell
    w = make()
    mesh = w.mesh
    rng = random.Random(mesh.size)
    for _ in range(12):
        ends = [sorted(rng.sample(range(3 * mesh.cells_axis + 1), 2))
                for _ in range(mesh.dim)]
        lo, hi = [a for a, _ in ends], [b for _, b in ends]
        for factor, g in zip(w._factors, (w.fn, w.reciprocal)):
            num, den = _window_sum_exact(factor, lo, hi, {})
            assert Fraction(num, den) == _fraction_window_sum(g.values, mesh, lo, hi)


def test_window_sum_memo_serves_mirror_windows():
    # |x - 1/2|^a is symmetric about the middle of [-1, 2): the mirror of a
    # window holds the same cells, so it gets the first window's pair
    w = Weight.power(Mesh(dim=1, level=5), 0.9)
    n = w.mesh.cells_axis
    lo, hi = 3 * n // 2 - 40, 3 * n // 2 + 7
    for factor in w._factors:
        memo = {}
        first = _window_sum_exact(factor, [lo], [hi], memo)
        assert _window_sum_exact(factor, [3 * n - hi], [3 * n - lo], memo) is first
        assert len(memo) == 1
        assert _window_sum_exact(factor, [lo + 1], [hi], memo) is not first


def test_weight_builds_reciprocal_on_first_read():
    w = mk_weight(Mesh(dim=1, level=3), 4)
    a2_constant(w)
    operator_norm_weighted(identity_operator(w.mesh), w, iters=10)
    assert "reciprocal" not in vars(w)
    assert w.reciprocal.values == [1 / v for v in w.fn.values]
    assert w.reciprocal is w.reciprocal


def _norm_float_reference(op, w, iters=60, seed=0, tol=1e-9):
    """operator_norm_weighted on the weight's float(v) values."""
    wv = np.array([float(v) for v in w.fn.values])
    h = float(w.mesh.h) ** w.mesh.dim

    def norm_w(v):
        return math.sqrt(h * float(np.dot(v * v, wv)))

    def adjoint_w(v):
        return op.apply_t(wv * v) / wv

    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal(op.size), rng.standard_normal(op.size)
    lhs = h * float(np.dot(op.apply(f) * g, wv))
    rhs = h * float(np.dot(f * adjoint_w(g), wv))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    v = rng.standard_normal(op.size)
    v /= norm_w(v)
    best, converged, used = 0.0, False, 0
    for it in range(1, iters + 1):
        tv = op.apply(v)
        sigma = norm_w(tv)
        used = it
        if sigma <= best * (1 + tol) and it >= 10:
            best = max(best, sigma)
            converged = True
            break
        best = max(best, sigma)
        z = adjoint_w(tv)
        nz = norm_w(z)
        if nz == 0.0:
            converged = True
            break
        v = z / nz
    return (best, converged, used, gap)


def test_operator_norm_matches_float_reference():
    # the 1-D oracle weights, but for the last, whose float(v) reference
    # overflows in the Hilbert FFT (test_a2_past_the_float64_range covers
    # that range)
    ops = {}
    for w in _oracle_weights():
        if w.mesh.dim != 1 or max(w.fn.values) > 10 ** 300:
            continue
        mesh = w.mesh
        if mesh not in ops:
            ops[mesh] = (sparse_family_operator(mesh, tower_family(mesh)),
                         hilbert_full_operator(mesh))
        for op in ops[mesh]:
            est = operator_norm_weighted(op, w, seed=3)
            got = (est.value, est.converged, est.iterations, est.duality_gap)
            assert got == _norm_float_reference(op, w, seed=3)


def _exact_side_maxima(w):
    """Exact max of avg(w, Q)·avg(w⁻¹, Q) over the mesh cubes Q of each
    side d = 1..n, one Fraction average per cube."""
    mesh = w.mesh
    n, h, corner = mesh.cells_axis, mesh.h, mesh.domain.lo
    out = []
    for d in range(1, n + 1):
        best = Fraction(0)
        for idx in itertools.product(range(n - d + 1), repeat=mesh.dim):
            q = Box(tuple(c + i * h for c, i in zip(corner, idx)),
                    tuple(c + (i + d) * h for c, i in zip(corner, idx)))
            best = max(best, average(w.fn, q) * average(w.reciprocal, q))
        out.append(best)
    return out


BAND_WEIGHTS = [
    lambda: mk_weight(Mesh(dim=1, level=4), 3),
    lambda: mk_weight(Mesh(dim=1, level=5), 8, hi=200),
    lambda: Weight.power(Mesh(dim=1, level=5), 0.95),
    lambda: Weight.power(Mesh(dim=1, level=4), -0.6),
    lambda: mk_weight(Mesh(dim=2, level=2), 1),
    lambda: Weight.power(Mesh(dim=2, level=2), 0.8),
    lambda: Weight(StepFunction(Mesh(dim=1, level=5), [
        Fraction(10 ** random.Random(i).uniform(-3, 3)) for i in range(96)])),
    lambda: Weight(StepFunction(Mesh(dim=2, level=1), [
        Fraction(10 ** random.Random(i).uniform(-3, 3)) for i in range(36)])),
]


@pytest.mark.parametrize("make", BAND_WEIGHTS)
def test_float64_side_maxima_within_half_band(make):
    w = make()
    factors = [np.array([float(v) for v in g.values]).reshape(w.mesh.shape)
               for g in (w.fn, w.reciprocal)]
    half = Fraction(_certified_band(w.mesh.dim, w.mesh.cells_axis, factors,
                                    2.0 ** -53) / 2)
    tw, tv = (_prefix_table(f, np.float64) for f in factors)
    exact = _exact_side_maxima(w)
    assert len(exact) == w.mesh.cells_axis
    for d, want in enumerate(exact, 1):
        got = _side_score(tw, tv, d)[1]
        assert abs(Fraction(float(got)) - want) <= half * want


def _every_side(factors, band):
    """Pass 1 without pruning: T = max_d m_d over every side d and the
    sides with m_d >= T·(1 - band)."""
    tw, tv = (_prefix_table(f, np.float64) for f in factors)
    top = np.array([_side_score(tw, tv, d)[1]
                    for d in range(1, len(factors[0]) + 1)])
    return top.max(), (np.flatnonzero(top >= top.max() * (1 - band)) + 1).tolist()


def _search_and_sweep(w):
    factors = [f.image[0] for f in w._factors]
    band = _certified_band(w.mesh.dim, w.mesh.cells_axis, factors, 2.0 ** -53)
    return band, _side_search(factors, band), _every_side(factors, band)


@pytest.mark.parametrize("make", [
    lambda: Weight.power(Mesh(dim=1, level=10), 0.2),
    lambda: Weight.power(Mesh(dim=1, level=10), 0.95),
    lambda: Weight.power(Mesh(dim=1, level=7), -0.5),
    lambda: Weight.power(Mesh(dim=1, level=6), -0.95),
    lambda: Weight.power(Mesh(dim=2, level=4), -0.6),
    lambda: Weight.power(Mesh(dim=2, level=4), 1.5),
    lambda: _periodic(Mesh(dim=1, level=6), 5, 1),  # ties across sides
    # every score within the band of the top, side 1 included
    lambda: Weight(StepFunction(Mesh(dim=1, level=3), [
        Fraction(1), Fraction(2 ** 50 + 1, 2 ** 50)] * 12)),
    lambda: Weight(StepFunction(Mesh(dim=2, level=1), [
        Fraction(1), Fraction(2 ** 50 + 1, 2 ** 50)] * 18)),
], ids=["1d-L10-0.2", "1d-L10-0.95", "1d-L7--0.5", "1d-L6--0.95",
        "2d-L4--0.6", "2d-L4-1.5", "periodic", "flat-1d", "flat-2d"])
def test_side_search_matches_every_side(make):
    band, got, want = _search_and_sweep(make())
    assert band < 1
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_side_search_matches_every_side_on_random_weights(seed, dim):
    rng = random.Random(seed)
    mesh = Mesh(dim=dim, level=rng.randrange(1, 8 if dim == 1 else 4))
    hi = rng.choice((3, 9, 200, 10 ** 6))
    w = Weight(StepFunction(mesh, [Fraction(rng.randrange(1, hi),
                                            rng.randrange(1, hi))
                                   for _ in range(mesh.size)]))
    band, got, want = _search_and_sweep(w)
    assert got == want


def test_side_search_visits_every_side_past_a_unit_band():
    # one cell 10^15 times the rest: b₆₄ >= 1, so every side is within the
    # band of the top and none is scored
    mesh = Mesh(dim=1, level=2)
    w = Weight(StepFunction(mesh, [Fraction(10 ** 15)] + [Fraction(1)] * 11))
    band, got, want = _search_and_sweep(w)
    assert band >= 1
    assert got == (None, want[1]) == (None, list(range(1, 13)))


@pytest.mark.parametrize("make", BAND_WEIGHTS)
def test_grid_cube_scores_within_half_band(make):
    # every grid-cube score of either precision, against its exact value
    w = make()
    mesh = w.mesh
    factors = [np.array([float(v) for v in g.values]).reshape(mesh.shape)
               for g in (w.fn, w.reciprocal)]
    exact = [average(w.fn, r) * average(w.reciprocal, r)
             for r in grid_cube_regions(mesh)]
    for dtype in (np.float64, np.longdouble):
        half = Fraction(_certified_band(mesh.dim, mesh.cells_axis, factors,
                                        float(np.finfo(dtype).eps) / 2) / 2)
        tw, tv = (_prefix_table(f, dtype) for f in factors)
        got = [s for _, score in grid_scores(mesh, tw, tv) for s in score.flat]
        assert len(got) == len(exact)
        for s, want in zip(got, exact):
            assert abs(Fraction(*s.as_integer_ratio()) - want) <= half * want


@pytest.mark.parametrize("power", [307, 309, -310, -330])
def test_a2_past_the_float64_range(power):
    # (1..3)·10^power: the weight or its reciprocal, or their sums, leave
    # the float64 range, yet the constant is scale invariant
    mesh = Mesh(dim=1, level=4)
    rng = random.Random(5)
    base = [Fraction(rng.randrange(1, 4)) for _ in range(mesh.size)]
    want = a2_constant(Weight(StepFunction(mesh, base)))
    got = a2_constant(Weight(StepFunction(
        mesh, [v * Fraction(10) ** power for v in base])))
    assert (got.constant, got.witness, got.witness_kind) \
        == (want.constant, want.witness, want.witness_kind)


@pytest.mark.parametrize("power", [307, 309, -310, -330])
def test_norms_past_the_float64_range(power):
    # the weights above: the operator norm in L²(w) is scale invariant
    mesh = Mesh(dim=1, level=4)
    rng = random.Random(5)
    base = [Fraction(rng.randrange(1, 4)) for _ in range(mesh.size)]
    w0 = Weight(StepFunction(mesh, base))
    w = Weight(StepFunction(mesh, [v * Fraction(10) ** power for v in base]))
    op = hilbert_full_operator(mesh)
    want = operator_norm_weighted(op, w0, iters=80, seed=1)
    got = operator_norm_weighted(op, w, iters=80, seed=1)
    assert want.value == pytest.approx(4.031, abs=1e-3)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.iterations == want.iterations
    assert 0 <= got.duality_gap <= 1e-6


def test_a2_report_json():
    rep = a2_constant(mk_weight(Mesh(dim=1, level=2), 4))
    data = rep.to_json()
    assert set(data) == {"constant", "constant_float", "witness",
                         "witness_kind", "search", "candidates_confirmed"}
    num, den = data["constant"].split("/")
    assert int(den) > 0
    # past 4,096 bits the verbatim rational is left out, as in ScanRow
    rep = a2_constant(Weight.power(Mesh(dim=1, level=8), 0.95))
    assert rep.constant.numerator.bit_length() >= 4096
    data = json.loads(json.dumps(rep.to_json()))
    assert data["constant"] is None
    assert data["constant_float"] == float(rep.constant)


# ---------------------------------------------------------------------------
# operators and norm estimation
# ---------------------------------------------------------------------------

def test_identity_norm_is_one():
    mesh = Mesh(dim=1, level=3)
    for seed in (0, 1):
        est = operator_norm_weighted(identity_operator(mesh),
                                     mk_weight(mesh, seed), iters=20,
                                     seed=seed)
        assert abs(est.value - 1.0) < 1e-9
        assert est.converged


def test_single_cube_averaging_norm_is_one():
    mesh = Mesh(dim=1, level=4)
    fam = SparseFamily(grid=GridId.standard(1),
                       levels={0: [Cube(GridId.standard(1), 1, (0,))]})
    op = sparse_family_operator(mesh, fam)
    est = operator_norm_weighted(op, Weight(StepFunction.constant(mesh, 1)), iters=40)
    assert abs(est.value - 1.0) < 1e-9


def test_power_iteration_never_exceeds_svd():
    mesh = Mesh(dim=1, level=2)
    op = sparse_family_operator(mesh, tower_family(mesh))
    for a, seed in ((0.0, 0), (0.6, 1), (0.9, 2)):
        w = Weight.power(mesh, a)
        wf = np.array([float(v) for v in w.fn.values])
        m = np.diag(np.sqrt(wf)) @ dense(op) @ np.diag(1 / np.sqrt(wf))
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        est = operator_norm_weighted(op, w, iters=300, seed=seed)
        assert est.value <= sigma + 1e-9
        assert est.value >= sigma - 1e-6


@pytest.mark.parametrize("level", [4, 6, 8])
def test_weighted_hilbert_norm_matches_dense_svd(level):
    # the Hilbert matrix is signed, so the dense SVD of W^{1/2} H W^{-1/2}
    # is the oracle for the power-iteration lower bound.  Unweighted, its
    # top singular values cluster and 300 iterations do not converge: at
    # level 8 the gap is 1.7e-4 from seed 1 and 1.3e-3 from seed 0.
    mesh = Mesh(dim=1, level=level)
    op = hilbert_full_operator(mesh)
    h = dense(op)
    for a in (0, 0.5, 0.95):
        w = Weight.power(mesh, a)
        wf = np.array([float(v) for v in w.fn.values])
        m = np.sqrt(wf)[:, None] * h / np.sqrt(wf)[None, :]
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        est = operator_norm_weighted(op, w, iters=300, seed=1)
        assert est.value <= sigma + 1e-9
        assert est.value >= sigma * (1 - 1e-3)


def power_values_reference(mesh, a):
    """Weight.power's cell values by the per-cell formula: one cell box and
    one Fraction center per cell, at distance max_i |x_i - 1/2| from 1/2."""
    vals = []
    for i in range(mesh.size):
        idx = np.unravel_index(i, mesh.shape)
        center_i = mesh.cell_box(tuple(int(x) for x in idx)).center
        vals.append(Fraction(float(max(abs(x - Fraction(1, 2)) for x in center_i)) ** a))
    return vals


@pytest.mark.parametrize("dim,levels", [(1, range(1, 13)), (2, range(1, 6))])
def test_power_weight_matches_per_cell_formula(dim, levels):
    for level in levels:
        mesh = Mesh(dim=dim, level=level)
        # a = 0 is the constant 1, the first weight of the scan
        for a in (0, 0.95, -0.4):
            assert Weight.power(mesh, a).fn.values == \
                power_values_reference(mesh, a)


def test_norm_estimate_monotone_in_iters():
    mesh = Mesh(dim=1, level=4)
    op = sparse_family_operator(mesh, tower_family(mesh))
    w = Weight.power(mesh, 0.8)
    vals = [operator_norm_weighted(op, w, iters=i, seed=7).value
            for i in (10, 20, 60)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_norm_estimate_weight_scaling_invariant():
    mesh = Mesh(dim=1, level=4)
    op = sparse_family_operator(mesh, tower_family(mesh))
    w = mk_weight(mesh, 13)
    a = operator_norm_weighted(op, w, iters=40, seed=3).value
    b = operator_norm_weighted(op, Weight(w.fn * 5), iters=40, seed=3).value
    assert abs(a - b) < 1e-9


def test_norm_estimate_rejects_few_iters():
    mesh = Mesh(dim=1, level=2)
    with pytest.raises(ValueError):
        operator_norm_weighted(identity_operator(mesh),
                               Weight(StepFunction.constant(mesh, 1)), iters=5)


def test_hilbert_operator_matches_hilbert_apply():
    mesh = Mesh(dim=1, level=2)
    op = hilbert_full_operator(mesh)
    rng = random.Random(4)
    f = StepFunction(mesh, [Fraction(rng.randrange(-5, 6))
                            for _ in range(mesh.size)])
    got = op.apply(np.array([float(v) for v in f.values]))
    for i in range(mesh.size):
        x = mesh.cell_box((i,)).center[0]
        want = hilbert_apply(f, x, mesh.h / 2, 3)
        assert abs(got[i] - want) < 1e-10


def test_hilbert_operator_antisymmetric():
    mesh = Mesh(dim=1, level=3)
    op = hilbert_full_operator(mesh)
    rng = np.random.default_rng(0)
    f, g = rng.standard_normal(mesh.size), rng.standard_normal(mesh.size)
    assert abs(np.dot(op.apply(f), g) + np.dot(f, op.apply(g))) < 1e-9
    assert np.allclose(op.apply_t(f), -op.apply(f))


def test_amalgam_operator_transpose_consistent():
    from sparsedom.sparse import cz_sparse, split_families
    mesh = Mesh(dim=1, level=4)
    rng = random.Random(8)
    f = StepFunction(mesh, [Fraction(rng.randrange(0, 5))
                            for _ in range(mesh.size)])
    fam = cz_sparse(f, GridId.standard(1))
    sh = split_families(fam, 1)
    op = amalgam_pair_operator(mesh, sh)
    g1 = np.random.default_rng(1).standard_normal(mesh.size)
    g2 = np.random.default_rng(2).standard_normal(mesh.size)
    assert abs(np.dot(op.apply(g1), g2) - np.dot(g1, op.apply_t(g2))) < 1e-9


def test_tower_family_structure():
    mesh = Mesh(dim=1, level=5)
    fam = tower_family(mesh)
    assert sorted(fam.levels) == list(range(mesh.level + 1))
    cubes = [fam.levels[k][0] for k in sorted(fam.levels)]
    for small, big in zip(cubes[1:], cubes):
        assert big.box.contains_box(small.box)
        assert small.side * 2 == big.side


# ---------------------------------------------------------------------------
# the scan
# ---------------------------------------------------------------------------

def test_a2_scan_small():
    tab, = a2_scan(["sparse"], [0, 0.5], level=5, seed=1)
    assert len(tab.rows) == 2
    assert tab.rows[0].a2_exact == 1
    assert tab.rows[1].a2 > 1
    for r in tab.rows:
        assert r.ratio == pytest.approx(r.opnorm / r.a2)
    csv_text = tab.to_csv()
    assert csv_text.splitlines()[0] == "a,A2,opnorm,ratio"
    assert len(csv_text.splitlines()) == 3
    data = tab.to_json()
    assert data["kind"] == "sparse" and len(data["rows"]) == 2


@pytest.mark.parametrize("exponents", [(0.3, -0.3), (0.5, 0.5)])
def test_a2_scan_leaves_a_one_value_column_unfitted(exponents):
    # w_a and w_{-a} have one A2 constant, as do two equal exponents: no
    # line is determined, so slope and intercept keep their 0.0 defaults
    # and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab, = a2_scan(["sparse"], exponents, level=5)
    assert tab.rows[0].a2 == tab.rows[1].a2
    assert (tab.slope, tab.intercept) == (0.0, 0.0)


def test_a2_scan_fits_criterion_11_rows():
    # criterion 11's exponents: distinct A2 constants, fitted as before
    tab, = a2_scan(["sparse"], [0, 0.3, 0.6, 0.8, 0.9, 0.95], level=5)
    want = np.polyfit([r.a2 for r in tab.rows], [r.opnorm for r in tab.rows], 1)
    assert (tab.slope, tab.intercept) == tuple(map(float, want)) != (0.0, 0.0)


def test_a2_scan_rejects_bad_exponent_and_kind():
    with pytest.raises(ValueError):
        a2_scan(["sparse"], [0, 1.0], level=4)
    with pytest.raises(ValueError):
        a2_scan(["sparse"], [-1.0], level=4)
    with pytest.raises(ValueError):
        a2_scan(["sparse", "banach"], [0.5], level=4)


def test_a2_scan_shares_weights_across_kinds():
    both = a2_scan(["hilbert", "sparse"], [0.2, 0.6], level=4, seed=3)
    assert [t.kind for t in both] == ["hilbert", "sparse"]
    for tab in both:
        one, = a2_scan([tab.kind], [0.2, 0.6], level=4, seed=3)
        assert tab.to_json() == one.to_json()
