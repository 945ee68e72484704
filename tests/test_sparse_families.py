"""The integer sparse-family kernels against reference copies of their
earlier Fraction implementations.

``verify_sparse_family`` must raise, or not, with the message of the
Box-by-Box check below; ``cz_pointwise_gap``, ``sparse_operator``,
``shifted_operator`` and the amalgam pair must return what the per-cube
``average`` and ``atom_sum`` formulas below return, added cell by cell;
and every lattice-window sum of |f| must equal the cube's ``average``.  Inputs are
the signed rational CSV files in ``tests/data`` (1-D level 5, 2-D level 3)
on every grid, the families ``cz_sparse`` and ``oscillation_decompose``
build from them, and corruptions of those families: an overlap within a
level, a cube outside the level below, a cube more than half covered by
the next level, and a cube of another grid.  The gap and the operator
also run on the four generator kinds at 1-D level 8 and 2-D level 4,
whose spikes give the deepest families, and the gap on seeded random
rationals p/q, |p|, q < 10^6, at those levels.  The window sums also run on a
2-D input whose numerators pass 2^63.  ``cz_sparse`` must list each level
as a depth-first descent on Fraction averages does, on every grid, every
generator kind, signed rationals and an input that climbs above the top
scale, at 1-D levels 1-6 and 2-D levels 1-3.  The dilated and amalgam
operators also run on hand-made families of finest-scale cubes, whose
dilates have half-cell corners, and of cubes whose dilates or covers
leave the domain, under both table dtypes.
"""

import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from sparsedom import stepfn
from sparsedom.geometry import Cube, GridId, dilate
from sparsedom.harness import GENERATOR_KINDS, generate_function
from sparsedom.rational import pow2
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
)
from sparsedom.stepfn import (
    Mesh,
    StepFunction,
    average,
    dyadic_maximal,
    _corner,
    _corners,
    _cube_windows,
    _TOP_SCALE,
    _window_cells,
    _window_sums,
)

from meshtools import both_paths, cube_at

DATA = os.path.join(os.path.dirname(__file__), "data")
INPUTS = {1: ("rationals-1d-level5.csv", 5), 2: ("rationals-2d-level3.csv", 3)}


def rational_input(dim: int) -> StepFunction:
    name, level = INPUTS[dim]
    return StepFunction.from_csv(os.path.join(DATA, name), dim, level)


def wide_input() -> StepFunction:
    """2-D level 2 values over four Mersenne-prime denominators, so that
    the numerators over their lcm, and the prefix-table entries, pass
    2^63."""
    rng = random.Random(11)
    mesh = Mesh(2, 2)
    dens = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1]
    return StepFunction(mesh, [Fraction(rng.randrange(-999, 1000), rng.choice(dens))
                               for _ in range(mesh.size)])


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def ref_verify_sparse_family(fam: SparseFamily):
    """Exact checks of all sparse-family invariants; raises on violation."""
    keys = fam.level_keys()
    if keys and keys != list(range(keys[0], keys[-1] + 1)):
        raise AssertionError(f"levels must be consecutive, got {keys}")
    for k in keys:
        cubes = fam.levels[k]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                if cubes[i].box.intersect(cubes[j].box) is not None:
                    raise AssertionError(f"level {k}: cubes overlap")
    for k in keys:
        nxt = fam.levels.get(k + 1, [])
        for small in nxt:
            if not any(big.box.contains_box(small.box) for big in fam.levels[k]):
                raise AssertionError(f"level {k + 1} not inside level {k}")
        for big in fam.levels[k]:
            inner = Fraction(0)
            for small in nxt:
                if big.box.contains_box(small.box):
                    inner += small.measure
                elif big.box.intersect(small.box) is not None:
                    raise AssertionError("partial overlap across levels")
            if inner > big.measure / 2:
                raise AssertionError(
                    f"level {k}: |Omega_(k+1) ∩ Q| = {inner} > |Q|/2 = {big.measure / 2}")


def ref_cz_sparse(f: StepFunction, grid: GridId, levels: list) -> dict:
    """Level k of ``levels`` and the level after it, by a depth-first
    descent on Fraction averages of |f|: the top scale's cubes meeting the
    domain in row-major order, then children in ``Cube.children`` order,
    keeping the first cube on each path whose average exceeds 2^{(n+1)k}.
    The top scale climbs from ``_TOP_SCALE`` while ‖f‖₁·2^(n·top) exceeds
    the bottom threshold.  A subtree is skipped when no cell meeting its
    cube holds |f| above the threshold, which bounds every average in it."""
    mesh, g = f.mesh, abs(f)
    n, h, lo = mesh.dim, mesh.h, mesh.domain.lo
    cells = np.array(g.values, dtype=object).reshape(mesh.shape)
    top = _TOP_SCALE
    while g.norm_l1() * pow2(n * top) > pow2((n + 1) * levels[0]):
        top -= 1
    tops = [q for q in cubes_around(mesh, grid, top) if mesh.domain.intersect(q.box)]

    def peak(q: Cube):
        block = tuple(slice(max(0, math.floor((a - o) / h)),
                            min(mesh.cells_axis, math.ceil((b - o) / h)))
                      for a, b, o in zip(q.box.lo, q.box.hi, lo))
        return max(cells[block].flat, default=0)

    out = {}
    for k in levels + [levels[-1] + 1]:
        t, chosen = pow2((n + 1) * k), []

        def descend(q: Cube):
            if peak(q) <= t:
                return
            if average(g, q.box) > t:
                chosen.append(q)
            elif q.k < mesh.level:
                for child in q.children():
                    descend(child)

        for q in tops:
            descend(q)
        out[k] = chosen
    return out


def ref_accumulate(mesh: Mesh, terms) -> tuple[np.ndarray, int]:
    """Σ value·χ_cells over the (cells, value) ``terms``, with cells a
    ``Mesh.cells`` block and value exact: integer numerators shaped like
    the mesh over one denominator, the lcm of the values' denominators."""
    terms = list(terms)
    den = math.lcm(*(v.denominator for _, v in terms))
    diff = np.zeros(tuple(n + 1 for n in mesh.shape), dtype=object)
    corners = _corners(mesh.dim)
    for cells, v in terms:
        num = v.numerator * (den // v.denominator)
        for bits, odd in corners:
            diff[_corner(cells, bits)] += -num if odd else num
    for axis in range(mesh.dim):
        diff = diff.cumsum(axis)
    return diff[(slice(None, -1),) * mesh.dim], den


def ref_pointwise_gap(f: StepFunction, fam: SparseFamily,
                      maximal: StepFunction) -> Fraction:
    mesh = f.mesh
    g = abs(f)
    rhs, den = np.zeros(mesh.shape, dtype=object), 1
    for k in fam.level_keys():
        acc, d = ref_accumulate(mesh, ((mesh.cells(q.box), average(g, q.box))
                                       for q in fam.levels[k]))
        outside = np.ones(mesh.shape, dtype=bool)
        for q in fam.levels.get(k + 1, []):
            outside[mesh.cells(q.box)] = False
        lcm = math.lcm(den, d)
        rhs = rhs * (lcm // den) + np.where(outside, acc * (lcm // d), 0)
        den = lcm
    m, m_den = maximal._num
    gap = (rhs * (2 << mesh.dim) * m_den - m * den).min()
    return Fraction(gap, den * m_den)


def ref_sparse_operator(fam: SparseFamily, f: StepFunction) -> list:
    mesh = f.mesh
    nums, den = ref_accumulate(mesh, ((mesh.cells(q.box), average(f, q.box))
                                      for _, q in fam.pairs()))
    return [Fraction(v, den) for v in nums.flat]


def ref_cellwise(mesh: Mesh, terms) -> list:
    """Σ value·χ_box over (box, value) terms, one Fraction sum per cell."""
    out = np.full(mesh.shape, Fraction(0), dtype=object)
    for box, value in terms:
        out[mesh.cells(box)] += value
    return list(out.flat)


def ref_operators(fam: SparseFamily, f: StepFunction, ms) -> list:
    """The sparse operator, then per m the shifted operator and the two
    amalgams of every grid, by the per-cube Fraction formulas."""
    mesh, pairs = f.mesh, list(fam.pairs())
    out = [ref_cellwise(mesh, ((q.box, average(f, q.box)) for _, q in pairs))]
    for m in ms:
        out.append(ref_cellwise(mesh, ((q.box, f.atom_sum(dilate(q, m))
                                        / dilate(q, m).measure) for _, q in pairs)))
        sh = split_families(fam, m)
        for alpha in GridId.all_grids(mesh.dim):
            members = list(sh.family_of(alpha))
            out.append(ref_cellwise(mesh, ((q.box, f.atom_sum(c.box) / c.measure)
                                           for _, q, c in members)))
            out.append(ref_cellwise(mesh, ((c.box, f.atom_sum(q.box) / c.measure)
                                           for _, q, c in members)))
    return out


def operators(fam: SparseFamily, f: StepFunction, ms) -> list:
    """What ``ref_operators`` lists, from the package's operators."""
    out = [sparse_operator(fam, f)]
    for m in ms:
        out.append(shifted_operator(fam, m, f))
        sh = split_families(fam, m)
        for alpha in GridId.all_grids(f.mesh.dim):
            out += [amalgam(sh, alpha, f), amalgam_adjoint(sh, alpha, f)]
    return out


def hand_family(mesh: Mesh, grid: GridId) -> SparseFamily:
    """Cubes of ``grid`` the stopping times never pick: finest-scale cubes
    at both ends of the domain and inside it, whose 2^m dilates have
    half-cell corners; a unit cube at the lower end, a side-4 cube holding
    the domain and a cube beyond it, whose dilates or covers leave it."""
    n, h = mesh.dim, mesh.h
    points = [(-1,) * n, (2 - h,) * n, (Fraction(1, 3),) + (2 - h,) * (n - 1),
              (Fraction(1, 2),) * n]
    cubes = [cube_at(grid, mesh.level, x) for x in points]
    cubes += [cube_at(grid, 0, (-1,) * n), cube_at(grid, -2, (0,) * n),
              cube_at(grid, mesh.level - 1, (3,) * n)]
    return SparseFamily(grid, {0: cubes})


def outcome(check, fam: SparseFamily):
    """None when the check passes, else its AssertionError message."""
    try:
        check(fam)
    except AssertionError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# the identity the family check relies on
# ---------------------------------------------------------------------------


def cubes_around(mesh: Mesh, grid: GridId, k: int):
    """The cubes of ``grid`` at scale k meeting the domain, and one more
    on each side per axis."""
    ranges = [range(a - 1, b + 2) for a, b in
              zip(cube_at(grid, k, mesh.domain.lo).j,
                  cube_at(grid, k, mesh.domain.hi).j)]
    return [Cube(grid, k, j) for j in itertools.product(*ranges)]


@pytest.mark.parametrize("mesh", [Mesh(1, 4), Mesh(2, 2)], ids=["1d", "2d"])
def test_grid_cubes_meet_iff_nested(mesh):
    # two cubes of one grid meet exactly when one is an ancestor of the
    # other, at every scale pair from above the domain down to the mesh
    for grid in GridId.all_grids(mesh.dim):
        boxes = {q: q.box for k in range(_TOP_SCALE - 2, mesh.level + 1)
                 for q in cubes_around(mesh, grid, k)}
        boxes = {q: b for q, b in boxes.items() if mesh.domain.intersect(b)}
        cubes, lineage = list(boxes), {}
        for q in cubes:
            chain, a = {q}, q
            while a.k > cubes[0].k:
                a = a.parent()
                chain.add(a)
            lineage[q] = chain
        for p, q in itertools.combinations(cubes, 2):
            nested = p in lineage[q] or q in lineage[p]
            assert (boxes[p].intersect(boxes[q]) is not None) == nested, (p, q)


# ---------------------------------------------------------------------------
# lattice-window sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", [1, 2, "wide"])
def test_window_sums_match_cube_averages(source):
    f = wide_input() if source == "wide" else rational_input(source)
    mesh, dim = f.mesh, f.mesh.dim
    g = abs(f)
    den = f._num[1]
    if source == "wide":
        # the table must hold Python ints, not int64 (np.pad would insert
        # an np.int64 zero and the cumulative sums would overflow)
        table = f._abs_table(1)
        assert {type(v) for v in table.flat} == {int}
        assert table.max() > 2**63
    coarsest = min(q.k for grid in GridId.all_grids(dim)
                   for _, q in cz_sparse(f, grid).pairs())
    k_lo = min(coarsest, _TOP_SCALE) - 2
    larger, clipped = 0, 0
    for grid in GridId.all_grids(dim):
        for k in range(k_lo, mesh.level + 1):
            cubes = cubes_around(mesh, grid, k)
            lo, hi = _cube_windows(mesh, cubes)
            sums = _window_sums(f._abs_table(6 ** dim), lo, hi)
            unit = den * (3 << (mesh.level - k)) ** dim
            for q, s, a, b in zip(cubes, sums, lo, hi):
                assert Fraction(s, unit) == average(g, q.box), q
                assert _window_cells(a, b) == mesh.cells(q.box), q
                inside = mesh.domain.intersect(q.box)
                larger += q.box.contains_box(mesh.domain) and q.box != mesh.domain
                clipped += inside is not None and inside != q.box
    assert larger and clipped


def signed_rationals(mesh: Mesh, seed: int) -> StepFunction:
    rng = random.Random(seed)
    return StepFunction(mesh, [
        Fraction(rng.randint(-60, 60), rng.choice([1, 3, 7, 96, 97]))
        if rng.random() < 0.7 else Fraction(0) for _ in range(mesh.size)])


@pytest.mark.parametrize("dim, level", [(1, lv) for lv in range(1, 7)]
                         + [(2, lv) for lv in range(1, 4)])
def test_cz_sparse_matches_depth_first_reference(monkeypatch, dim, level):
    # list for list, on every grid, every generator kind and signed
    # rationals, as the kernel chooses its dtypes and with every table and
    # the selection forced to object ints; the last input, a 1 beside
    # 2^(8·level), climbs above the top scale
    mesh = Mesh(dim, level)
    core = mesh.cells(mesh.core)
    climb = np.zeros(mesh.shape, dtype=object)
    climb[tuple(s.start for s in core)] = 1
    climb[tuple(s.stop - 1 for s in core)] = 1 << 8 * level
    inputs = [generate_function(level, kind, mesh) for kind in GENERATOR_KINDS]
    inputs += [signed_rationals(mesh, level), StepFunction(mesh, climb.flat)]
    climbed = 0
    for f in inputs:
        for grid in GridId.all_grids(dim):
            fam = cz_sparse(f, grid)
            with monkeypatch.context() as m:
                m.setattr(stepfn, "_INT64_BITS", 0)
                forced = cz_sparse(f, grid)
            levels = fam.level_keys()
            ref = ref_cz_sparse(f, grid, levels)
            assert ref.pop(levels[-1] + 1) == []
            assert fam.levels == forced.levels == ref
            climbed += min(q.k for _, q in fam.pairs()) < _TOP_SCALE
    assert climbed


@pytest.mark.parametrize("dim", [1, 2])
def test_gap_and_operator_match_fraction_formulas(dim):
    # the painted gap against the per-level sum, on the rational input and
    # on every generator kind at 1-D level 8 and 2-D level 4; the spike's
    # families are the deepest
    mesh = Mesh(dim, {1: 8, 2: 4}[dim])
    csv = rational_input(dim)
    inputs = [csv] + [generate_function(3, kind, mesh) for kind in GENERATOR_KINDS]
    q0 = Cube(GridId.standard(dim), 0, (0,) * dim)
    depths = []
    for f in inputs:
        g = abs(f)
        families = [(grid, cz_sparse(f, grid)) for grid in GridId.all_grids(dim)]
        families.append((q0.grid, oscillation_decompose(f, q0).family))
        for grid, fam in families:
            maximal = dyadic_maximal(f, grid)
            assert cz_pointwise_gap(f, fam, maximal) == ref_pointwise_gap(f, fam, maximal)
            assert sparse_operator(fam, g).values == ref_sparse_operator(fam, g)
            depths.append(len(fam.levels))
        # the generators' decompositions mostly stop at q0
        nonempty = families if f is csv else families[:-1]
        assert not any(fam.is_empty for _, fam in nonempty)
    assert max(depths) >= 6
    empty = SparseFamily(q0.grid, {})
    assert sparse_operator(empty, abs(csv)).values == [0] * csv.mesh.size


def random_rationals(mesh: Mesh, seed: int) -> StepFunction:
    """Every cell p/q with |p|, q < 10^6: the lcm of the cell denominators
    has thousands of bits."""
    rng = random.Random(seed)
    return StepFunction(mesh, [Fraction(rng.randrange(1 - 10**6, 10**6),
                                        rng.randrange(1, 10**6))
                               for _ in range(mesh.size)])


@pytest.mark.parametrize("dim", [1, 2])
def test_gap_per_block_on_random_rationals(dim):
    # the per-block minimum against the per-level sum, on every grid, where
    # every product of the comparison is far past int64
    mesh = Mesh(dim, {1: 8, 2: 4}[dim])
    f = random_rationals(mesh, dim)
    assert f._num[1].bit_length() > 1000
    for grid in GridId.all_grids(dim):
        fam, maximal = cz_sparse(f, grid), dyadic_maximal(f, grid)
        assert not fam.is_empty
        gap = cz_pointwise_gap(f, fam, maximal)
        assert gap == ref_pointwise_gap(f, fam, maximal) >= 0


@pytest.mark.parametrize("dim", [1, 2])
def test_operators_match_fraction_formulas(monkeypatch, dim):
    # the rational input's |f| on the cz_sparse family of every grid and on
    # the hand-made ones, with the int64 tables and with object ints forced
    f = abs(rational_input(dim))
    ms = range(4)
    for grid in GridId.all_grids(dim):
        for fam in (cz_sparse(f, grid), hand_family(f.mesh, grid)):
            assert not fam.is_empty
            got, dtypes, forced = both_paths(monkeypatch, lambda: operators(fam, f, ms))
            assert np.dtype(np.int64) in dtypes
            want = ref_operators(fam, f, ms)
            assert [g.values for g in got] == [g.values for g in forced] == want


@pytest.mark.parametrize("dim", [1, 2])
def test_operators_read_no_fraction_boxes(monkeypatch, dim):
    # the operators and the decomposition check read the |f| table and the
    # dyadic blocks alone: no cell range of a Fraction box, no atom sum and
    # no Fraction average
    csv = rational_input(dim)
    f = abs(csv)
    q0 = Cube(GridId.standard(dim), 0, (0,) * dim)
    res = oscillation_decompose(csv, q0)
    cases = [(cz_sparse(f, grid), m) for grid in GridId.all_grids(dim) for m in (0, 1, 2)]
    shifted = [(fam, split_families(fam, m), m) for fam, m in cases]
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Mesh, "axis_atoms", spy("axis_atoms", Mesh.axis_atoms))
    monkeypatch.setattr(StepFunction, "atom_sum", spy("atom_sum", StepFunction.atom_sum))
    monkeypatch.setattr(StepFunction, "integral", spy("integral", StepFunction.integral))
    monkeypatch.setattr(stepfn, "average", spy("average", stepfn.average))
    for fam, sh, m in shifted:
        assert not fam.is_empty
        sparse_operator(fam, f)
        shifted_operator(fam, m, f)
        for alpha in GridId.all_grids(dim):
            amalgam(sh, alpha, f)
            amalgam_adjoint(sh, alpha, f)
    assert not res.family.is_empty
    assert verify_decomposition(csv, res) >= 0
    assert calls == []
    # the spies are live: the Fraction route calls every one of them
    stepfn.average(f, q0.box)
    f.atom_sum(q0.box)
    assert {"average", "integral", "atom_sum", "axis_atoms"} <= set(calls)


def test_operator_rejects_cube_finer_than_mesh():
    f = StepFunction.constant(Mesh(1, 2), 1)
    fam = SparseFamily(GridId.standard(1), {0: [Cube(GridId.standard(1), 3, (0,))]})
    with pytest.raises(ValueError, match="finer than the mesh"):
        sparse_operator(fam, f)
    # f ≡ 1 and one cube at scale 4 on a level-3 mesh: every operator
    # raises, where the dilated and amalgam ones once returned 2 or 1/2
    f = StepFunction.constant(Mesh(1, 3), 1)
    q = Cube(GridId.standard(1), 4, (0,))
    fam = SparseFamily(q.grid, {0: [q]})
    sh = split_families(fam, 0)
    (grid, _), = sh.assignment.values()
    runs = [lambda: sparse_operator(fam, f), lambda: shifted_operator(fam, 0, f),
            lambda: shifted_operator(fam, 2, f), lambda: amalgam(sh, grid, f),
            lambda: amalgam_adjoint(sh, grid, f)]
    for run in runs:
        with pytest.raises(ValueError, match="finer than the mesh"):
            run()


# ---------------------------------------------------------------------------
# the family check on valid and corrupted families
# ---------------------------------------------------------------------------


def corruptions(fam: SparseFamily):
    """(kind, family) pairs, each breaking one invariant of ``fam``."""
    keys = fam.level_keys()
    k, last = keys[0], keys[-1]
    n = fam.grid.dim

    def edited(level, cubes):
        levels = dict(fam.levels)
        levels[level] = cubes
        return SparseFamily(fam.grid, levels)

    q = fam.levels[k][0]
    yield "overlap", edited(k, fam.levels[k] + [q.children()[-1]])
    yield "overlap", edited(k, fam.levels[k] + [q])
    # 16 coarsest sides away from the origin, at the finest scale
    finest = max(p.k for _, p in fam.pairs())
    coarsest = min(p.k for _, p in fam.pairs())
    far = Cube(fam.grid, finest, (16 << (finest - coarsest),) * n)
    yield "outside", edited(k + 1, fam.levels.get(k + 1, []) + [far])
    top = fam.levels[last][-1]
    kids = top.children()
    yield "half", edited(last + 1, kids[:len(kids) // 2 + 1])
    # exactly half stays valid
    yield None, edited(last + 1, kids[:len(kids) // 2])


EXPECTED = {"overlap": "cubes overlap", "outside": "not inside level",
            "half": "> |Q|/2"}


@pytest.mark.parametrize("dim", [1, 2])
def test_verify_matches_reference_on_families_and_corruptions(dim):
    f = rational_input(dim)
    q0 = Cube(GridId.standard(dim), 0, (0,) * dim)
    families = [cz_sparse(f, grid) for grid in GridId.all_grids(dim)]
    families.append(oscillation_decompose(f, q0).family)
    assert {fam.grid.is_standard for fam in families} == {True, False}
    for fam in families:
        assert outcome(verify_sparse_family, fam) is None
        assert outcome(ref_verify_sparse_family, fam) is None
        for kind, bad in corruptions(fam):
            got = outcome(verify_sparse_family, bad)
            assert got == outcome(ref_verify_sparse_family, bad)
            assert (got is None) if kind is None else EXPECTED[kind] in got


@pytest.mark.parametrize("dim", [1, 2])
def test_verify_rejects_cube_of_another_grid(dim):
    f = rational_input(dim)
    for grid in GridId.all_grids(dim):
        fam = cz_sparse(f, grid)
        other = next(g for g in GridId.all_grids(dim) if g != grid)
        k = fam.level_keys()[-1]
        q = fam.levels[k][0]
        levels = dict(fam.levels)
        levels[k] = [Cube(other, q.k, q.j)] + fam.levels[k][1:]
        with pytest.raises(AssertionError, match="in a family of grid"):
            verify_sparse_family(SparseFamily(grid, levels))


@pytest.mark.parametrize("grid", [GridId.standard(1), GridId.shifted(1),
                                  GridId.standard(2), GridId.shifted(2)],
                         ids=["1d-standard", "1d-shifted", "2d-standard",
                              "2d-shifted"])
def test_verify_hand_built_families(grid):
    # Q at scale 0 with nested levels; each corruption hits one message
    n = grid.dim
    q = Cube(grid, 0, (0,) * n)
    kid = q.children()[0]
    ok = SparseFamily(grid, {0: [q], 1: [kid], 2: kid.children()[:1]})
    assert outcome(verify_sparse_family, ok) is None
    cases = [
        (SparseFamily(grid, {0: [q, kid]}), "level 0: cubes overlap"),
        (SparseFamily(grid, {0: [q], 1: [Cube(grid, 1, (9,) * n)]}),
         "level 1 not inside level 0"),
        (SparseFamily(grid, {0: [q], 1: q.children()}),
         "level 0: |Omega_(k+1) ∩ Q| = 1 > |Q|/2 = 1/2"),
        (SparseFamily(grid, {0: [q], 1: [q]}),
         "level 0: |Omega_(k+1) ∩ Q| = 1 > |Q|/2 = 1/2"),
    ]
    for fam, message in cases:
        assert outcome(verify_sparse_family, fam) == message
        assert outcome(ref_verify_sparse_family, fam) == message
