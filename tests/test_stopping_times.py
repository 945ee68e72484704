"""The stopping-time kernels against reference copies of their earlier
Fraction implementations.

``median``, ``local_mean_oscillation``, ``sharp_maximal``,
``oscillation_decompose`` and ``verify_decomposition`` must return exactly
what the value-by-value Fraction code below returns: a per-box map from
value to measure, a two-pointer window over it, a 2^n-ary merge tree of
sorted (value, count) runs, and a cube-by-cube descent through
``Cube.children()``.  The inputs stress what those kernels decide:
rationals with unrelated denominators, exact half/half ties (the upper
median and the non-strict selection), sparse spikes (sibling subcubes
selected side by side, so the order of the descent shows), 1-D and 2-D,
and q0 at scales -1, 0 and 1 away from the origin.
"""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sparsedom import stepfn
from sparsedom.geometry import Box, Cube, GridId
from sparsedom.rational import pow2
from sparsedom.sparse import oscillation_decompose, verify_decomposition
from sparsedom.stepfn import (
    Mesh,
    StepFunction,
    local_mean_oscillation,
    median,
    sharp_maximal,
)

from meshtools import cell_masses

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def ref_median(f, q):
    half = q.measure / 2
    items = sorted(cell_masses(f, q).items())
    below, above, best = Fraction(0), sum(m for _, m in items), None
    for v, m in items:
        above -= m
        if below <= half and above <= half:
            best = v
        below += m
    return best


def ref_window_half_length(items, target):
    best, mass, j = None, Fraction(0), 0
    for i in range(len(items)):
        if j < i:
            j, mass = i, Fraction(0)
        while mass < target and j < len(items):
            mass += items[j][1]
            j += 1
        if mass < target:
            break
        width = items[j - 1][0] - items[i][0]
        if best is None or width < best:
            best = width
        mass -= items[i][1]
    return best / 2


def ref_oscillation(f, q, lam):
    items = sorted(cell_masses(f, q).items())
    return ref_window_half_length(items, (1 - lam) * q.measure)


def ref_cells(mesh, q0):
    starts = [int((c - a) / mesh.h) for c, a in zip(q0.corner, mesh.domain.lo)]
    return starts, int(q0.side / mesh.h)


def ref_sharp(f, q0, lam):
    """The 2^n-ary merge tree of sorted (value, cell count) runs."""
    mesh = f.mesh
    starts, span = ref_cells(mesh, q0)
    block = tuple(slice(s, s + span) for s in starts)
    vals = np.array(f.values, dtype=object).reshape(mesh.shape)[block]
    omega = {}

    def merge_runs(a, b):
        out, i, j = [], 0, 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i][0] <= b[j][0]):
                v, c = a[i]
                i += 1
            else:
                v, c = b[j]
                j += 1
            if out and out[-1][0] == v:
                out[-1] = (v, out[-1][1] + c)
            else:
                out.append((v, c))
        return out

    def build(corner, size):
        if size == 1:
            return [(vals[corner], 1)]
        half = size // 2
        run = functools.reduce(merge_runs, [
            build(tuple(c + d for c, d in zip(corner, step)), half)
            for step in itertools.product((0, half), repeat=mesh.dim)])
        omega.setdefault(size, np.empty((span // size,) * mesh.dim, dtype=object))
        omega[size][tuple(c // size for c in corner)] = ref_window_half_length(
            [(v, Fraction(c)) for v, c in run], (1 - lam) * size**mesh.dim)
        return run

    build((0,) * mesh.dim, span)
    running = np.full((1,) * mesh.dim, Fraction(0), dtype=object)
    while span > 1:
        running = np.maximum(running, omega[span])
        span //= 2
        for axis in range(mesh.dim):
            running = np.repeat(running, 2, axis)
    out = np.full(mesh.shape, Fraction(0), dtype=object)
    out[block] = running
    return list(out.flat)


def ref_decompose(f, q0):
    """(median, [(generation, cube)], {cube: ω}) by cube-by-cube descent."""
    mesh = f.mesh
    n = mesh.dim
    lam = pow2(-(n + 2))
    vals = np.array(f.values, dtype=object).reshape(mesh.shape)

    def select(cube):
        m, w = ref_median(f, cube.box), ref_oscillation(f, cube.box, lam)
        bad = np.zeros(mesh.shape, dtype=bool)
        cells = mesh.cells(cube.box)
        bad[cells] = abs(vals[cells] - m) > 2 * w
        chosen = []

        def descend(c):
            cnt = int(bad[mesh.cells(c.box)].sum())
            if cnt == 0:
                return
            if cnt >= pow2(-(n + 1)) * int(c.side / mesh.h) ** n:
                chosen.append(c)
            elif c.side > mesh.h:
                for child in c.children():
                    descend(child)

        if cube.side > mesh.h:
            for child in cube.children():
                descend(child)
        return chosen

    pairs, coeffs, active, gen = [], {}, [q0], 1
    while active:
        nxt = [c for q in active for c in select(q)]
        pairs += [(gen, q) for q in nxt]
        for q in nxt:
            coeffs[q] = ref_oscillation(f, q.box, lam)
        active, gen = nxt, gen + 1
    return ref_median(f, q0.box), pairs, coeffs


def ref_gap(f, q0, pairs, coeffs, m):
    mesh = f.mesh
    sharp = np.array(ref_sharp(f, q0, pow2(-(mesh.dim + 2))),
                     dtype=object).reshape(mesh.shape)
    vals = np.array(f.values, dtype=object).reshape(mesh.shape)
    cells = mesh.cells(q0.box)
    rhs = 4 * sharp
    for _, q in pairs:
        rhs[mesh.cells(q.box)] += 2 * coeffs[q]
    return (rhs[cells] - abs(vals[cells] - m)).min()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

STD1, STD2 = GridId.standard(1), GridId.standard(2)


def rational_function(mesh, seed):
    rng = random.Random(seed)
    return StepFunction(mesh, [
        Fraction(rng.randint(-200, 200), rng.choice([3, 7, 96, 97]))
        if rng.random() < 0.8 else Fraction(0) for _ in range(mesh.size)])


def tie_function(mesh, seed):
    """Two values, so exact half/half splits of a block are common."""
    rng = random.Random(seed)
    a, b = Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 7)
    return StepFunction(mesh, [rng.choice((a, b)) for _ in range(mesh.size)])


def spike_function(mesh, seed):
    """A constant with sparse spikes: the spikes are the exceptional set,
    and sibling subcubes are selected side by side."""
    rng = random.Random(seed)
    return StepFunction(mesh, [
        Fraction(rng.randint(50, 99), rng.choice([3, 7, 97]))
        if rng.random() < 0.05 else Fraction(1, 96) for _ in range(mesh.size)])


def half_function(mesh, q0, seed):
    """Each half of every dyadic block of q0 (along axis 0) holds one of two
    values, chosen per block: medians and selections land on exact ties."""
    rng = random.Random(seed)
    vals = np.zeros(mesh.shape, dtype=object)
    vals[...] = Fraction(0)
    starts, span = ref_cells(mesh, q0)
    size = span
    while size > 1:
        for corner in itertools.product(*(range(s, s + span, size) for s in starts)):
            if rng.random() < 0.4:
                lo, hi = rng.sample([Fraction(1), Fraction(-2, 3), Fraction(5, 97)], 2)
                block = tuple(slice(c, c + size) for c in corner)
                lower = (slice(corner[0], corner[0] + size // 2),) + block[1:]
                vals[block] = hi
                vals[lower] = lo
        size //= 2
    return StepFunction(mesh, vals.flat)


# (mesh, q0): 1-D and 2-D, q0 at scales -1, 0 and 1, at the origin and
# offset from it (j != 0)
CONFIGS = [
    (Mesh(1, 5), Cube(STD1, 0, (0,))),
    (Mesh(1, 4), Cube(STD1, -1, (0,))),
    (Mesh(1, 5), Cube(STD1, 0, (-1,))),
    (Mesh(1, 5), Cube(STD1, 1, (3,))),
    (Mesh(1, 4), Cube(STD1, 0, (1,))),
    (Mesh(2, 3), Cube(STD2, 0, (0, 0))),
    (Mesh(2, 2), Cube(STD2, -1, (0, 0))),
    (Mesh(2, 3), Cube(STD2, 1, (-2, 3))),
    (Mesh(2, 3), Cube(STD2, 0, (1, 1))),
    (Mesh(2, 4), Cube(STD2, 0, (0, 0))),
]
IDS = ["1d", "1d-k-1", "1d-j-1", "1d-k1-j3", "1d-offset",
       "2d", "2d-k-1", "2d-k1", "2d-offset", "2d-level4"]
KINDS = ["rational", "ties", "halves", "spikes"]


def make(kind, mesh, q0, seed):
    if kind == "rational":
        return rational_function(mesh, seed)
    if kind == "ties":
        return tie_function(mesh, seed)
    if kind == "spikes":
        return spike_function(mesh, seed)
    return half_function(mesh, q0, seed)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mesh,q0", CONFIGS, ids=IDS)
def test_decomposition_matches_reference(mesh, q0, kind):
    for seed in range(4):
        f = make(kind, mesh, q0, seed)
        m, pairs, coeffs = ref_decompose(f, q0)
        res = oscillation_decompose(f, q0)
        assert res.base_median == m == median(f, q0.box)
        assert list(res.family.pairs()) == pairs
        assert list(res.coefficients.items()) == list(coeffs.items())
        assert verify_decomposition(f, res) == ref_gap(f, q0, pairs, coeffs, m)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mesh,q0", CONFIGS, ids=IDS)
def test_sharp_maximal_matches_reference(mesh, q0, kind):
    lams = [pow2(-(mesh.dim + 2)), Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)]
    for seed, lam in enumerate(lams):
        f = make(kind, mesh, q0, seed)
        assert sharp_maximal(f, q0, lam).values == ref_sharp(f, q0, lam)


@pytest.mark.parametrize("mesh,q0", CONFIGS[:1] + CONFIGS[5:6], ids=["1d", "2d"])
def test_dyadic_blocks_are_read_once_per_cube_and_lambda(monkeypatch, mesh, q0):
    # one sort per side for the decomposition, its check and the sharp
    # maximal function at the decomposition's λ; another λ, another f and
    # another q0 read again; the kept arrays are read-only
    sides, sort = [], stepfn._blocks

    def spy(a, side):
        sides.append(side)
        return sort(a, side)

    monkeypatch.setattr(stepfn, "_blocks", spy)
    f = make("rational", mesh, q0, 0)
    lam = pow2(-(mesh.dim + 2))
    once = [1 << i for i in range(mesh.level - q0.k + 1)]
    res = oscillation_decompose(f, q0)
    verify_decomposition(f, res)
    sharp_maximal(f, q0, lam)
    assert sides == once
    sharp_maximal(f, q0, Fraction(1, 3))
    sharp_maximal(make("rational", mesh, q0, 0), q0, lam)
    assert sides == once * 3
    child = q0.children()[0]
    sharp_maximal(f, child, lam)
    assert sides == once * 3 + once[:-1]
    _, nums, _, stats = stepfn._dyadic_blocks(f, q0, lam)
    assert sides == once * 3 + once[:-1]
    for a in (nums, *(x for pair in stats.values() for x in pair)):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def random_box(rng, mesh):
    """A box with rational corners, partly outside the domain at times."""
    lo = []
    for a, b in zip(mesh.domain.lo, mesh.domain.hi):
        lo.append(a + Fraction(rng.randint(-8, 8 * int(b - a)), rng.choice([4, 7, 8, 12])))
    side = Fraction(rng.randint(1, 24), rng.choice([4, 5, 8, 16]))
    return Box(tuple(lo), tuple(x + side for x in lo))


@pytest.mark.parametrize("mesh,q0", CONFIGS, ids=IDS)
def test_box_median_and_oscillation_match_reference(mesh, q0):
    rng = random.Random(mesh.size)
    for seed in range(6):
        f = make(KINDS[seed % len(KINDS)], mesh, q0, seed)
        for box in [q0.box] + [random_box(rng, mesh) for _ in range(4)]:
            assert median(f, box) == ref_median(f, box)
            for lam in (Fraction(1, 8), Fraction(1, 3), Fraction(15, 16)):
                assert local_mean_oscillation(f, box, lam) == \
                    ref_oscillation(f, box, lam)
