"""Sparse families and the operators built from them.

A sparse family is a level-indexed collection of grid cubes where each
cube keeps at least half of its measure away from the next level.  This
module constructs them two ways (the Calderon-Zygmund stopping scheme on
a maximal function, and the local mean oscillation stopping scheme on a
cube) and implements the averaging operators over them: the plain sparse
operator, its dilated variant, and the amalgam pair obtained by covering
each dilate with a shifted-grid cube.

Sampling conventions (chosen so every claimed inequality is exact):

* ``sparse_operator`` averages geometrically, so it matches the exact
  pointwise domination of the grid maximal function coming out of the
  Calderon-Zygmund construction.
* ``shifted_operator`` and the amalgam pair sample f at cell centers in
  the numerator (denominators stay full geometric measures).  Cell-center
  sets of nested boxes are nested, which makes the adjoint identity, the
  L2 bound 8 and the 6^n majorization exact finite-sum identities.
* every operator output is sampled at cell centers — outputs of shifted
  cubes are not unions of mesh cells, their center sets are.

On families of mesh-aligned standard cubes the two sampling conventions
agree exactly.

A cube's cells are the n-D block ``Mesh.cells(q.box)``, one slice per
axis.  Every sum Σ c_Q χ_Q over a family -- the operators, the pointwise
gap of ``cz_pointwise_gap``, the right side of ``verify_decomposition``
and the majorant of ``czo.dominate`` -- goes through one accumulator,
``_accumulate``: the coefficients are brought to their lcm, each integer
numerator is added at the 2^n corners of its block in an n-D difference
array, and one cumulative sum per axis gives every cell's total.  That is
O(|S|·2^n + cells) instead of one Fraction addition per cell per cube,
and the output builds one Fraction per distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import math

import numpy as np

from .geometry import Cube, GridId, cover_cube, dilate, whitney_decompose
from .rational import pow2, rat, rat_str
from .stepfn import (
    Mesh,
    StepFunction,
    average,
    local_mean_oscillation,
    median,
    sharp_maximal,
    _aligned_cell_range,
    _corner,
    _corners,
    _grid_cube_sums,
    _shared_fractions,
    _top_scale,
)

__all__ = [
    "SparseFamily",
    "ShiftedFamily",
    "DecompositionResult",
    "GoodBadSplit",
    "cz_sparse",
    "cz_pointwise_gap",
    "oscillation_decompose",
    "verify_sparse_family",
    "verify_decomposition",
    "sparse_operator",
    "shifted_operator",
    "split_families",
    "amalgam",
    "amalgam_adjoint",
    "cz_good_bad_split",
    "scale_family_count",
    "weak_norm",
]


@dataclass
class SparseFamily:
    """Level-indexed cubes of one grid, half-sparse across levels."""

    grid: GridId
    levels: dict[int, list[Cube]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not any(self.levels.values())

    def level_keys(self) -> list[int]:
        return sorted(self.levels)

    def pairs(self):
        """(level, cube) with multiplicity, level-ordered."""
        for k in self.level_keys():
            for q in self.levels[k]:
                yield k, q

    def cube_count(self) -> int:
        return sum(len(v) for v in self.levels.values())

    def to_json(self) -> dict:
        return {
            "grid": self.grid.to_json(),
            "levels": {str(k): [q.to_json() for q in v]
                       for k, v in self.levels.items()},
        }

    @staticmethod
    def from_json(data) -> "SparseFamily":
        grid = GridId.from_json(data["grid"])
        levels = {int(k): [Cube.from_json(c) for c in v]
                  for k, v in data["levels"].items()}
        return SparseFamily(grid, levels)


def verify_sparse_family(fam: SparseFamily):
    """Exact checks of all sparse-family invariants; raises on violation."""
    keys = fam.level_keys()
    for k in keys:
        cubes = fam.levels[k]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                if cubes[i].box.intersect(cubes[j].box) is not None:
                    raise AssertionError(f"level {k}: cubes overlap")
    for k in keys:
        nxt = fam.levels.get(k + 1, [])
        if nxt and k + 1 not in keys:
            raise AssertionError("levels must be consecutive")
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


# ---------------------------------------------------------------------------
# Calderon-Zygmund construction on the grid maximal function
# ---------------------------------------------------------------------------

def _scale_averages(f: StepFunction, grid: GridId, k: int) -> dict[tuple, Fraction]:
    """Nonzero geometric averages of |f| over the grid cubes of scale k
    that meet the mesh, keyed by cube index in row-major order, from the
    integer cube sums of ``_grid_cube_sums``."""
    mesh = f.mesh
    sums, first, _ = _grid_cube_sums(f, grid, k)
    den = f._numerators()[1] * (3 << (mesh.level - k)) ** mesh.dim
    return {tuple(i + j for i, j in zip(idx, first)): Fraction(v, den)
            for idx, v in np.ndenumerate(sums) if v}


def _subtree_maxima(avg: dict[int, dict[tuple, Fraction]], grid: GridId,
                    top: int, level: int) -> dict[int, dict[tuple, Fraction]]:
    """Per cube, the largest average in its subtree down to ``level``, for
    pruned descent."""
    submax: dict[int, dict[tuple, Fraction]] = {level: dict(avg[level])}
    for k in range(level - 1, top - 1, -1):
        cur = dict(avg[k])
        below = submax[k + 1]
        for j, m in below.items():
            parent = Cube(grid, k + 1, j).parent().j
            if m > cur.get(parent, Fraction(0)):
                cur[parent] = m
        submax[k] = cur
    return submax


def cz_sparse(f: StepFunction, grid: GridId) -> SparseFamily:
    """Sparse family of maximal grid cubes over the thresholds 2^{(n+1)k}.

    Level k holds the maximal grid cubes whose |f|-average exceeds
    2^{(n+1)k}; their union is exactly {M^{grid} f > 2^{(n+1)k}}.  The
    threshold exponents run from just below the smallest nonzero cube
    average (so the lowest level covers all of {M^{grid} f > 0}) up to
    the level where the selection dies out.

    The scale range extends above the domain-sized top scale until every
    coarsest-scale average drops to the bottom threshold: then every
    selected cube has an in-range parent of average ≤ 2^{(n+1)k}, which
    is exactly what makes |Ω_{k+1} ∩ Q_j^k| ≤ |Q_j^k|/2 provable.
    """
    mesh = f.mesh
    if grid.dim != mesh.dim:
        raise ValueError("grid dimension mismatch")
    if all(v == 0 for v in f.values):
        return SparseFamily(grid, {})
    n = mesh.dim
    top = _top_scale(mesh)
    avg = {k: _scale_averages(f, grid, k) for k in range(top, mesh.level + 1)}
    m0 = min(v for level in avg.values() for v in level.values())
    vmax = max(v for level in avg.values() for v in level.values())

    # largest k with 2^{(n+1)k} < m0
    e = 0
    while pow2(e) < m0:
        e += 1
    while pow2(e) >= m0:
        e -= 1
    k_bot = e // (n + 1)
    if pow2((n + 1) * k_bot) >= m0:
        k_bot -= 1

    t_bot = pow2((n + 1) * k_bot)
    l1 = f.norm_l1()
    while l1 * pow2(top * n) > t_bot:
        top -= 1
        avg[top] = _scale_averages(f, grid, top)
    submax = _subtree_maxima(avg, grid, top, mesh.level)

    def select(threshold: Fraction) -> list[Cube]:
        out = []

        def descend(k, j):
            if avg[k].get(j, Fraction(0)) > threshold:
                out.append(Cube(grid, k, j))
                return
            if k == mesh.level:
                return
            for child in Cube(grid, k, j).children():
                if submax[k + 1].get(child.j, Fraction(0)) > threshold:
                    descend(k + 1, child.j)

        for j, m in submax[top].items():
            if m > threshold:
                descend(top, j)
        return out

    levels: dict[int, list[Cube]] = {}
    k = k_bot
    while True:
        t = pow2((n + 1) * k)
        if t >= vmax:
            break
        chosen = select(t)
        if not chosen:
            break
        levels[k] = chosen
        k += 1
    return SparseFamily(grid, levels)


def _accumulate(mesh: Mesh, terms) -> tuple[np.ndarray, int]:
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


def cz_pointwise_gap(f: StepFunction, fam: SparseFamily,
                     maximal: StepFunction) -> Fraction:
    """Exact min over cells of 2^{n+1}·Σ avg(|f|,Q)χ_{E}(x) − M^{grid}f(x).

    The sum is Σ_k A_k·[x ∉ Ω_{k+1}], with A_k level k's accumulated
    averages and Ω_{k+1} the union of level k+1's cubes; it is compared
    with M^{grid}f on integer numerators.  Nonnegative return value
    certifies the pointwise domination of the grid maximal function by
    the sparse averages."""
    mesh = f.mesh
    g = abs(f)
    rhs, den = np.zeros(mesh.shape, dtype=object), 1
    for k in fam.level_keys():
        acc, d = _accumulate(mesh, ((mesh.cells(q.box), average(g, q.box))
                                    for q in fam.levels[k]))
        outside = np.ones(mesh.shape, dtype=bool)
        for q in fam.levels.get(k + 1, []):
            outside[mesh.cells(q.box)] = False
        lcm = math.lcm(den, d)
        rhs = rhs * (lcm // den) + np.where(outside, acc * (lcm // d), 0)
        den = lcm
    m, m_den = maximal._numerators()
    gap = (rhs * (2 << mesh.dim) * m_den - m * den).min()
    return Fraction(gap, den * m_den)


# ---------------------------------------------------------------------------
# local mean oscillation decomposition
# ---------------------------------------------------------------------------

@dataclass
class DecompositionResult:
    base_median: Fraction
    family: SparseFamily
    coefficients: dict[Cube, Fraction]
    cube: Cube
    lam: Fraction

    def to_json(self) -> dict:
        data = self.family.to_json()
        data["median"] = rat_str(self.base_median)
        data["coefficients"] = [
            {"cube": q.to_json(), "omega": rat_str(w)}
            for q, w in self.coefficients.items()
        ]
        return data


def oscillation_decompose(f: StepFunction, q0: Cube) -> DecompositionResult:
    """Stopping-time decomposition controlling f − m_f(q0) on q0.

    At each active cube Q take the median m and oscillation ω at
    λ = 1/2^{n+2}; cells where |f − m| > 2ω form the exceptional set; the
    next generation is the maximal dyadic subcubes R ⊊ Q holding at least
    a 2^{-(n+1)} fraction of exceptional cells.  Each generation then
    loses half its measure (sparseness), medians jump by at most 2ω, and
    off the next generation |f − m| ≤ 2ω, which telescopes into the
    4-and-2 bound checked by ``verify_decomposition``.

    The selection is non-strict (≥): with a strict cutoff a cube holding
    exactly half its mass in the exceptional set would be skipped, and
    the maximal-median convention then lets the child median escape the
    2ω window at exact ties.
    """
    mesh = f.mesh
    n = mesh.dim
    lam = pow2(-(n + 2))
    if not q0.grid.is_standard:
        raise ValueError("decomposition cube must be a standard-grid cube")
    _aligned_cell_range(mesh, q0)
    sel_frac = pow2(-(n + 1))
    vals = f._cell_array()

    def exceptional_cells(cube: Cube) -> np.ndarray:
        m = median(f, cube.box)
        w = local_mean_oscillation(f, cube.box, lam)
        bad = np.zeros(mesh.shape, dtype=bool)
        cells = mesh.cells(cube.box)
        bad[cells] = abs(vals[cells] - m) > 2 * w
        return bad

    def select_children(cube: Cube, bad: np.ndarray) -> list[Cube]:
        chosen = []

        def descend(c: Cube):
            cnt = int(bad[mesh.cells(c.box)].sum())
            if cnt == 0:
                return
            total = int(c.side / mesh.h) ** mesh.dim
            if cnt >= sel_frac * total:
                chosen.append(c)
                return
            if c.side > mesh.h:
                for child in c.children():
                    descend(child)

        if cube.side > mesh.h:
            for child in cube.children():
                descend(child)
        return chosen

    levels: dict[int, list[Cube]] = {}
    coeffs: dict[Cube, Fraction] = {}
    active = [q0]
    gen = 1
    while active:
        next_active = []
        for q in active:
            bad = exceptional_cells(q)
            next_active.extend(select_children(q, bad))
        if not next_active:
            break
        levels[gen] = next_active
        for q in next_active:
            coeffs[q] = local_mean_oscillation(f, q.box, lam)
        active = next_active
        gen += 1
    return DecompositionResult(
        base_median=median(f, q0.box),
        family=SparseFamily(q0.grid, levels),
        coefficients=coeffs,
        cube=q0,
        lam=lam,
    )


def verify_decomposition(f: StepFunction, res: DecompositionResult) -> Fraction:
    """Exact min over cells of RHS − LHS for the 4-and-2 oscillation bound

        |f − m_f(q0)| ≤ 4 M^{#,d}_{λ;q0} f + 2 Σ ω(f;Q) χ_Q    on q0.

    Nonnegative means the bound holds on every cell."""
    mesh = f.mesh
    sharp = sharp_maximal(f, res.cube, res.lam)._cell_array()
    rhs_sum, den = _accumulate(mesh, ((mesh.cells(q.box), res.coefficients[q])
                                      for _, q in res.family.pairs()))
    cells = mesh.cells(res.cube.box)
    rhs = 4 * sharp[cells] + rhs_sum[cells] * Fraction(2, den)
    return (rhs - abs(f._cell_array()[cells] - res.base_median)).min()


# ---------------------------------------------------------------------------
# operators over sparse families
# ---------------------------------------------------------------------------

def _require_nonneg(f: StepFunction):
    if any(v < 0 for v in f.values):
        raise ValueError("operator input must be nonnegative")


def _operator(mesh: Mesh, terms) -> StepFunction:
    """Σ value·χ_cells over the (cells, value) terms, as a step function."""
    nums, den = _accumulate(mesh, terms)
    return StepFunction(mesh, _shared_fractions([(v, den) for v in nums.flat]))


def sparse_operator(fam: SparseFamily, f: StepFunction) -> StepFunction:
    """A_{D,S} f = Σ avg(f, Q) χ_Q with exact geometric averages."""
    _require_nonneg(f)
    mesh = f.mesh
    return _operator(mesh, ((mesh.cells(q.box), average(f, q.box))
                            for _, q in fam.pairs()))


def shifted_operator(fam: SparseFamily, m: int, f: StepFunction) -> StepFunction:
    """T_{S,m} f = Σ avg(f, 2^m Q) χ_Q, cell-center sampled numerators."""
    _require_nonneg(f)
    if m < 0:
        raise ValueError("dilation exponent must be >= 0")
    mesh = f.mesh
    terms = []
    for _, q in fam.pairs():
        big = dilate(q, m)
        terms.append((mesh.cells(q.box), f.atom_sum(big) / big.measure))
    return _operator(mesh, terms)


@dataclass
class ShiftedFamily:
    """A sparse family plus, for each cube, the shifted-grid cube covering
    its 2^m dilate within the 6·2^m sidelength guarantee."""

    base: SparseFamily
    m: int
    assignment: dict[Cube, tuple[GridId, Cube]]

    def family_of(self, alpha: GridId):
        """(level, base cube, cover cube) members assigned to grid alpha."""
        for k, q in self.base.pairs():
            grid, cover = self.assignment[q]
            if grid == alpha:
                yield k, q, cover


def split_families(fam: SparseFamily, m: int) -> ShiftedFamily:
    if m < 0:
        raise ValueError("dilation exponent must be >= 0")
    assignment: dict[Cube, tuple[GridId, Cube]] = {}
    for _, q in fam.pairs():
        if q in assignment:
            continue
        big = dilate(q, m)
        grid, cover = cover_cube(big)
        if not cover.box.contains_box(big):
            raise AssertionError("cover cube fails containment")
        if cover.side > 6 * pow2(m) * q.side:
            raise AssertionError("cover cube too large")
        assignment[q] = (grid, cover)
    return ShiftedFamily(fam, m, assignment)


def amalgam(sh: ShiftedFamily, alpha: GridId, f: StepFunction) -> StepFunction:
    """A_{m,α} f = Σ_{F_α} (cell-center ∫_{Q_α} f / |Q_α|) χ_Q."""
    _require_nonneg(f)
    mesh = f.mesh
    return _operator(mesh, ((mesh.cells(q.box), f.atom_sum(cover.box) / cover.measure)
                            for _, q, cover in sh.family_of(alpha)))


def amalgam_adjoint(sh: ShiftedFamily, alpha: GridId, f: StepFunction) -> StepFunction:
    """A*_{m,α} f = Σ_{F_α} (cell-center ∫_Q f / |Q_α|) χ_{Q_α}."""
    _require_nonneg(f)
    mesh = f.mesh
    return _operator(mesh, ((mesh.cells(cover.box), f.atom_sum(q.box) / cover.measure)
                            for _, q, cover in sh.family_of(alpha)))


# ---------------------------------------------------------------------------
# good/bad splitting and scale counting
# ---------------------------------------------------------------------------

@dataclass
class GoodBadSplit:
    good: StepFunction
    bad_parts: list[tuple[Cube, StepFunction]]
    constant: Fraction  # recorded: max avg(f, Q_l)/beta over Whitney cubes
    omega_measure: Fraction


def cz_good_bad_split(f: StepFunction, beta) -> GoodBadSplit:
    from .stepfn import hl_maximal

    _require_nonneg(f)
    beta = rat(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    mesh = f.mesh
    mask = hl_maximal(f)._cell_array() > beta
    if not mask.any():
        return GoodBadSplit(f, [], Fraction(0), Fraction(0))
    cubes = whitney_decompose(mask, mesh.domain, mesh.level)
    vals = f._cell_array()
    good = vals.copy()
    parts = []
    constant = Fraction(0)
    for q in cubes:
        avg = average(f, q.box)
        constant = max(constant, avg / beta)
        cells = mesh.cells(q.box)
        bad = np.full(mesh.shape, Fraction(0), dtype=object)
        bad[cells] = vals[cells] - avg
        good[cells] = avg
        parts.append((q, StepFunction(mesh, bad.flat)))
    omega = mesh.h**mesh.dim * int(mask.sum())
    return GoodBadSplit(StepFunction(mesh, good.flat), parts, constant, omega)


def scale_family_count(sh: ShiftedFamily, q_l: Cube) -> int:
    """Distinct sidelengths among base cubes inside q_l at comparable
    scale (ℓ_{q_l} ≤ 18·2^m·ℓ_Q); always at most m+5."""
    side_lim = q_l.side / (18 * pow2(sh.m))
    distinct = {q for _, q in sh.base.pairs()
                if q_l.box.contains_box(q.box) and q.side >= side_lim}
    scales = {q.side for q in distinct}
    count = len(scales)
    if count > sh.m + 5:
        raise AssertionError("scale count exceeded m+5")
    return count


def weak_norm(g: StepFunction) -> Fraction:
    """sup_{β>0} β |{|g| > β}| computed exactly over the attained levels."""
    vals = sorted({abs(v) for v in g.values if v != 0})
    if not vals:
        return Fraction(0)
    cell = g.mesh.h**g.mesh.dim
    best = Fraction(0)
    for v in vals:
        meas = cell * sum(1 for x in g.values if abs(x) >= v)
        best = max(best, v * meas)
    return best
