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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import Box, Cube, GridId, cover_cube, dilate, whitney_decompose
from .rational import pow2, rat, rat_str
from .stepfn import (
    Mesh,
    StepFunction,
    average,
    local_mean_oscillation,
    median,
    sharp_maximal,
    _aligned_cell_range,
    _grid_cube_sums,
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
    den = f._abs_numerators()[1] * (3 << (mesh.level - k)) ** mesh.dim
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
    if all(v == 0 for v in f.values):
        return SparseFamily(grid, {})
    mesh = f.mesh
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


def cz_pointwise_gap(f: StepFunction, fam: SparseFamily,
                     maximal: StepFunction) -> Fraction:
    """Exact min over cells of 2^{n+1}·Σ avg(|f|,Q)χ_{E}(x) − M^{grid}f(x).

    Nonnegative return value certifies the pointwise domination of the
    grid maximal function by the sparse averages."""
    mesh = f.mesh
    n = mesh.dim
    g = abs(f)
    keys = fam.level_keys()
    rhs = [Fraction(0)] * mesh.size
    cover: dict[int, set[int]] = {}
    for k in keys:
        cells = set()
        for q in fam.levels[k]:
            cells.update(_atoms_in_box(mesh, q.box))
        cover[k] = cells
    for k in keys:
        nxt = cover.get(k + 1, set())
        for q in fam.levels[k]:
            val = average(g, q.box)
            for flat in _atoms_in_box(mesh, q.box):
                if flat not in nxt:
                    rhs[flat] += val
    gap = None
    for flat in range(mesh.size):
        d = pow2(n + 1) * rhs[flat] - maximal.values[flat]
        if gap is None or d < gap:
            gap = d
    return gap


def _atoms_in_box(mesh: Mesh, box: Box):
    if mesh.dim == 1:
        i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
        return range(i0, i1)
    i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
    j0, j1 = mesh.axis_atoms(1, box.lo[1], box.hi[1])
    return [i * mesh.cells_axis + j for i in range(i0, i1) for j in range(j0, j1)]


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

    def cell_span(cube: Cube):
        start = tuple(int((cube.corner[d] - mesh.domain.lo[d]) / mesh.h)
                      for d in range(mesh.dim))
        span = int(cube.side / mesh.h)
        return start, span

    def exceptional_cells(cube: Cube) -> set[tuple[int, ...]]:
        m = median(f, cube.box)
        w = local_mean_oscillation(f, cube.box, lam)
        bad = set()
        start, span = cell_span(cube)
        if mesh.dim == 1:
            for i in range(start[0], start[0] + span):
                if abs(f.values[i] - m) > 2 * w:
                    bad.add((i,))
        else:
            for i in range(start[0], start[0] + span):
                for j in range(start[1], start[1] + span):
                    if abs(f.values[mesh.flat((i, j))] - m) > 2 * w:
                        bad.add((i, j))
        return bad

    def select_children(cube: Cube, bad: set) -> list[Cube]:
        chosen = []

        def count_in(c: Cube) -> int:
            start, span = cell_span(c)
            if mesh.dim == 1:
                return sum(1 for i in range(start[0], start[0] + span)
                           if (i,) in bad)
            return sum(1 for i in range(start[0], start[0] + span)
                       for j in range(start[1], start[1] + span)
                       if (i, j) in bad)

        def descend(c: Cube):
            cnt = count_in(c)
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
    sharp = sharp_maximal(f, res.cube, res.lam)
    rhs_sum = [Fraction(0)] * mesh.size
    for k in res.family.level_keys():
        for q in res.family.levels[k]:
            w = res.coefficients[q]
            for flat in _atoms_in_box(mesh, q.box):
                rhs_sum[flat] += w
    gap = None
    for flat in _atoms_in_box(mesh, res.cube.box):
        lhs = abs(f.values[flat] - res.base_median)
        rhs = 4 * sharp.values[flat] + 2 * rhs_sum[flat]
        d = rhs - lhs
        if gap is None or d < gap:
            gap = d
    return gap


# ---------------------------------------------------------------------------
# operators over sparse families
# ---------------------------------------------------------------------------

def _require_nonneg(f: StepFunction):
    if any(v < 0 for v in f.values):
        raise ValueError("operator input must be nonnegative")


def sparse_operator(fam: SparseFamily, f: StepFunction) -> StepFunction:
    """A_{D,S} f = Σ avg(f, Q) χ_Q with exact geometric averages."""
    _require_nonneg(f)
    mesh = f.mesh
    out = [Fraction(0)] * mesh.size
    for _, q in fam.pairs():
        val = average(f, q.box)
        for flat in _atoms_in_box(mesh, q.box):
            out[flat] += val
    return StepFunction(mesh, out)


def shifted_operator(fam: SparseFamily, m: int, f: StepFunction) -> StepFunction:
    """T_{S,m} f = Σ avg(f, 2^m Q) χ_Q, cell-center sampled numerators."""
    _require_nonneg(f)
    if m < 0:
        raise ValueError("dilation exponent must be >= 0")
    mesh = f.mesh
    out = [Fraction(0)] * mesh.size
    for _, q in fam.pairs():
        big = dilate(q, m)
        val = f.atom_sum(big) / big.measure
        for flat in _atoms_in_box(mesh, q.box):
            out[flat] += val
    return StepFunction(mesh, out)


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
    out = [Fraction(0)] * mesh.size
    for _, q, cover in sh.family_of(alpha):
        val = f.atom_sum(cover.box) / cover.measure
        for flat in _atoms_in_box(mesh, q.box):
            out[flat] += val
    return StepFunction(mesh, out)


def amalgam_adjoint(sh: ShiftedFamily, alpha: GridId, f: StepFunction) -> StepFunction:
    """A*_{m,α} f = Σ_{F_α} (cell-center ∫_Q f / |Q_α|) χ_{Q_α}."""
    _require_nonneg(f)
    mesh = f.mesh
    out = [Fraction(0)] * mesh.size
    for _, q, cover in sh.family_of(alpha):
        val = f.atom_sum(q.box) / cover.measure
        for flat in _atoms_in_box(mesh, cover.box):
            out[flat] += val
    return StepFunction(mesh, out)


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
    mf = hl_maximal(f)
    mask = np.array([v > beta for v in mf.values], dtype=bool).reshape(mesh.shape)
    if not mask.any():
        return GoodBadSplit(f, [], Fraction(0), Fraction(0))
    cubes = whitney_decompose(mask, mesh.domain, mesh.level)
    good_vals = list(f.values)
    parts = []
    constant = Fraction(0)
    for q in cubes:
        avg = average(f, q.box)
        constant = max(constant, avg / beta)
        bad_vals = [Fraction(0)] * mesh.size
        for flat in _atoms_in_box(mesh, q.box):
            bad_vals[flat] = f.values[flat] - avg
            good_vals[flat] = avg
        parts.append((q, StepFunction(mesh, bad_vals)))
    omega = mesh.h**mesh.dim * int(mask.sum())
    return GoodBadSplit(StepFunction(mesh, good_vals), parts, constant, omega)


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
