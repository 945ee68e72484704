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
axis.  Every sum Σ c_Q χ_Q over a family -- the operators, the right side
of ``verify_decomposition`` and the majorant of ``czo.dominate`` -- goes
through one accumulator, ``_accumulate``: it takes integer numerators
over the caller's denominator, adds each at the 2^n corners of its block
in an n-D difference array, and one cumulative sum per axis gives every
cell's total.  That is O(|S|·2^n + cells) instead of one Fraction
addition per cell per cube, and the operators return those totals over
the caller's denominator as the output's integer form
(``StepFunction._from_ints``).  ``cz_pointwise_gap`` paints instead: its
sets E_Q = Q \\ Ω_{k+1} are disjoint in a verified family, so a cell's
sum is one term, the average of the deepest cube holding it.

``sparse_operator`` and ``cz_pointwise_gap`` build no Fraction per cube.
A grid cube at scale k <= level is a window [a, b) per axis on the h/3
lattice of ``stepfn``, from its integer (k, j); its |f| sum S is read off
the cell-corner prefix table of |f|, in int64 or object ints by the dtype
rule of ``stepfn``, by ``stepfn._window_sums``, the reader for a list of
cubes (``cz_sparse`` reads the grid sums f keeps for ``dyadic_maximal``),
and its cells are (a+1)//3 up to (b+1)//3 per axis.  Its average is
S·2^(n(k-k_min)) over the one denominator D·(3·2^(level-k_min))^n, with
k_min the coarsest scale in the family.  Coefficients that are Fractions
(the other operators, the decomposition, ``czo.dominate``) are brought to
their lcm by ``_over_lcm`` first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import Cube, GridId, cover_cube, dilate, _first_child, _parent_index
from .rational import pow2, rat_str
from .stepfn import (
    Mesh,
    StepFunction,
    sharp_maximal,
    _blocks,
    _corner,
    _corners,
    _cube_windows,
    _dyadic_blocks,
    _fits_int64,
    _grid_scale_sums,
    _LATTICE_DEPTH,
    _TOP_SCALE,
    _window_cells,
    _window_sums,
)

__all__ = [
    "SparseFamily",
    "ShiftedFamily",
    "DecompositionResult",
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


def _parent_key(shifted: tuple[bool, ...], k: int, j: tuple[int, ...]):
    """The (scale, index) key of the parent of grid cube (k, j)."""
    return k - 1, tuple(_parent_index(k, x, sh) for x, sh in zip(j, shifted))


def _container(keys: dict, shifted, k_min: int, k: int, j) -> int | None:
    """Position in ``keys`` of the cube (k, j) itself or of its nearest
    ancestor at a scale >= k_min, or None."""
    key = (k, j)
    while key[0] >= k_min:
        if key in keys:
            return keys[key]
        key = _parent_key(shifted, *key)
    return None


def verify_sparse_family(fam: SparseFamily):
    """Exact checks of all sparse-family invariants; raises on violation.

    Works on integer keys (scale, index).  Two cubes of one grid meet
    exactly when one is an ancestor of the other (or they are equal),
    which ``tests/test_sparse_families.py::test_grid_cubes_meet_iff_nested``
    pins against ``Box.intersect`` on every grid.  So a level overlaps itself
    when a cube has an ancestor in its own level, a level-(k+1) cube lies
    inside level k when it has an ancestor there, and its measure
    2^{n(K-k)}, in units of the finest scale K, goes to that ancestor's
    |Ω_{k+1} ∩ Q|: O(|S|·depth) time and memory linear in |S|.  Every
    cube must belong to ``fam.grid``."""
    keys = fam.level_keys()
    if keys and keys != list(range(keys[0], keys[-1] + 1)):
        raise AssertionError(f"levels must be consecutive, got {keys}")
    for k in keys:
        for q in fam.levels[k]:
            if q.grid != fam.grid:
                raise AssertionError(
                    f"level {k}: cube of grid {q.grid.to_json()} in a family "
                    f"of grid {fam.grid.to_json()}")
    shifted = tuple(a != 0 for a in fam.grid.alpha)
    index, k_min = {}, {}
    for k in keys:
        cubes = fam.levels[k]
        index[k] = {(q.k, q.j): i for i, q in enumerate(cubes)}
        k_min[k] = min((q.k for q in cubes), default=0)
        if len(index[k]) < len(cubes) or any(
                _container(index[k], shifted, k_min[k], *_parent_key(shifted, q.k, q.j))
                is not None for q in cubes):
            raise AssertionError(f"level {k}: cubes overlap")
    finest = max((q.k for _, q in fam.pairs()), default=0)
    n = fam.grid.dim
    for k in keys:
        inner = [0] * len(fam.levels[k])
        for small in fam.levels.get(k + 1, []):
            i = _container(index[k], shifted, k_min[k], small.k, small.j)
            if i is None:
                raise AssertionError(f"level {k + 1} not inside level {k}")
            inner[i] += 1 << n * (finest - small.k)
        for big, m in zip(fam.levels[k], inner):
            if 2 * m > 1 << n * (finest - big.k):
                raise AssertionError(
                    f"level {k}: |Omega_(k+1) ∩ Q| = {m * pow2(-n * finest)} "
                    f"> |Q|/2 = {big.measure / 2}")


# ---------------------------------------------------------------------------
# Calderon-Zygmund construction on the grid maximal function
# ---------------------------------------------------------------------------

def _subtree_maxima(avg: dict, first: dict, grid: GridId, top: int,
                    level: int) -> dict:
    """Per cube, the largest average in its subtree down to ``level``, for
    pruned descent: each scale's array is a per-axis max-pool of the next
    finer one, whose parents run through the coarser scale's cubes in
    order."""
    submax = {level: avg[level]}
    for k in range(level, top, -1):
        pooled = submax[k]
        for axis, (j0, a) in enumerate(zip(first[k], grid.alpha)):
            parent = _parent_index(k, j0 + np.arange(pooled.shape[axis]), a != 0)
            starts = np.flatnonzero(np.diff(parent, prepend=parent[0] - 1))
            pooled = np.maximum.reduceat(pooled, starts, axis=axis)
        submax[k - 1] = np.maximum(avg[k - 1], pooled)
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
    is exactly what makes |Ω_{k+1} ∩ Q_j^k| ≤ |Q_j^k|/2 provable.  An input
    that needs a scale k < level − 61, roughly one whose ‖f‖₁ exceeds its
    smallest nonzero cube average by 2^(n(61 − level)), raises ValueError:
    the int64 lattice corners of ``_grid_scale_sums`` need 3·2^(level−k) < 2^63.

    Averages are the integer cube sums ``dyadic_maximal`` reads, once per
    f and grid (``StepFunction._abs_grid_sums``), on its denominator; each
    threshold becomes one integer, and Cubes are built only for the
    selected cubes.  The largest factor on a table entry is, as there,
    (3·2^(level-top))^n; each climb step that lowers top reads its scale
    alone in the dtype chosen again, and earlier sums follow that dtype.
    """
    mesh = f.mesh
    if grid.dim != mesh.dim:
        raise ValueError("grid dimension mismatch")
    nums, den = f._numerators()
    if not nums.any():
        return SparseFamily(grid, {})
    n, level = mesh.dim, mesh.level
    top = _TOP_SCALE
    table, scales = f._abs_grid_sums(grid, (3 << (level - top)) ** n)
    cubes = dict(scales)

    def scaled(k: int) -> np.ndarray:
        """Scale k's averages as integers over D·(3·2^(level-top))^n."""
        return cubes[k][0].astype(table.dtype, copy=False) * (1 << n * (k - top))

    def threshold(k: int) -> int:
        """avg > 2^{(n+1)k} exactly when scaled > threshold(k)."""
        e = (n + 1) * k + n * (level - top)
        return den * 3**n << e if e >= 0 else den * 3**n >> -e

    # largest k with 2^{(n+1)k} below the smallest nonzero average
    m0 = int(min(a[a != 0].min() for a in map(scaled, cubes) if a.any()))
    k_bot = 0
    while m0 > threshold(k_bot + 1):
        k_bot += 1
    while not m0 > threshold(k_bot):
        k_bot -= 1

    # ‖f‖₁·2^(n·top) > 2^{(n+1)k_bot}, with ‖f‖₁ = Σ|nums| / (D·2^(n·level))
    l1 = abs(nums).sum()
    while 3**n * l1 > threshold(k_bot):
        top -= 1
        if level - top > _LATTICE_DEPTH:
            raise ValueError(f"cz_sparse needs grid scale {top}, past level - "
                             f"{_LATTICE_DEPTH} = {level - _LATTICE_DEPTH}, the "
                             "coarsest scale of exact int64 lattice corners")
        table = f._abs_table((3 << (level - top)) ** n)
        cubes.update(_grid_scale_sums(table, mesh, grid, [top]))
    avg = {k: scaled(k) for k in cubes}
    first = {k: c[1] for k, c in cubes.items()}
    # a parent's average is the mean of its children's: the top scales
    # added above do not raise the maximum
    vmax = int(max(a.max() for a in avg.values()))
    submax = _subtree_maxima(avg, first, grid, top, level)

    def select(t: int) -> list[Cube]:
        out = []

        def descend(k, pos):
            if avg[k][pos] > t:
                j = tuple(int(j0 + p) for j0, p in zip(first[k], pos))
                out.append(Cube(grid, k, j))
                return
            if k == level:
                return
            # the children's first positions in scale k + 1's arrays
            base = [_first_child(k, j0 + p, a != 0) - c0 for j0, p, a, c0
                    in zip(first[k], pos, grid.alpha, first[k + 1])]
            below = submax[k + 1]
            for child in itertools.product(*((b, b + 1) for b in base)):
                if all(0 <= c < m for c, m in zip(child, below.shape)) \
                        and below[child] > t:
                    descend(k + 1, child)

        for pos in zip(*np.nonzero(submax[top] > t)):
            descend(top, pos)
        return out

    levels: dict[int, list[Cube]] = {}
    k = k_bot
    while vmax > threshold(k):
        chosen = select(threshold(k))
        if not chosen:
            break
        levels[k] = chosen
        k += 1
    return SparseFamily(grid, levels)


def _accumulate(mesh: Mesh, terms) -> np.ndarray:
    """Σ num·χ_cells over the (cells, num) ``terms``, with cells a
    ``Mesh.cells`` block and num an integer numerator over the caller's
    denominator: integer numerators shaped like the mesh."""
    diff = np.zeros(tuple(n + 1 for n in mesh.shape), dtype=object)
    corners = _corners(mesh.dim)
    for cells, num in terms:
        for bits, odd in corners:
            diff[_corner(cells, bits)] += -num if odd else num
    for axis in range(mesh.dim):
        diff = diff.cumsum(axis)
    return diff[(slice(None, -1),) * mesh.dim]


def _over_lcm(terms) -> tuple[list, int]:
    """(cells, value) terms with exact values as (cells, integer) terms
    over the lcm of the values' denominators, and that lcm."""
    terms = list(terms)
    den = math.lcm(*(v.denominator for _, v in terms))
    return [(cells, v.numerator * (den // v.denominator)) for cells, v in terms], den


def _family_averages(f: StepFunction, cubes: list) -> tuple[list, list, int]:
    """The cells of each cube and its |f|-average as an integer over one
    shared denominator D·(3·2^(level-k_min))^n, k_min the coarsest scale
    among the cubes, from the lattice window sums (see the module
    docstring).  The largest factor on a table entry is the 6^n of the
    window reads; the sums are Python ints before the scale factor."""
    mesh, n = f.mesh, f.mesh.dim
    lo, hi = _cube_windows(mesh, cubes)
    k_min = min((q.k for q in cubes), default=mesh.level)
    sums = _window_sums(f._abs_table(6**n), lo, hi).tolist()
    nums = [s << n * (q.k - k_min) for s, q in zip(sums, cubes)]
    den = f._numerators()[1] * (3 << (mesh.level - k_min)) ** n
    return [_window_cells(a, b) for a, b in zip(lo, hi)], nums, den


def cz_pointwise_gap(f: StepFunction, fam: SparseFamily,
                     maximal: StepFunction) -> Fraction:
    """Exact min over cells of 2^{n+1}·Σ avg(|f|,Q)χ_{E_Q}(x) − M^{grid}f(x),
    E_Q = Q \\ Ω_{k+1} for Q at level k.

    ``fam`` must pass ``verify_sparse_family``: its levels nest and each
    level's cubes are disjoint, so the sum at a cell is the average of the
    deepest cube holding it, which painting in level order (``pairs``)
    writes.  Every average is an integer over the family's one
    denominator, compared with M^{grid}f on integer numerators.  A
    nonnegative value certifies the pointwise domination of the grid
    maximal function by the sparse averages."""
    mesh = f.mesh
    cells, nums, den = _family_averages(f, [q for _, q in fam.pairs()])
    m, m_den = maximal._numerators()
    scale = (2 << mesh.dim) * m_den
    fits = _fits_int64((max(nums, default=0), scale), (max(m.max(), -m.min()), den))
    rhs = np.zeros(mesh.shape, dtype=np.int64 if fits else object)
    for block, num in zip(cells, nums):
        rhs[block] = num
    gap = (rhs * scale - m.astype(rhs.dtype, copy=False) * den).min()
    return Fraction(int(gap), den * m_den)


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

    Until selected, a cube is a (side, position) pair among the dyadic
    blocks of q0's cells, with the integer median and width 2ω·D of
    ``_dyadic_blocks``.  The exceptional set is |num − m| > 2ω·D on
    numerators, counted per block by reshape-sums, and a block of side s
    is selected when cnt·2^{n+1} ≥ sⁿ, in the order of ``Cube.children``.
    """
    n = f.mesh.dim
    lam = pow2(-(n + 2))
    if not q0.grid.is_standard:
        raise ValueError("decomposition cube must be a standard-grid cube")
    _, nums, den, stats = _dyadic_blocks(f, q0, lam)
    span = len(nums)
    steps = list(itertools.product((0, 1), repeat=n))

    def children(side: int, pos: tuple) -> list:
        return [(side // 2, tuple(2 * p + d for p, d in zip(pos, step)))
                for step in steps] if side > 1 else []

    def cube(side: int, pos: tuple) -> Cube:
        r = span // side
        return Cube(q0.grid, q0.k + r.bit_length() - 1,
                    tuple(j * r + p for j, p in zip(q0.j, pos)))

    levels: dict[int, list[Cube]] = {}
    coeffs: dict[Cube, Fraction] = {}
    active = [(span, (0,) * n)]
    gen = 1
    while True:
        bad = np.zeros(nums.shape, dtype=bool)
        for side, pos in active:
            block = tuple(slice(p * side, (p + 1) * side) for p in pos)
            med, width = stats[side]
            bad[block] = abs(nums[block] - med[pos]) > width[pos]
        counts = {side: _blocks(bad, side).sum(-1) for side in stats}
        chosen = []

        def descend(side, pos):
            cnt = int(counts[side][pos])
            if cnt and cnt << (n + 1) >= side**n:
                chosen.append((side, pos))
            elif cnt:
                for child in children(side, pos):
                    descend(*child)

        for q in active:
            for child in children(*q):
                descend(*child)
        if not chosen:
            break
        levels[gen] = [cube(side, pos) for side, pos in chosen]
        for q, (side, pos) in zip(levels[gen], chosen):
            coeffs[q] = Fraction(stats[side][1][pos], 2 * den)
        active = chosen
        gen += 1
    return DecompositionResult(
        base_median=Fraction(stats[span][0][(0,) * n], den),
        family=SparseFamily(q0.grid, levels),
        coefficients=coeffs,
        cube=q0,
        lam=lam,
    )


def verify_decomposition(f: StepFunction, res: DecompositionResult) -> Fraction:
    """Exact min over cells of RHS − LHS for the 4-and-2 oscillation bound

        |f − m_f(q0)| ≤ 4 M^{#,d}_{λ;q0} f + 2 Σ ω(f;Q) χ_Q    on q0.

    Nonnegative means the bound holds on every cell.  Both sides are
    step-function arithmetic on integer forms, read over q0's cells."""
    mesh = f.mesh
    coeffs = _operator(mesh, ((mesh.cells(q.box), res.coefficients[q])
                              for _, q in res.family.pairs()))
    gap = 4 * sharp_maximal(f, res.cube, res.lam) + 2 * coeffs \
        - abs(f - res.base_median)
    nums, den = gap._numerators()
    return Fraction(nums[mesh.cells(res.cube.box)].min(), den)


# ---------------------------------------------------------------------------
# operators over sparse families
# ---------------------------------------------------------------------------

def _require_nonneg(f: StepFunction):
    # on the integer form, which every operator below reads anyway
    if (f._numerators()[0] < 0).any():
        raise ValueError("operator input must be nonnegative")


def _operator(mesh: Mesh, terms) -> StepFunction:
    """Σ value·χ_cells over (cells, exact value) terms, in integer form over
    the values' lcm."""
    terms, den = _over_lcm(terms)
    return StepFunction._from_ints(mesh, _accumulate(mesh, terms), den)


def sparse_operator(fam: SparseFamily, f: StepFunction) -> StepFunction:
    """A_{D,S} f = Σ avg(f, Q) χ_Q with exact geometric averages, read
    off the lattice window sums over one shared denominator."""
    _require_nonneg(f)
    cells, nums, den = _family_averages(f, [q for _, q in fam.pairs()])
    return StepFunction._from_ints(f.mesh, _accumulate(f.mesh, zip(cells, nums)), den)


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
    return ShiftedFamily(fam, assignment)


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


def weak_norm(g: StepFunction) -> Fraction:
    """sup_{β>0} β |{|g| > β}| computed exactly over the attained levels:
    with |nums| sorted in descending order as a_1 >= a_2 >= ..., the
    maximum of a_i·i, times h^n/D."""
    nums, den = g._numerators()
    ranked = enumerate(sorted(map(abs, nums.flat), reverse=True), 1)
    return g.mesh.h**g.mesh.dim * Fraction(max(v * i for i, v in ranked), den)
