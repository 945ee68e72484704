"""Sparse families and the operators built from them.

A sparse family is a level-indexed collection of grid cubes where each
cube keeps at least half of its measure away from the next level.  This
module constructs them two ways (the Calderon-Zygmund stopping scheme on
a maximal function, and the local mean oscillation stopping scheme on a
cube) and implements the averaging operators over them: the plain sparse
operator, its dilated variant, and the amalgam pair obtained by covering
each dilate with a shifted-grid cube.

Sampling conventions (chosen so every claimed inequality is exact), on
the h/3 lattice of ``stepfn``, where a grid cube at scale k <= level is a
window [x, x + 3g) per axis, g = 2^(level-k) (``_cube_windows``):

* ``sparse_operator`` averages geometrically, over that window, so it
  matches the exact pointwise domination of the grid maximal function
  coming out of the Calderon-Zygmund construction.
* ``shifted_operator`` and the amalgam pair sum f over the cells whose
  centers lie in 2^m Q or in Q_α (``_center_windows``), over full
  geometric measures.  Cell-center sets of nested boxes are nested, which
  makes the adjoint identity, the L2 bound 8 and the 6^n majorization
  exact finite-sum identities.  On mesh-aligned standard cubes the two
  rules agree.
* every output is sampled at cell centers: a window paints the cells
  whose centers lie in it (``stepfn._window_cells``).

A window's sum S of |f| (``stepfn._window_sums``), read at scale k, the
scale of the measure dividing it, is the average S·2^(n(k-k_min)) over
D·(3·2^(level-k_min))^n, k_min the coarsest scale read
(``_family_averages``).  No operator builds a Fraction per cube, and each
raises ValueError on a cube finer than the mesh.  Every Σ c_Q χ_Q -- the
operators, ``verify_decomposition``'s Σ ω_Q χ_Q (each ω the integer 2ω·D
over 2D of ``_dyadic_blocks``) and ``czo.dominate``'s series (over their
lcm) -- is painted by ``_paint`` through the one accumulator
``_accumulate``, in O(|S|·2^n + cells), as the output's integer form in
Python ints.  ``cz_pointwise_gap`` compares per disjoint set E_Q instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import Cube, GridId, cover_cube, dilate, _parent_index
from .rational import pow2, rat_str
from .stepfn import (
    Mesh,
    StepFunction,
    sharp_maximal,
    _blocks,
    _corner,
    _corners,
    _cube_windows,
    _descent,
    _dyadic_blocks,
    _grid_scale_sums,
    _lattice_corner,
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

def cz_sparse(f: StepFunction, grid: GridId) -> SparseFamily:
    """Sparse family of maximal grid cubes over the thresholds 2^{(n+1)k}.

    Level k holds the maximal grid cubes whose |f|-average exceeds
    2^{(n+1)k}; their union is exactly {M^{grid} f > 2^{(n+1)k}}.  The
    threshold exponents run from just below the smallest nonzero cube
    average (so the lowest level covers all of {M^{grid} f > 0}) up to
    the last one below the largest average, which is a finest-scale one:
    a parent's average is the mean of its children's.

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

    Selection is one pass down the scales (``stepfn._descent``): a cube is
    maximal with average > t exactly when its average exceeds t and the
    largest average among its strict ancestors does not, so it sits on the
    levels whose thresholds lie in [above, avg), two ``searchsorted`` reads.

    Each level lists its cubes depth first: the top scale's in row-major
    order, then children in ``Cube.children`` order, which numbers them
    from the first child, the one at the parent's lower corner, by a
    row-major digit.  So a cube's first finest-scale descendant has the
    cube's lower corner, and on each axis its index counted from that of
    the top scale's first cube's has the cube's top-scale position above
    level − top bits: the path's child digits on that axis, one bit per
    scale, then zeros below the cube's scale.  Cubes of one level never
    nest, so sorting them by (top-scale positions, the digits interleaved
    scale by scale, axis 0 first) gives that order exactly, in Python ints
    and strings at any depth.
    """
    mesh = f.mesh
    if grid.dim != mesh.dim:
        raise ValueError("grid dimension mismatch")
    n, level, den = mesh.dim, mesh.level, f._num[1]
    top = _TOP_SCALE
    table, scales = f._abs_grid_sums(grid, (3 << (level - top)) ** n)
    scales = dict(scales)
    # ‖f‖₁ = P_max / (D·2^(n·level)), the table's last corner
    l1 = int(table[(-1,) * n])
    if not l1:
        return SparseFamily(grid, {})

    def threshold(k: int) -> int:
        """An average exceeds 2^{(n+1)k} exactly when its integer over
        D·(3·2^(level-top))^n, the descent's avg, exceeds threshold(k)."""
        e = (n + 1) * k + n * (level - top)
        return den * 3**n << e if e >= 0 else den * 3**n >> -e

    # largest k with 2^{(n+1)k} below the smallest nonzero average m0; no
    # sum exceeds 3^n·l1, a top-scale average, so m0 <= 3^n·l1 and a scale
    # of zeros changes nothing
    m0 = min(int(s.min(where=s != 0, initial=3**n * l1)) << n * (k - top)
             for k, (s, _) in scales.items())
    k_bot = 0
    while m0 > threshold(k_bot + 1):
        k_bot += 1
    while not m0 > threshold(k_bot):
        k_bot -= 1

    # ‖f‖₁·2^(n·top) > 2^{(n+1)k_bot}
    while 3**n * l1 > threshold(k_bot):
        top -= 1
        if level - top > _LATTICE_DEPTH:
            raise ValueError(f"cz_sparse needs grid scale {top}, past level - "
                             f"{_LATTICE_DEPTH} = {level - _LATTICE_DEPTH}, the "
                             "coarsest scale of exact int64 lattice corners")
        table = f._abs_table((3 << (level - top)) ** n)
        scales.update(_grid_scale_sums(table, mesh, grid, [top]))
    scales = {k: (s.astype(table.dtype, copy=False), j0) for k, (s, j0) in scales.items()}
    vmax = int(scales[level][0].max()) << n * (level - top)
    ts = []
    while vmax > threshold(k_bot + len(ts)):
        ts.append(threshold(k_bot + len(ts)))
    ts = np.array(ts, dtype=table.dtype)

    # the depth-first key of the docstring, from the lattice corners
    depth, top_first = level - top, scales[top][1]
    base = _lattice_corner(mesh, top, Cube(grid, top, top_first)._corner_thirds())

    def dfs_key(q: Cube) -> tuple:
        xs = [(x - b) // 3 for x, b in
              zip(_lattice_corner(mesh, q.k, q._corner_thirds()), base)]
        digits = zip(*(format(x & ((1 << depth) - 1), f"0{depth}b") for x in xs))
        return tuple(x >> depth for x in xs), "".join(map("".join, digits))

    picked = [[] for _ in ts]
    for k, avg, above in _descent(scales, grid, top, level):
        lo, hi = np.searchsorted(ts, above), np.searchsorted(ts, avg)
        first = scales[k][1]
        for pos in zip(*np.nonzero(hi > lo)):
            q = Cube(grid, k, tuple(int(j0 + p) for j0, p in zip(first, pos)))
            for i in range(lo[pos], hi[pos]):
                picked[i].append(q)
    return SparseFamily(grid, {k_bot + i: sorted(cubes, key=dfs_key)
                               for i, cubes in enumerate(picked)})


def _accumulate(mesh: Mesh, terms) -> np.ndarray:
    """Σ num·χ_cells over the (cells, num) ``terms``, with cells a
    block of slices and num an integer numerator over the caller's
    denominator: integer numerators shaped like the mesh, Python ints.
    Each term adds ±num at the 2^n corners of its block of a difference
    array, whose cumulative sums per axis give the cell values."""
    diff = np.zeros(tuple(n + 1 for n in mesh.shape), dtype=object)
    corners = _corners(mesh.dim)
    for cells, num in terms:
        for bits, odd in corners:
            diff[_corner(cells, bits)] += -num if odd else num
    for axis in range(mesh.dim):
        diff = diff.cumsum(axis)
    return diff[(slice(None, -1),) * mesh.dim]


def _center_windows(mesh: Mesh, cubes, m: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The windows [3a, 3b) of the cells a <= i < b, per axis, whose centers
    lie in the 2^m dilate of each grid cube at a scale k <= level.

    On an axis a cube is [x, x + 3g) on the h/3 lattice, g = 2^(level-k),
    and its dilate [x − p/2, x + 3g + p/2), p = (2^m − 1)·3g, has half-cell
    corners off the lattice when k = level and m >= 1.  The cells whose
    centers 3i + 3/2 lie in [y, z) are (2y + 2)//6 <= i < (2z + 2)//6, an
    integer at every m since 2y, 2z = 2x + 3g ∓ 2^m·3g; clipped to [0, N]."""
    x = np.array([_lattice_corner(mesh, q.k, q._corner_thirds()) for q in cubes],
                 dtype=object).reshape(-1, mesh.dim)
    side = np.array([3 << (mesh.level - q.k) for q in cubes], dtype=object).reshape(-1, 1)
    return tuple(3 * np.clip((2 * x + side + d * (side << m) + 2) // 6, 0,
                             mesh.cells_axis).astype(np.int64) for d in (-1, 1))


def _family_averages(f: StepFunction, windows, ks: list) -> tuple[list, int]:
    """The |f|-average of each lattice window [lo, hi) of ``windows`` read at
    its scale k in ``ks`` (module docstring).  The largest factor on a table
    entry is the 6^n of the window reads, by the dtype rule of ``stepfn``."""
    mesh, n = f.mesh, f.mesh.dim
    k_min = min(ks, default=mesh.level)
    sums = _window_sums(f._abs_table(6**n), *windows).tolist()
    nums = [s << n * (k - k_min) for s, k in zip(sums, ks)]
    return nums, f._num[1] * (3 << (mesh.level - k_min)) ** n


def _paint(mesh: Mesh, windows, nums: list, den: int) -> StepFunction:
    """Σ (num/den)·χ over the lattice windows and their integer numerators,
    in integer form over den, on the cells whose centers lie in each window
    (``_window_cells``): a grid cube's ``_cube_windows`` paints its cells."""
    cells = map(_window_cells, *windows)
    return StepFunction._from_ints(mesh, _accumulate(mesh, zip(cells, nums)), den)


def cz_pointwise_gap(f: StepFunction, fam: SparseFamily,
                     maximal: StepFunction) -> Fraction:
    """Exact min over cells of 2^{n+1}·Σ avg(|f|,Q)χ_{E_Q}(x) − M^{grid}f(x),
    E_Q = Q \\ Ω_{k+1} for Q at level k.

    ``fam`` must pass ``verify_sparse_family``: its levels nest and each
    level's cubes are disjoint, so the sum at a cell is the average of the
    deepest cube holding it, the last to paint it in level order
    (``pairs``), and the cells a cube Q paints last are E_Q.  So each cell
    is painted with that cube's index, or len(cubes) where no cube holds
    it and the sum is 0, and the minimum over E_Q is avg(|f|,Q) against
    the largest M^{grid}f numerator on E_Q, taken per index by integer
    comparison: one Python-int product per cube, plus one for the cells no
    cube holds, every average an integer over the family's one
    denominator.  A nonnegative value certifies the pointwise domination
    of the grid maximal function by the sparse averages."""
    mesh = f.mesh
    cubes = [q for _, q in fam.pairs()]
    windows = _cube_windows(mesh, cubes)
    nums, den = _family_averages(f, windows, [q.k for q in cubes])
    m, m_den = maximal._num
    owner = np.full(mesh.shape, len(cubes))
    for i, block in enumerate(map(_window_cells, *windows)):
        owner[block] = i
    order = np.argsort(owner, axis=None, kind="stable")
    owners = owner.ravel()[order]
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    tops = np.maximum.reduceat(m.ravel()[order], starts)
    nums.append(0)
    scale = (2 << mesh.dim) * m_den
    gap = min(nums[i] * scale - top * den for i, top in zip(owners[starts].tolist(), tops))
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

    Nonnegative means the bound holds on every cell.  Σ ω χ_Q is painted
    from the integers 2ω·D over 2D, D the denominator of ``_dyadic_blocks``;
    both sides are step-function arithmetic on integer forms, read over
    q0's cells."""
    cells, _, den, _ = _dyadic_blocks(f, res.cube, res.lam)
    cubes = [q for _, q in res.family.pairs()]
    omegas = [res.coefficients[q] for q in cubes]
    coeffs = _paint(f.mesh, _cube_windows(f.mesh, cubes), [
        w.numerator * (2 * den // w.denominator) for w in omegas], 2 * den)
    gap = 4 * sharp_maximal(f, res.cube, res.lam) + 2 * coeffs \
        - abs(f - res.base_median)
    nums, den = gap._num
    return Fraction(nums[cells].min(), den)


# ---------------------------------------------------------------------------
# operators over sparse families
# ---------------------------------------------------------------------------

def _require_nonneg(f: StepFunction):
    # on the integer form, which every operator below reads anyway
    if (f._num[0] < 0).any():
        raise ValueError("operator input must be nonnegative")


def sparse_operator(fam: SparseFamily, f: StepFunction) -> StepFunction:
    """A_{D,S} f = Σ avg(f, Q) χ_Q with exact geometric averages, reading Q's
    window at Q's scale: over D·(3·2^(level-k_min))^n, k_min the coarsest."""
    _require_nonneg(f)
    cubes = [q for _, q in fam.pairs()]
    windows = _cube_windows(f.mesh, cubes)
    return _paint(f.mesh, windows, *_family_averages(f, windows, [q.k for q in cubes]))


def shifted_operator(fam: SparseFamily, m: int, f: StepFunction) -> StepFunction:
    """T_{S,m} f = Σ avg(f, 2^m Q) χ_Q, reading the cells of 2^m Q at scale
    k − m: over D·(3·2^(level-k_min+m))^n, k_min the family's coarsest."""
    _require_nonneg(f)
    if m < 0:
        raise ValueError("dilation exponent must be >= 0")
    cubes = [q for _, q in fam.pairs()]
    return _paint(f.mesh, _cube_windows(f.mesh, cubes), *_family_averages(
        f, _center_windows(f.mesh, cubes, m), [q.k - m for q in cubes]))


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
    """A_{m,α} f = Σ_{F_α} (cell-center ∫_{Q_α} f / |Q_α|) χ_Q, reading Q_α's
    cells at its scale: over D·(3·2^(level-k_min))^n, k_min the coarsest."""
    _require_nonneg(f)
    members = list(sh.family_of(alpha))
    cubes, covers = [q for _, q, _ in members], [c for *_, c in members]
    return _paint(f.mesh, _cube_windows(f.mesh, cubes), *_family_averages(
        f, _center_windows(f.mesh, covers), [c.k for c in covers]))


def amalgam_adjoint(sh: ShiftedFamily, alpha: GridId, f: StepFunction) -> StepFunction:
    """A*_{m,α} f = Σ_{F_α} (cell-center ∫_Q f / |Q_α|) χ_{Q_α}, reading Q's
    cells at Q_α's scale: over D·(3·2^(level-k_min))^n, k_min the coarsest."""
    _require_nonneg(f)
    members = list(sh.family_of(alpha))
    cubes, covers = [q for _, q, _ in members], [c for *_, c in members]
    return _paint(f.mesh, _cube_windows(f.mesh, covers), *_family_averages(
        f, _center_windows(f.mesh, cubes), [c.k for c in covers]))


def weak_norm(g: StepFunction) -> Fraction:
    """sup_{β>0} β |{|g| > β}| computed exactly over the attained levels:
    with |nums| sorted in descending order as a_1 >= a_2 >= ..., the
    maximum of a_i·i, times h^n/D."""
    nums, den = g._num
    ranked = enumerate(sorted(map(abs, nums.flat), reverse=True), 1)
    return g.mesh.h**g.mesh.dim * Fraction(max(v * i for i, v in ranked), den)
