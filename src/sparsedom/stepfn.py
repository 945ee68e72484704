"""Exact piecewise-constant functions on a uniform dyadic mesh.

Functions are one rational value per mesh cell over the ambient box
[-1, 2)^n, the core [0, 1)^n padded by one unit on every side, and are
extended by zero outside it.  On top of the arithmetic this module
provides the distribution-side toolkit: decreasing rearrangements,
medians (maximal convention), local mean oscillations, and the maximal
operators

* ``sharp_maximal``   -- dyadic local sharp maximal function,
* ``dyadic_maximal``  -- maximal function of one (possibly shifted) grid,
* ``hl_maximal``      -- Hardy-Littlewood surrogate over mesh-aligned cubes.

All averages are exact: numerators integrate the step function
geometrically (partial cells weighted by overlap), denominators use the
full box measure, so zero extension outside the domain is automatic.

Cells are addressed one way, in every dimension: ``Mesh.cells(box)`` is
the n-D block of cells whose centers lie in the box, one slice per axis,
and the values are also held as an n-D array shaped like the mesh.  Code
that needs a cube's cells indexes that array with the slices.

A StepFunction holds one of two forms and derives the other on first
read.  The integer form is signed numerators over one denominator D, an
object array shaped like the mesh (``_numerators``): D is the kernel's
own denominator for a kernel's output (``_from_ints``), and the lcm of
the cell denominators for a function built from Fractions.  That lcm is
built lazily because it can dwarf the values: the reciprocal of the
level-10 power weight |x - 1/2|^(1/2) has a 63,891-bit lcm against 59
bits for the weight.  The integer form is how code in this package reads
and builds exact cell values: kernels, norms, ``abs``, ``-``, ``+`` and
scalar ``*`` read and return numerators, so a kernel's output reaches the
next kernel as it was built, and ``integral`` and ``atom_sum`` read the
prefix table (below) of the numerators.  ``values`` is the Fraction view,
one Fraction per distinct numerator, for the API boundary alone: JSON,
CSV, the weights and the Hilbert transform's cell integrals.

The distribution toolkit adds no Fractions before its one return value.
On a box, f is a list of sorted integer runs (``_runs``): its distinct
numerators over f's own D, each with its measure as an integer over one
common denominator, partial cells and the zero padding included.  The
box's clipped cell pieces (``_pieces``) are kept on its Mesh, whose
readers ask for the same few boxes of many functions.  On the dyadic
subcubes of a mesh-aligned cube q0 every cell has unit mass, so
``_dyadic_blocks`` gives the cells int64 ranks of their sorted distinct
numerators U (over D) and sorts the ranks of every subcube of one side
with one ``np.sort``, into a.  A subcube of N cells has the upper median
U[a[N//2]] (the largest qualifying value), and its shortest window of
t = ⌈(1−λ)N⌉ cells has the width 2ω·D = min(U[a[t−1:]] − U[a[:N−t+1]]),
an integer.  ``sharp_maximal`` and the decomposition in ``sparse`` read
those arrays, sorted once per (q0, λ) and kept on f.

``dyadic_maximal`` and ``hl_maximal`` work on the numerators of |f| and on
lengths on the h/3 lattice counted from the box's lower corner -1.
There every grid-cube corner at a scale k <= level is an integer,
(3j + b)·2^(level-k) + 3·2^level with b in {-1, 0, 1} (``_lattice_corner``).
Averages are compared as integers over a shared denominator (the
integer form of ``dyadic_maximal``'s output; ``_descent`` walks a grid's
nested scales once and gives each cube the largest average among its
strict ancestors, which is also how ``sparse.cz_sparse`` selects its
cubes) or by cross-multiplication (``hl_maximal``, one Fraction
per distinct value: O(N log² N) in 1-D, one sweep over the cells against
two convex hulls (``_hl_1d``), and O(n³) in 2-D, for n cells per axis).

Every cube sum reads one table format, the cell-corner prefix table P of
``_prefix_table`` (P[q] sums the cells below q on every axis), in any
dtype: float64 and long double in the A2 search, and for the exact
tables one dtype rule.  A kernel reading the table of |f|
(``StepFunction._abs_table``) names in its docstring its largest factor
M on a table entry (lattice coefficients, a scale factor, an area it
cross-multiplies by), and gets the table in int64 when bits(P_max) +
bits(M) <= 62, P_max = Σ|nums| being the last corner, in object ints
otherwise.  Every intermediate then stays below 2^62 in magnitude, so
both dtypes give the same integers.  The kernel keeps the table's dtype
through its work and hands Python ints back at its output: no np.int64
reaches a Fraction, a shift or a product with a large D.

On an axis of N cells the integral from lo up to the lattice point
x = 3q + r (0 <= r < 3) is T(x) = (3 - r)·P[q] + r·P[min(q + 1, N)] in
units of h/3 (``_lattice_reads``), a window [a, b) sums to T(b) - T(a),
and each access pattern has one reader: ``_grid_scale_sums`` for every
cube of a grid at many scales, one read per clipped corner per axis (kept
per f, grid and dtype by ``StepFunction._abs_grid_sums``); ``_window_sums``
for a list of cubes (``_cube_windows``), 4^n reads per window;
``_cube_sums``, cell corners differenced, for every mesh cube of one side.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np

from .geometry import Box, Cube, GridId, _first_child
from .rational import parse_scalar, pow2, rat, rat_ceil, rat_floor

__all__ = [
    "Mesh",
    "StepFunction",
    "average",
    "rearrangement",
    "median",
    "local_mean_oscillation",
    "sharp_maximal",
    "dyadic_maximal",
    "hl_maximal",
]


# A kernel reads the int64 table of |f| when every product of a table entry
# with its largest factor has at most this many bits (``_abs_table``)
_INT64_BITS = 62


def _fits_int64(*products: tuple[int, int]) -> bool:
    """Whether bits(a) + bits(b) <= ``_INT64_BITS`` for every bound (a, b)."""
    return all(a.bit_length() + b.bit_length() <= _INT64_BITS for a, b in products)


@functools.lru_cache(maxsize=None)
def _corners(dim: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """The 2^n corners of a block as (0 = start, 1 = stop) per axis, each
    with the parity of its stops."""
    return tuple((c, sum(c) % 2 == 1) for c in itertools.product((0, 1), repeat=dim))


def _corner(cells: tuple[slice, ...], bits: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(s.stop if b else s.start for s, b in zip(cells, bits))


def _prefix_table(values: np.ndarray, dtype=object) -> np.ndarray:
    """The cell-corner prefix table P of an n-D array of cell values, in
    ``dtype``: P[q] sums the cells below q on every axis, so its sides are
    one longer than the array's.  Object tables hold Python ints."""
    p = np.zeros(tuple(n + 1 for n in values.shape), dtype=dtype)
    p[(slice(1, None),) * values.ndim] = values
    for axis in range(values.ndim):
        p = p.cumsum(axis)
    return p


def _pieces(mesh: Mesh, box: Box) -> tuple[list, int, int]:
    """The cells of box ∩ domain as at most 3^n blocks, each a pair (cells,
    overlap of each cell as an integer over u): per axis one block of whole
    cells and up to two partial cells; then u, the lcm of the denominators
    of the overlaps and of |box|, and |box| over u.  Kept per box on the
    mesh, whose readers ask for the same few boxes of many functions."""
    if box not in mesh._pieces:
        axes = []
        for axis in range(mesh.dim):
            ia, ib, partials = mesh.axis_pieces(axis, box.lo[axis], box.hi[axis])
            axes.append([(slice(ia, ib), mesh.h)] * (ia < ib)
                        + [(slice(i, i + 1), w) for i, w in partials])
        blocks = [(tuple(s for s, _ in block), math.prod(x for _, x in block))
                  for block in itertools.product(*axes)]
        measure = box.measure
        u = math.lcm(measure.denominator, *(w.denominator for _, w in blocks))
        mesh._pieces[box] = ([(cells, w.numerator * (u // w.denominator))
                              for cells, w in blocks], u, int(measure * u))
    return mesh._pieces[box]


class Mesh:
    """Uniform mesh of 2**-level sided cells tiling the ambient box
    [-1, 2)^n: 3·2^level cells per axis."""

    def __init__(self, dim: int, level: int):
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if level < 1:
            raise ValueError("mesh level must be at least 1")
        self.dim = dim
        self.level = level
        self.domain = Box((Fraction(-1),) * dim, (Fraction(2),) * dim)
        self.h = pow2(-level)
        # the lower corner 3·lo/h per axis, in units of the h/3 lattice
        self.lattice_lo = (-3 << level,) * dim
        self.cells_axis = 3 << level
        self.shape = (self.cells_axis,) * dim
        self.size = self.cells_axis**dim
        self._pieces = {}  # box -> _pieces(self, box)

    @property
    def core(self) -> Box:
        """The unit cube [0,1)^n where experiment inputs live."""
        return Box((Fraction(0),) * self.dim, (Fraction(1),) * self.dim)

    def __eq__(self, other):
        return (isinstance(other, Mesh) and self.dim == other.dim
                and self.level == other.level)

    def __hash__(self):
        return hash((self.dim, self.level))

    def cell_box(self, idx: tuple[int, ...]) -> Box:
        lo = tuple(a + i * self.h for a, i in zip(self.domain.lo, idx))
        return Box(lo, tuple(x + self.h for x in lo))

    def centers(self, axis: int) -> list[Fraction]:
        """The cell centers along one axis."""
        lo, h = self.domain.lo[axis], self.h
        return [lo + (i + Fraction(1, 2)) * h for i in range(self.cells_axis)]

    def axis_pieces(self, axis: int, a: Fraction, b: Fraction):
        """Clip [a,b) to the domain on one axis and split into mesh cells.

        Returns (full_lo, full_hi, partials) where cells full_lo..full_hi-1
        are entirely covered and partials is a list of (index, length).
        """
        lo = self.domain.lo[axis]
        a = max(a, lo)
        b = min(b, self.domain.hi[axis])
        if b <= a:
            return 0, 0, []
        t0 = (a - lo) / self.h
        t1 = (b - lo) / self.h
        ia = rat_ceil(t0)
        ib = rat_floor(t1)
        if ia > ib:  # both endpoints interior to one cell
            return 0, 0, [(rat_floor(t0), (t1 - t0) * self.h)]
        partials = []
        if t0 < ia:
            partials.append((ia - 1, (ia - t0) * self.h))
        if t1 > ib:
            partials.append((ib, (t1 - ib) * self.h))
        return ia, ib, partials

    def axis_atoms(self, axis: int, a: Fraction, b: Fraction) -> tuple[int, int]:
        """Range of cells on one axis whose centers lie in [a,b) ∩ domain."""
        lo, n = self.domain.lo[axis], self.cells_axis
        half = Fraction(1, 2)
        i0 = min(n, max(0, rat_ceil((max(a, lo) - lo) / self.h - half)))
        i1 = min(n, rat_ceil((min(b, self.domain.hi[axis]) - lo) / self.h - half))
        return i0, max(i0, i1)

    def cells(self, box: Box) -> tuple[slice, ...]:
        """The n-D block of cells whose centers lie in box ∩ domain, one
        slice per axis."""
        return tuple(slice(*self.axis_atoms(axis, a, b))
                     for axis, (a, b) in enumerate(zip(box.lo, box.hi)))


class StepFunction:
    """Immutable rational-valued step function on a Mesh, held as Fractions
    or as the integer form (module docstring)."""

    def __init__(self, mesh: Mesh, values):
        values = [rat(v) for v in values]
        if len(values) != mesh.size:
            raise ValueError(f"expected {mesh.size} cell values, got {len(values)}")
        self.mesh = mesh
        self.values = values

    @classmethod
    def _from_ints(cls, mesh: Mesh, nums: np.ndarray, den: int) -> "StepFunction":
        """nums / den, with nums an object array of Python ints shaped like
        the mesh, kept as the integer form; callers must not write to it."""
        f = cls.__new__(cls)
        f.mesh, f._num = mesh, (nums, den)
        return f

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(mesh: Mesh) -> "StepFunction":
        return StepFunction._from_ints(mesh, np.zeros(mesh.shape, dtype=object), 1)

    @staticmethod
    def constant(mesh: Mesh, c) -> "StepFunction":
        return StepFunction(mesh, [rat(c)] * mesh.size)

    # -- cached views -------------------------------------------------------

    @functools.cached_property
    def values(self) -> list[Fraction]:
        """The cell values in row-major order."""
        nums, den = self._num
        return _shared_fractions([(v, den) for v in nums.flat])

    @functools.cached_property
    def _num(self) -> tuple[np.ndarray, int]:
        # built from Fractions: over the lcm of the cell denominators
        dens = {v.denominator for v in self.values}
        den = math.lcm(*dens)
        scale = {d: den // d for d in dens}
        nums = np.fromiter((v.numerator * scale[v.denominator] for v in self.values),
                           dtype=object, count=self.mesh.size)
        return nums.reshape(self.mesh.shape), den

    def _numerators(self) -> tuple[np.ndarray, int]:
        """The integer form (nums, D) of the module docstring."""
        return self._num

    def _floats(self) -> np.ndarray:
        """The cell values as float64 shaped like the mesh, each the one
        correctly rounded int/int true division that ``float`` of its
        Fraction also gives."""
        nums, den = self._num
        return (nums / den).astype(float)

    @functools.cached_property
    def _prefix(self) -> np.ndarray:
        return _prefix_table(self._num[0])

    @functools.cached_property
    def _abs_prefix(self) -> np.ndarray:
        return _prefix_table(abs(self._num[0]))

    @functools.cached_property
    def _abs_prefix64(self) -> np.ndarray:
        return self._abs_prefix.astype(np.int64)

    def _abs_table(self, multiplier: int) -> np.ndarray:
        """The prefix table of the numerators of |f|, built once, in the
        dtype of the module docstring's rule for a kernel whose largest
        factor on a table entry is ``multiplier``: int64 when
        bits(P_max) + bits(multiplier) <= 62, object ints otherwise."""
        table = self._abs_prefix
        p_max = int(table[(-1,) * table.ndim])  # |f| >= 0: the last corner
        return self._abs_prefix64 if _fits_int64((p_max, multiplier)) else table

    def _abs_grid_sums(self, grid: GridId, multiplier: int) -> tuple[np.ndarray, dict]:
        """``_abs_table(multiplier)`` and its ``_grid_scale_sums`` over scales
        ``_TOP_SCALE`` to level, read once per (grid, table dtype)."""
        table = self._abs_table(multiplier)
        memo = self.__dict__.setdefault("_grid_memo", {})
        if (grid, table.dtype) not in memo:
            memo[grid, table.dtype] = _grid_scale_sums(
                table, self.mesh, grid, range(_TOP_SCALE, self.mesh.level + 1))
        return table, memo[grid, table.dtype]

    def _block_sum(self, cells: tuple[slice, ...]) -> int:
        """Sum of the numerators over a block of cells, by inclusion-
        exclusion over its 2^n corners in the prefix table of f."""
        total = 0
        for bits, odd in _corners(self.mesh.dim):
            # a corner with an even number of starts counts positive
            v = self._prefix[_corner(cells, bits)]
            total += v if odd == self.mesh.dim % 2 else -v
        return total

    # -- arithmetic on the integer form -------------------------------------

    def _zip(self, other, op):
        """op(f, other) over the lcm of the two denominators; other is a
        StepFunction on the same mesh or a scalar."""
        a, da = self._num
        if isinstance(other, StepFunction):
            if other.mesh != self.mesh:
                raise ValueError("mesh mismatch")
            b, db = other._num
        else:
            c = rat(other)
            b, db = c.numerator, c.denominator
        den = math.lcm(da, db)
        return self._from_ints(self.mesh, op(a * (den // da), b * (den // db)), den)

    __add__ = functools.partialmethod(_zip, op=operator.add)
    __sub__ = functools.partialmethod(_zip, op=operator.sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        c = rat(scalar)
        nums, den = self._num
        return self._from_ints(self.mesh, nums * c.numerator, den * c.denominator)

    __rmul__ = __mul__

    def __abs__(self):
        nums, den = self._num
        return self._from_ints(self.mesh, abs(nums), den)

    def __eq__(self, other):
        return (isinstance(other, StepFunction) and self.mesh == other.mesh
                and self.values == other.values)

    # -- integration --------------------------------------------------------

    def integral(self, box: Box | None = None) -> Fraction:
        """Exact integral over box ∩ domain (whole domain when box is None)."""
        pieces, u, _ = _pieces(self.mesh, self.mesh.domain if box is None else box)
        total = sum(w * self._block_sum(cells) for cells, w in pieces)
        return Fraction(total, u * self._num[1])

    def atom_sum(self, box: Box) -> Fraction:
        """h^n times the sum of values over cells whose centers lie in box."""
        mesh = self.mesh
        return mesh.h**mesh.dim * Fraction(self._block_sum(mesh.cells(box)),
                                           self._num[1])

    def norm_l1(self) -> Fraction:
        nums, den = self._num
        return self.mesh.h**self.mesh.dim * Fraction(abs(nums).sum(), den)

    def norm_l2_sq(self) -> Fraction:
        nums, den = self._num
        return self.mesh.h**self.mesh.dim * Fraction((nums * nums).sum(), den * den)

    # -- reshaping ----------------------------------------------------------

    def refine(self, delta: int) -> "StepFunction":
        """The same function on a mesh refined by a factor 2**delta."""
        if delta < 0:
            raise ValueError("refinement factor must be nonnegative")
        if delta == 0:
            return self
        nums, den = self._num
        for axis in range(self.mesh.dim):
            nums = np.repeat(nums, 1 << delta, axis)
        return StepFunction._from_ints(Mesh(self.mesh.dim, self.mesh.level + delta),
                                       nums, den)

    # -- CSV input ----------------------------------------------------------

    @staticmethod
    def from_csv(path, dim: int, level: int) -> "StepFunction":
        """Cell values in row-major order from a CSV file of any layout:
        one rational or decimal per non-empty field."""
        with open(path, newline="") as fh:
            vals = [parse_scalar(item) for row in csv.reader(fh)
                    for item in row if item.strip()]
        return StepFunction(Mesh(dim, level), vals)


# ---------------------------------------------------------------------------
# distribution machinery
# ---------------------------------------------------------------------------

def _runs(f: StepFunction, box: Box) -> tuple[list[int], list[int], int, int]:
    """f on box as sorted integer runs: the ascending distinct numerators
    over f's own denominator D, the measure of each as an integer over one
    common denominator u, u and D; the measures add up to |box|·u.  Counts
    the numerators of each block of ``_pieces``; the callers in this
    package pass kernel outputs, whose D is already at hand.  The part of
    the box outside the mesh domain is counted as mass at value 0 (the
    zero extension)."""
    nums, den = f._numerators()
    pieces, u, measure = _pieces(f.mesh, box)
    masses = Counter()
    covered = 0
    for cells, w in pieces:
        block = nums[cells]
        for v, count in Counter(block.flat).items():
            masses[v] += count * w
        covered += block.size * w
    if covered < measure:
        masses[0] += measure - covered
    values = sorted(masses)
    return values, [masses[v] for v in values], u, den


def average(f: StepFunction, b: Box) -> Fraction:
    """Exact (1/|b|) ∫_b f with f extended by zero outside the domain."""
    if b.measure <= 0:
        raise ValueError("average over a zero-measure box")
    return f.integral(b) / b.measure


def rearrangement(f: StepFunction, b: Box, t) -> Fraction:
    """(f χ_b)*(t) = inf{s >= 0 : |{x in b : |f(x)| > s}| <= t}."""
    t = rat(t)
    if t <= 0:
        raise ValueError("rearrangement argument must be positive")
    values, masses, u, den = _runs(abs(f), b)
    cum = 0
    for v, m in zip(reversed(values), reversed(masses)):
        if v == 0:
            break
        cum += m
        if cum * t.denominator > t.numerator * u:
            return Fraction(v, den)
    return Fraction(0)


def median(f: StepFunction, q: Box) -> Fraction:
    """Largest m among attained values with |{f>m} ∩ q|, |{f<m} ∩ q| <= |q|/2."""
    values, masses, _, den = _runs(f, q)
    total = sum(masses)
    below, above = 0, total
    for v, m in zip(values, masses):
        above -= m
        if 2 * below <= total and 2 * above <= total:
            best = v  # keep climbing: the largest qualifying value wins
        below += m
    return Fraction(best, den)


def _check_lambda(lam) -> Fraction:
    lam = rat(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    return lam


def local_mean_oscillation(f: StepFunction, q: Box, lam) -> Fraction:
    """omega_lambda(f; q): half the length of the shortest closed value
    window holding at least (1 - lambda)|q| of the mass of f on q.

    On the integer runs, the window starting at run i ends at the first run
    j whose cumulative mass reaches that of i plus the target, rounded up."""
    lam = _check_lambda(lam)
    values, masses, _, den = _runs(f, q)
    cum = np.cumsum([0] + masses, dtype=object)  # cum[-1] = |q| over u
    ends = np.searchsorted(cum, cum[:-1] + rat_ceil((1 - lam) * cum[-1]))
    values = np.array(values, dtype=object)
    starts = np.flatnonzero(ends < len(cum))
    return Fraction((values[ends[starts] - 1] - values[starts]).min(), 2 * den)


def _aligned_cell_range(mesh: Mesh, q0: Cube):
    """Cell index ranges of a mesh-aligned standard cube, or raise."""
    if q0.side < mesh.h:
        raise ValueError("cube is finer than the mesh")
    starts = []
    for axis in range(mesh.dim):
        t = (q0.corner[axis] - mesh.domain.lo[axis]) / mesh.h
        if t.denominator != 1:
            raise ValueError("cube is not aligned with the mesh")
        starts.append(int(t))
    span = 1 << (mesh.level - q0.k)  # side / h, whole as side >= h
    for s in starts:
        if s < 0 or s + span > mesh.cells_axis:
            raise ValueError("cube leaves the mesh domain")
    return starts, span


def _blocks(a: np.ndarray, side: int) -> np.ndarray:
    """The n-D array a, of sides a multiple of ``side``, cut into blocks of
    that side: shape (len(a) // side,)^n + (side^n,)."""
    n, m = a.ndim, len(a) // side
    a = a.reshape((m, side) * n)  # then the block axes first
    a = a.transpose(tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2)))
    return a.reshape((m,) * n + (side**n,))


def _dyadic_blocks(f: StepFunction, q0: Cube, lam: Fraction):
    """The median and ω_λ of every dyadic subcube of q0, from one sort of
    the cells' ranks per side (see the module docstring), read once per
    (q0, λ) and kept on f beside its grid sums: ``oscillation_decompose``,
    ``verify_decomposition`` and ``sharp_maximal`` read the same blocks.

    Returns q0's block of cells (``Mesh.cells`` slices), f's numerators over
    D there, D, and per side s (in cells, a power of two up to the span) the
    upper medians and the widths 2ω_λ·D of the subcubes of side s, as two
    arrays shaped (span // s,)^n indexed by the subcube's position.  The
    arrays are read-only."""
    memo = f.__dict__.setdefault("_block_memo", {})
    if (q0, lam) in memo:
        return memo[q0, lam]
    starts, span = _aligned_cell_range(f.mesh, q0)
    cells = tuple(slice(s, s + span) for s in starts)
    nums, den = f._numerators()
    nums = nums[cells]
    n = nums.ndim
    values = sorted(set(nums.flat))
    rank = {v: i for i, v in enumerate(values)}
    ranks = np.fromiter(map(rank.__getitem__, nums.flat), dtype=np.int64,
                        count=nums.size).reshape(nums.shape)
    values = np.array(values, dtype=object)
    stats = {}
    side = 1
    while side <= span:
        a, size = np.sort(_blocks(ranks, side), axis=-1), side**n
        t = size - lam.numerator * size // lam.denominator
        stats[side] = (values[a[..., size // 2]],
                       (values[a[..., t - 1:]] - values[a[..., :size - t + 1]]).min(-1))
        side *= 2
    for a in (nums, *(x for pair in stats.values() for x in pair)):
        a.flags.writeable = False
    memo[q0, lam] = cells, nums, den, stats
    return memo[q0, lam]


def sharp_maximal(f: StepFunction, q0: Cube, lam) -> StepFunction:
    """Dyadic local sharp maximal function M^{#,d}_{lambda; q0} f.

    Value on each mesh cell inside q0: the maximum of the local mean
    oscillations over the dyadic subcubes of q0 containing the cell
    (including q0 itself); zero outside q0.  The running maximum is taken
    over the integer widths 2ω·D of ``_dyadic_blocks``, read off one sort
    of the cells' ranks per side, pushed down from q0 one halving of the
    side at a time, and returned over 2D as they are.
    """
    lam = _check_lambda(lam)
    cells, _, den, stats = _dyadic_blocks(f, q0, lam)
    running = np.zeros((1,) * f.mesh.dim, dtype=object)
    for side in sorted(stats, reverse=True)[:-1]:  # down to side 2
        running = np.maximum(running, stats[side][1])
        for axis in range(running.ndim):
            running = np.repeat(running, 2, axis)
    out = np.zeros(f.mesh.shape, dtype=object)
    out[cells] = running
    return StepFunction._from_ints(f.mesh, out, 2 * den)


# Coarsest scale the maximal operators sweep: the cover-cube scale of the
# ambient box [-1, 2)^n, whose grid cubes have side 16
_TOP_SCALE = -4


def _shared_fractions(pairs: list[tuple[int, int]]) -> list[Fraction]:
    """Fraction(num, den) per (num, den) pair, one object per distinct pair:
    outputs repeat few values over many cells."""
    made = {p: Fraction(*p) for p in set(pairs)}
    return [made[p] for p in pairs]


def _lattice_corner(mesh: Mesh, k: int, thirds) -> list[int]:
    """The h/3-lattice point of a scale-k <= level grid-cube corner given
    per axis in thirds 3j + b of the side: (3j + b)·2^(level-k) + 3·2^level,
    counted from the box's lower corner -1."""
    g = 1 << (mesh.level - k)
    return [u * g - x for u, x in zip(thirds, mesh.lattice_lo)]


def _lattice_reads(x, n: int):
    """The two table reads (index, coefficient) of the lattice points
    x = 3q + r on an axis of n cells: (3 - r)·P[q] + r·P[min(q + 1, n)]."""
    q, r = np.divmod(x, 3)
    return (q, 3 - r), (np.minimum(q + 1, n), r)


# _grid_scale_sums steps its int64 corners by the side 3·2^(level-k), which
# fits int64 while level - k <= 61: 3·2^61 < 2^63 <= 3·2^62
_LATTICE_DEPTH = 61


def _grid_scale_sums(p: np.ndarray, mesh: Mesh, grid: GridId, ks) -> dict:
    """Per scale k of the sequence ``ks`` (level - ``_LATTICE_DEPTH`` <= k
    <= level), the read-only sums in units of (h/3)^n over every cube of
    ``grid`` at scale k that meets the domain, from a prefix table p of any
    dtype, and the index j of the first of them per axis.  On an axis cube
    j spans [3jg + c, 3jg + 3g + c), g = 2^(level-k), c = cube 0's corner;
    T is read at those corners clipped to [0, 3n) and differenced, on axis
    0 for all scales at once (less cross-scale differences), then per scale."""
    n3, out = 3 * mesh.cells_axis, {}
    for k in ks:  # the first cube and the clipped corners, per axis
        g = 1 << (mesh.level - k)
        cs = _lattice_corner(mesh, k, Cube(grid, k, (0,) * mesh.dim)._corner_thirds())
        j0 = tuple(-c // (3 * g) for c in cs)
        out[k] = j0, [np.clip(3 * g * np.arange(j, (n3 - 1 - c) // (3 * g) + 2) + c,
                              0, n3) for j, c in zip(j0, cs)]

    def read(t: np.ndarray, axis: int, x: np.ndarray) -> np.ndarray:
        (q0, c0), (q1, c1) = _lattice_reads(x, mesh.cells_axis)
        shape = (-1,) + (1,) * (p.ndim - 1 - axis)
        t0, t1 = t.take(q0, axis), t.take(q1, axis)
        t0 *= c0.reshape(shape)  # in place: an all-scales read's peak memory
        t1 *= c1.reshape(shape)
        t0 += t1
        return np.diff(t0, axis=axis)

    rows, start = read(p, 0, np.concatenate([x[0] for _, x in out.values()])), 0
    for k, (j0, x) in out.items():
        sums, start = rows[start:start + len(x[0]) - 1], start + len(x[0])
        for axis in range(1, p.ndim):
            sums = read(sums, axis, x[axis])
        sums.flags.writeable = False
        out[k] = sums, j0
    return out


def _cube_windows(mesh: Mesh, cubes) -> tuple[np.ndarray, np.ndarray]:
    """The windows [lo, hi) of grid cubes at scales k <= level on the h/3
    lattice, clipped to [0, 3N]: two int arrays shaped (len(cubes), n)."""
    if any(q.k > mesh.level for q in cubes):
        raise ValueError("cube is finer than the mesh")
    lo = [_lattice_corner(mesh, q.k, q._corner_thirds()) for q in cubes]
    hi = [[x + (3 << (mesh.level - q.k)) for x in a] for a, q in zip(lo, cubes)]
    return tuple(np.clip(np.array(x, dtype=object).reshape(-1, mesh.dim), 0,
                         3 * mesh.cells_axis).astype(np.int64) for x in (lo, hi))


def _window_sums(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sums over the lattice windows [lo, hi) (two (count, n) int arrays)
    from a prefix table p of any dtype, in units of (h/3)^n: the window
    formula of the module docstring, 4^n reads per window."""
    n = len(p) - 1
    reads = [_lattice_reads(b, n) + tuple((q, -c) for q, c in _lattice_reads(a, n))
             for a, b in zip(lo.T, hi.T)]
    total = np.zeros(len(lo), dtype=p.dtype)
    for combo in itertools.product(*reads):
        total += math.prod(c for _, c in combo) * p[tuple(q for q, _ in combo)]
    return total


def _cube_sums(p: np.ndarray, d: int) -> np.ndarray:
    """Sums over every block of d^n cells from a prefix table p of any
    dtype, by differencing its cell corners along each axis in turn."""
    for axis in range(p.ndim):
        head = (slice(None),) * axis
        p = p[head + (slice(d, None),)] - p[head + (slice(None, -d),)]
    return p


def _window_cells(lo, hi) -> tuple[slice, ...]:
    """The cells whose centers lie in the lattice window [lo, hi): on each
    axis (a + 1)//3 up to (b + 1)//3, as ``Mesh.cells`` slices."""
    return tuple(slice((int(a) + 1) // 3, (int(b) + 1) // 3) for a, b in zip(lo, hi))


def _descent(scales: dict, grid: GridId, top: int, level: int):
    """Walk a grid's nested scales from ``top`` down to ``level``.

    ``scales`` maps each scale k to its cube sums and first index, as
    ``_grid_scale_sums`` gives them, all of one dtype.  Yields per scale
    (k, avg, above): avg is the sums times 2^(n(k-top)), integers over one
    denominator at every scale, and above is the largest avg among each
    cube's strict ancestors, -1 at scale top, which has none.

    A cube reads its parent's entry without index arrays.  On an axis the
    scale-k cubes from the first child of the scale-(k-1) cube u0 on,
    ``_first_child(k-1, u0)``, are the children of u0 and of the cubes after
    it, two each, so the coarser array repeated twice per axis holds each
    cube's parent at the cube's position plus j0 - _first_child(k-1, u0)."""
    n, up = grid.dim, None
    for k in range(top, level + 1):
        sums, first = scales[k]
        avg = sums * (1 << n * (k - top))
        if up is None:
            above = np.full(avg.shape, -1, dtype=avg.dtype)
        else:
            offsets = [j0 - _first_child(k - 1, u0, a != 0)
                       for j0, u0, a in zip(first, up, grid.alpha)]
            above = np.maximum(prev, above)
            for axis in range(n):
                above = np.repeat(above, 2, axis)
            above = above[tuple(slice(o, o + m) for o, m in zip(offsets, avg.shape))]
        yield k, avg, above
        prev, up = avg, first


def dyadic_maximal(f: StepFunction, grid: GridId) -> StepFunction:
    """M^{grid} f: max over grid cubes containing each cell center of the
    exact average of |f| (full cube measure in the denominator).

    Scale k's integer cube sums times 2^(n(k-top)) share the output's
    denominator D·(3·2^(level-top))^n, and the maximum over a cube and its
    ancestors comes down the nested scales (``_descent``) to scale level,
    where cell i's center lies in cube i - 2^level on every axis of every
    grid: one gather.  The largest factor on a table entry is that
    (3·2^(level-top))^n: 3^n of the lattice times the scale factor at level.
    """
    mesh = f.mesh
    if grid.dim != mesh.dim:
        raise ValueError("grid dimension mismatch")
    top, level = _TOP_SCALE, mesh.level
    unit = (3 << (level - top)) ** mesh.dim
    scales = f._abs_grid_sums(grid, unit)[1]
    for _, avg, above in _descent(scales, grid, top, level):
        pass  # down to scale level
    cells = [np.arange(mesh.cells_axis) - (1 << level) - j0 for j0 in scales[level][1]]
    anc = np.maximum(avg, above)[np.ix_(*cells)]
    return StepFunction._from_ints(mesh, anc.astype(object, copy=False),
                                   f._numerators()[1] * unit)


# -- Hardy-Littlewood surrogate ---------------------------------------------
#
# Averages of |f| are integer pairs (sum, length) over the common
# denominator D, compared by cross-multiplication.

def _push(hull: list, x: int, y: int) -> list:
    """Push (x, y) onto a counterclockwise hull stack (lower hulls left to
    right, upper ones right to left); returns the vertices it pops."""
    popped = []
    while len(hull) >= 2:
        (x1, y1), (x2, y2) = hull[-2], hull[-1]
        if (x2 - x1) * (y - y1) > (y2 - y1) * (x - x1):
            break  # strictly convex at (x2, y2)
        popped.append(hull.pop())
    hull.append((x, y))
    return popped


def _hl_1d(pref: list[int]) -> list[tuple[int, int]]:
    """For every cell the max average of nonnegative integers with prefix
    table ``pref`` over cell-aligned intervals containing it, as a pair
    (sum, length), in one sweep: O(N log² N).

    Cell i takes the largest slope from the lower hull L of the points
    (a, P_a), a <= i, to the upper hull U of the points (b, P_b), b > i.
    L grows by one point per cell; U is built once, right to left, and
    each cell rolls back one insertion, restoring the vertices it popped.
    The slopes from a point to U's vertices rise, then fall, so the
    tangent slope s_j from L's vertex v_j is a binary search, and so is
    the bridge: move right while L's edge slope e_j (v_j to v_{j+1}) is
    below s_j.  That holds exactly left of the first optimal vertex v_A.
    The line l of the largest slope s* has every left point on or above
    it, every right point on or below it, and v_A and at most v_{A+1} of L
    on it.  For j < A, v_j lies above l, so with r a right point on l,
    e_j <= slope(v_j, v_A) < slope(v_j, r) <= s_j (the slope from v_j to
    the points of l rises with their x).  For j >= A, s_j <= s* <= e_j.
    """
    n = len(pref) - 1
    upper = []  # upper[-1] is the leftmost vertex
    undo = [_push(upper, b, pref[b]) for b in range(n, 0, -1)]

    def tangent(px, py):
        # the first stack position whose slope beats its left neighbour's
        lo, hi = 0, len(upper) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            (x1, y1), (x2, y2) = upper[mid], upper[mid + 1]
            if (y1 - py) * (x2 - px) > (y2 - py) * (x1 - px):
                hi = mid
            else:
                lo = mid + 1
        return upper[lo][1] - py, upper[lo][0] - px

    lower, out = [], []
    for i in range(n):
        _push(lower, i, pref[i])
        lo, hi, best = 0, len(lower) - 1, None  # best: lower[hi]'s tangent
        while lo < hi:
            mid = (lo + hi) // 2
            (x1, y1), (x2, y2) = lower[mid], lower[mid + 1]
            rise, run = tangent(x1, y1)
            if (y2 - y1) * run < rise * (x2 - x1):
                lo = mid + 1
            else:
                hi, best = mid, (rise, run)
        out.append(best or tangent(*lower[hi]))
        upper.pop()  # roll back the insertion of b = i + 1
        upper.extend(reversed(undo.pop()))
    return out


def _sliding_max(w: np.ndarray, d: int, axis: int) -> np.ndarray:
    """Along ``axis``, out[i] = max w[i-d+1 .. i] over the indices inside
    w, for len(w) + d - 1 outputs in w's dtype; w >= 0.  Van Herk /
    Gil-Werman: pad with d - 1 zeros each side, cut into blocks of d, and
    take the larger of a suffix maximum and a prefix maximum, whatever d."""
    a = np.moveaxis(w, axis, 0)
    m = len(a)
    blocks = -(-(m + 2 * d - 2) // d)
    e = np.zeros((blocks * d,) + a.shape[1:], dtype=w.dtype)
    e[d - 1:d - 1 + m] = a
    e = e.reshape((blocks, d) + a.shape[1:])
    pre = np.maximum.accumulate(e, axis=1).reshape((-1,) + a.shape[1:])
    suf = np.maximum.accumulate(e[:, ::-1], axis=1)[:, ::-1].reshape(pre.shape)
    out = np.maximum(suf[:m + d - 1], pre[d - 1:m + 2 * d - 2])
    return np.moveaxis(out, 0, axis)


def _hl_2d(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell the max average of n x n nonnegative integers, given by
    their prefix table p, over the squares inside the array that hold it,
    as (sum, area) arrays.

    For each side d the window sums are ``_cube_sums``, their maximum over
    the windows holding each cell is a separable sliding max, and sizes
    are compared by cross-multiplication: O(n³) in all, in p's dtype."""
    n = len(p) - 1
    num, den = _cube_sums(p, 1), np.ones((n, n), dtype=p.dtype)
    for d in range(2, n + 1):
        w = _cube_sums(p, d)
        m = _sliding_max(_sliding_max(w, d, 0), d, 1)
        better = m * den > num * (d * d)
        num = np.where(better, m, num)
        den = np.where(better, d * d, den)
    return num, den


def hl_maximal(f: StepFunction) -> StepFunction:
    """Hardy-Littlewood surrogate: max average of |f| over mesh-corner
    aligned cubes inside the domain containing each cell.

    Runs on integer sums over the common denominator D and builds
    Fractions only for the output.  1-D sweeps the cells once, O(N log² N),
    on the table as a list of Python ints: each cell takes the largest
    slope between the lower hull of the prefix points at or left of it and
    the upper hull of those right of it (``_hl_1d``).  2-D sweeps every
    square by per-side window sums and a sliding max, O(n³) for n cells
    per axis.  The largest factor on a table entry is the measure n^dim of
    the largest cube, in cells, by which sums are cross-multiplied.
    """
    mesh, D = f.mesh, f._numerators()[1]
    table = f._abs_table(mesh.size)
    if mesh.dim == 1:
        out = _hl_1d(table.tolist())
    else:
        num, den = _hl_2d(table)
        out = zip(num.ravel().tolist(), den.ravel().tolist())
    return StepFunction(mesh, _shared_fractions([(s, l * D) for s, l in out]))
