"""Exact piecewise-constant functions on a uniform dyadic mesh.

Functions are one rational value per mesh cell over a padded ambient box
(default [-1, 2)^n) and are extended by zero outside it.  On top of the
arithmetic this module provides the distribution-side toolkit: decreasing
rearrangements, medians (maximal convention), local mean oscillations,
and the maximal operators

* ``sharp_maximal``   -- dyadic local sharp maximal function,
* ``dyadic_maximal``  -- maximal function of one (possibly shifted) grid,
* ``hl_maximal``      -- Hardy-Littlewood surrogate over mesh-aligned cubes.

All averages are exact: numerators integrate the step function
geometrically (partial cells weighted by overlap), denominators use the
full box measure, so zero extension outside the domain is automatic.

``dyadic_maximal`` and ``hl_maximal`` work on integers.  |f| is carried as
integer numerators over one common denominator D, the lcm of the cell
denominators, and lengths on the h/3 lattice counted from the domain's
lower corner lo.  There every grid-cube corner at a scale k <= level is an
integer, (3j + b)·2^(level-k) - 3·lo/h with b in {-1, 0, 1}.  Averages are
compared as integers over a shared denominator or by cross-multiplication,
and Fractions are built only for the output, one per distinct value.
``dyadic_maximal`` costs one gather per scale; ``hl_maximal`` is
O(N log² N) in 1-D and O(n³) in 2-D, for n cells per axis.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Box, Cube, GridId
from .rational import floor_log2, parse_scalar, pow2, rat, rat_ceil, rat_floor, rat_str

__all__ = [
    "Mesh",
    "StepFunction",
    "DistributionProfile",
    "average",
    "integral",
    "rearrangement",
    "median",
    "local_mean_oscillation",
    "sharp_maximal",
    "dyadic_maximal",
    "hl_maximal",
]


def _default_domain(dim: int) -> Box:
    return Box((Fraction(-1),) * dim, (Fraction(2),) * dim)


class Mesh:
    """Uniform mesh of 2**-level sided cells tiling a padded ambient box."""

    def __init__(self, dim: int, level: int, domain: Box | None = None):
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if level < 1:
            raise ValueError("mesh level must be at least 1")
        if domain is None:
            domain = _default_domain(dim)
        if domain.dim != dim:
            raise ValueError("domain dimension mismatch")
        h = pow2(-level)
        counts = []
        for a, b in zip(domain.lo, domain.hi):
            if (a / h).denominator != 1:
                raise ValueError("domain corners must be aligned to the mesh")
            n = (b - a) / h
            if n.denominator != 1:
                raise ValueError("domain sides must be whole numbers of cells")
            counts.append(int(n))
        if len(set(counts)) != 1:
            raise ValueError("domain must have equal sides")
        self.dim = dim
        self.level = level
        self.domain = domain
        self.h = h
        self.cells_axis = counts[0]
        self.shape = (self.cells_axis,) * dim
        self.size = self.cells_axis**dim

    @property
    def core(self) -> Box:
        """The unit cube [0,1)^n where experiment inputs live."""
        return Box((Fraction(0),) * self.dim, (Fraction(1),) * self.dim)

    def __eq__(self, other):
        return (isinstance(other, Mesh) and self.dim == other.dim
                and self.level == other.level and self.domain == other.domain)

    def __hash__(self):
        return hash((self.dim, self.level, self.domain))

    def cell_box(self, idx: tuple[int, ...]) -> Box:
        lo = tuple(a + i * self.h for a, i in zip(self.domain.lo, idx))
        return Box(lo, tuple(x + self.h for x in lo))

    def flat(self, idx: tuple[int, ...]) -> int:
        if self.dim == 1:
            return idx[0]
        return idx[0] * self.cells_axis + idx[1]

    def unflat(self, flat: int) -> tuple[int, ...]:
        if self.dim == 1:
            return (flat,)
        return divmod(flat, self.cells_axis)

    def cell_of_point(self, x) -> tuple[int, ...]:
        idx = tuple(rat_floor((rat(c) - a) / self.h)
                    for c, a in zip(x, self.domain.lo))
        for i in idx:
            if not 0 <= i < self.cells_axis:
                raise ValueError("point outside the mesh domain")
        return idx

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
        lo = self.domain.lo[axis]
        half = Fraction(1, 2)
        i0 = max(0, rat_ceil((max(a, lo) - lo) / self.h - half))
        i1 = min(self.cells_axis,
                 rat_ceil((min(b, self.domain.hi[axis]) - lo) / self.h - half))
        return i0, max(i0, i1)


class StepFunction:
    """Immutable rational-valued step function on a Mesh."""

    def __init__(self, mesh: Mesh, values):
        values = [rat(v) for v in values]
        if len(values) != mesh.size:
            raise ValueError(f"expected {mesh.size} cell values, got {len(values)}")
        self.mesh = mesh
        self.values = values
        self._prefix = None
        self._row_prefix = None
        self._abs_num = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(mesh: Mesh) -> "StepFunction":
        return StepFunction(mesh, [Fraction(0)] * mesh.size)

    @staticmethod
    def constant(mesh: Mesh, c) -> "StepFunction":
        return StepFunction(mesh, [rat(c)] * mesh.size)

    @staticmethod
    def indicator(mesh: Mesh, box: Box) -> "StepFunction":
        """Exact indicator; the box must be aligned to mesh cell corners."""
        ranges = []
        for axis in range(mesh.dim):
            ia, ib, partials = mesh.axis_pieces(axis, box.lo[axis], box.hi[axis])
            if partials:
                raise ValueError("indicator box must be mesh-aligned")
            ranges.append((ia, ib))
        vals = [Fraction(0)] * mesh.size
        if mesh.dim == 1:
            for i in range(*ranges[0]):
                vals[i] = Fraction(1)
        else:
            for i in range(*ranges[0]):
                for j in range(*ranges[1]):
                    vals[mesh.flat((i, j))] = Fraction(1)
        return StepFunction(mesh, vals)

    # -- caches -------------------------------------------------------------

    def _pref(self):
        if self.mesh.dim != 1:
            raise RuntimeError("1-d prefix requested on a 2-d mesh")
        if self._prefix is None:
            acc = Fraction(0)
            self._prefix = [acc]
            for v in self.values:
                acc += v
                self._prefix.append(acc)
        return self._prefix

    def _rows(self):
        if self.mesh.dim != 2:
            raise RuntimeError("row prefixes requested on a 1-d mesh")
        if self._row_prefix is None:
            n = self.mesh.cells_axis
            self._row_prefix = []
            for i in range(n):
                acc = Fraction(0)
                row = [acc]
                for v in self.values[i * n:(i + 1) * n]:
                    acc += v
                    row.append(acc)
                self._row_prefix.append(row)
        return self._row_prefix

    def _abs_numerators(self) -> tuple[np.ndarray, int]:
        """|f| as integers over one common denominator D: an object array
        of Python ints shaped like the mesh, and D."""
        if self._abs_num is None:
            den = math.lcm(*(v.denominator for v in self.values))
            nums = [abs(v.numerator) * (den // v.denominator) for v in self.values]
            self._abs_num = (np.array(nums, dtype=object).reshape(self.mesh.shape),
                              den)
        return self._abs_num

    # -- arithmetic ---------------------------------------------------------

    def _zip(self, other, op):
        if isinstance(other, StepFunction):
            if other.mesh != self.mesh:
                raise ValueError("mesh mismatch")
            return StepFunction(self.mesh,
                                [op(a, b) for a, b in zip(self.values, other.values)])
        c = rat(other)
        return StepFunction(self.mesh, [op(a, c) for a in self.values])

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return StepFunction(self.mesh, [-v for v in self.values])

    def __mul__(self, scalar):
        c = rat(scalar)
        return StepFunction(self.mesh, [v * c for v in self.values])

    __rmul__ = __mul__

    def __abs__(self):
        return StepFunction(self.mesh, [abs(v) for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, StepFunction) and self.mesh == other.mesh
                and self.values == other.values)

    def le(self, other: "StepFunction") -> bool:
        """Pointwise <= on every cell."""
        if other.mesh != self.mesh:
            raise ValueError("mesh mismatch")
        return all(a <= b for a, b in zip(self.values, other.values))

    # -- integration --------------------------------------------------------

    def integral(self, box: Box | None = None) -> Fraction:
        """Exact integral over box ∩ domain (whole domain when box is None)."""
        mesh = self.mesh
        if box is None:
            return mesh.h**mesh.dim * sum(self.values)
        if mesh.dim == 1:
            ia, ib, partials = mesh.axis_pieces(0, box.lo[0], box.hi[0])
            pref = self._pref()
            total = mesh.h * (pref[ib] - pref[ia])
            for i, w in partials:
                total += w * self.values[i]
            return total
        xa, xb, xpart = mesh.axis_pieces(0, box.lo[0], box.hi[0])
        ya, yb, ypart = mesh.axis_pieces(1, box.lo[1], box.hi[1])
        rows = self._rows()
        n = mesh.cells_axis

        def row_sum(i):
            s = mesh.h * (rows[i][yb] - rows[i][ya])
            for j, w in ypart:
                s += w * self.values[i * n + j]
            return s

        total = Fraction(0)
        for i in range(xa, xb):
            total += mesh.h * row_sum(i)
        for i, w in xpart:
            total += w * row_sum(i)
        return total

    def atom_sum(self, box: Box) -> Fraction:
        """h^n times the sum of values over cells whose centers lie in box."""
        mesh = self.mesh
        scale = mesh.h**mesh.dim
        if mesh.dim == 1:
            i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
            pref = self._pref()
            return scale * (pref[i1] - pref[i0])
        i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
        j0, j1 = mesh.axis_atoms(1, box.lo[1], box.hi[1])
        rows = self._rows()
        total = Fraction(0)
        for i in range(i0, i1):
            total += rows[i][j1] - rows[i][j0]
        return scale * total

    def norm_l1(self) -> Fraction:
        nums, den = self._abs_numerators()
        return self.mesh.h**self.mesh.dim * Fraction(nums.sum(), den)

    def norm_l2_sq(self) -> Fraction:
        return self.mesh.h**self.mesh.dim * sum(v * v for v in self.values)

    def norm_l2(self) -> float:
        return float(np.sqrt(float(self.norm_l2_sq())))

    # -- reshaping ----------------------------------------------------------

    def refine(self, delta: int) -> "StepFunction":
        """The same function on a mesh refined by a factor 2**delta."""
        if delta < 0:
            raise ValueError("refinement factor must be nonnegative")
        if delta == 0:
            return self
        mesh = Mesh(self.mesh.dim, self.mesh.level + delta, self.mesh.domain)
        r = 1 << delta
        if self.mesh.dim == 1:
            vals = []
            for v in self.values:
                vals.extend([v] * r)
            return StepFunction(mesh, vals)
        n = self.mesh.cells_axis
        vals = []
        for i in range(n * r):
            src = (i // r) * n
            for j in range(n * r):
                vals.append(self.values[src + j // r])
        return StepFunction(mesh, vals)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.mesh.domain != _default_domain(self.mesh.dim):
            raise ValueError("only default-domain functions serialize")
        return {"level": self.mesh.level, "dim": self.mesh.dim,
                "values": [rat_str(v) for v in self.values]}

    @staticmethod
    def from_json(data) -> "StepFunction":
        mesh = Mesh(int(data["dim"]), int(data["level"]))
        return StepFunction(mesh, [rat(v) for v in data["values"]])

    def to_csv(self, path):
        with open(path, "w") as fh:
            for v in self.values:
                fh.write(rat_str(v) + "\n")

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

@dataclass
class DistributionProfile:
    """Sorted (value, measure) pairs of |f| restricted to a box."""

    entries: list[tuple[Fraction, Fraction]]  # values strictly decreasing

    @property
    def total_measure(self) -> Fraction:
        return sum((m for _, m in self.entries), Fraction(0))

    @staticmethod
    def build(f: StepFunction, box: Box) -> "DistributionProfile":
        masses = _cell_masses(f, box, absolute=True, pad_zero=False)
        entries = sorted(masses.items(), key=lambda kv: kv[0], reverse=True)
        return DistributionProfile(entries)


def _cell_masses(f: StepFunction, box: Box, absolute: bool,
                 pad_zero: bool) -> dict[Fraction, Fraction]:
    """Map value -> overlap measure for f restricted to box.

    With pad_zero the part of the box outside the mesh domain is counted
    as mass at value 0 (the zero extension)."""
    mesh = f.mesh
    axes = [mesh.axis_pieces(axis, box.lo[axis], box.hi[axis])
            for axis in range(mesh.dim)]
    weights = []
    for ia, ib, partials in axes:
        w = [(i, mesh.h) for i in range(ia, ib)] + partials
        weights.append(w)
    masses: dict[Fraction, Fraction] = {}
    covered = Fraction(0)
    if mesh.dim == 1:
        for i, w in weights[0]:
            v = f.values[i]
            v = abs(v) if absolute else v
            masses[v] = masses.get(v, Fraction(0)) + w
            covered += w
    else:
        n = mesh.cells_axis
        for i, wx in weights[0]:
            for j, wy in weights[1]:
                v = f.values[i * n + j]
                v = abs(v) if absolute else v
                masses[v] = masses.get(v, Fraction(0)) + wx * wy
                covered += wx * wy
    if pad_zero and covered < box.measure:
        masses[Fraction(0)] = masses.get(Fraction(0), Fraction(0)) \
            + box.measure - covered
    return masses


def integral(f: StepFunction, box: Box | None = None) -> Fraction:
    return f.integral(box)


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
    profile = DistributionProfile.build(f, b)
    cum = Fraction(0)
    for v, m in profile.entries:
        if v == 0:
            break
        cum += m
        if cum > t:
            return v
    return Fraction(0)


def median(f: StepFunction, q: Box) -> Fraction:
    """Largest m among attained values with |{f>m} ∩ q|, |{f<m} ∩ q| <= |q|/2."""
    masses = _cell_masses(f, q, absolute=False, pad_zero=True)
    half = q.measure / 2
    items = sorted(masses.items(), key=lambda kv: kv[0])  # ascending values
    below = Fraction(0)
    above = sum(m for _, m in items)
    best = None
    for v, m in items:
        above -= m
        if below <= half and above <= half:
            best = v  # keep climbing: the largest qualifying value wins
        below += m
    if best is None:
        raise AssertionError("no median found; measures inconsistent")
    return best


def local_mean_oscillation(f: StepFunction, q: Box, lam) -> Fraction:
    """omega_lambda(f; q): half the length of the shortest closed value
    window holding at least (1 - lambda)|q| of the mass of f on q."""
    lam = rat(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    masses = _cell_masses(f, q, absolute=False, pad_zero=True)
    items = sorted(masses.items())  # ascending
    target = (1 - lam) * q.measure
    return _window_half_length(items, target)


def _window_half_length(items: list[tuple[Fraction, Fraction]],
                        target: Fraction) -> Fraction:
    """Shortest window [v_i, v_j] with mass >= target, halved."""
    best = None
    mass = Fraction(0)
    j = 0
    for i in range(len(items)):
        if j < i:
            j = i
            mass = Fraction(0)
        while mass < target and j < len(items):
            mass += items[j][1]
            j += 1
        if mass < target:
            break
        width = items[j - 1][0] - items[i][0]
        if best is None or width < best:
            best = width
        mass -= items[i][1]
    if best is None:
        raise AssertionError("no value window reaches the target mass")
    return best / 2


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
    span = q0.side / mesh.h
    if span.denominator != 1:
        raise ValueError("cube side is not a whole number of cells")
    span = int(span)
    for s in starts:
        if s < 0 or s + span > mesh.cells_axis:
            raise ValueError("cube leaves the mesh domain")
    return starts, span


def sharp_maximal(f: StepFunction, q0: Cube, lam) -> StepFunction:
    """Dyadic local sharp maximal function M^{#,d}_{lambda; q0} f.

    Value on each mesh cell inside q0: the maximum of the local mean
    oscillations over the dyadic subcubes of q0 containing the cell
    (including q0 itself); zero outside q0.
    """
    lam = rat(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie in (0, 1)")
    mesh = f.mesh
    starts, span = _aligned_cell_range(mesh, q0)
    out = [Fraction(0)] * mesh.size
    one_minus = 1 - lam

    # bottom-up sorted runs of (value, cell count) per dyadic block
    def omega_of_run(run, cells):
        target_num = one_minus * cells  # compare against plain cell counts
        items = [(v, Fraction(c)) for v, c in run]
        return _window_half_length(items, target_num)

    def merge_runs(a, b):
        out_run = []
        i = j = 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i][0] <= b[j][0]):
                v, c = a[i]
                i += 1
            else:
                v, c = b[j]
                j += 1
            if out_run and out_run[-1][0] == v:
                out_run[-1] = (v, out_run[-1][1] + c)
            else:
                out_run.append((v, c))
        return out_run

    if mesh.dim == 1:
        base = starts[0]
        runs = {}

        def rec2(offset, size):
            if size == 1:
                run = [(f.values[base + offset], 1)]
            else:
                run = merge_runs(rec2(offset, size // 2),
                                 rec2(offset + size // 2, size // 2))
            runs[(offset, size)] = run
            return run

        rec2(0, span)

        def push(offset, size, running):
            w = omega_of_run(runs[(offset, size)], size)
            running = max(running, w)
            if size == 1:
                out[base + offset] = running
            else:
                push(offset, size // 2, running)
                push(offset + size // 2, size // 2, running)

        push(0, span, Fraction(0))
        return StepFunction(mesh, out)

    # dim == 2: quadtree version
    bx, by = starts
    n = mesh.cells_axis
    runs = {}

    def rec2d(ox, oy, size):
        if size == 1:
            run = [(f.values[(bx + ox) * n + by + oy], 1)]
        else:
            half = size // 2
            run = rec2d(ox, oy, half)
            for dx, dy in ((0, half), (half, 0), (half, half)):
                run = merge_runs(run, rec2d(ox + dx, oy + dy, half))
        runs[(ox, oy, size)] = run
        return run

    rec2d(0, 0, span)

    def push2d(ox, oy, size, running):
        w = omega_of_run(runs[(ox, oy, size)], size * size)
        running = max(running, w)
        if size == 1:
            out[(bx + ox) * n + by + oy] = running
            return
        half = size // 2
        for dx, dy in ((0, 0), (0, half), (half, 0), (half, half)):
            push2d(ox + dx, oy + dy, half, running)

    push2d(0, 0, span, Fraction(0))
    return StepFunction(mesh, out)


def _top_scale(mesh: Mesh) -> int:
    """Coarsest scale the maximal operators sweep: the cover-cube scale of
    the ambient domain itself (side 16 for the default [-1,2)^n box)."""
    side = mesh.domain.hi[0] - mesh.domain.lo[0]
    return -(floor_log2(3 * side) + 1)


def _shared_fractions(pairs: list[tuple[int, int]]) -> list[Fraction]:
    """Fraction(num, den) per (num, den) pair, one object per distinct pair:
    outputs repeat few values over many cells."""
    made = {p: Fraction(*p) for p in set(pairs)}
    return [made[p] for p in pairs]


def _grid_cube_sums(f: StepFunction, grid: GridId, k: int):
    """Integer sums of |f| over every cube of ``grid`` at scale k <= level
    that meets the domain, in units of (h/3)^n / D (see the module
    docstring).

    Returns the sums (one array axis per space axis), the index j of the
    first cube on each axis, and per axis the array position of the cube
    holding each cell center.  Per axis the cumulative sum P over the
    cells is refined to the lattice at the clipped cube corners x,
    3·P[x//3] + (x%3)·v[x//3], and differenced.
    """
    mesh = f.mesh
    n = mesh.cells_axis
    g = 1 << (mesh.level - k)
    s = f._abs_numerators()[0]
    first, cells = [], []
    for axis, (off, lo) in enumerate(zip(grid.offset_at(k), mesh.domain.lo)):
        # cube j spans [3jg + c, 3jg + 3g + c) on this axis
        c = int(3 * off) * g - 3 * int(lo / mesh.h)
        j0 = -c // (3 * g)
        j1 = (3 * n - 1 - c) // (3 * g) + 1
        q, r = np.divmod(np.clip(3 * g * np.arange(j0, j1 + 1) + c, 0, 3 * n), 3)
        first.append(j0)
        cells.append((3 * np.arange(n) + 1 - c) // (3 * g) - j0)
        a = np.moveaxis(s, axis, 0)
        p = np.concatenate([np.zeros((1,) + a.shape[1:], dtype=object),
                            a.cumsum(0)])
        r = r.reshape((-1,) + (1,) * (a.ndim - 1))
        t = 3 * p[q] + r * a[np.minimum(q, n - 1)]
        s = np.moveaxis(np.diff(t, axis=0), 0, axis)
    return s, first, cells


def dyadic_maximal(f: StepFunction, grid: GridId) -> StepFunction:
    """M^{grid} f: max over grid cubes containing each cell center of the
    exact average of |f| (full cube measure in the denominator).

    Scale k's integer cube sums times 2^(n(k-top)) share the denominator
    D·(3·2^(level-top))^n, so the maximum over scales is an integer
    maximum, one gather per scale; Fractions are built only for the output.
    """
    mesh = f.mesh
    if grid.dim != mesh.dim:
        raise ValueError("grid dimension mismatch")
    top, dim = _top_scale(mesh), mesh.dim
    best = np.zeros(mesh.shape, dtype=object)
    for k in range(top, mesh.level + 1):
        sums, _, cells = _grid_cube_sums(f, grid, k)
        best = np.maximum(best, (sums * (1 << dim * (k - top)))[np.ix_(*cells)])
    den = f._abs_numerators()[1] * (3 << (mesh.level - top)) ** dim
    return StepFunction(mesh, _shared_fractions([(v, den) for v in best.flat]))


# -- Hardy-Littlewood surrogate ---------------------------------------------
#
# Averages of |f| are integer pairs (sum, length) over the common
# denominator D, compared by cross-multiplication.

def _tangent_from_point(px, py, hull):
    """Max slope from (px,py) to a static convex hull of integer points, by
    binary search on the unimodal slope sequence along the hull, as a pair
    (rise, run) with run > 0.  Works for both query sides: the sign flips
    of numerator and denominator cancel."""
    lo, hi = 0, len(hull) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        x1, y1 = hull[mid]
        x2, y2 = hull[mid + 1]
        if (y2 - py) * (x1 - px) > (y1 - py) * (x2 - px):
            lo = mid + 1
        else:
            hi = mid
    x1, y1 = hull[lo]
    return (y1 - py, x1 - px) if x1 > px else (py - y1, px - x1)


def _upper_hull(points):
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x2) <= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _lower_hull(points):
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x2) >= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hl_1d(nums: list[int]) -> list[tuple[int, int]]:
    """For every cell the max average of the nonnegative integers ``nums``
    over cell-aligned intervals containing it, as a pair (sum, length);
    divide and conquer over crossing intervals."""
    n = len(nums)
    pref = [0]
    for v in nums:
        pref.append(pref[-1] + v)
    out = [(v, 1) for v in nums]  # the single-cell interval

    def raise_to(c, s):
        if s[0] * out[c][1] > out[c][0] * s[1]:
            out[c] = s

    def solve(lo, hi):
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        solve(mid, hi)
        # crossing intervals [a, b) with a <= mid-1 and b >= mid+1
        upper = _upper_hull([(b, pref[b]) for b in range(mid + 1, hi + 1)])
        best = (0, 1)
        for a in range(lo, mid):
            s = _tangent_from_point(a, pref[a], upper)
            if s[0] * best[1] > best[0] * s[1]:
                best = s
            raise_to(a, best)
        lower = _lower_hull([(a, pref[a]) for a in range(lo, mid)])
        best = (0, 1)
        for b in range(hi, mid, -1):  # suffix maxima over b >= c+1
            s = _tangent_from_point(b, pref[b], lower)
            if s[0] * best[1] > best[0] * s[1]:
                best = s
            raise_to(b - 1, best)
    solve(0, n)
    return out


def _sliding_max(w: np.ndarray, d: int, axis: int) -> np.ndarray:
    """Along ``axis``, out[i] = max w[i-d+1 .. i] over the indices inside
    w, for len(w) + d - 1 outputs; w >= 0.  Van Herk / Gil-Werman: pad
    with d - 1 zeros each side, cut into blocks of d, and take the larger
    of a suffix maximum and a prefix maximum, whatever d."""
    a = np.moveaxis(w, axis, 0)
    m = len(a)
    blocks = -(-(m + 2 * d - 2) // d)
    e = np.zeros((blocks * d,) + a.shape[1:], dtype=object)
    e[d - 1:d - 1 + m] = a
    e = e.reshape((blocks, d) + a.shape[1:])
    pre = np.maximum.accumulate(e, axis=1).reshape((-1,) + a.shape[1:])
    suf = np.maximum.accumulate(e[:, ::-1], axis=1)[:, ::-1].reshape(pre.shape)
    out = np.maximum(suf[:m + d - 1], pre[d - 1:m + 2 * d - 2])
    return np.moveaxis(out, 0, axis)


def _hl_2d(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per cell the max average of the nonnegative integers ``v`` (n x n)
    over the squares inside the array that hold it, as (sum, area) arrays.

    For each side d the window sums come from one summed-area table, their
    maximum over the windows holding each cell is a separable sliding max,
    and sizes are compared by cross-multiplication: O(n³) in all."""
    n = len(v)
    sat = np.zeros((n + 1, n + 1), dtype=object)
    sat[1:, 1:] = v.cumsum(0).cumsum(1)
    num, den = v.copy(), np.ones((n, n), dtype=object)
    for d in range(2, n + 1):
        w = sat[d:, d:] - sat[:-d, d:] - sat[d:, :-d] + sat[:-d, :-d]
        m = _sliding_max(_sliding_max(w, d, 0), d, 1)
        better = m * den > num * (d * d)
        num = np.where(better, m, num)
        den = np.where(better, d * d, den)
    return num, den


def hl_maximal(f: StepFunction) -> StepFunction:
    """Hardy-Littlewood surrogate: max average of |f| over mesh-corner
    aligned cubes inside the domain containing each cell.

    Runs on integer sums over the common denominator D and builds
    Fractions only for the output.  1-D sweeps every interval by divide
    and conquer over convex hulls, O(N log² N); 2-D sweeps every square by
    per-side summed-area window sums and a sliding max, O(n³) for n cells
    per axis.
    """
    mesh = f.mesh
    nums, D = f._abs_numerators()
    if mesh.dim == 1:
        out = _hl_1d(list(nums))
    else:
        num, den = _hl_2d(nums)
        out = zip(num.flat, den.flat)
    return StepFunction(mesh, _shared_fractions([(s, l * D) for s, l in out]))
