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
"""

from __future__ import annotations

import csv
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
        self._abs_prefix = None
        self._abs_row_prefix = None

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

    def _pref(self, absolute: bool):
        if self.mesh.dim != 1:
            raise RuntimeError("1-d prefix requested on a 2-d mesh")
        attr = "_abs_prefix" if absolute else "_prefix"
        cached = getattr(self, attr)
        if cached is None:
            acc = Fraction(0)
            cached = [acc]
            for v in self.values:
                acc += abs(v) if absolute else v
                cached.append(acc)
            setattr(self, attr, cached)
        return cached

    def _rows(self, absolute: bool):
        if self.mesh.dim != 2:
            raise RuntimeError("row prefixes requested on a 1-d mesh")
        attr = "_abs_row_prefix" if absolute else "_row_prefix"
        cached = getattr(self, attr)
        if cached is None:
            n = self.mesh.cells_axis
            cached = []
            for i in range(n):
                acc = Fraction(0)
                row = [acc]
                for j in range(n):
                    v = self.values[i * n + j]
                    acc += abs(v) if absolute else v
                    row.append(acc)
                cached.append(row)
            setattr(self, attr, cached)
        return cached

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
            pref = self._pref(False)
            total = mesh.h * (pref[ib] - pref[ia])
            for i, w in partials:
                total += w * self.values[i]
            return total
        xa, xb, xpart = mesh.axis_pieces(0, box.lo[0], box.hi[0])
        ya, yb, ypart = mesh.axis_pieces(1, box.lo[1], box.hi[1])
        rows = self._rows(False)
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

    def atom_sum(self, box: Box, absolute: bool = False) -> Fraction:
        """h^n times the sum of values over cells whose centers lie in box."""
        mesh = self.mesh
        scale = mesh.h**mesh.dim
        if mesh.dim == 1:
            i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
            pref = self._pref(absolute)
            return scale * (pref[i1] - pref[i0])
        i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
        j0, j1 = mesh.axis_atoms(1, box.lo[1], box.hi[1])
        rows = self._rows(absolute)
        total = Fraction(0)
        for i in range(i0, i1):
            total += rows[i][j1] - rows[i][j0]
        return scale * total

    def cube_integrals(self, grid: GridId, k: int, jrange) -> dict[int, Fraction]:
        """Exact integrals over the grid cubes (k, (j,)) for j in jrange,
        keyed by j, omitting zeros.

        Matches integral(Cube(grid, k, (j,)).box) but shares one alignment
        computation per scale, so sweeping a whole scale is cheap.  One
        dimension only, scales no finer than the mesh.
        """
        mesh = self.mesh
        if mesh.dim != 1:
            raise ValueError("cube_integrals is one-dimensional")
        if k > mesh.level:
            raise ValueError("scale finer than the mesh")
        pref = self._pref(False)
        vals = self.values
        n = mesh.cells_axis
        h = mesh.h
        stride = 1 << (mesh.level - k)
        t0 = grid.offset_at(k)[0] * stride - mesh.domain.lo[0] / h
        base = rat_floor(t0)
        frac = t0 - base
        out: dict[int, Fraction] = {}
        if frac == 0:
            for j in jrange:
                a = base + j * stride
                lo, hi = max(a, 0), min(a + stride, n)
                if lo < hi:
                    v = h * (pref[hi] - pref[lo])
                    if v:
                        out[j] = v
        else:
            # every cube at this scale splits cells with the same fractions
            w_left = (1 - frac) * h
            w_right = frac * h
            for j in jrange:
                a = base + j * stride
                lo, hi = max(a + 1, 0), min(a + stride, n)
                v = h * (pref[hi] - pref[lo]) if lo < hi else Fraction(0)
                if 0 <= a < n and vals[a]:
                    v += w_left * vals[a]
                if 0 <= a + stride < n and vals[a + stride]:
                    v += w_right * vals[a + stride]
                if v:
                    out[j] = v
        return out

    def norm_l1(self) -> Fraction:
        return self.mesh.h**self.mesh.dim * sum(abs(v) for v in self.values)

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


def dyadic_maximal(f: StepFunction, grid: GridId) -> StepFunction:
    """M^{grid} f: max over grid cubes containing each cell center of the
    exact average of |f| (full cube measure in the denominator)."""
    mesh = f.mesh
    if grid.dim != mesh.dim:
        raise ValueError("grid dimension mismatch")
    out = [Fraction(0)] * mesh.size
    g = abs(f)
    for k in range(_top_scale(mesh), mesh.level + 1):
        side = pow2(-k)
        denom = side**mesh.dim
        offs = grid.offset_at(k)
        jranges = []
        for axis in range(mesh.dim):
            lo = (mesh.domain.lo[axis] + mesh.h / 2) / side - offs[axis]
            hi = (mesh.domain.hi[axis] - mesh.h / 2) / side - offs[axis]
            jranges.append(range(rat_floor(lo), rat_floor(hi) + 1))
        if mesh.dim == 1:
            stride = 1 << (mesh.level - k)
            t0 = offs[0] * stride - mesh.domain.lo[0] / mesh.h
            base = rat_floor(t0)
            shift = 0 if t0 - base <= Fraction(1, 2) else 1
            for j, raw in g.cube_integrals(grid, k, jranges[0]).items():
                val = raw / denom
                a = base + j * stride + shift
                for i in range(max(a, 0), min(a + stride, mesh.size)):
                    if val > out[i]:
                        out[i] = val
        else:
            for jx in jranges[0]:
                for jy in jranges[1]:
                    box = Cube(grid, k, (jx, jy)).box
                    val = g.integral(box) / denom
                    i0, i1 = mesh.axis_atoms(0, box.lo[0], box.hi[0])
                    j0, j1 = mesh.axis_atoms(1, box.lo[1], box.hi[1])
                    for i in range(i0, i1):
                        row = i * mesh.cells_axis
                        for jj in range(j0, j1):
                            if val > out[row + jj]:
                                out[row + jj] = val
    return StepFunction(mesh, out)


# -- Hardy-Littlewood surrogate ---------------------------------------------

def _tangent_from_point(px, py, hull):
    """Max slope from (px,py) to a static convex hull, by binary search on
    the unimodal slope sequence along the hull.  Works for both query
    sides: the sign flips of numerator and denominator cancel."""
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
    return (y1 - py) / Fraction(x1 - px)


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


def _hl_1d(values: list[Fraction]) -> list[Fraction]:
    """For every cell the exact max average of |values| over cell-aligned
    intervals containing it; divide and conquer over crossing intervals."""
    n = len(values)
    pref = [Fraction(0)]
    for v in values:
        pref.append(pref[-1] + abs(v))
    out = [abs(v) for v in values]  # the single-cell interval

    def solve(lo, hi):
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        solve(mid, hi)
        # crossing intervals [a, b) with a <= mid-1 and b >= mid+1
        right_pts = [(b, pref[b]) for b in range(mid + 1, hi + 1)]
        upper = _upper_hull(right_pts)
        best = None
        for a in range(lo, mid):
            s = _tangent_from_point(a, pref[a], upper)
            if best is None or s > best:
                best = s
            if best > out[a]:
                out[a] = best
        left_pts = [(a, pref[a]) for a in range(lo, mid)]
        lower = _lower_hull(left_pts)
        best = None
        for b in range(hi, mid, -1):  # suffix maxima over b >= c+1
            s = _tangent_from_point(b, pref[b], lower)
            if best is None or s > best:
                best = s
            c = b - 1
            if c >= mid and best > out[c]:
                out[c] = best
    solve(0, n)
    return out


def hl_maximal(f: StepFunction, stride: int = 1) -> StepFunction:
    """Hardy-Littlewood surrogate: max average of |f| over mesh-corner
    aligned cubes containing each cell.

    n=1 sweeps every interval exactly (divide and conquer, O(N log^2 N)).
    n=2 sweeps every square whose corner indices are multiples of
    ``stride`` (stride 1 = exhaustive), always including single cells.
    """
    mesh = f.mesh
    if mesh.dim == 1:
        return StepFunction(mesh, _hl_1d(f.values))
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n = mesh.cells_axis
    rows = f._rows(True)
    out = [abs(v) for v in f.values]

    def block_sum(i0, j0, size):
        s = Fraction(0)
        for i in range(i0, i0 + size):
            s += rows[i][j0 + size] - rows[i][j0]
        return s

    for size in range(2, n + 1):
        denom = Fraction(size * size)
        for i0 in range(0, n - size + 1, stride):
            for j0 in range(0, n - size + 1, stride):
                avg = block_sum(i0, j0, size) / denom
                for i in range(i0, i0 + size):
                    row = i * n
                    for j in range(j0, j0 + size):
                        if avg > out[row + j]:
                            out[row + j] = avg
    return StepFunction(mesh, out)
