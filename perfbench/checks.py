"""Independent checks of the program's outputs.

Nothing here imports sparsedom.  Every check recomputes a quantity from the
inputs by a route of its own (brute force over integer prefix sums, dense
numpy linear algebra, a continuum closed form, direct enumeration), or
tests a property the method must have.  A failed check raises CheckFailed
with a message naming the instance and the quantity.

Geometry is carried in integer "third units": on a mesh of level L over
the domain [-1, 2)^n, one unit is 2^-L / 3, coordinate X = (x + 1)·3·2^L,
and mesh cell i spans units [3i, 3i + 3).  Every cube of every grid at a
scale k <= L has integer corners in these units: the grid with shift flag
a puts the scale-k cube j at x = (j + (-1)^k a/3)·2^-k, which is
X = 3·2^L + (3j + (-1)^k a)·2^(L-k), with side 3·2^(L-k).
"""

import bisect
import math
from fractions import Fraction
from functools import reduce

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# third-unit geometry
# ---------------------------------------------------------------------------

def cube_interval(flag: int, k: int, j: int, level: int) -> tuple:
    """[lo, hi) of a grid cube on one axis, in third units."""
    require(k <= level, "cube scale %d finer than the mesh" % k)
    sign = 1 if k % 2 == 0 else -1
    stride = 1 << (level - k)
    lo = 3 * (1 << level) + (3 * j + sign * flag) * stride
    return lo, lo + 3 * stride


def cube_box(cube: tuple, level: int) -> list:
    shift, k, j = cube
    return [cube_interval(a, k, ji, level) for a, ji in zip(shift, j)]


def box_measure(box: list) -> int:
    return reduce(lambda m, iv: m * (iv[1] - iv[0]), box, 1)


def box_inside(small: list, big: list) -> bool:
    return all(b0 <= s0 and s1 <= b1 for (s0, s1), (b0, b1) in zip(small, big))


def box_meets(p: list, q: list) -> bool:
    return all(max(a0, b0) < min(a1, b1) for (a0, a1), (b0, b1) in zip(p, q))


def cells_with_center_in(box: list, cells: int) -> list:
    """Per axis, the range of cells whose center 3i + 3/2 lies in [lo, hi)."""
    out = []
    for lo, hi in box:
        # lo <= 3i + 1.5 < hi  <=>  lo <= 3i + 1 and 3i + 2 <= hi
        i0 = max(0, -(-(lo - 1) // 3))
        i1 = min(cells, (hi - 2) // 3 + 1)
        out.append(range(i0, max(i0, i1)))
    return out


class Grid3:
    """Integer cell values of an n-D function (n = 1, 2) with exact
    integrals over third-unit boxes, zero outside the domain."""

    def __init__(self, values: list, dim: int, level: int):
        self.dim, self.level = dim, level
        self.cells = 3 << level
        den = reduce(lambda a, b: a * b // math.gcd(a, b),
                     (Fraction(v).denominator for v in values), 1)
        self.den = den
        ints = [int(Fraction(v) * den) for v in values]
        n = self.cells
        if dim == 1:
            self.vals = ints
            pref = [0]
            for v in ints:
                pref.append(pref[-1] + v)
            self.pref = pref
        else:
            big = max((abs(v) for v in ints), default=0) * 9 * n * n
            require(big < 1 << 62, "2-D values too large for int64 prefixes")
            a = np.array(ints, dtype=np.int64).reshape(n, n)
            third = np.repeat(np.repeat(a, 3, axis=0), 3, axis=1)
            s = np.zeros((3 * n + 1, 3 * n + 1), dtype=np.int64)
            s[1:, 1:] = third.cumsum(0).cumsum(1)
            self.sat = s

    def _p1(self, t: int) -> int:
        t = min(max(t, 0), 3 * self.cells)
        c, r = divmod(t, 3)
        out = 3 * self.pref[c]
        if r:
            out += r * self.vals[c]
        return out

    def integral(self, box: list) -> int:
        """den · 3^n 2^(nL) · ∫_box f, an integer."""
        if self.dim == 1:
            (lo, hi), = box
            return self._p1(hi) - self._p1(lo)
        lim = 3 * self.cells
        (x0, x1), (y0, y1) = [(min(max(a, 0), lim), min(max(b, 0), lim))
                              for a, b in box]
        s = self.sat
        return int(s[x1, y1] - s[x0, y1] - s[x1, y0] + s[x0, y0])

    def average(self, box: list) -> Fraction:
        return Fraction(self.integral(box), box_measure(box) * self.den)


def absolute(values: list) -> list:
    return [abs(Fraction(v)) for v in values]


def flat_cells(ranges: list, cells: int):
    if len(ranges) == 1:
        return list(ranges[0])
    return [i * cells + j for i in ranges[0] for j in ranges[1]]


# ---------------------------------------------------------------------------
# dyadic maximal function and stopping-time families
# ---------------------------------------------------------------------------

COARSEST = -8  # side 256: far coarser than any cube meeting the domain


def brute_dyadic_maximal(g: Grid3, shift: tuple) -> list:
    """M^D g at every cell center: max over the scales k = COARSEST..L of
    the average of g over the grid cube holding the center."""
    L, n = g.level, g.cells
    best_num = [0] * (n ** g.dim)
    best_den = [1] * (n ** g.dim)
    for k in range(COARSEST, L + 1):
        size = 3 << (L - k)
        sign = 1 if k % 2 == 0 else -1
        # per axis, the cube start (third units) holding each cell center
        starts = []
        for a in shift:
            b0 = 3 * (1 << L) + sign * a * (1 << (L - k))
            starts.append([3 * i + 1 - ((3 * i + 1 - b0) % size)
                           for i in range(n)])
        meas = size ** g.dim
        cache = {}
        for flat in range(n ** g.dim):
            idx = (flat,) if g.dim == 1 else divmod(flat, n)
            key = tuple(st[i] for st, i in zip(starts, idx))
            s = cache.get(key)
            if s is None:
                s = g.integral([(x, x + size) for x in key])
                cache[key] = s
            if s * best_den[flat] > best_num[flat] * meas:
                best_num[flat], best_den[flat] = s, meas
    return [Fraction(a, b * g.den) for a, b in zip(best_num, best_den)]


def check_family_sparse(levels: dict, level: int, what: str, root=None):
    """Disjoint cubes within a level, consecutive levels, each level inside
    the previous one with |Ω_{k+1} ∩ Q| <= |Q|/2 for every Q of level k.
    ``root`` (a box) acts as an extra level before the first."""
    keys = sorted(levels)
    require(keys == list(range(keys[0], keys[0] + len(keys))) if keys else True,
            "%s: levels %r are not consecutive" % (what, keys))
    boxes = {k: [cube_box(c, level) for c in levels[k]] for k in keys}
    if root is not None and keys:
        boxes[keys[0] - 1] = [root]
    for k, bs in boxes.items():
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                require(not box_meets(bs[i], bs[j]),
                        "%s: level %d cubes %d and %d overlap" % (what, k, i, j))
    for k in sorted(boxes):
        inner = boxes.get(k + 1, [])
        for s in inner:
            require(any(box_inside(s, b) for b in boxes[k]),
                    "%s: a level %d cube is outside level %d" % (what, k + 1, k))
        for b in boxes[k]:
            m = 0
            for s in inner:
                if box_inside(s, b):
                    m += box_measure(s)
                else:
                    require(not box_meets(s, b),
                            "%s: partial overlap across levels" % what)
            require(2 * m <= box_measure(b),
                    "%s: level %d cube keeps less than half its measure"
                    % (what, k))


def sparse_average_sum(g: Grid3, levels: dict, exclude_next: bool) -> list:
    """Σ_k Σ_{Q in level k} avg(|f|, Q) at every cell whose center is in Q
    (and, with exclude_next, not in a cube of level k + 1)."""
    n = g.cells
    out = [Fraction(0)] * (n ** g.dim)
    covered = {}
    for k, cubes in levels.items():
        cells = set()
        for c in cubes:
            cells.update(flat_cells(cells_with_center_in(cube_box(c, g.level), n), n))
        covered[k] = cells
    for k, cubes in levels.items():
        skip = covered.get(k + 1, set()) if exclude_next else set()
        for c in cubes:
            box = cube_box(c, g.level)
            val = g.average(box)
            for flat in flat_cells(cells_with_center_in(box, n), n):
                if flat not in skip:
                    out[flat] += val
    return out


def check_cz_family(g: Grid3, family: dict, md: list, what: str):
    """A family from the Calderón-Zygmund stopping scheme: sparse, level k
    is exactly the set of maximal grid cubes with average > 2^((n+1)k), and
    their cells are exactly {M^D f > 2^((n+1)k)}."""
    levels = family["levels"]
    check_family_sparse(levels, g.level, what)
    n = g.cells
    for k, cubes in levels.items():
        t = Fraction(2) ** ((g.dim + 1) * k)
        cells = set()
        for shift, kq, j in cubes:
            box = cube_box((shift, kq, j), g.level)
            require(g.average(box) > t,
                    "%s: a level %d cube has average <= threshold" % (what, k))
            parent = cube_box((shift, kq - 1, tuple(
                _parent_index(a, kq, ji) for a, ji in zip(shift, j))), g.level)
            require(box_inside(box, parent), "%s: parent arithmetic" % what)
            require(g.average(parent) <= t,
                    "%s: a level %d cube is not maximal" % (what, k))
            cells.update(flat_cells(cells_with_center_in(box, n), n))
        above = {i for i, v in enumerate(md) if v > t}
        require(cells == above,
                "%s: level %d cubes do not cover {M^D f > 2^%d}"
                % (what, k, (g.dim + 1) * k))


def _parent_index(flag: int, k: int, j: int) -> int:
    """Index of the scale k-1 cube holding scale-k cube j (flag a)."""
    # corner in units of 2^-k / 3: 3j + s_k a; parent side is 6 such units
    sign = 1 if k % 2 == 0 else -1
    u = 3 * j + sign * flag
    psign = -sign
    # parent corner 2·(3J + psign·a) must be <= u < that + 6
    return (u - 2 * psign * flag) // 6


def check_cz_bound(g: Grid3, family: dict, md: list, gap, sparse_op, what: str):
    """M^D f <= 2^(n+1) A_S f cellwise with A_S f recomputed here; the
    program's sparse_operator and its pointwise gap agree exactly."""
    c = 2 ** (g.dim + 1)
    a_s = sparse_average_sum(g, family["levels"], exclude_next=False)
    for i, (m, a) in enumerate(zip(md, a_s)):
        require(m <= c * a, "%s: M^D f > 2^(n+1) A_S f at cell %d" % (what, i))
    if sparse_op is not None:
        require(list(sparse_op) == a_s,
                "%s: sparse_operator differs from the recomputed A_S |f|" % what)
    if gap is not None:
        e_sum = sparse_average_sum(g, family["levels"], exclude_next=True)
        mine = min(c * e - m for e, m in zip(e_sum, md))
        require(gap == mine, "%s: pointwise gap %s, recomputed %s"
                % (what, gap, mine))
        require(gap >= 0, "%s: negative pointwise gap" % what)


# ---------------------------------------------------------------------------
# median, oscillation, sharp maximal function (1-D, on q0 = [0, 1))
# ---------------------------------------------------------------------------

def median_of(vals: list) -> Fraction:
    """Largest attained m with #{v > m}, #{v < m} <= len/2."""
    s = sorted(vals)
    for v in sorted(set(s), reverse=True):
        above = len(s) - bisect.bisect_right(s, v)
        if 2 * above > len(s):
            break   # smaller values have even more mass above them
        if 2 * bisect.bisect_left(s, v) <= len(s):
            return v
    raise CheckFailed("no median exists")


def oscillation_of(vals: list, lam: Fraction) -> Fraction:
    """Half the shortest value window holding >= (1 - lam) of the values."""
    s = sorted(vals)
    need = math.ceil((1 - lam) * len(s))
    return min(s[i + need - 1] - s[i] for i in range(len(s) - need + 1)) / 2


def check_decomposition(values: list, level: int, dec: dict, sharp: list,
                        what: str):
    vals = [Fraction(v) for v in values]
    n = len(vals)
    base, span = 1 << level, 1 << level     # q0 = cells base .. base+span-1
    lam = Fraction(dec["lam"])
    require(lam == Fraction(1, 8), "%s: lambda %s is not 2^-3" % (what, lam))
    q0 = vals[base:base + span]
    require(dec["median"] == median_of(q0), "%s: median of f on q0" % what)
    root = [(3 * base, 3 * (base + span))]
    levels = dec["family"]["levels"]
    check_family_sparse(levels, level, what + " decomposition", root=root)
    for cube, omega in dec["coeffs"]:
        (lo, hi), = cube_box(cube, level)
        require(omega == oscillation_of(vals[lo // 3:hi // 3], lam),
                "%s: oscillation coefficient of a family cube" % what)
    # the sharp maximal function, recomputed over the dyadic tree of q0
    mine = [Fraction(0)] * n
    size = span
    while size >= 1:
        for start in range(base, base + span, size):
            w = oscillation_of(vals[start:start + size], lam)
            for i in range(start, start + size):
                if w > mine[i]:
                    mine[i] = w
        size //= 2
    require(list(sharp) == mine, "%s: sharp_maximal differs" % what)
    # the 4-and-2 bound |f - m| <= 4 M# f + 2 Σ ω χ_Q on q0
    rhs = [4 * s for s in mine]
    for cube, omega in dec["coeffs"]:
        (lo, hi), = cube_box(cube, level)
        for i in range(lo // 3, hi // 3):
            rhs[i] += 2 * omega
    gap = min(rhs[i] - abs(vals[i] - dec["median"])
              for i in range(base, base + span))
    require(gap == dec["gap"], "%s: decomposition gap %s, recomputed %s"
            % (what, dec["gap"], gap))
    require(gap >= 0, "%s: the 4-and-2 bound fails" % what)


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def check_pipeline(inp: dict, out: dict, what: str):
    """sparse-1d and the function part of rational-1d."""
    level = inp["level"]
    g = Grid3(absolute(inp["values"]), 1, level)
    for grid_out, shift in zip(out["grids"], ((0,), (1,))):
        name = "%s grid %s" % (what, shift)
        require(tuple(grid_out["family"]["shift"]) == shift,
                "%s: family on the wrong grid" % name)
        md = brute_dyadic_maximal(g, shift)
        require(list(grid_out["dyadic"]) == md,
                "%s: dyadic_maximal differs from the brute force" % name)
        check_cz_family(g, grid_out["family"], md, name)
        check_cz_bound(g, grid_out["family"], md, grid_out["gap"],
                       grid_out["sparse_op"], name)
    check_decomposition(inp["values"], level, out["decomp"], out["sharp"], what)


def brute_window_max_1d(vals: list, i: int) -> Fraction:
    """max over cell intervals [a, b) containing cell i of the mean of the
    integer values, exactly."""
    p = np.concatenate([[0], np.cumsum(np.asarray(vals, dtype=np.int64))])
    n = len(vals)
    best = Fraction(0)
    bs = np.arange(i + 1, n + 1)
    for a0 in range(0, i + 1, 256):
        a = np.arange(a0, min(i + 1, a0 + 256))
        s = p[bs][None, :] - p[a][:, None]
        d = bs[None, :] - a[:, None]
        r = (s / d).ravel()
        # float argmax, then exact comparison among the float ties
        top = r.max()
        for flat in np.nonzero(r >= top * (1 - 1e-12))[0]:
            cand = Fraction(int(s.ravel()[flat]), int(d.ravel()[flat]))
            if cand > best:
                best = cand
    return best


def brute_window_max_2d(arr: np.ndarray, i: int, j: int) -> Fraction:
    n = arr.shape[0]
    s = np.zeros((n + 1, n + 1), dtype=np.int64)
    s[1:, 1:] = arr.cumsum(0).cumsum(1)
    best = Fraction(0)
    for d in range(1, n + 1):
        w = s[d:, d:] - s[:-d, d:] - s[d:, :-d] + s[:-d, :-d]
        block = w[max(0, i - d + 1):min(i, n - d) + 1,
                  max(0, j - d + 1):min(j, n - d) + 1]
        if block.size:
            cand = Fraction(int(block.max()), d * d)
            if cand > best:
                best = cand
    return best


def sample_cells(seed: int, count: int, total: int) -> list:
    rng = np.random.default_rng(seed)
    return sorted(int(c) for c in rng.choice(total, size=count, replace=False))


def check_maximal(inp: dict, out: dict, what: str, seed: int):
    dim, level = inp["dim"], inp["level"]
    vals = absolute(inp["values"])
    require(all(v.denominator == 1 for v in vals), "%s: integer input" % what)
    ints = [int(v) for v in vals]
    n = 3 << level
    hl = list(out["hl"])
    for c in sample_cells(seed, 8 if dim == 1 else 16, n ** dim):
        if dim == 1:
            ref = brute_window_max_1d(ints, c)
        else:
            ref = brute_window_max_2d(
                np.array(ints, dtype=np.int64).reshape(n, n), *divmod(c, n))
        require(hl[c] == ref, "%s: hl_maximal at cell %d is %s, brute force %s"
                % (what, c, hl[c], ref))
    # the sandwich on every cell, from M^(D_α) f of every grid α; the 1-D
    # operation runs no dyadic_maximal, so there the brute force alone serves
    g = Grid3(vals, dim, level)
    shifts = [tuple((b >> a) & 1 for a in range(dim)) for b in range(2 ** dim)]
    mds = {shift: brute_dyadic_maximal(g, shift) for shift in shifts}
    if out["grids"]:
        ran = [tuple(gr["family"]["shift"]) for gr in out["grids"]]
        require(sorted(ran) == sorted(shifts), "%s: not every grid was run" % what)
        for gr, shift in zip(out["grids"], ran):
            name = "%s grid %s" % (what, shift)
            md = mds[shift]
            require(list(gr["dyadic"]) == md,
                    "%s: dyadic_maximal differs from the brute force" % name)
            check_cz_family(g, gr["family"], md, name)
            check_cz_bound(g, gr["family"], md, None, None, name)
    for i, (m, h) in enumerate(zip(mds[(0,) * dim], hl)):
        require(m <= h, "%s: M^D f > M f at cell %d" % (what, i))
    c = 6 ** dim
    for i, h in enumerate(hl):
        require(h <= c * sum(md[i] for md in mds.values()),
                "%s: M f > 6^n Σ_α M^(D_α) f at cell %d" % (what, i))


def continuum_a2(a: float) -> float:
    """sup over p in [0, 1/2] of the A2 product of |x - c|^a over intervals
    straddling c (p = 0 is the one-sided interval, 1/(1 - a^2))."""
    def g(p):
        return ((p ** (1 + a) + (1 - p) ** (1 + a)) / (1 + a)
                * (p ** (1 - a) + (1 - p) ** (1 - a)) / (1 - a))
    ps = np.linspace(0.0, 0.5, 20001)
    vals = g(ps)
    i = int(np.argmax(vals))
    lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
    for _ in range(200):   # golden-section refinement of the bracket
        m1, m2 = lo + (hi - lo) * 0.381966, hi - (hi - lo) * 0.381966
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
    return max(float(vals.max()), float(g((lo + hi) / 2)))


def float_window_a2(w: np.ndarray) -> float:
    """max over all mesh windows of mean(w)·mean(1/w), in float64."""
    pw = np.concatenate([[0.0], np.cumsum(w)])
    pv = np.concatenate([[0.0], np.cumsum(1.0 / w)])
    best = 0.0
    for d in range(1, len(w) + 1):
        best = max(best, float(((pw[d:] - pw[:-d]) * (pv[d:] - pv[:-d])).max())
                   / (d * d))
    return best


def exact_interval_integral(vals: list, level: int, lo: Fraction, hi: Fraction):
    """∫_[lo, hi) of the step function with cell values vals on [-1, 2)."""
    h = Fraction(1, 1 << level)
    num, den = 0, 1     # gcd-free running sum, normalised once at the end
    i0 = max(0, math.floor((lo + 1) / h))
    i1 = min(len(vals), math.ceil((hi + 1) / h))
    for i in range(i0, i1):
        a = -1 + i * h
        overlap = min(hi, a + h) - max(lo, a)
        if overlap > 0:
            term = overlap * vals[i]
            num = num * term.denominator + term.numerator * den
            den *= term.denominator
    return Fraction(num, den)


def tower_matrix(level: int) -> np.ndarray:
    """Dense matrix of Σ_Q avg(f, Q)·χ_Q over [0, 1) and the dyadic
    intervals [1/2, 1/2 + 2^-k), k = 1..level, on cell-center atoms."""
    n = 3 << level
    base = 1 << level
    mat = np.zeros((n, n))
    spans = [(base, 2 * base)]
    spans += [(base + base // 2, base + base // 2 + (base >> k))
              for k in range(1, level + 1)]
    for a, b in spans:
        mat[a:b, a:b] += 1.0 / (b - a)
    return mat


def hilbert_matrix(level: int) -> np.ndarray:
    n = 3 << level
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    ad = np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ad > 0, np.log((2 * ad + 1) / (2 * ad - 1)), 0.0)
    return np.sign(d) * t


def weighted_norm_dense(mat: np.ndarray, w: np.ndarray) -> float:
    r = np.sqrt(w)
    return float(np.linalg.norm(r[:, None] * mat / r[None, :], 2))


def weighted_frobenius_tower(level: int, w: np.ndarray) -> float:
    n = 3 << level
    base = 1 << level
    spans = [(base, 2 * base)]
    spans += [(base + base // 2, base + base // 2 + (base >> k))
              for k in range(1, level + 1)]
    r = np.sqrt(w)
    total = 0.0
    for c0 in range(0, n, 512):
        rows = np.arange(c0, min(n, c0 + 512))
        block = np.zeros((len(rows), n))
        for a, b in spans:
            inside = (rows >= a) & (rows < b)
            block[inside, a:b] += 1.0 / (b - a)
        block = r[rows][:, None] * block / r[None, :]
        total += float((block * block).sum())
    return math.sqrt(total)


def weighted_frobenius_hilbert(level: int, w: np.ndarray) -> float:
    n = 3 << level
    total = 0.0
    for d in range(1, n):
        t = math.log((2 * d + 1) / (2 * d - 1))
        ratio = w[d:] / w[:-d]
        total += t * t * float((ratio + 1.0 / ratio).sum())
    return math.sqrt(total)


def check_weight(inp: dict, out: dict, what: str):
    a = inp["a"]
    top, dense = max(inp["levels"]), min(inp["levels"])
    vals = [Fraction(v) for v in inp["levels"][top]]
    wf = np.array([float(v) for v in vals])
    # the weight is |x - 1/2|^a at cell centers, to float accuracy
    centers = -1 + (np.arange(len(wf)) + 0.5) / (1 << top)
    require(np.allclose(wf, np.abs(centers - 0.5) ** a, rtol=1e-12, atol=0),
            "%s: weight values" % what)
    a2 = Fraction(out["a2"])
    fmax = float_window_a2(wf)
    require(float(a2) >= fmax * (1 - 1e-9),
            "%s: A2 %r below the float window maximum %r" % (what, float(a2), fmax))
    cont = continuum_a2(a)
    require(float(a2) <= cont * (1 + 1e-9),
            "%s: A2 %r above the continuum value %r" % (what, float(a2), cont))
    lo, hi = (Fraction(x) for x in out["witness"])
    m = hi - lo
    recip = [1 / v for v in vals]
    at_witness = (exact_interval_integral(vals, top, lo, hi) / m
                  * exact_interval_integral(recip, top, lo, hi) / m)
    require(at_witness == a2, "%s: A2 is not attained on its witness" % what)
    # operator norms: lower bounds of the true L2(w) norm
    wd = np.array([float(v) for v in inp["levels"][dense]])
    for est, mat in zip(out["norms"][dense],
                        (tower_matrix(dense), hilbert_matrix(dense))):
        ref = weighted_norm_dense(mat, wd)
        require(0 < est <= ref * (1 + 1e-9),
                "%s: level-%d norm estimate %r vs dense %r" % (what, dense, est, ref))
    for est, ref in zip(out["norms"][top],
                        (weighted_frobenius_tower(top, wf),
                         weighted_frobenius_hilbert(top, wf))):
        require(0 < est <= ref * (1 + 1e-9),
                "%s: level-%d norm estimate %r above Frobenius %r"
                % (what, top, est, ref))


def brute_truncations(vals: np.ndarray, i: int) -> float:
    """max over breakpoint pairs eps < nu of |∫_{eps<|x-y|<nu} f(y)/(x-y) dy|
    at the center x of cell i, every pair summed directly."""
    n = len(vals)
    u = np.arange(1, n)
    left = np.where(i - u >= 0, vals[np.clip(i - u, 0, n - 1)], 0.0)
    right = np.where(i + u < n, vals[np.clip(i + u, 0, n - 1)], 0.0)
    # ∫ over the cell at distance u of 1/(x - y) is ±log((u + 1/2)/(u - 1/2))
    terms = np.log((u + 0.5) / (u - 0.5)) * (left - right)
    best = 0.0
    for a in range(len(terms)):
        best = max(best, float(np.abs(np.cumsum(terms[a:])).max()))
    return best


def check_czo(inp: dict, out: dict, what: str, seed: int):
    vals = np.array([float(v) for v in inp["values"]])
    tf = out["tf"]
    for c in sample_cells(seed, 8, len(vals)):
        ref = brute_truncations(vals, c)
        require(abs(float(tf[c]) - ref) <= 1e-9 * (1 + ref),
                "%s: maximal_truncated at cell %d is %r, enumeration %r"
                % (what, c, float(tf[c]), ref))
    require(out["violations"] == 0, "%s: dominate reports violations" % what)
    require(Fraction(out["gap"]) >= 0, "%s: negative decomposition gap" % what)


def check_cover(boxes: list, covers: list, what: str):
    require(len(boxes) == len(covers), "%s: %d boxes, %d covers"
            % (what, len(boxes), len(covers)))
    for (lo, hi), (shift, k, j, corner) in zip(boxes, covers):
        side = Fraction(2) ** -k
        sign = 1 if k % 2 == 0 else -1
        mine = tuple((ji + Fraction(sign * a, 3)) * side
                     for a, ji in zip(shift, j))
        require(tuple(corner) == mine,
                "%s: cube corner is off its grid" % what)
        require(all(c <= x and y <= c + side
                    for c, x, y in zip(mine, lo, hi)),
                "%s: cover cube misses its box" % what)
        require(side <= 6 * (hi[0] - lo[0]),
                "%s: cover side above 6 times the box side" % what)


def check_workload(name: str, inputs: list, outputs: list, seed: int) -> list:
    """Run every check on the outputs of one round.  Returns the messages
    of the failed checks (empty when all hold); failed operations, whose
    output is None, are skipped."""
    problems = []
    for op, (inp, out) in enumerate(zip(inputs, outputs)):
        if out is None:
            continue
        what = "%s op %d" % (name, op)
        try:
            if name == "sparse-1d":
                check_pipeline(inp, out, what)
            elif name == "rational-1d":
                if "boxes" in inp:
                    check_cover(inp["boxes"], out, what)
                else:
                    require(list(inp["values"]) == list(inp["written"]),
                            "%s: CSV round trip is not exact" % what)
                    check_pipeline(inp, out, what)
            elif name == "maximal":
                check_maximal(inp, out, what, seed * 100 + op)
            elif name == "weighted":
                if "a" in inp:
                    check_weight(inp, out, what)
                else:
                    check_czo(inp, out, what, seed * 100 + op)
            else:
                raise CheckFailed("unknown workload %r" % name)
        except CheckFailed as e:
            problems.append(str(e))
    return problems
