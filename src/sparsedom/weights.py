"""A2 weights, weighted norms, and the empirical linearity scan.

A weight is a step function with strictly positive cell values.  Its A2
constant on the desk model is the exact maximum of

    (1/|R|) ∫_R w  ·  (1/|R|) ∫_R w⁻¹

over a finite search family: every mesh-corner-aligned cube plus every
grid cube of every shifted grid, clipped to the domain.

Every region of the family is an integer window [lo, hi) per axis on the
h/3 lattice counted from the domain's lower corner: mesh cubes have
corners at multiples of 3, and a grid cube of scale k <= level has corners
(3j + b)·2^(level-k), b in {-1, 0, 1}, clipped to [0, 3n) for n cells per
axis.  The prescreen scores regions from the cell-corner prefix tables P
of the two factors w and w⁻¹ (``stepfn._prefix_table``: cumulative sums
over the cells).  Mesh cubes of side d are scored by differencing P along
each axis in turn (``stepfn._cube_sums``), the cubes of one grid at every
scale by ``stepfn._grid_scale_sums``: per axis it reads
T(x) = (3 - r)·P[q] + r·P[min(q + 1, n)] at each clipped corner
x = 3q + r and differences consecutive corners.  A score is the product
of the two window sums over the squared measure, the area read the same
way from the table of 1 per cell.  It runs in two passes.
Pass 1 builds float64 tables and finds the sides d whose largest score m_d
is near the top, scoring only the sides a bisection cannot rule out.
Pass 2 builds long-double tables, scores every grid cube, and scores the
mesh cubes of only those sides.

The float images v̂ of a factor are its values times 2^-e, e the largest
bit-length difference of numerator and denominator, each rounded once
(relative error 2⁻⁵³) from the exact quotient, once per ``Weight``.
They lie in (0, 2), so no
table entry overflows; one power of two per factor scales every score by
2^-(e_w + e_v), which cancels in every comparison below; and the largest
is at least 1/2, so the gate on b_L (Σv̂/min v̂ < 2⁴⁵) keeps them normal.

The band.  With u the unit roundoff of the tables (2⁻⁶⁴ in long double,
2⁻⁵³ in float64) and γ_k = ku/(1 - ku), every table entry is a sum of the
v̂ of one factor in which each passes through at most D(n-1) roundings:
n - 1 per axis of cumulative sums, whose first addition, to 0, is exact.
Per axis, a grid cube rounds at each of its two corners two products c·P
(c an exact integer) and their sum, then the difference of the two: 3
more roundings per axis, with coefficients of absolute sum 6 per axis
and 6^D in all.  A mesh cube adds its 2^D signed entries in D roundings.
Every entry is at most Σv̂, so either sum is off by at most 6^D·γ_K·Σv̂,
K = D(n-1) + 3D = D(n + 2); the region, at least one lattice cell, holds
at least min v̂.  Each window sum is thus within a relative
e = 6^D·γ_K·Σv̂/min v̂ + 2⁻⁵³ and each score within
r = e_w + e_v + O(e²) + 2u of the exact value, so every maximiser of the
exact product M scores at least M(1 - r) >= top·(1 - 2r).  The band
b(u) = 4·6^D·K·u·(Σŵ/min ŵ + Σv̂/min v̂) + 16·2⁻⁵³ is twice the
first-order 2r; the spare half covers the second-order terms and the
rounded threshold.  A weight whose long-double band b_L exceeds 1e-4 is
rejected.

The side threshold.  Pass 2 visits side d when m_d >= T·(1 - b₆₄), with
T = max_d m_d and b₆₄ = b(2⁻⁵³), ungated since it only chooses sides
(when b₆₄ >= 1 it visits every side).  Summing the relative errors above
in logarithms (-ln(1 - x) <= x/(1 - x)) puts every score ŝ of either
pass, its rounded product and quotient included, within

    |ln(ŝ/s)| <= λ = (b/4)/(1 - b/4)

of its exact value s, up to factors 1 + Ku < 1 + 2⁻³⁵ (for K < 2¹⁸)
that the margins below absorb; the squared measures, d^{2D} of a mesh cube
and at most (3n)^{2D} of a grid cube in lattice units, are exact in both
precisions (below 2⁵³ on every mesh the CLI accepts).  Let W*
attain T.  Its side is visited, so the long-double incumbent B, the
largest long-double score of the grid cubes and the visited sides, has
ln B >= ln T - λ₆₄ - λ_L.  A cube W of a skipped side has

    ln ŝ_L(W) <= ln s(W) + λ_L <= ln m_d + λ₆₄ + λ_L
              <  ln T + ln(1 - b₆₄) + 2·2⁻⁵³ + λ₆₄ + λ_L,

the 2⁻⁵³ terms for the two roundings of the threshold.  Pass 2 keeps W
when its raw product reaches fl(fl(B·keep)·|W|²), keep = fl(1 - b_L),
which is at least B·(1 - b_L)(1 - 2⁻⁶⁴)³·|W|².  So W is neither kept nor
the best when

    -ln(1 - b₆₄) - 2λ₆₄ >= 2λ_L - ln(1 - b_L) + 2·2⁻⁵³ + 3·2⁻⁶⁴.

For b₆₄ < 1 the left side is at least
b₆₄ + b₆₄²/2 - (b₆₄/2)(1 + b₆₄/3) >= b₆₄/2; with b_L <= 1e-4 the right
side is at most 1.51·b_L + 3·2⁻⁵³.  With c = Σŵ/min ŵ + Σv̂/min v̂ >= 2
and 6^D·K >= 24,

    b₆₄/2 - 1.51·b_L >= 6^D·K·c·2⁻⁵³·(2 - 6.04·2⁻¹¹) - 16.2·2⁻⁵³
                     >= 79·2⁻⁵³ > 3·2⁻⁵³.

Hence the long-double best, the kept cubes and their order are those of a
long-double pass over every side.

Pass 1 scores only some sides (``_side_search``).  Write R_d for the exact
largest raw product Σ_Q w·Σ_Q w⁻¹ over the mesh cubes Q of side d, and R̂_d
for its float64 value, so m_d = fl(R̂_d/d^{2D}).

Lemma.  R_d is nondecreasing in d, in every dimension.  Proof: let
d <= d' <= n and Q a cube of side d at corner i, 0 <= i_k <= n - d.  On
every axis the interval from j_k = min(i_k, n - d') to j_k + d' holds
[i_k, i_k + d): j_k <= i_k, and j_k + d' is i_k + d' >= i_k + d or
n >= i_k + d.  So the cube of side d' at corner j holds Q; w and w⁻¹ are
positive, so both its sums, and their product, are at least those of Q.

A raw product, one rounding short of a score, is also within λ₆₄ of its
exact value, so R_c <= e^{λ₆₄}·R̂_c; and m_d = max_Q ŝ(Q), the rounding
being monotone.  Hence, for sides a < d < c,

    m_d <= e^{λ₆₄}·R_d/d^{2D} <= e^{λ₆₄}·R_c/d^{2D}
        <= e^{2λ₆₄}·R̂_c/(a + 1)^{2D},

up to the factors (1 + 2⁻³⁵)².  For b₆₄ < 1, λ₆₄ < 1/3 and e^y <= 1 + 2y
for y = 2λ₆₄ < 2/3, so grow = 1 + 4λ₆₄ + 2⁻³², as computed, exceeds
e^{2λ₆₄}·(1 + 2⁻³⁵)²·(1 + 2⁻⁵³)², and the float64 value of
R̂_c·grow/(a + 1)^{2D}, (a + 1)^{2D} being exact, bounds every m_d inside.

The search scores sides 1 and n, then keeps side ranges (a, c), both ends
scored, in a list sorted by that bound.  It pops the largest; if the bound is
below T_lb·(1 - b₆₄), both as rounded, T_lb the largest score found so
far, it stops, since every range left has a bound as low; otherwise it
scores the midpoint and pushes both halves.  Every unscored side then lies
in a range whose bound fell below that threshold, which only grows, so its
m_d is below the full sweep's threshold fl(T·(1 - b₆₄)) <= T: the unscored
sides are neither visited nor the top, and T and the visited sides are
those of scoring every side.  When b₆₄ >= 1 every side is visited and no
side is scored.  With x86's 80-bit long double that cannot follow the gate
on b_L, which keeps b₆₄ below 2¹¹·10⁻⁴ + 16·2⁻⁵³ < 0.21; with a wider one
it can.

Every region whose long-double score is at least B·(1 - b_L) is confirmed
exactly, mesh cubes by side d and row-major position first, then grid
cubes by grid, scale (fine to coarse) and row-major position.  An exact
window sum weights each cell by the lattice cells it holds, groups the
cells by the odd part o of their denominator o·2^t, adds each group's
numerators shifted to its largest t, and adds the groups pairwise in a
balanced tree that multiplies odd parts and keeps the larger power of
two: a float-frozen w sums to one integer over 2^t (under 80 bits at
level 10), w⁻¹ to one term per distinct value.  Windows with equal sorted
(o, t, numerator) terms, such as mirror candidates of a symmetric weight,
share one sum.  Products replace the best only when strictly larger, by
cross-multiplication, skipped for a (num, den) pair equal to the best's,
so the witness is the first maximiser in that order.  The Fraction
constant and the witness Box are built once.

Operator norms in L²(w) are estimated from below by power iteration on
the w-normal operator T*_w T, where T*_w = w⁻¹ Tᵗ w is the exact adjoint
for the weighted pairing ⟨f, g⟩_w = Σ f g w h^n.  Estimates are Rayleigh
quotients, hence monotone nondecreasing in the iteration count, and every
run spot-checks the duality identity ⟨Tf, g⟩_w = ⟨f, T*_w g⟩_w (a NaN gap
fails).  They read ŵ, doubled if e_w is odd: w over an even power of two,
exact through the matvecs, the FFT and sqrt, so every figure is that of
float(w) wherever float(w) is normal.
"""

import bisect
import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product

import numpy as np

from .rational import ldexp_ratio, rat, rat_str
from .geometry import Box, Cube, GridId
from .stepfn import (Mesh, StepFunction, _cube_sums, _cube_windows,
                     _grid_scale_sums, _prefix_table, _TOP_SCALE)
from .sparse import SparseFamily, verify_sparse_family

__all__ = [
    "Weight",
    "A2Report",
    "a2_constant",
    "CellOperator",
    "sparse_family_operator",
    "amalgam_pair_operator",
    "hilbert_full_operator",
    "tower_family",
    "NormEstimate",
    "operator_norm_weighted",
    "ScanRow",
    "ScanTable",
    "a2_scan",
]

# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class Weight:
    """Strictly positive step function; its reciprocal, (num, den) pairs
    and float images are built on first use."""

    def __init__(self, fn: StepFunction):
        if any(v.numerator <= 0 for v in fn.values):
            raise ValueError("weight values must be strictly positive")
        self.fn = fn

    @property
    def mesh(self) -> Mesh:
        return self.fn.mesh

    @cached_property
    def reciprocal(self) -> StepFunction:
        return StepFunction(self.fn.mesh, [1 / v for v in self.fn.values])

    @cached_property
    def _terms(self) -> tuple[list, list]:
        """The per-cell (num, den) pairs of w and of w⁻¹."""
        w = [(v.numerator, v.denominator) for v in self.fn.values]
        return w, [(d, n) for n, d in w]

    @cached_property
    def _images(self) -> list:
        """(v̂, e) for w and for w⁻¹ (module docstring), v̂ mesh-shaped."""
        out = []
        for t in self._terms:
            e = max(n.bit_length() - d.bit_length() for n, d in t)
            out.append((np.array([ldexp_ratio(n, d, e) for n, d in t])
                        .reshape(self.mesh.shape), e))
        return out

    @staticmethod
    def power(mesh: Mesh, a: float) -> "Weight":
        """w(x) = max_i |x_i - 1/2|^a sampled at cell centers, frozen to
        exact rationals (|x - 1/2|^a in one dimension).  Cell i of an axis
        has its center at -1 + (2i + 1)/q, q = 2^(level+1), so its distance
        to 1/2 is the odd integer |2i + 1 - 3·2^level| over q; each float is
        one correctly rounded division."""
        q, mid = 2 << mesh.level, 3 << mesh.level
        dists = [abs(2 * i + 1 - mid) for i in range(mesh.cells_axis)]
        frozen = {d: rat((d / q) ** a) for d in set(dists)}
        return Weight(StepFunction(mesh, [frozen[max(ds)] for ds in
                                          iter_product(dists, repeat=mesh.dim)]))


# ---------------------------------------------------------------------------
# A2 constant
# ---------------------------------------------------------------------------

@dataclass
class A2Report:
    constant: Fraction
    witness: Box
    witness_kind: str
    search: str
    candidates_confirmed: int

    def to_json(self) -> dict:
        return {
            "constant": rat_str(self.constant),
            "constant_float": float(self.constant),
            "witness": self.witness.to_json(),
            "witness_kind": self.witness_kind,
            "search": self.search,
            "candidates_confirmed": self.candidates_confirmed,
        }


def _side_score(tw: np.ndarray, tv: np.ndarray, d: int) -> tuple:
    """(R̂_d, m_d) of the module docstring: the largest float64 raw product
    of the mesh cubes of side d, read from the float64 prefix tables of
    the images of w and w⁻¹, and that over d^{2D}, the side's score."""
    raw = (_cube_sums(tw, d) * _cube_sums(tv, d)).max()
    return raw, raw / float(d) ** (2 * tw.ndim)


def _side_search(factors, band: float) -> tuple:
    """Pass 1 of the module docstring from the float images of w and w⁻¹
    and ``band`` = b₆₄: the largest side score T and the sides d with
    m_d >= T·(1 - band) in increasing order, as scoring every side gives
    them, by a best-first bisection over side ranges.  When band >= 1 it
    scores no side and returns (None, every side)."""
    n = len(factors[0])
    if band >= 1:  # every side is within the band of the top
        return None, list(range(1, n + 1))
    tw, tv = (_prefix_table(f, np.float64) for f in factors)
    keep, dim = 1 - band, tw.ndim
    lam = (band / 4) / (1 - band / 4)
    grow = 1 + 4 * lam + 2.0 ** -32  # e^{2λ₆₄} and the rounding margins
    raw, score = np.zeros(n + 1), np.full(n + 1, -np.inf)  # -inf: not scored
    raw[1], score[1] = _side_score(tw, tv, 1)
    raw[n], score[n] = _side_score(tw, tv, n)
    top = max(score[1], score[n])
    ranges = []  # (bound on the sides strictly inside, a, c), increasing

    def push(a, c):
        if c - a > 1:
            bisect.insort(ranges, (raw[c] * grow / (a + 1) ** (2 * dim), a, c))

    push(1, n)
    # every range left has a bound at most the last one's
    while ranges and ranges[-1][0] >= top * keep:
        _, a, c = ranges.pop()
        mid = (a + c) // 2
        raw[mid], score[mid] = _side_score(tw, tv, mid)
        top = max(top, score[mid])
        push(a, mid)
        push(mid, c)
    return top, np.flatnonzero(score >= top * keep).tolist()


def _certified_band(dim: int, cells_axis: int, factors, u: float) -> float:
    """Relative band b(u) of the prescreen scores of tables with unit
    roundoff u (derivation in the module docstring); ``factors`` are the
    float images of w and w⁻¹."""
    k = dim * (cells_axis + 2)
    cond = sum(math.fsum(f.flat) / f.min() for f in factors)
    return 4.0 * 6 ** dim * k * u * cond + 16 * 2.0 ** -53


def _window_sum_exact(terms, n: int, lo, hi, memo: dict) -> tuple[int, int]:
    """Exact Σ over the lattice window [lo, hi) in lattice units, as an
    unreduced pair (num, den), from the cells' (num, den) ``terms``, grouped
    by odd denominator as in the module docstring; ``memo`` maps each
    window's sorted group terms to their sum."""
    axes = [[(c, min(b, 3 * c + 3) - max(a, 3 * c))
             for c in range(a // 3, (b + 2) // 3)] for a, b in zip(lo, hi)]
    groups = {}
    for cells in iter_product(*axes):
        flat, wt = 0, 1
        for c, x in cells:
            flat, wt = flat * n + c, wt * x
        num, den = terms[flat]
        t = (den & -den).bit_length() - 1
        g = groups.setdefault(den >> t, [t, 0])
        if t > g[0]:
            g[0], g[1] = t, g[1] << (t - g[0])
        g[1] += wt * num << (g[0] - t)
    key = tuple(sorted((odd, t, s) for odd, (t, s) in groups.items()))
    if key not in memo:
        parts = [(s, odd, t) for odd, t, s in key]
        while len(parts) > 1:
            # a/(p·2^t) + c/(q·2^u) over p·q·2^m, m = max(t, u)
            parts = [((a * q << max(u - t, 0)) + (c * p << max(t - u, 0)),
                      p * q, max(t, u))
                     for (a, p, t), (c, q, u) in zip(parts[::2], parts[1::2])] \
                + parts[len(parts) - len(parts) % 2:]
        s, odd, t = parts[0]
        memo[key] = (s, odd << t)
    return memo[key]


def a2_constant(w: Weight) -> A2Report:
    """Exact max of avg(w,R)·avg(w⁻¹,R) over the search family: all
    mesh-corner-aligned cubes and all grid cubes of all 2ⁿ shifted grids
    (clipped to the domain).  See the module docstring for the search."""
    mesh, terms = w.mesh, w._terms
    if all(p == terms[0][0] for p in terms[0]):
        # every average is the cell value, so every product is exactly 1
        return A2Report(
            constant=Fraction(1),
            witness=mesh.cell_box((0,) * mesh.dim),
            witness_kind="mesh-aligned",
            search="constant weight: every region gives exactly 1",
            candidates_confirmed=1,
        )
    dim, n = mesh.dim, mesh.cells_axis
    factors = [image for image, _ in w._images]
    band = _certified_band(dim, n, factors,
                           float(np.finfo(np.longdouble).eps) / 2)
    if band > 1e-4:
        raise ValueError("weight too ill-conditioned for a certified search")
    keep = 1 - np.longdouble(band)
    # pass 1: only the sides whose float64 maximum is within the float64
    # band of the top can hold a long-double candidate
    band64 = _certified_band(dim, n, factors, 2.0 ** -53)
    sides = _side_search(factors, band64)[1]
    tw, tv = (_prefix_table(f, np.longdouble) for f in factors)
    ones = _prefix_table(np.ones(mesh.shape, dtype=np.int64), np.int64)
    scales = range(mesh.level, _TOP_SCALE - 1, -1)
    blocks = []
    for grid in GridId.all_grids(dim):
        sw, sv, areas = (_grid_scale_sums(t, mesh, grid, scales)
                         for t in (tw, tv, ones))
        for k in scales:
            area = areas[k][0].astype(np.longdouble)
            blocks.append((grid, k, areas[k][1], sw[k][0] * sv[k][0] / (area * area)))
        del sw, sv, areas  # before the next grid's are read
    best = max(block[-1].max() for block in blocks)
    # pass 2, one pass over those sides: keep every cube within the band
    # of the running best, a superset of the final candidates
    kept = []
    for d in sides:
        raw = (_cube_sums(tw, d) * _cube_sums(tv, d)).ravel()
        norm = np.longdouble(d) ** (2 * dim)
        best = max(best, raw.max() / norm)
        idx = np.flatnonzero(raw >= best * keep * norm)
        if idx.size:
            kept.append((d, idx, raw[idx]))
    thresh = best * keep

    windows = []
    for d, idx, raw in kept:
        for i in idx[raw >= thresh * np.longdouble(d) ** (2 * dim)]:
            lo = [3 * int(c) for c in np.unravel_index(i, (n - d + 1,) * dim)]
            windows.append((lo, [c + 3 * d for c in lo], "mesh-aligned"))
    for grid, k, first, score in blocks:
        cubes = [Cube(grid, k, tuple(j0 + i for j0, i in zip(first, pos)))
                 for pos in np.argwhere(score >= thresh).tolist()]
        lo, hi = (x.tolist() for x in _cube_windows(mesh, cubes))
        windows += [(a, b, "grid-cube") for a, b in zip(lo, hi)]

    sums = {}
    best_num, best_den, best_win = 0, 1, None
    for lo, hi, kind in windows:
        (nw, dw), (nv, dv) = (_window_sum_exact(t, n, lo, hi, sums) for t in terms)
        area = math.prod(b - a for a, b in zip(lo, hi))
        num, den = nw * nv, dw * dv * area * area
        if (num, den) != (best_num, best_den) and num * best_den > best_num * den:
            best_num, best_den, best_win = num, den, (lo, hi, kind)
    lo, hi, kind = best_win
    corner, third = mesh.domain.lo, mesh.h / 3
    # strip the common power of two before the gcd: for float-frozen
    # weights it is about half the bits of each operand
    two = ((best_num | best_den) & -(best_num | best_den)).bit_length() - 1
    return A2Report(
        constant=Fraction(best_num >> two, best_den >> two),
        witness=Box(tuple(c + a * third for c, a in zip(corner, lo)),
                    tuple(c + b * third for c, b in zip(corner, hi))),
        witness_kind=kind,
        search="search-family constant: mesh-corner-aligned cubes + "
               "all shifted-grid cubes clipped to the domain",
        candidates_confirmed=len(windows),
    )


# ---------------------------------------------------------------------------
# linear operators on cell-value vectors
# ---------------------------------------------------------------------------

@dataclass
class CellOperator:
    """Float64 linear operator on cell-value vectors with exact transpose.

    ``apply_t`` must be the transpose for the *unweighted* pairing; the
    weighted adjoint w⁻¹ Aᵗ w is formed where needed.
    """

    size: int
    _apply: callable
    _apply_t: callable

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(np.asarray(v, dtype=float))

    def apply_t(self, v: np.ndarray) -> np.ndarray:
        return self._apply_t(np.asarray(v, dtype=float))


def _span_operator(mesh: Mesh, boxes: list) -> CellOperator:
    """Σ avg(v, source)·χ_target over the (target, source) box pairs as a
    float matvec; the transpose swaps target and source."""
    if mesh.dim != 1:
        raise ValueError("operator adapters are one-dimensional")
    h = float(mesh.h)
    spans = [(mesh.cells(target), mesh.cells(source),
              h / float(source.measure)) for target, source in boxes]

    def matvec(rows):
        def apply(v):
            out = np.zeros_like(v)
            for target, source, coeff in rows:
                out[target] += coeff * v[source].sum()
            return out
        return apply

    return CellOperator(mesh.size, matvec(spans),
                        matvec([(s, t, c) for t, s, c in spans]))


def sparse_family_operator(mesh: Mesh, fam: SparseFamily) -> CellOperator:
    """A_S f = Σ avg(f, Q)·χ_Q as a float matvec (n=1).

    Averages are geometric (integral over Q / |Q|); for cubes inside the
    domain this is the atom mean.  The matrix is symmetric.
    """
    return _span_operator(mesh, [(q.box, q.box) for _, q in fam.pairs()])


def amalgam_pair_operator(mesh: Mesh, sh) -> CellOperator:
    """T_m f = Σ avg(f, cover)·χ_q as a float matvec; transpose is the
    adjoint Σ avg over q placed on the cover."""
    return _span_operator(mesh, [(q.box, cover.box)
                                 for alpha in GridId.all_grids(1)
                                 for _, q, cover in sh.family_of(alpha)])


def hilbert_full_operator(mesh: Mesh) -> CellOperator:
    """Full-truncation Hilbert matrix: entry (i,j) = ∫_{cell j} dy/(x_i−y)
    for j ≠ i, zero on the diagonal.

    The entries are Toeplitz and h-independent: t_d = log((d+½)/(d−½)) for
    d = i−j ≥ 1 and t_{−d} = −t_d, so the matvec is one FFT convolution.
    """
    if mesh.dim != 1:
        raise ValueError("operator adapters are one-dimensional")
    n = mesh.size
    d = np.arange(1, n)
    t = np.log((2 * d + 1.0) / (2 * d - 1.0))
    kernel = np.concatenate([-t[::-1], [0.0], t])  # index d+(n-1), d=-n+1..n-1
    m = 1 << (3 * n - 3).bit_length()
    kernel_hat = np.fft.rfft(kernel, m)

    def apply(v):
        conv = np.fft.irfft(kernel_hat * np.fft.rfft(v, m), m)
        return conv[n - 1:2 * n - 1]

    def apply_t(v):
        return -apply(v)

    return CellOperator(n, apply, apply_t)


def tower_family(mesh: Mesh) -> SparseFamily:
    """Maximally sparse nested family: [0,1) and then the dyadic halves
    [1/2, 1/2 + 2^{-k}) shrinking toward 1/2, one cube per level down to
    the mesh scale."""
    if mesh.dim != 1:
        raise ValueError("tower family is one-dimensional")
    levels = {0: [Cube(GridId.standard(1), 0, (0,))]}
    for k in range(1, mesh.level + 1):
        levels[k] = [Cube(GridId.standard(1), k, (1 << (k - 1),))]
    fam = SparseFamily(grid=GridId.standard(1), levels=levels)
    verify_sparse_family(fam)
    return fam


# ---------------------------------------------------------------------------
# operator norm estimation
# ---------------------------------------------------------------------------

@dataclass
class NormEstimate:
    value: float
    converged: bool
    iterations: int
    duality_gap: float

    def to_json(self) -> dict:
        return {"value": self.value, "converged": self.converged,
                "iterations": self.iterations,
                "duality_gap": self.duality_gap}


def operator_norm_weighted(op: CellOperator, w: Weight, iters: int = 60,
                           seed: int = 0) -> NormEstimate:
    """Largest Rayleigh quotient of the w-normal operator found by power
    iteration: a lower bound for ‖op‖_{L²(w)}.

    Deterministic given the seed and monotone nondecreasing in ``iters``.
    Converged means an iteration from the 10th on raised the quotient by a
    relative 1e-9 at most.
    Each run spot-checks the duality identity ⟨Tf,g⟩_w = ⟨f,T*g⟩_w.
    """
    if iters < 10:
        raise ValueError("need at least 10 iterations")
    if op.size != w.mesh.size:
        raise ValueError("operator/weight size mismatch")
    image, e = w._images[0]  # w over an even power of two (module docstring)
    wv = image.ravel() * (1 + e % 2)
    h = float(w.mesh.h) ** w.mesh.dim

    def norm_w(v):
        return math.sqrt(h * float(np.dot(v * v, wv)))

    def adjoint_w(v):
        return op.apply_t(wv * v) / wv

    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal(op.size), rng.standard_normal(op.size)
    lhs = h * float(np.dot(op.apply(f) * g, wv))
    rhs = h * float(np.dot(f * adjoint_w(g), wv))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    if not gap <= 1e-6:
        raise ValueError("duality spot-check failed: gap %.3e" % gap)

    v = rng.standard_normal(op.size)
    v /= norm_w(v)
    best, converged, used = 0.0, False, 0
    for it in range(1, iters + 1):
        tv = op.apply(v)
        sigma = norm_w(tv)
        used = it
        if sigma <= best * (1 + 1e-9) and it >= 10:
            best = max(best, sigma)
            converged = True
            break
        best = max(best, sigma)
        z = adjoint_w(tv)
        nz = norm_w(z)
        if nz == 0.0:
            converged = True
            break
        v = z / nz
    return NormEstimate(value=best, converged=converged, iterations=used,
                        duality_gap=gap)


# ---------------------------------------------------------------------------
# the linearity scan
# ---------------------------------------------------------------------------

@dataclass
class ScanRow:
    a: float
    a2: float
    opnorm: float
    ratio: float
    a2_exact: Fraction
    converged: bool

    def to_json(self) -> dict:
        return {"a": self.a, "A2": self.a2, "opnorm": self.opnorm,
                "ratio": self.ratio,
                "A2_exact": rat_str(self.a2_exact),
                "converged": self.converged}


@dataclass
class ScanTable:
    kind: str
    level: int
    rows: list[ScanRow] = field(default_factory=list)
    slope: float = 0.0
    intercept: float = 0.0

    def to_json(self) -> dict:
        return {"kind": self.kind, "level": self.level,
                "center": "1/2",  # of the weights and the tower family
                "rows": [r.to_json() for r in self.rows],
                "slope": self.slope, "intercept": self.intercept}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["a", "A2", "opnorm", "ratio"])
        for r in self.rows:
            writer.writerow([repr(r.a), repr(r.a2), repr(r.opnorm),
                             repr(r.ratio)])
        return buf.getvalue()


def _scan_operator(kind: str, mesh: Mesh) -> CellOperator:
    if kind == "sparse":
        return sparse_family_operator(mesh, tower_family(mesh))
    if kind == "hilbert":
        return hilbert_full_operator(mesh)
    raise ValueError("unknown operator kind: %r" % kind)


def a2_scan(kinds, exponents, level: int, seed: int = 0) -> list[ScanTable]:
    """Scan ‖op‖_{L²(w_a)} against the A₂ constant of w_a(x) = |x−1/2|^a,
    one table per operator kind in ``kinds``.

    Each exponent must lie in (−1, 1) (the weight is A₂ in the continuum).
    Each weight and its A₂ constant are computed once and shared by every
    operator; row idx runs 80 power iterations with seed ``seed ^ idx``.
    A table's slope and intercept fit the norms against the A₂ constants
    when at least two constants differ (w_a and w_{−a} share one), and
    stay 0.0 otherwise.
    """
    exponents = list(exponents)
    for a in exponents:
        if not -1 < a < 1:
            raise ValueError("exponent %r outside (-1, 1)" % a)
    mesh = Mesh(dim=1, level=level)
    ops = [_scan_operator(kind, mesh) for kind in kinds]
    rows = [[] for _ in ops]
    for idx, a in enumerate(exponents):
        w = Weight.power(mesh, a)  # a = 0 gives 1 on every cell
        rep = a2_constant(w)
        a2 = float(rep.constant)
        for op, out in zip(ops, rows):
            est = operator_norm_weighted(op, w, iters=80, seed=seed ^ idx)
            out.append(ScanRow(a=float(a), a2=a2, opnorm=est.value,
                               ratio=est.value / a2, a2_exact=rep.constant,
                               converged=est.converged))

    tables = []
    for kind, out in zip(kinds, rows):
        table = ScanTable(kind=kind, level=level, rows=out)
        xs = np.array([r.a2 for r in out])
        if len(set(xs)) >= 2:  # else the line is not determined: 0.0 and 0.0
            slope, intercept = np.polyfit(xs, [r.opnorm for r in out], 1)
            table.slope, table.intercept = float(slope), float(intercept)
        tables.append(table)
    return tables
