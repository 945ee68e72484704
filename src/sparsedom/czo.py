"""The truncated Hilbert transform and its maximal truncation.

Everything here is one-dimensional: one concrete kernel K(x,y) = 1/(x-y)
is enough to exercise the whole domination chain, and its truncated
integrals against step functions have closed forms (logarithms), so no
quadrature is ever needed.

The maximal truncation T♮f(x) = sup_{0<ε<ν} |∫_{ε<|x-y|<ν} f(y)/(x-y) dy|
is computed losslessly: for a step function the derivative of the
truncated integral in either radius keeps a constant sign between
consecutive cell boundaries, so the supremum is attained with both radii
at distances from x to cell boundaries.  At a cell center those distances
are (2u+1)h/2, the band between two consecutive ones covers exactly one
cell on each side, and each band contributes log((2u+1)/(2u-1)) times the
difference of the two cell values — independent of h.  The supremum over
all radius pairs is then a running max-minus-min of prefix sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Box, Cube, GridId, dilate
from .rational import pow2, rat
from .sparse import _paint, _require_nonneg, oscillation_decompose, \
    verify_decomposition
from .stepfn import (
    StepFunction,
    average,
    hl_maximal,
    local_mean_oscillation,
    _cube_windows,
)

__all__ = [
    "hilbert_apply",
    "maximal_truncated",
    "OscillationReport",
    "oscillation_estimate_report",
    "DominationReport",
    "dominate",
]


def hilbert_apply(f: StepFunction, x, eps, nu) -> float:
    """∫_{eps<|x-y|<nu} f(y)/(x-y) dy, each cell integrated analytically.

    The truncation keeps the singularity outside the integration region,
    so any rational x is admissible.  Interval clipping is exact; only the
    final logarithms are float64.
    """
    if f.mesh.dim != 1:
        raise ValueError("the Hilbert transform is one-dimensional")
    x, eps, nu = rat(x), rat(eps), rat(nu)
    if not 0 < eps < nu:
        raise ValueError("need 0 < eps < nu")
    mesh = f.mesh
    regions = [(x - nu, x - eps), (x + eps, x + nu)]
    total = 0.0
    lo0 = mesh.domain.lo[0]
    for i, v in enumerate(f.values):
        if v == 0:
            continue
        a = lo0 + i * mesh.h
        b = a + mesh.h
        for rlo, rhi in regions:
            c, d = max(a, rlo), min(b, rhi)
            if c >= d:
                continue
            if d <= x:      # left of the singularity: kernel positive
                term = math.log(float(x - c) / float(x - d))
            else:           # right: kernel negative
                term = math.log(float(c - x) / float(d - x))
            total += float(v) * term
    return total


def maximal_truncated(f: StepFunction) -> StepFunction:
    """T♮f sampled at every cell center, promoted to a step function.

    Lossless over the continuous truncation parameters (see module
    docstring); float64 band sums, values then frozen as exact rationals
    of the samples, all over one power of two.  The values sit in the
    middle third of a zero pad of 3N cells, so band u at every center is
    one difference of two contiguous N-cell slices of the pad, shifted by
    -u and +u; the bands are added in order u = 1..N-1, each after its
    logarithm multiplies it, with a running max and min per cell.
    """
    mesh = f.mesh
    if mesh.dim != 1:
        raise ValueError("the Hilbert transform is one-dimensional")
    n = mesh.size
    pad = np.zeros(3 * n)
    pad[n:2 * n] = f._floats()
    u = np.arange(1, n, dtype=float)
    logtab = np.log((2 * u + 1) / (2 * u - 1))
    prefix = np.zeros(n)
    hi = np.zeros(n)
    lo = np.zeros(n)
    for uu in range(1, n):
        # band uu: f(x_i - uu·h) - f(x_i + uu·h) for every i, two slices
        prefix += logtab[uu - 1] * (pad[n - uu:2 * n - uu] - pad[n + uu:2 * n + uu])
        np.maximum(hi, prefix, out=hi)
        np.minimum(lo, prefix, out=lo)
    mant, exp = np.frexp(hi - lo)  # t = (mant·2^53)·2^(exp-53) exactly
    e = max(0, 53 - int(exp.min()))
    nums = (mant * 2.0**53).astype(np.int64).astype(object)
    return StepFunction._from_ints(mesh, nums << (exp + e - 53).astype(object), 1 << e)


# ---------------------------------------------------------------------------
# oscillation estimate and master domination
# ---------------------------------------------------------------------------

def _dilate_series(f: StepFunction, q: Box):
    """Exact Σ_{m≥0} 2^{-m} avg(f, dilate(q,m)), with the series' tail and
    its cut m.  The weight 2^{-m} is 2^{-mδ} at δ = 1, the smoothness
    exponent of the Hilbert kernel 1/(x-y).  Terms are kept until the
    dilate swallows the domain; the remainder is a geometric series summed
    in closed form (each further dilation exactly halves the average per
    axis)."""
    mesh = f.mesh
    rho = pow2(-(1 + mesh.dim))
    total = Fraction(0)
    for m in itertools.count():
        box = dilate(q, m)
        term = pow2(-m) * average(f, box)
        total += term
        if box.contains_box(mesh.domain):
            break
    tail = term * rho / (1 - rho)
    return total + tail, tail, m


@dataclass
class OscillationReport:
    lhs: Fraction
    rhs: Fraction
    ratio: float
    m_cut: int
    tail: Fraction
    defect: bool

    def to_json(self) -> dict:
        return {"lhs": float(self.lhs), "rhs": float(self.rhs),
                "ratio": self.ratio, "m_cut": self.m_cut,
                "tail": float(self.tail), "defect": self.defect}


def oscillation_estimate_report(f: StepFunction, q: Box, lam) -> OscillationReport:
    """ω_λ(T♮f; q) against the dilated-average series Σ 2^{-m} f_{2^m q}."""
    _require_nonneg(f)
    lam = rat(lam)
    tf = maximal_truncated(f)
    lhs = local_mean_oscillation(tf, q, lam)
    rhs, tail, m_cut = _dilate_series(f, q)
    if rhs == 0:
        return OscillationReport(lhs, rhs, 0.0 if lhs == 0 else math.inf,
                                 m_cut, tail, defect=lhs != 0)
    return OscillationReport(lhs, rhs, float(lhs / rhs), m_cut, tail, False)


@dataclass
class DominationReport:
    c: float
    median: Fraction
    decomposition_gap: Fraction
    cells_checked: int
    violations: int
    family_size: int

    def to_json(self) -> dict:
        return {"c": self.c, "median": float(self.median),
                "decomposition_gap": float(self.decomposition_gap),
                "cells_checked": self.cells_checked,
                "violations": self.violations,
                "family_size": self.family_size}


def dominate(f: StepFunction) -> DominationReport:
    """Dominates T♮f on the unit cube by M f plus dilated sparse averages.

    Runs the oscillation decomposition of g = T♮f on q0 = [0,1), verifies
    its 4-and-2 inequality exactly, replaces every oscillation coefficient
    by the full dilated-average series of f over its cube, and reports the
    smallest c with |g - m_g(q0)| ≤ c·(Mf + Σ_m 2^{-m} T_{S,m}f) on every
    cell of q0.  The median term is the compact-domain stand-in for the
    vanishing median over growing cubes.  The series, one value per cube
    (``_dilate_series``), is painted over the lcm of its denominators.
    """
    _require_nonneg(f)
    mesh = f.mesh
    q0 = Cube(GridId.standard(1), 0, (0,))
    cells = mesh.cells(q0.box)
    g = maximal_truncated(f)
    res = oscillation_decompose(g, q0)
    gap = verify_decomposition(g, res)
    cubes = [qc for _, qc in res.family.pairs()]
    series = [_dilate_series(f, qc.box)[0] for qc in cubes]
    d_ser = math.lcm(*(s.denominator for s in series))
    series = _paint(mesh, _cube_windows(mesh, cubes), [
        s.numerator * (d_ser // s.denominator) for s in series], d_ser)
    med = res.base_median
    lhs, d_lhs = abs(g - med)._num
    majorant, d_maj = (hl_maximal(f) + series)._num
    lhs, majorant = lhs[cells], majorant[cells]
    some = majorant != 0
    # rounding is monotone: the largest rounded quotient rounds the maximum
    c = max(lhs[some] * d_maj / (majorant[some] * d_lhs), default=0.0)
    return DominationReport(c, med, gap, lhs.size, int((lhs[~some] != 0).sum()),
                            res.family.cube_count())
