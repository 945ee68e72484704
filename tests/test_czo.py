"""Tests for the truncated Hilbert transform and maximal truncation.

The analytic evaluator is checked against adaptive quadrature (scipy) on
random truncations; the fast banded maximal truncation is checked against
brute enumeration of all breakpoint pairs through the analytic evaluator.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sparsedom import czo
from sparsedom.geometry import Box, Cube, GridId, dilate
from sparsedom.harness import generate_function
from sparsedom.rational import rat
from sparsedom.sparse import oscillation_decompose
from sparsedom.stepfn import (
    Mesh,
    StepFunction,
    average,
    dyadic_maximal,
    hl_maximal,
    local_mean_oscillation,
)
from sparsedom.czo import (
    dominate,
    hilbert_apply,
    maximal_truncated,
    oscillation_estimate_report,
)

from meshtools import indicator


def mk_random(mesh, seed, lo=-6, hi=6, support=None):
    rng = random.Random(seed)
    vals = []
    for i in range(mesh.size):
        x = mesh.domain.lo[0] + (i + Fraction(1, 2)) * mesh.h
        if support is not None and not support.contains_point((x,)):
            vals.append(Fraction(0))
        else:
            vals.append(Fraction(rng.randrange(lo, hi + 1)))
    return StepFunction(mesh, vals)


# ---------------------------------------------------------------------------
# kernel conditions
# ---------------------------------------------------------------------------

def kernel_quotients(points: int = 24) -> dict:
    """Observed maxima, on a lattice, of the size quotient |K(x,y)|·|x-y|
    and the smoothness quotient |K(x,y)-K(x',y)|·|x-y|²/|x-x'| (δ = 1,
    |x-x'| < |x-y|/2) of the Hilbert kernel K(x,y) = 1/(x-y)."""
    def kernel(x, y):
        return 1.0 / (x - y)

    xs = [-1.0 + 3.0 * (i + 0.5) / points for i in range(points)]
    size_max = smooth_max = 0.0
    samples = 0
    for x in xs:
        for y in xs:
            if x == y:
                continue
            size_max = max(size_max, abs(kernel(x, y)) * abs(x - y))
            for t in (0.05, 0.25, 0.45, -0.05, -0.25, -0.45):
                xp = x + t * abs(x - y)
                if xp == y or not abs(x - xp) < abs(x - y) / 2:
                    continue
                smooth_max = max(smooth_max, abs(kernel(x, y) - kernel(xp, y))
                                 * abs(x - y)**2 / abs(x - xp))
                samples += 1
    return {"size_max": size_max, "smooth_max": smooth_max, "samples": samples}


def test_hilbert_kernel_conditions_on_lattice():
    # size constant 1 and smoothness constant 2 at δ = 1, the exponent
    # behind the 2^{-m} weights of the dilated-average series
    rep = kernel_quotients()
    assert rep["samples"] > 1000
    assert rep["size_max"] <= 1.0 + 1e-12
    assert rep["smooth_max"] <= 2.0 + 1e-12
    # the smoothness quotient equals |x-y|/|x'-y|, which approaches 2 as x'
    # moves half the distance toward y: constant 2 is not slack we could
    # tighten to 1
    assert rep["smooth_max"] > 1.5


# ---------------------------------------------------------------------------
# hilbert_apply
# ---------------------------------------------------------------------------

def test_hilbert_apply_log2():
    # ∫_0^1 dy/(2-y) = log 2, any truncation window containing [0,1]
    mesh = Mesh(dim=1, level=4)
    f = indicator(mesh, Box.interval(0, 1))
    for eps, nu in ((1, 4), (Fraction(1, 2), 8), (Fraction(99, 100), 3)):
        assert abs(hilbert_apply(f, 2, eps, nu) - math.log(2)) < 1e-12


def test_hilbert_apply_symmetric_mass_cancels():
    mesh = Mesh(dim=1, level=4)
    vals = [Fraction(0)] * mesh.size
    c = mesh.size // 2
    for off, v in ((1, 3), (2, 7), (5, 2)):
        vals[c - off] = Fraction(v)
        vals[c + off] = Fraction(v)
    f = StepFunction(mesh, vals)
    x = mesh.domain.lo[0] + (c + Fraction(1, 2)) * mesh.h
    assert abs(hilbert_apply(f, x, Fraction(1, 100), 2)) < 1e-12


def test_hilbert_apply_zero_and_errors():
    mesh = Mesh(dim=1, level=3)
    z = StepFunction.zeros(mesh)
    assert hilbert_apply(z, Fraction(1, 3), Fraction(1, 8), 1) == 0
    f = StepFunction.constant(mesh, 1)
    with pytest.raises(ValueError):
        hilbert_apply(f, 0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        hilbert_apply(f, 0, Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        hilbert_apply(f, 0, 0, 1)


def test_hilbert_apply_additive_in_radius():
    mesh = Mesh(dim=1, level=5)
    f = mk_random(mesh, 3)
    rng = random.Random(4)
    for _ in range(40):
        x = Fraction(rng.randrange(-8, 17), 8)
        r = sorted(Fraction(rng.randrange(1, 64), 16) for _ in range(3))
        if r[0] == r[1] or r[1] == r[2]:
            continue
        whole = hilbert_apply(f, x, r[0], r[2])
        split = hilbert_apply(f, x, r[0], r[1]) + hilbert_apply(f, x, r[1], r[2])
        assert abs(whole - split) < 1e-10


def test_hilbert_apply_against_quadrature():
    # adaptive quadrature of f(y)/(x-y) over each clipped piece
    mesh = Mesh(dim=1, level=3)
    rng = random.Random(9)
    checked = 0
    while checked < 100:
        f = mk_random(mesh, rng.randrange(10**6))
        x = Fraction(rng.randrange(-8, 17), 8)
        eps = Fraction(rng.randrange(1, 8), 16)
        nu = eps + Fraction(rng.randrange(1, 32), 8)
        got = hilbert_apply(f, x, eps, nu)
        want = 0.0
        for i, v in enumerate(f.values):
            if v == 0:
                continue
            a = mesh.domain.lo[0] + i * mesh.h
            b = a + mesh.h
            for rlo, rhi in ((x - nu, x - eps), (x + eps, x + nu)):
                c, d = max(a, rlo), min(b, rhi)
                if c >= d:
                    continue
                val, _ = quad(lambda y: float(v) / (float(x) - y),
                              float(c), float(d), epsabs=1e-12, epsrel=1e-12)
                want += val
        assert abs(got - want) < 1e-8
        checked += 1


# ---------------------------------------------------------------------------
# maximal truncation
# ---------------------------------------------------------------------------

def breakpoints(mesh: Mesh, i: int) -> list:
    """Distances from the center of cell i to all cell boundaries."""
    x = mesh.domain.lo[0] + (i + Fraction(1, 2)) * mesh.h
    return sorted({abs(x - (mesh.domain.lo[0] + j * mesh.h))
                   for j in range(mesh.cells_axis + 1)})


def brute_at(f: StepFunction, i: int) -> float:
    """T♮f at the center of cell i by direct enumeration: the largest
    |hilbert_apply| over every pair of breakpoint radii (eps, nu)."""
    mesh = f.mesh
    x = mesh.domain.lo[0] + (i + Fraction(1, 2)) * mesh.h
    pts = breakpoints(mesh, i)
    return max(abs(hilbert_apply(f, x, pts[a], pts[b]))
               for a in range(len(pts)) for b in range(a + 1, len(pts)))


def test_maximal_truncated_zero():
    mesh = Mesh(dim=1, level=4)
    out = maximal_truncated(StepFunction.zeros(mesh))
    assert all(v == 0 for v in out.values)


def test_maximal_truncated_dominates_fixed_pairs():
    mesh = Mesh(dim=1, level=4)
    f = mk_random(mesh, 11)
    tf = maximal_truncated(f)
    for i in (0, mesh.size // 3, mesh.size - 1):
        x = mesh.domain.lo[0] + (i + Fraction(1, 2)) * mesh.h
        pts = breakpoints(mesh, i)
        for a, b in ((0, 3), (1, 5), (2, len(pts) - 1)):
            val = abs(hilbert_apply(f, x, pts[a], pts[b]))
            assert float(tf.values[i]) >= val - 1e-10


def test_maximal_truncated_single_cell_decay():
    # one loaded cell: at a far center the best window is the whole cell,
    # so T♮f(x) = v·log((x-a)/(x-b)) exactly
    mesh = Mesh(dim=1, level=3)
    vals = [Fraction(0)] * mesh.size
    vals[4] = Fraction(5)
    f = StepFunction(mesh, vals)
    tf = maximal_truncated(f)
    a = mesh.domain.lo[0] + 4 * mesh.h
    b = a + mesh.h
    for i in (10, 15, 20):
        x = mesh.domain.lo[0] + (i + Fraction(1, 2)) * mesh.h
        expect = 5 * math.log(float(x - a) / float(x - b))
        assert abs(float(tf.values[i]) - expect) < 1e-12
        assert abs(brute_at(f, i) - expect) < 1e-12


def test_maximal_truncated_matches_brute_enumeration():
    mesh = Mesh(dim=1, level=3)
    for seed in (0, 1, 2):
        f = mk_random(mesh, seed)
        tf = maximal_truncated(f)
        for i in range(mesh.size):
            assert abs(float(tf.values[i]) - brute_at(f, i)) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_maximal_truncated_sublinear(seed):
    mesh = Mesh(dim=1, level=4)
    rng = random.Random(seed)
    f = StepFunction(mesh, [Fraction(rng.randrange(-5, 6))
                            for _ in range(mesh.size)])
    g = StepFunction(mesh, [Fraction(rng.randrange(-5, 6))
                            for _ in range(mesh.size)])
    tf, tg, tfg = maximal_truncated(f), maximal_truncated(g), maximal_truncated(f + g)
    for i in range(mesh.size):
        assert float(tfg.values[i]) <= float(tf.values[i]) + float(tg.values[i]) + 1e-10


def float_samples(f):
    """T♮f at the cell centers in float64: the band sums of
    ``maximal_truncated``, from the float of each Fraction value."""
    n = f.mesh.size
    pad = np.zeros(3 * n)
    pad[n:2 * n] = [float(v) for v in f.values]
    u = np.arange(1, n, dtype=float)
    logtab = np.log((2 * u + 1) / (2 * u - 1))
    idx = np.arange(n)
    prefix, hi, lo = np.zeros(n), np.zeros(n), np.zeros(n)
    for uu in range(1, n):
        prefix += logtab[uu - 1] * (pad[idx - uu + n] - pad[idx + uu + n])
        np.maximum(hi, prefix, out=hi)
        np.minimum(lo, prefix, out=lo)
    return hi - lo


def test_maximal_truncated_returns_the_integer_form():
    # inputs over unrelated denominators, and an integer-form input
    mesh = Mesh(dim=1, level=5)
    rng = random.Random(3)
    f = StepFunction(mesh, [Fraction(rng.randrange(-60, 61),
                                     rng.choice([1, 3, 7, 96]))
                            for _ in range(mesh.size)])
    for g in (f, dyadic_maximal(f, GridId.shifted(1))):
        want = [rat(t) for t in float_samples(g)]
        tf = maximal_truncated(g)
        nums, den = tf._num
        assert "values" not in vars(tf)
        assert den & (den - 1) == 0  # one power of two
        assert [Fraction(v, den) for v in nums] == want
        assert tf._floats().tolist() == [float(v) for v in want]


@pytest.mark.parametrize("kind", ["spike", "random-cells", "power-profile"])
def test_maximal_truncated_matches_gather_oracle_at_level_8(kind):
    # the sweep's contiguous slices against the oracle's index gathers,
    # bit for bit, on 768 cells
    f = generate_function(4, kind, Mesh(dim=1, level=8))
    tf = maximal_truncated(f)
    nums, den = tf._num
    want = float_samples(f)
    assert want.max() > 0
    assert [Fraction(v, den) for v in nums] == [rat(t) for t in want]


def test_nonnegativity_checks_read_the_numerators():
    mesh = Mesh(dim=1, level=4)
    neg = -dyadic_maximal(mk_random(mesh, 5), GridId.standard(1))
    with pytest.raises(ValueError):
        oscillation_estimate_report(neg, Box.interval(0, 1), Fraction(1, 8))
    with pytest.raises(ValueError):
        dominate(neg)
    assert "values" not in vars(neg)


def oracle_series(f, q: Cube) -> Fraction:
    """Σ_{m≥0} 2^{-m} avg(f, 2^m q) in Fractions: the averages up to the
    first dilate holding the domain, then the rest in closed form.  From
    there on avg(f, 2^m q) = ∫f / (2^m·side)^n, so the rest is
    ∫f/|q| · Σ_{m>M} 2^{-m(n+1)} = ∫f/|q| · ρ^(M+1)/(1 − ρ), ρ = 2^{-(n+1)}."""
    mesh, total, m = f.mesh, Fraction(0), 0
    while True:
        box = dilate(q, m)
        total += average(f, box) / 2**m
        if box.contains_box(mesh.domain):
            break
        m += 1
    rho = Fraction(1, 2 ** (mesh.dim + 1))
    return total + f.integral() / q.measure * rho ** (m + 1) / (1 - rho)


def oracle_dominate(f):
    """(c, violations) of ``dominate`` from per-cell Fractions."""
    mesh = f.mesh
    q0 = Cube(GridId.standard(1), 0, (0,))
    cells = range(*mesh.cells(q0.box)[0].indices(mesh.size))
    g = maximal_truncated(f)
    res = oscillation_decompose(g, q0)
    series = [Fraction(0)] * mesh.size
    for _, qc in res.family.pairs():
        s = oracle_series(f, qc)
        for i in range(*mesh.cells(qc.box)[0].indices(mesh.size)):
            series[i] += s
    big = czo.hl_maximal(f).values
    lhs = [abs(g.values[i] - res.base_median) for i in cells]
    majorant = [big[i] + series[i] for i in cells]
    c = max((a / b for a, b in zip(lhs, majorant) if b != 0), default=Fraction(0))
    return float(c), sum(1 for a, b in zip(lhs, majorant) if b == 0 and a != 0)


def test_dominate_matches_a_fraction_oracle(monkeypatch):
    mesh = Mesh(dim=1, level=6)
    for seed in range(3):
        f = abs(generate_function(seed, "random-cells", mesh))
        rep = dominate(f)
        assert "values" not in vars(f)
        assert (rep.c, rep.violations) == oracle_dominate(f)
        assert rep.violations == 0
    # a majorant zero on the even cells outside the family: where the
    # left side is not zero there, they count as violations
    def thinned(f):
        vals = hl_maximal(f).values
        return StepFunction(mesh, [v if i % 2 else 0 for i, v in enumerate(vals)])

    monkeypatch.setattr(czo, "hl_maximal", thinned)
    f = mk_random(mesh, 7, lo=0, hi=8, support=Box.interval(0, 1))
    rep = dominate(f)
    assert (rep.c, rep.violations) == oracle_dominate(f)
    assert rep.violations > 0


def test_czo_rejects_2d():
    mesh = Mesh(dim=2, level=2)
    f = StepFunction.zeros(mesh)
    with pytest.raises(ValueError):
        maximal_truncated(f)
    with pytest.raises(ValueError):
        hilbert_apply(f, 0, Fraction(1, 4), 1)


# ---------------------------------------------------------------------------
# oscillation estimate and domination reports
# ---------------------------------------------------------------------------

def test_oscillation_report_zero():
    mesh = Mesh(dim=1, level=4)
    rep = oscillation_estimate_report(StepFunction.zeros(mesh),
                                      Box.interval(0, 1), Fraction(1, 8))
    assert rep.lhs == 0 and rep.rhs == 0 and rep.ratio == 0.0
    assert not rep.defect


def test_oscillation_report_random_finite():
    mesh = Mesh(dim=1, level=5)
    rng = random.Random(17)
    for _ in range(10):
        f = mk_random(mesh, rng.randrange(10**6), lo=0, hi=6,
                      support=Box.interval(0, 1))
        a = Fraction(rng.randrange(0, 8), 8)
        side = Fraction(1, 2**rng.randrange(1, 4))
        q = Box.interval(a, a + side)
        rep = oscillation_estimate_report(f, q, Fraction(1, 8))
        assert not rep.defect
        assert rep.rhs >= 0 and math.isfinite(rep.ratio)
        # lhs is the exact oscillation of the sampled transform
        assert rep.lhs == local_mean_oscillation(maximal_truncated(f), q,
                                                 Fraction(1, 8))
        # truncated series plus tail equals the infinite series: the tail
        # is exactly a third of the last retained term (rho = 1/4)
        assert rep.tail > 0


def test_dominate_zero_and_indicator():
    mesh = Mesh(dim=1, level=5)
    rep0 = dominate(StepFunction.zeros(mesh))
    assert rep0.c == 0.0 and rep0.violations == 0

    f = indicator(mesh, Box.interval(Fraction(3, 8), Fraction(5, 8)))
    rep = dominate(f)
    assert rep.decomposition_gap >= 0          # oscillation step holds exactly
    assert rep.violations == 0
    assert 0 < rep.c < 100
    data = rep.to_json()
    assert set(data) == {"c", "median", "decomposition_gap", "cells_checked",
                         "violations", "family_size"}


def test_dominate_random_stability_smoke():
    mesh = Mesh(dim=1, level=5)
    cs = []
    for seed in range(6):
        f = mk_random(mesh, seed, lo=0, hi=8, support=Box.interval(0, 1))
        if all(v == 0 for v in f.values):
            continue
        rep = dominate(f)
        assert rep.violations == 0
        assert rep.decomposition_gap >= 0
        cs.append(rep.c)
    assert max(cs) <= 4 * min(c for c in cs if c > 0)
