"""Experiment harness: configuration, seeded instance generation, the
acceptance-criteria registry, and verdict serialization.

Every criterion is a pure function of an ExperimentConfig returning
(measured, witness), and passes when it finds no witness; ``run_criterion``
adds the registry id and the elapsed time to make the Verdict.  Trials
derive per-trial seeds as seed^index, so reports do not depend on
execution order.  A failing verdict's witness, with its criterion id and
config, replays the offending instance.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rational import rat, rat_str, pow2
from .geometry import Box, Cube, GridId, cover_cube
from .stepfn import (
    Mesh,
    StepFunction,
    average,
    dyadic_maximal,
    hl_maximal,
    local_mean_oscillation,
)
from .sparse import (
    amalgam_adjoint,
    cz_pointwise_gap,
    cz_sparse,
    oscillation_decompose,
    sparse_operator,
    split_families,
    verify_decomposition,
    verify_sparse_family,
    weak_norm,
)
from .czo import dominate, hilbert_apply, maximal_truncated, \
    oscillation_estimate_report
from .weights import a2_scan

__all__ = [
    "ExperimentConfig",
    "Verdict",
    "generate_function",
    "CRITERION_IDS",
    "default_config",
    "run_criterion",
]

GENERATOR_KINDS = ("spike", "indicator-sums", "random-cells", "power-profile")


@dataclass
class ExperimentConfig:
    dim: int = 1
    level: int = 6
    seed: int = 0
    trials: int = 20
    m_list: tuple = (1, 2, 4)
    lam: Fraction = None
    kind: str = "random-cells"
    operator: str = "sparse"
    fmt: str = "json"
    out: str = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        cap = 14 if self.dim == 1 else 7
        if not 1 <= self.level <= cap:
            raise ValueError("level %d must lie in 1..%d, the desk-scale "
                             "range for dim %d" % (self.level, cap, self.dim))
        if self.lam is None:
            self.lam = pow2(-(self.dim + 2))
        else:
            self.lam = rat(self.lam)
        if not 0 < self.lam < 1:
            raise ValueError("lambda must lie in (0,1)")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.kind not in GENERATOR_KINDS:
            raise ValueError("unknown generator kind: %r" % self.kind)
        if self.operator not in ("sparse", "hilbert"):
            raise ValueError("operator must be 'sparse' or 'hilbert'")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        self.m_list = tuple(int(m) for m in self.m_list)
        if min(self.m_list, default=1) < 1:
            raise ValueError("m values must be at least 1")

    def mesh(self) -> Mesh:
        return Mesh(dim=self.dim, level=self.level)

    def to_json(self) -> dict:
        return {"dim": self.dim, "level": self.level, "seed": self.seed,
                "trials": self.trials, "m_list": list(self.m_list),
                "lam": rat_str(self.lam), "kind": self.kind,
                "operator": self.operator}


@dataclass
class Verdict:
    criterion: str
    measured: dict
    config: ExperimentConfig
    witness: dict = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.witness is None

    def to_json(self) -> dict:
        # elapsed is deliberately left out: a (config, seed) pair must
        # reproduce this document bit for bit
        return {"criterion": self.criterion,
                "passed": self.passed,
                "measured": self.measured,
                "config": self.config.to_json(),
                "witness": self.witness}


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def generate_function(seed: int, spec: str, mesh: Mesh) -> StepFunction:
    """Deterministic core-supported test function with small rational
    values.

    spike: one loaded cell.  indicator-sums: sum of three dyadic interval
    indicators (values in 0..3).  random-cells: independent integers in
    [-8, 8].  power-profile: eighths-rounded |x-x0|^p bump.
    """
    if spec not in GENERATOR_KINDS:
        raise ValueError("unknown generator spec: %r" % spec)
    rng = random.Random("%d:%s" % (seed, spec))
    core = mesh.cells(mesh.core)
    cells = list(itertools.product(*(range(s.start, s.stop) for s in core)))
    vals = np.zeros(mesh.shape, dtype=object)  # numerators over 1, or 8

    if spec == "spike":
        vals[rng.choice(cells)] = rng.randrange(1, 9)
    elif spec == "indicator-sums":
        for _ in range(3):
            k = rng.randrange(1, min(mesh.level, 6) + 1)
            side = pow2(-k)
            corner = tuple(
                mesh.core.lo[a] + rng.randrange(0, 2 ** k) * side
                for a in range(mesh.dim))
            vals[mesh.cells(Box(corner, tuple(c + side for c in corner)))] += 1
    elif spec == "random-cells":
        for idx in cells:
            vals[idx] = rng.randrange(-8, 9)
    else:  # power-profile
        p = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        x0 = tuple(Fraction(rng.randrange(0, 16), 16) for _ in range(mesh.dim))
        amp = rng.randrange(1, 5)
        centers = [mesh.centers(a) for a in range(mesh.dim)]
        for idx in cells:
            d = max(abs(xs[i] - c) for xs, i, c in zip(centers, idx, x0))
            vals[idx] = round(8 * amp * float(d) ** float(p))
    return StepFunction._from_ints(mesh, vals, 8 if spec == "power-profile" else 1)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _crit_cover(cfg: ExperimentConfig) -> tuple:
    """Random rational boxes are contained in their cover cube with side
    at most 6x, exactly."""
    worst = Fraction(0)
    witness = None
    trials_1d = cfg.trials
    trials_2d = max(1, cfg.trials // 10)
    rng = random.Random(cfg.seed)

    def one(dim):
        nonlocal worst, witness
        lo = tuple(Fraction(rng.randrange(-4000, 4001),
                            rng.randrange(1, 64)) for _ in range(dim))
        side = Fraction(rng.randrange(1, 2048), rng.randrange(256, 2048))
        box = Box(lo, tuple(x + side for x in lo))
        grid, cube = cover_cube(box)
        ratio = cube.side / side
        ok = cube.box.contains_box(box) and ratio <= 6
        worst = max(worst, ratio)
        if not ok and witness is None:
            witness = {"box": box.to_json(), "grid": grid.to_json()}

    for _ in range(trials_1d):
        one(1)
    for _ in range(trials_2d):
        one(2)
    return {"trials_1d": trials_1d, "trials_2d": trials_2d,
            "max_side_ratio": float(worst)}, witness


def _crit_sparse_invariants(cfg: ExperimentConfig) -> tuple:
    """cz_sparse families satisfy the sparse-family invariants and the
    pointwise bound M^d f <= 2^{n+1} A_S f, exactly."""
    mesh = cfg.mesh()
    min_gap = None
    witness = None
    families = 0
    for t in range(cfg.trials):
        f = generate_function(cfg.seed ^ t, cfg.kind, mesh)
        for grid in GridId.all_grids(cfg.dim):
            try:
                fam = cz_sparse(f, grid)
                verify_sparse_family(fam)
            except (ValueError, AssertionError) as e:
                witness = witness or {"trial": t, "grid": grid.to_json(),
                                      "error": str(e)}
                continue
            families += 1
            if fam.is_empty:
                continue
            gap = cz_pointwise_gap(f, fam, dyadic_maximal(f, grid))
            min_gap = gap if min_gap is None else min(min_gap, gap)
            if gap < 0 and witness is None:
                witness = {"trial": t, "grid": grid.to_json(),
                           "gap": rat_str(gap)}
    return {"families_checked": families,
            "min_pointwise_gap": None if min_gap is None
            else float(min_gap)}, witness


def _crit_maximal_sandwich(cfg: ExperimentConfig) -> tuple:
    """Mf <= 6^n · Σ_α M^{D_α}f and Mf <= 2·12^n · Σ_α A_{S_α}f cellwise."""
    mesh = cfg.mesh()
    n = cfg.dim
    witness = None
    worst_grid = worst_sparse = None
    for t in range(cfg.trials):
        g = abs(generate_function(cfg.seed ^ t, cfg.kind, mesh))
        big = hl_maximal(g)
        sum_dyadic = StepFunction.zeros(mesh)
        sum_sparse = StepFunction.zeros(mesh)
        for grid in GridId.all_grids(n):
            sum_dyadic = sum_dyadic + dyadic_maximal(g, grid)
            fam = cz_sparse(g, grid)
            if not fam.is_empty:
                sum_sparse = sum_sparse + sparse_operator(fam, g)
        gap_g, den_g = (6 ** n * sum_dyadic - big)._num
        gap_s, den_s = (2 * 12 ** n * sum_sparse - big)._num
        low_g, low_s = Fraction(gap_g.min(), den_g), Fraction(gap_s.min(), den_s)
        worst_grid = low_g if worst_grid is None else min(worst_grid, low_g)
        worst_sparse = low_s if worst_sparse is None else min(worst_sparse, low_s)
        failing = np.flatnonzero((gap_g < 0) | (gap_s < 0))
        if failing.size and witness is None:
            i = int(failing[0])
            witness = {"trial": t, "cell": i,
                       "grid_gap": rat_str(Fraction(gap_g.flat[i], den_g)),
                       "sparse_gap": rat_str(Fraction(gap_s.flat[i], den_s))}
    return {"min_grid_gap": float(worst_grid),
            "min_sparse_gap": float(worst_sparse),
            "trials": cfg.trials}, witness


def _crit_decomposition(cfg: ExperimentConfig) -> tuple:
    """|f - m_f(Q0)| <= 4·M^{#,d}f + 2·Σ ω·χ on every cell of Q0."""
    mesh = cfg.mesh()
    q0 = Cube(GridId.standard(cfg.dim), 0, (0,) * cfg.dim)
    min_gap = None
    witness = None
    sizes = []
    for t in range(cfg.trials):
        kind = GENERATOR_KINDS[t % len(GENERATOR_KINDS)]
        f = generate_function(cfg.seed ^ t, kind, mesh)
        res = oscillation_decompose(f, q0)
        gap = verify_decomposition(f, res)
        sizes.append(res.family.cube_count())
        min_gap = gap if min_gap is None else min(min_gap, gap)
        if gap < 0 and witness is None:
            witness = {"trial": t, "seed": cfg.seed ^ t,
                       "gap": rat_str(gap)}
    return {"trials": cfg.trials, "min_gap": float(min_gap),
            "mean_family_size": sum(sizes) / len(sizes),
            "lambda": rat_str(res.lam)}, witness


def _crit_l2_bound(cfg: ExperimentConfig) -> tuple:
    """‖A*_{m,α} f‖₂ <= 8 ‖f‖₂ with exact norm-squares, m in 0..6."""
    mesh = cfg.mesh()
    witness = None
    worst = Fraction(0)
    checked = 0
    for m in range(7):
        for t in range(cfg.trials):
            g = abs(generate_function(cfg.seed ^ (97 * m + t), cfg.kind, mesh))
            f = abs(generate_function((cfg.seed + 1) ^ (97 * m + t), cfg.kind,
                                      mesh))
            fam = cz_sparse(g, GridId.all_grids(1)[t % 2])
            if fam.is_empty:
                continue
            sh = split_families(fam, m)
            fsq = f.norm_l2_sq()
            for alpha in GridId.all_grids(1):
                asq = amalgam_adjoint(sh, alpha, f).norm_l2_sq()
                checked += 1
                if fsq > 0:
                    worst = max(worst, asq / fsq)
                if asq > 64 * fsq and witness is None:
                    witness = {"m": m, "trial": t,
                               "norm_ratio_sq": rat_str(asq / fsq)}
    return {"pairs_checked": checked,
            "max_norm_ratio": math.sqrt(float(worst)),
            "bound": 8.0}, witness


def _doubling(cfg: ExperimentConfig, ratio, names: tuple) -> tuple:
    """Criteria 6 and 7's check r(2m) <= 3·r(m), m in cfg.m_list, with r =
    ``ratio`` at those m and their doubles: r and r(2m)/r(m) as JSON dicts,
    and the first failing m, with r(m), r(2m) under ``names``, or None."""
    ratios = {m: ratio(m) for m in sorted(set(cfg.m_list)
                                          | {2 * m for m in cfg.m_list})}
    witness = next(({"m": m, names[0]: float(ratios[m]),
                     names[1]: float(ratios[2 * m])}
                    for m in cfg.m_list if 0 < 3 * ratios[m] < ratios[2 * m]),
                   None)
    return ({str(m): float(v) for m, v in ratios.items()},
            {str(m): float(ratios[2 * m] / ratios[m])
             for m in cfg.m_list if ratios[m] > 0}, witness)


def _crit_weak_growth(cfg: ExperimentConfig) -> tuple:
    """Weak (1,1) ratio r(m) doubles by at most 3: r(2m) <= 3 r(m)."""
    mesh = cfg.mesh()

    def ratio(m):
        best = Fraction(0)
        for t in range(cfg.trials):
            f = abs(generate_function(cfg.seed ^ (31 * m + t), cfg.kind, mesh))
            l1 = f.norm_l1()
            if l1 == 0:
                continue
            fam = cz_sparse(f, GridId.all_grids(1)[t % 2])
            if fam.is_empty:
                continue
            sh = split_families(fam, m)
            for alpha in GridId.all_grids(1):
                best = max(best,
                           weak_norm(amalgam_adjoint(sh, alpha, f)) / l1)
        return best

    r, doubling, witness = _doubling(cfg, ratio, ("r_m", "r_2m"))
    return {"r": r, "doubling": doubling}, witness


def _crit_adjoint_oscillation(cfg: ExperimentConfig) -> tuple:
    """Oscillation ratio ω_λ(A*f;Q)/(m·f_Q) doubles by at most 3, and the
    display |A*f - c|·χ_q <= A*(f·χ_q) holds exactly."""
    mesh = cfg.mesh()
    probes = []
    for beta in GridId.all_grids(1):
        for k_q in (1, 2, 3, 4):
            for jq in range(-2, 2 ** k_q + 2):
                q = Cube(beta, k_q, (jq,))
                cells, = mesh.cells(q.box)
                if cells.start < cells.stop:
                    probes.append(q)

    instances = []
    for t in range(cfg.trials):
        kind = GENERATOR_KINDS[t % len(GENERATOR_KINDS)]
        f = abs(generate_function(cfg.seed ^ t, kind, mesh))
        fam = cz_sparse(f, GridId.standard(1))
        if not fam.is_empty:
            instances.append((f, fam, {q: average(f, q.box) for q in probes}))

    def ratio(m):
        best = Fraction(0)
        for f, fam, averages in instances:
            sh = split_families(fam, m)
            for alpha in GridId.all_grids(1):
                adj = amalgam_adjoint(sh, alpha, f)
                for q in probes:
                    av = averages[q]
                    if av == 0:
                        continue
                    osc = local_mean_oscillation(adj, q.box, cfg.lam)
                    if osc:
                        best = max(best, osc / (m * av))
        return best

    ratios, doubling, growth = _doubling(cfg, ratio, ("ratio_m", "ratio_2m"))

    # exact pointwise display on a fixed slice of instances
    witness = None
    display_checked = 0
    for t in range(min(cfg.trials, 10)):
        f = abs(generate_function(cfg.seed ^ (701 + t), cfg.kind, mesh))
        fam = cz_sparse(f, GridId.standard(1))
        if fam.is_empty:
            continue
        sh = split_families(fam, 1)
        nums, den = f._num
        for alpha in GridId.all_grids(1):
            adj = amalgam_adjoint(sh, alpha, f)
            pairs = list(sh.family_of(alpha))
            for jq in range(0, 4):
                q = Cube(alpha, 1, (jq,))
                cells, = mesh.cells(q.box)
                if cells.start >= cells.stop:
                    continue
                c = sum(f.atom_sum(qb.box) / cov.measure
                        for _, qb, cov in pairs
                        if cov.box.contains_box(q.box))
                fq = np.zeros(mesh.shape, dtype=object)
                fq[cells] = nums[cells]
                adj_q = amalgam_adjoint(sh, alpha,
                                        StepFunction._from_ints(mesh, fq, den))
                display_checked += 1
                gap = (adj_q - abs(adj - c))._num[0][cells]
                failing = np.flatnonzero(gap < 0)
                if failing.size:
                    witness = witness or {"trial": t, "cube": q.to_json(),
                                          "cell": cells.start + int(failing[0])}

    return {"ratio": ratios, "doubling": doubling,
            "display_checks": display_checked}, witness or growth


def _crit_hilbert_exact(cfg: ExperimentConfig) -> tuple:
    """hilbert_apply agrees with adaptive quadrature to 1e-8; truncation
    additivity to 1e-10; T-natural sublinearity to 1e-10."""
    from scipy.integrate import quad  # the reference quadrature, loaded only here
    mesh = cfg.mesh()
    rng = random.Random(cfg.seed)
    witness = None
    max_quad = 0.0
    checked = 0
    while checked < cfg.trials:
        f = generate_function(rng.randrange(10 ** 6), "random-cells", mesh)
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
                val, _ = quad(lambda y, vv=float(v), xx=float(x):
                              vv / (xx - y), float(c), float(d),
                              epsabs=1e-12, epsrel=1e-12)
                want += val
        diff = abs(got - want)
        max_quad = max(max_quad, diff)
        if diff > 1e-8 and witness is None:
            witness = {"x": rat_str(x), "eps": rat_str(eps),
                       "nu": rat_str(nu), "diff": diff}
        checked += 1

    max_add = 0.0
    for t in range(40):
        f = generate_function(cfg.seed ^ (211 + t), "random-cells", mesh)
        x = Fraction(rng.randrange(-8, 17), 8)
        r = sorted(Fraction(rng.randrange(1, 64), 16) for _ in range(3))
        if r[0] == r[1] or r[1] == r[2]:
            continue
        whole = hilbert_apply(f, x, r[0], r[2])
        split = hilbert_apply(f, x, r[0], r[1]) \
            + hilbert_apply(f, x, r[1], r[2])
        diff = abs(whole - split)
        max_add = max(max_add, diff)
        if diff > 1e-10 and witness is None:
            witness = {"additivity_diff": diff, "x": rat_str(x)}

    max_sub = -1.0
    for t in range(10):
        f = generate_function(cfg.seed ^ (401 + t), "random-cells", mesh)
        g = generate_function(cfg.seed ^ (601 + t), "random-cells", mesh)
        over = maximal_truncated(f + g)._floats() - maximal_truncated(f)._floats() \
            - maximal_truncated(g)._floats()
        # the first cell of the largest excess, as a running max would keep
        max_sub = max(max_sub, float(over[over.argmax()]))
        failing = np.flatnonzero(over > 1e-10)
        if failing.size and witness is None:
            i = int(failing[0])
            witness = {"sublinearity_excess": float(over[i]), "cell": i,
                       "trial": t}
    return {"max_quadrature_diff": max_quad,
            "max_additivity_diff": max_add,
            "max_sublinearity_excess": max_sub}, witness


def _crit_osc_stability(cfg: ExperimentConfig) -> tuple:
    """The max oscillation-estimate ratio over the pair set is finite and
    moves by at most 25% under mesh refinement level -> level+2."""
    mesh = cfg.mesh()
    rng = random.Random(cfg.seed)
    witness = None
    max_coarse = max_fine = 0.0
    pairs = 0
    while pairs < cfg.trials:
        f = abs(generate_function(rng.randrange(10 ** 6), cfg.kind, mesh))
        if f.norm_l1() == 0:
            continue
        a = Fraction(rng.randrange(0, 7), 8)
        side = Fraction(1, 2 ** rng.randrange(1, 4))
        q = Box.interval(a, a + side)
        rep = oscillation_estimate_report(f, q, cfg.lam)
        rep2 = oscillation_estimate_report(f.refine(2), q, cfg.lam)
        pairs += 1
        if not (math.isfinite(rep.ratio) and math.isfinite(rep2.ratio)):
            witness = witness or {"pair": pairs, "ratio": rep.ratio,
                                  "refined": rep2.ratio}
            continue
        max_coarse = max(max_coarse, rep.ratio)
        max_fine = max(max_fine, rep2.ratio)
    rel = abs(max_fine - max_coarse) / max(max_coarse, 1e-30)
    if witness is None and rel > 0.25:
        witness = {"max_ratio_coarse": max_coarse, "max_ratio_fine": max_fine,
                   "rel_change": rel}
    return {"pairs": pairs, "max_ratio_coarse": max_coarse,
            "max_ratio_fine": max_fine, "rel_change": rel,
            "levels": [cfg.level, cfg.level + 2]}, witness


def _crit_domination(cfg: ExperimentConfig) -> tuple:
    """dominate() passes its exact decomposition stage on every seed and
    the majorization constant varies by less than a factor 2."""
    mesh = cfg.mesh()
    witness = None
    cs = []
    for t in range(cfg.trials):
        f = abs(generate_function(cfg.seed ^ t, cfg.kind, mesh))
        if f.norm_l1() == 0:
            continue
        rep = dominate(f)
        if rep.decomposition_gap < 0 or rep.violations:
            witness = witness or {"trial": t, "seed": cfg.seed ^ t,
                                  "gap": float(rep.decomposition_gap),
                                  "violations": rep.violations}
        if rep.c > 0:
            cs.append(rep.c)
    c_min, c_max = min(cs, default=None), max(cs, default=None)
    spread = c_max / c_min if cs else None
    if not cs:
        witness = witness or {"instances": 0, "reason": "no instance measured: "
                              "every trial had a zero core function or c = 0"}
    elif spread >= 2 and witness is None:
        witness = {"c_min": c_min, "c_max": c_max, "spread": spread}
    return {"instances": len(cs), "c_min": c_min, "c_max": c_max,
            "spread": spread}, witness


def _crit_a2_scan(cfg: ExperimentConfig) -> tuple:
    """Power-family scan: A2 span >= 20x while opnorm/A2 stays within 10x
    for the sparse operator and the full-truncation Hilbert matrix."""
    exps = [0, 0.3, 0.6, 0.8, 0.9, 0.95]
    witness = None
    measured = {}
    for tab in a2_scan(("sparse", "hilbert"), exps, level=cfg.level,
                       seed=cfg.seed):
        kind = tab.kind
        a2s = [r.a2 for r in tab.rows]
        rats = [r.ratio for r in tab.rows]
        span = max(a2s) / min(a2s)
        ratio_spread = max(rats) / min(rats)
        a0 = tab.rows[0].ratio
        measured[kind] = {"span": span, "ratio_spread": ratio_spread,
                          "a0_ratio": a0, "slope": tab.slope,
                          "rows": [r.to_json() for r in tab.rows]}
        fails = {}
        if span < 20:
            fails["span"] = span
        if ratio_spread > 10:
            fails["ratio_spread"] = ratio_spread
        if not 0.1 <= a0 <= 10:
            fails["a0_ratio"] = a0
        if fails and witness is None:
            witness = {"kind": kind, "clauses": fails}
    return measured, witness


# the keys a criterion reads through its mesh, trial seeds and generator kind
_SAMPLED = ("dim", "level", "seed", "trials", "kind")

# id -> (runner, supported dimensions, config keys it reads, pinned config);
# run_criterion's dimension check reads dim for a one-dimensional criterion
_REGISTRY = {
    "cover-6x": (_crit_cover, (1, 2), ("seed", "trials"),
                 dict(level=4, trials=100000, seed=2024)),
    "sparse-invariants": (_crit_sparse_invariants, (1, 2), _SAMPLED,
                          dict(level=10, trials=100, seed=11)),
    "maximal-sandwich": (_crit_maximal_sandwich, (1, 2), _SAMPLED,
                         dict(level=10, trials=100, seed=23)),
    "osc-decomposition": (_crit_decomposition, (1, 2), _SAMPLED[:4],
                          dict(level=10, trials=200, seed=37,
                               lam=Fraction(1, 8))),
    "l2-bound-8": (_crit_l2_bound, (1,), _SAMPLED,
                   dict(level=8, trials=100, seed=41)),
    "weak11-growth": (_crit_weak_growth, (1,), _SAMPLED + ("m_list",),
                      dict(level=8, trials=50, seed=53, m_list=(1, 2, 4))),
    "adjoint-osc-growth": (_crit_adjoint_oscillation, (1,),
                           _SAMPLED + ("m_list", "lam"),
                           dict(level=7, trials=25, seed=67, m_list=(1, 2, 4))),
    "hilbert-exact": (_crit_hilbert_exact, (1,), _SAMPLED[:4],
                      dict(level=5, trials=100, seed=71)),
    "osc-stability": (_crit_osc_stability, (1,), _SAMPLED + ("lam",),
                      dict(level=7, trials=100, seed=83)),
    "master-domination": (_crit_domination, (1,), _SAMPLED,
                          dict(level=9, trials=50, seed=0,
                               kind="random-cells")),
    "a2-scan": (_crit_a2_scan, (1,), ("dim", "level", "seed"),
                dict(level=12, trials=6, seed=7)),
}

CRITERION_IDS = list(_REGISTRY)

_ALIASES = {str(i + 1): cid for i, cid in enumerate(CRITERION_IDS)}


def _lookup(criterion: str):
    cid = _ALIASES.get(criterion, criterion)
    if cid not in _REGISTRY:
        raise KeyError("unknown criterion id: %r" % criterion)
    return cid, _REGISTRY[cid]


def default_config(criterion: str) -> ExperimentConfig:
    return ExperimentConfig(**_lookup(criterion)[1][3])


def run_criterion(criterion: str, config: ExperimentConfig = None) -> Verdict:
    cid, (fn, dims, _, defaults) = _lookup(criterion)
    cfg = config if config is not None else ExperimentConfig(**defaults)
    if cfg.dim not in dims:
        raise ValueError("criterion %s runs in dimension %s only, not %d"
                         % (cid, " or ".join(map(str, dims)), cfg.dim))
    t0 = time.perf_counter()
    measured, witness = fn(cfg)
    return Verdict(cid, measured, cfg, witness, time.perf_counter() - t0)

