"""The four workloads: how each builds its inputs from the seed, the program
calls one round makes, and the plain-data form of what it returns.

Only public functions of sparsedom's modules are called.  A round rebuilds
every StepFunction and Weight from the values built at set-up, so no round
profits from a cache that an earlier round filled.  Plain data (Fractions,
ints, tuples) is what the independent checks in ``checks.py`` read; they
never import sparsedom.
"""

import os
import random
from fractions import Fraction

from sparsedom.czo import dominate, maximal_truncated
from sparsedom.geometry import Box, Cube, GridId, cover_cube
from sparsedom.harness import generate_function
from sparsedom.sparse import (
    cz_pointwise_gap,
    cz_sparse,
    oscillation_decompose,
    sparse_operator,
    verify_decomposition,
    verify_sparse_family,
)
from sparsedom.stepfn import Mesh, StepFunction, dyadic_maximal, hl_maximal, sharp_maximal
from sparsedom.weights import (
    Weight,
    a2_constant,
    hilbert_full_operator,
    operator_norm_weighted,
    sparse_family_operator,
    tower_family,
)

KINDS = ("spike", "indicator-sums", "random-cells", "power-profile")
LAM_1D = Fraction(1, 8)   # 2^-(n+2), the lambda oscillation_decompose uses
NORM_ITERS = 80


def _shift(grid) -> tuple:
    return tuple(0 if a == 0 else 1 for a in grid.alpha)


def _cube(q) -> tuple:
    return (_shift(q.grid), q.k, tuple(q.j))


def _family(fam) -> dict:
    return {"shift": _shift(fam.grid),
            "levels": {k: [_cube(q) for q in fam.levels[k]]
                       for k in fam.level_keys()}}


def _integer_function(seed: int, kind: str, mesh: Mesh, tr) -> list:
    """Integer cell values of generate_function; power-profile is in
    eighths, so it is scaled by 8."""
    f = tr.call("harness.generate_function", generate_function, seed, kind, mesh)
    vals = f.values
    if kind == "power-profile":
        vals = [8 * v for v in vals]
    if any(v.denominator != 1 for v in vals):
        raise ValueError("generate_function(%r) is not integer-valued" % kind)
    return vals


# ---------------------------------------------------------------------------
# sparse-1d and rational-1d: the stopping-time pipeline on one function
# ---------------------------------------------------------------------------

def _pipeline(vals: list, mesh: Mesh, tr) -> dict:
    f = tr.call("stepfn.StepFunction", StepFunction, mesh, vals)
    g = tr.call("stepfn.StepFunction", abs, f)
    out = {"grids": []}
    for grid in GridId.all_grids(1):
        fam = tr.call("sparse.cz_sparse", cz_sparse, f, grid)
        tr.call("sparse.verify_sparse_family", verify_sparse_family, fam)
        md = tr.call("stepfn.dyadic_maximal", dyadic_maximal, f, grid)
        gap = tr.call("sparse.cz_pointwise_gap", cz_pointwise_gap, f, fam, md)
        aop = tr.call("sparse.sparse_operator", sparse_operator, fam, g)
        out["grids"].append((fam, md, gap, aop))
    q0 = Cube(GridId.standard(1), 0, (0,))
    res = tr.call("sparse.oscillation_decompose", oscillation_decompose, f, q0)
    out["decomp_gap"] = tr.call("sparse.verify_decomposition",
                                verify_decomposition, f, res)
    out["decomp"] = res
    out["sharp"] = tr.call("stepfn.sharp_maximal", sharp_maximal, f, q0, LAM_1D)
    return out


def _pipeline_plain(out: dict, counts: dict) -> dict:
    grids = []
    for fam, md, gap, aop in out["grids"]:
        grids.append({"family": _family(fam), "dyadic": md.values,
                      "gap": gap, "sparse_op": aop.values})
        counts["sparse.cz_sparse.cubes"] += fam.cube_count()
    res = out["decomp"]
    counts["sparse.oscillation_decompose.cubes"] += res.family.cube_count()
    return {"grids": grids,
            "decomp": {"median": res.base_median, "lam": res.lam,
                       "family": _family(res.family),
                       "coeffs": [(_cube(q), w)
                                  for q, w in res.coefficients.items()],
                       "gap": out["decomp_gap"]},
            "sharp": out["sharp"].values}


class Sparse1D:
    """Integer functions of every generator kind, 1-D level 10."""

    name = "sparse-1d"
    level = 10

    def build(self, seed: int, tr, workdir: str) -> dict:
        mesh = Mesh(1, self.level)
        funcs = [(kind, _integer_function(seed, kind, mesh, tr)) for kind in KINDS]
        return {"mesh": mesh, "funcs": funcs}

    def ops(self, inputs: dict) -> list:
        mesh = inputs["mesh"]
        return [("function:%s" % kind, lambda tr, v=vals: _pipeline(v, mesh, tr))
                for kind, vals in inputs["funcs"]]

    def plain_inputs(self, inputs: dict) -> list:
        return [{"dim": 1, "level": self.level, "values": vals}
                for _, vals in inputs["funcs"]]

    def plain_output(self, op: int, out, counts: dict):
        return _pipeline_plain(out, counts)


class Rational1D:
    """The sparse-1d pipeline on two functions whose cells on [0, 1/2) are
    rationals with unrelated denominators, read back from CSV, plus
    cover_cube on a batch of rational boxes."""

    name = "rational-1d"
    level = 10
    functions = 2
    boxes_1d = 4000
    boxes_2d = 1000

    def build(self, seed: int, tr, workdir: str) -> dict:
        mesh = Mesh(1, self.level)
        rng = random.Random("rational-1d:%d" % seed)
        written, read = [], []
        for fn in range(self.functions):
            vals = [Fraction(0)] * mesh.size
            # the domain [-1, 2) has [0, 1/2) at cells n/3 .. n/2
            for i in range(mesh.size // 3, mesh.size // 2):
                vals[i] = Fraction(rng.randrange(-800, 801), rng.randrange(1, 97))
            path = os.path.join(workdir, "rational-seed%d-%d.csv" % (seed, fn))
            with open(path, "w") as fh:
                fh.writelines("%d/%d\n" % (v.numerator, v.denominator)
                              for v in vals)
            f = tr.call("stepfn.from_csv", StepFunction.from_csv, path, 1,
                        self.level)
            written.append(vals)
            read.append(f.values)
        boxes = []
        for dim, count in ((1, self.boxes_1d), (2, self.boxes_2d)):
            for _ in range(count):
                lo = tuple(Fraction(rng.randrange(-4000, 4001),
                                    rng.randrange(1, 64)) for _ in range(dim))
                side = Fraction(rng.randrange(1, 4000), rng.randrange(1, 64))
                boxes.append((lo, tuple(x + side for x in lo)))
        return {"mesh": mesh, "written": written, "read": read, "boxes": boxes}

    def ops(self, inputs: dict) -> list:
        mesh = inputs["mesh"]
        ops = [("function:rational-%d" % fn,
                lambda tr, v=vals: _pipeline(v, mesh, tr))
               for fn, vals in enumerate(inputs["read"])]
        ops.append(("cover-batch", lambda tr: _cover_batch(inputs["boxes"], tr)))
        return ops

    def plain_inputs(self, inputs: dict) -> list:
        out = [{"dim": 1, "level": self.level, "values": r, "written": w}
               for r, w in zip(inputs["read"], inputs["written"])]
        out.append({"boxes": inputs["boxes"]})
        return out

    def plain_output(self, op: int, out, counts: dict):
        if op < self.functions:
            return _pipeline_plain(out, counts)
        counts["geometry.cover_cube.calls"] += len(out)
        return [(_shift(grid), q.k, tuple(q.j), q.corner) for grid, q in out]


def _cover_batch(boxes: list, tr) -> list:
    built = tr.call("geometry.Box", lambda: [Box(lo, hi) for lo, hi in boxes])
    return tr.call("geometry.cover_cube",
                   lambda: [cover_cube(b) for b in built])


# ---------------------------------------------------------------------------
# maximal: hl_maximal in 1-D, and the 2-D maximal operators
# ---------------------------------------------------------------------------

class Maximal:
    """1-D level-10 hl_maximal; 2-D level-3 cz_sparse, dyadic_maximal on
    all four grids and hl_maximal."""

    name = "maximal"
    level_1d = 10
    level_2d = 3
    kinds_2d = ("random-cells", "power-profile")

    def build(self, seed: int, tr, workdir: str) -> dict:
        m1, m2 = Mesh(1, self.level_1d), Mesh(2, self.level_2d)
        funcs = [(m1, _integer_function(seed, "random-cells", m1, tr))]
        for kind in self.kinds_2d:
            funcs.append((m2, _integer_function(seed, kind, m2, tr)))
        return {"funcs": funcs}

    def ops(self, inputs: dict) -> list:
        return [("function:%dd" % mesh.dim,
                 lambda tr, m=mesh, v=vals: self._one(m, v, tr))
                for mesh, vals in inputs["funcs"]]

    @staticmethod
    def _one(mesh: Mesh, vals: list, tr) -> dict:
        f = tr.call("stepfn.StepFunction", StepFunction, mesh, vals)
        out = {"grids": []}
        if mesh.dim == 2:
            for grid in GridId.all_grids(2):
                fam = tr.call("sparse.cz_sparse", cz_sparse, f, grid)
                md = tr.call("stepfn.dyadic_maximal", dyadic_maximal, f, grid)
                out["grids"].append((fam, md))
        out["hl"] = tr.call("stepfn.hl_maximal", hl_maximal, f)
        return out

    def plain_inputs(self, inputs: dict) -> list:
        return [{"dim": mesh.dim, "level": mesh.level, "values": vals}
                for mesh, vals in inputs["funcs"]]

    def plain_output(self, op: int, out, counts: dict):
        counts["stepfn.hl_maximal.calls"] += 1
        grids = []
        for fam, md in out["grids"]:
            counts["sparse.cz_sparse.cubes"] += fam.cube_count()
            grids.append({"family": _family(fam), "dyadic": md.values})
        return {"grids": grids, "hl": out["hl"].values}


# ---------------------------------------------------------------------------
# weighted: A2 constants, weighted operator norms, domination of T-natural
# ---------------------------------------------------------------------------

class Weighted:
    """Power weights |x - 1/2|^a at 1-D level 10 (operator norms also at
    level 7, where a dense SVD is cheap), and maximal_truncated plus
    dominate on one level-9 function."""

    name = "weighted"
    level = 10
    level_dense = 7
    level_czo = 9

    def build(self, seed: int, tr, workdir: str) -> dict:
        rng = random.Random("weighted:%d" % seed)
        exps = [round(rng.uniform(lo, lo + 0.2), 3) for lo in (0.2, 0.45, 0.7)]
        weights = []
        for a in exps:
            per_level = {}
            for level in (self.level, self.level_dense):
                mesh = Mesh(1, level)
                w = tr.call("weights.power_weight", Weight.power, mesh, a)
                per_level[level] = (mesh, w.fn.values)
            weights.append((a, per_level))
        operators = {}
        for level in (self.level, self.level_dense):
            mesh = Mesh(1, level)
            operators[level] = tr.call("weights.scan_operators", lambda: (
                sparse_family_operator(mesh, tower_family(mesh)),
                hilbert_full_operator(mesh)))
        m9 = Mesh(1, self.level_czo)
        f = tr.call("harness.generate_function", generate_function, seed,
                    "random-cells", m9)
        return {"weights": weights, "operators": operators,
                "czo": (m9, [abs(v) for v in f.values])}

    def ops(self, inputs: dict) -> list:
        ops = [("weight:a=%s" % a,
                lambda tr, p=per_level: self._weight(p, inputs["operators"], tr))
               for a, per_level in inputs["weights"]]
        mesh, vals = inputs["czo"]
        ops.append(("function:czo", lambda tr: self._czo(mesh, vals, tr)))
        return ops

    def _weight(self, per_level: dict, operators: dict, tr) -> dict:
        out = {}
        for level, (mesh, vals) in per_level.items():
            w = tr.call("weights.Weight",
                        lambda: Weight(StepFunction(mesh, vals)))
            if level == self.level:
                out["a2"] = tr.call("weights.a2_constant", a2_constant, w)
            tower, hilbert = operators[level]
            out[level] = tuple(
                tr.call("weights.operator_norm_weighted",
                        operator_norm_weighted, op, w, iters=NORM_ITERS, seed=1)
                for op in (tower, hilbert))
        return out

    @staticmethod
    def _czo(mesh: Mesh, vals: list, tr) -> dict:
        f = tr.call("stepfn.StepFunction", StepFunction, mesh, vals)
        return {"tf": tr.call("czo.maximal_truncated", maximal_truncated, f),
                "dom": tr.call("czo.dominate", dominate, f)}

    def plain_inputs(self, inputs: dict) -> list:
        out = [{"a": a, "levels": {level: mesh_vals[1]
                                   for level, mesh_vals in per_level.items()}}
               for a, per_level in inputs["weights"]]
        mesh, vals = inputs["czo"]
        out.append({"dim": 1, "level": mesh.level, "values": vals})
        return out

    def plain_output(self, op: int, out, counts: dict):
        if "dom" in out:
            dom = out["dom"]
            counts["czo.dominate.cubes"] += dom.family_size
            return {"tf": out["tf"].values, "violations": dom.violations,
                    "gap": dom.decomposition_gap, "c": dom.c}
        rep = out["a2"]
        counts["weights.a2_constant.candidates"] += rep.candidates_confirmed
        norms = {}
        for level in (self.level, self.level_dense):
            norms[level] = [e.value for e in out[level]]
            counts["weights.operator_norm_weighted.iterations"] += sum(
                e.iterations for e in out[level])
        return {"a2": rep.constant,
                "witness": (rep.witness.lo[0], rep.witness.hi[0]),
                "norms": norms}


WORKLOADS = {w.name: w for w in (Sparse1D(), Maximal(), Weighted(), Rational1D())}
