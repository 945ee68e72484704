"""Cell-addressing helpers shared by the tests: row-major flat indices,
point lookup, the grid cube at a point, mesh-aligned indicators, the
pointwise order, the distribution of f on a box, and the inputs and
runner of the int64 / object table tests."""

import functools
import itertools
from fractions import Fraction

import numpy as np

from sparsedom import stepfn
from sparsedom.geometry import Cube, GridId
from sparsedom.rational import pow2, rat, rat_floor
from sparsedom.stepfn import Mesh, StepFunction


def flat(mesh: Mesh, idx) -> int:
    return int(np.ravel_multi_index(tuple(idx), mesh.shape))


def unflat(mesh: Mesh, i: int) -> tuple:
    return tuple(int(x) for x in np.unravel_index(i, mesh.shape))


def flat_cells(mesh: Mesh, box) -> list:
    """Row-major flat indices of the cells whose centers lie in box."""
    return np.arange(mesh.size).reshape(mesh.shape)[mesh.cells(box)].ravel().tolist()


def cell_of_point(mesh: Mesh, x) -> tuple:
    idx = tuple(rat_floor((rat(c) - a) / mesh.h)
                for c, a in zip(x, mesh.domain.lo))
    for i in idx:
        if not 0 <= i < mesh.cells_axis:
            raise ValueError("point outside the mesh domain")
    return idx


def cube_at(grid: GridId, k: int, point) -> Cube:
    """The unique cube of ``grid`` at scale k containing ``point``."""
    s = pow2(-k)
    off = grid.offset_at(k)
    j = tuple(rat_floor(rat(x) / s - o) for x, o in zip(point, off))
    return Cube(grid, k, j)


def indicator(mesh: Mesh, box) -> StepFunction:
    """Exact indicator; the box must be aligned to mesh cell corners."""
    for axis in range(mesh.dim):
        if mesh.axis_pieces(axis, box.lo[axis], box.hi[axis])[2]:
            raise ValueError("indicator box must be mesh-aligned")
    vals = np.full(mesh.shape, Fraction(0), dtype=object)
    vals[mesh.cells(box)] = Fraction(1)
    return StepFunction(mesh, vals.flat)


def le(f: StepFunction, g: StepFunction) -> bool:
    """Pointwise <= on every cell."""
    if f.mesh != g.mesh:
        raise ValueError("mesh mismatch")
    return all(a <= b for a, b in zip(f.values, g.values))


def cell_masses(f: StepFunction, box, absolute: bool = False,
                pad_zero: bool = True) -> dict:
    """value -> measure of f (of |f| when absolute) on box, one mesh cell
    at a time; with pad_zero the part of the box outside the domain is
    mass at 0."""
    mesh = f.mesh
    vals = np.array(f.values, dtype=object).reshape(mesh.shape)
    axes = []
    for axis in range(mesh.dim):
        ia, ib, partials = mesh.axis_pieces(axis, box.lo[axis], box.hi[axis])
        axes.append([(i, mesh.h) for i in range(ia, ib)] + list(partials))
    masses, covered = {}, Fraction(0)
    for cell in itertools.product(*axes):
        w = functools.reduce(lambda a, b: a * b, (x for _, x in cell))
        v = vals[tuple(i for i, _ in cell)]
        v = abs(v) if absolute else v
        masses[v] = masses.get(v, Fraction(0)) + w
        covered += w
    if pad_zero and covered < box.measure:
        masses[Fraction(0)] = masses.get(Fraction(0), Fraction(0)) \
            + box.measure - covered
    return masses


def edge_input(mesh: Mesh, multiplier: int, over: bool) -> StepFunction:
    """Integers of both signs on the four core cells of mesh whose |f| table
    has the most bits a kernel of largest factor ``multiplier`` reads in
    int64 (P_max = 2^(62 - bits(multiplier)) - 1), or one bit more."""
    p_max = (1 << 62 - multiplier.bit_length()) - 1 + over
    parts = [p_max // 3, 1, p_max // 7]
    parts.append(p_max - sum(parts))
    vals = [0] * mesh.size
    for i, (cell, v) in enumerate(zip(flat_cells(mesh, mesh.core), parts, strict=True)):
        vals[cell] = -v if i % 2 else v
    return StepFunction(mesh, vals)


def both_paths(monkeypatch, run):
    """run() as the kernels choose, the dtypes of the |f| tables it read,
    and run() again with every table forced to object ints
    (``stepfn._INT64_BITS`` set to 0).  A run that reads no table must read
    none when forced."""
    seen = []
    choose = StepFunction._abs_table

    def spy(self, multiplier):
        table = choose(self, multiplier)
        seen.append(table.dtype)
        return table

    with monkeypatch.context() as m:
        m.setattr(StepFunction, "_abs_table", spy)
        got = run()
        dtypes = seen[:]
        m.setattr(stepfn, "_INT64_BITS", 0)
        forced = run()
    assert set(seen[len(dtypes):]) == ({np.dtype(object)} if dtypes else set())
    return got, dtypes, forced


def assert_python_ints(g: StepFunction):
    """The integer form and the Fractions of g hold Python ints only."""
    nums, den = g._num
    assert nums.dtype == object and type(den) is int
    assert {type(v) for v in nums.flat} == {int}
    assert {(type(v.numerator), type(v.denominator)) for v in g.values} == {(int, int)}
