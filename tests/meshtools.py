"""Cell-addressing helpers shared by the tests: row-major flat indices,
point lookup, mesh-aligned indicators and the pointwise order."""

from fractions import Fraction

import numpy as np

from sparsedom.rational import rat, rat_floor
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
