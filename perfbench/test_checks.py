"""Each independent check passes on the program's outputs and fails when
one output is corrupted.  Small levels keep this fast; the checks do not
depend on the level.

    python3 -m pytest perfbench -q
"""

import copy
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS, Trace  # noqa: E402

SEED = 3


def produce(wl, tmpdir):
    tr = Trace(False)
    inputs = wl.build(SEED, tr, str(tmpdir))
    counts = dict.fromkeys(COUNTERS, 0)
    outs = [wl.plain_output(i, fn(tr), counts)
            for i, (_, fn) in enumerate(wl.ops(inputs))]
    return wl.plain_inputs(inputs), outs


def small(cls, **levels):
    wl = cls()
    for k, v in levels.items():
        setattr(wl, k, v)
    return wl


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {
        "sparse-1d": produce(small(workloads.Sparse1D, level=6), tmp),
        "maximal": produce(small(workloads.Maximal, level_1d=6, level_2d=2), tmp),
        "weighted": produce(small(workloads.Weighted, level=7, level_dense=5,
                                  level_czo=6), tmp),
        "rational-1d": produce(small(workloads.Rational1D, level=6,
                                     boxes_1d=200, boxes_2d=50), tmp),
    }


def failures(name, inputs, outputs):
    return checks.check_workload(name, inputs, outputs, SEED)


def corrupted(data, name, edit):
    inputs, outputs = copy.deepcopy(data[name])
    edit(inputs, outputs)
    return failures(name, inputs, outputs)


@pytest.mark.parametrize("name", ["sparse-1d", "maximal", "weighted",
                                  "rational-1d"])
def test_outputs_pass(data, name):
    assert failures(name, *data[name]) == []


def first_nonempty_level(family):
    return next(k for k in sorted(family["levels"]) if family["levels"][k])


def drop_cube(out):
    """Drop a cube of the top level, which no finer level depends on."""
    fam = out["grids"][0]["family"]
    fam["levels"][max(fam["levels"])].pop()


def bump(values, i, by=Fraction(1, 7)):
    values[i] = Fraction(values[i]) + by


def raise_coefficient(outs):
    coeffs = next(o["decomp"]["coeffs"] for o in outs if o["decomp"]["coeffs"])
    cube, omega = coeffs[0]
    coeffs[0] = (cube, omega + 1)


def peak_cell(values):
    return max(range(len(values)), key=lambda i: values[i])


@pytest.mark.parametrize("edit, message", [
    (lambda i, o: drop_cube(o[0]), "do not cover"),
    (lambda i, o: bump(o[0]["grids"][1]["dyadic"],
                       peak_cell(o[0]["grids"][1]["dyadic"])), "brute force"),
    (lambda i, o: bump(o[1]["grids"][0]["sparse_op"], 80), "sparse_operator"),
    (lambda i, o: o[2]["grids"][0].update(gap=o[2]["grids"][0]["gap"] + 1),
     "pointwise gap"),
    (lambda i, o: o[2]["decomp"].update(median=o[2]["decomp"]["median"] + 1),
     "median"),
    (lambda i, o: bump(o[2]["sharp"], 100), "sharp_maximal"),
    (lambda i, o: raise_coefficient(o), "oscillation coefficient"),
    (lambda i, o: o[2]["decomp"].update(gap=o[2]["decomp"]["gap"] - 1),
     "decomposition gap"),
])
def test_sparse_1d_corruptions(data, edit, message):
    found = corrupted(data, "sparse-1d", edit)
    assert found and message in found[0], found


def test_sparse_1d_overlapping_family(data):
    def edit(i, o):
        fam = o[0]["grids"][0]["family"]
        k = first_nonempty_level(fam)
        fam["levels"][k].append(fam["levels"][k][0])
    found = corrupted(data, "sparse-1d", edit)
    assert found and "overlap" in found[0]


def test_maximal_corruptions(data):
    def raise_hl(i, o):
        for c in checks.sample_cells(SEED * 100 + 1, 16, len(o[1]["hl"])):
            bump(o[1]["hl"], c)
    found = corrupted(data, "maximal", raise_hl)
    assert found and "hl_maximal" in found[0]

    def drop(i, o):
        drop_cube(o[2])
    found = corrupted(data, "maximal", drop)
    assert found and "do not cover" in found[0]

    def lower_dyadic(i, o):
        d = o[1]["grids"][3]["dyadic"]
        d[peak_cell(d)] = Fraction(0)
    assert corrupted(data, "maximal", lower_dyadic)


def unsampled(o, op):
    """The cells of operation op's hl output that the brute force skips."""
    hl = o[op]["hl"]
    keep = set(checks.sample_cells(SEED * 100 + op, 8 if op == 0 else 16,
                                   len(hl)))
    return [c for c in range(len(hl)) if c not in keep]


@pytest.mark.parametrize("op", [0, 2])
def test_maximal_sandwich_fails_on_low_hl(data, op):
    # hl below the standard-grid maximal function everywhere but the samples
    def edit(i, o):
        for c in unsampled(o, op):
            o[op]["hl"][c] = Fraction(0)
    found = corrupted(data, "maximal", edit)
    assert found and "M^D f > M f" in found[0]


@pytest.mark.parametrize("op", [0, 2])
def test_maximal_sandwich_fails_on_high_hl(data, op):
    # one unsampled cell far above 6^n times the dyadic maximal functions
    def edit(i, o):
        o[op]["hl"][unsampled(o, op)[len(o[op]["hl"]) // 2]] = Fraction(10 ** 9)
    found = corrupted(data, "maximal", edit)
    assert found and "M f > 6^n" in found[0]


@pytest.mark.parametrize("edit, message", [
    (lambda i, o: o[0].update(a2=o[0]["a2"] * Fraction(99, 100)),
     "below the float window maximum"),
    (lambda i, o: o[1].update(a2=Fraction(1000)), "above the continuum"),
    (lambda i, o: o[0].update(a2=o[0]["a2"] * Fraction(1001, 1000)),
     "witness"),
    (lambda i, o: o[0]["norms"][5].__setitem__(1, o[0]["norms"][5][1] * 1.01),
     "dense"),
    (lambda i, o: o[1]["norms"][7].__setitem__(0, 1e6), "Frobenius"),
    (lambda i, o: bump(o[3]["tf"], checks.sample_cells(SEED * 100 + 3, 8,
                                                       len(o[3]["tf"]))[0]),
     "maximal_truncated"),
    (lambda i, o: o[3].update(violations=1), "violations"),
    (lambda i, o: o[3].update(gap=Fraction(-1, 3)), "negative decomposition gap"),
])
def test_weighted_corruptions(data, edit, message):
    found = corrupted(data, "weighted", edit)
    assert found and message in found[0], found


@pytest.mark.parametrize("edit, message", [
    (lambda i, o: bump(i[0]["values"], 100), "CSV round trip"),
    (lambda i, o: o[-1].__setitem__(0, (o[-1][0][0], o[-1][0][1],
                                        tuple(j + 1 for j in o[-1][0][2]),
                                        o[-1][0][3])), "off its grid"),
    (lambda i, o: o[-1].__setitem__(0, o[-1][0][:3] + (
        tuple(c + Fraction(1, 3) for c in o[-1][0][3]),)), "off its grid"),
    (lambda i, o: o[-1].pop(), "boxes"),
    (lambda i, o: bump(o[1]["grids"][0]["dyadic"],
                       peak_cell(o[1]["grids"][0]["dyadic"])), "brute force"),
])
def test_rational_corruptions(data, edit, message):
    found = corrupted(data, "rational-1d", edit)
    assert found and message in found[0], found


def test_cover_cube_too_large_or_missing_box():
    box = ((Fraction(1, 10),), (Fraction(2, 3),))
    # [0, 2) at scale -1 on the standard grid is the true cover
    assert checks.check_workload("rational-1d", [{"boxes": [box]}],
                                 [[((0,), -1, (0,), (Fraction(0),))]], 0) == []
    too_big = [[((0,), -2, (0,), (Fraction(0),))]]
    found = checks.check_workload("rational-1d", [{"boxes": [box]}], too_big, 0)
    assert found and "6 times" in found[0]
    missing = [[((0,), 1, (0,), (Fraction(0),))]]
    found = checks.check_workload("rational-1d", [{"boxes": [box]}], missing, 0)
    assert found and "misses its box" in found[0]
