"""Pinned A2 reports: on every weight of ``test_weights._oracle_weights()``
and on the five level-12 power weights of the a2-scan criterion, the
constant, the witness and the witness kind of ``a2_constant`` must equal
the recorded ones.  The oracle of ``test_weights`` shares the production
table reads, so this file is what holds the constants to those of an
earlier implementation.

The constant and the witness are stored as sha256 digests (the constants
of power weights run to thousands of digits): of "numerator/denominator"
in hexadecimal, and of the witness Box's JSON.

Regenerate (only when a constant is meant to change) with

    PYTHONPATH=src python3 tests/test_a2_reports.py
"""

import hashlib
import json
import pathlib

from sparsedom.stepfn import Mesh
from sparsedom.weights import Weight, a2_constant
from test_weights import _oracle_weights

PINNED = pathlib.Path(__file__).parent / "data" / "a2_reports.json"

SCAN_EXPONENTS = (0.3, 0.6, 0.8, 0.9, 0.95)  # a2-scan's nonzero exponents


def _weights():
    for i, w in enumerate(_oracle_weights()):
        yield "oracle-%02d-%dd-level%d" % (i, w.mesh.dim, w.mesh.level), w
    for a in SCAN_EXPONENTS:
        yield "a2-scan-level12-a%s" % a, Weight.power(Mesh(dim=1, level=12), a)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(w) -> dict:
    rep = a2_constant(w)
    q = rep.constant
    return {"constant": _digest("%x/%x" % (q.numerator, q.denominator)),
            "witness": _digest(json.dumps(rep.witness.to_json())),
            "witness_kind": rep.witness_kind}


def test_a2_reports_match_pinned():
    pinned = json.loads(PINNED.read_text())
    names = []
    for name, w in _weights():
        names.append(name)
        assert _pin(w) == pinned[name], name
    assert sorted(names) == sorted(pinned)


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _pin(w) for name, w in _weights()},
                                 indent=1, sort_keys=True) + "\n")
