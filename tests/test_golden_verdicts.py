"""Golden verdicts: every criterion at a small config must reproduce the
recorded ``Verdict.to_json()`` document exactly, and so must the
``decompose`` and ``cz-sparse`` reports (without their ``timestamp``) on
small CSV inputs of rationals with unrelated denominators.

The golden file pins the verdicts of the code before the n-D cell-layer
refactor, so any change to a measured value, a witness or a pass/fail
flag shows up here in seconds instead of in the full acceptance run.

Regenerate (only when a verdict is meant to change) with

    PYTHONPATH=src python3 tests/test_golden_verdicts.py
"""

import json
import pathlib
import tempfile
from dataclasses import replace

import pytest

from sparsedom.cli import main
from sparsedom.harness import default_config, run_criterion

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden_verdicts.json"

# (name, criterion id, overrides of the criterion's pinned config)
CASES = [
    ("cover-6x", "cover-6x", dict(trials=2000)),
    ("sparse-invariants", "sparse-invariants", dict(level=10, trials=3)),
    ("sparse-invariants-power", "sparse-invariants",
     dict(level=7, trials=2, kind="power-profile")),
    ("sparse-invariants-2d", "sparse-invariants",
     dict(dim=2, level=4, trials=2)),
    ("maximal-sandwich", "maximal-sandwich", dict(level=7, trials=3)),
    ("maximal-sandwich-indicators", "maximal-sandwich",
     dict(level=6, trials=2, kind="indicator-sums")),
    ("maximal-sandwich-2d", "maximal-sandwich",
     dict(dim=2, level=4, trials=2, kind="power-profile")),
    ("osc-decomposition", "osc-decomposition", dict(level=9, trials=12)),
    ("osc-decomposition-2d", "osc-decomposition",
     dict(dim=2, level=5, trials=4)),
    ("l2-bound-8", "l2-bound-8", dict(level=6, trials=3)),
    ("weak11-growth", "weak11-growth", dict(level=6, trials=3)),
    ("adjoint-osc-growth", "adjoint-osc-growth", dict(level=6, trials=3)),
    ("hilbert-exact", "hilbert-exact", dict(level=5, trials=4)),
    ("osc-stability", "osc-stability", dict(level=5, trials=4)),
    ("master-domination", "master-domination", dict(level=9, trials=3)),
    ("a2-scan", "a2-scan", dict(level=9, trials=1)),
]


# (name, CLI arguments); the input CSVs hold rationals over 3, 7, 11, 96
# and 97, with zeros and negatives
CLI_CASES = [
    ("cli-decompose-rational-1d", ["decompose", "--level", "5", "--input",
                                   "rationals-1d-level5.csv"]),
    ("cli-cz-sparse-rational-1d", ["cz-sparse", "--level", "5", "--input",
                                   "rationals-1d-level5.csv"]),
    ("cli-decompose-rational-2d", ["decompose", "--dim", "2", "--level", "3",
                                   "--input", "rationals-2d-level3.csv"]),
    ("cli-cz-sparse-rational-2d", ["cz-sparse", "--dim", "2", "--level", "3",
                                   "--input", "rationals-2d-level3.csv"]),
]


def _cli_json(argv: list) -> dict:
    argv = [str(DATA / a) if a.endswith(".csv") else a for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        assert main(argv + ["--out", str(out)]) in (0, 1)
        report = json.loads(out.read_text())
    del report["timestamp"]
    return report


def _verdict_json(cid: str, overrides: dict) -> dict:
    cfg = replace(default_config(cid), **overrides)
    # through JSON text, so floats and keys compare as the file stores them
    return json.loads(json.dumps(run_criterion(cid, cfg).to_json()))


@pytest.mark.parametrize("name,cid,overrides", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_verdict(name, cid, overrides):
    golden = json.loads(GOLDEN.read_text())
    assert _verdict_json(cid, overrides) == golden[name]


@pytest.mark.parametrize("name,argv", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_golden_cli_report(name, argv):
    golden = json.loads(GOLDEN.read_text())
    assert _cli_json(argv) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: _verdict_json(cid, ov) for name, cid, ov in CASES}
    data.update((name, _cli_json(argv)) for name, argv in CLI_CASES)
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
