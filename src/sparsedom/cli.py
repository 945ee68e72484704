"""Command-line front end: demos for the core constructions plus the
acceptance suite.

Flags and the key=value lines of a ``--config`` file overriding them go
through one key table; a key that the subcommand or criterion does not
declare as read exits 2 before anything runs.  Reports go as JSON (or
key,value CSV) to stdout or the ``out`` of flag or file.  Exit codes: 0
pass, 1 criterion or invariant failure, 2 usage or configuration error.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, fields
from fractions import Fraction

from .rational import parse_scalar, rat_str
from .geometry import Box, Cube, GridId
from .stepfn import StepFunction, dyadic_maximal
from .sparse import (
    cz_pointwise_gap,
    cz_sparse,
    oscillation_decompose,
    verify_decomposition,
    verify_sparse_family,
)
from .czo import dominate, oscillation_estimate_report
from .weights import a2_scan
from .harness import (
    CRITERION_IDS,
    _ALIASES,
    _REGISTRY,
    ExperimentConfig,
    default_config,
    generate_function,
    run_criterion,
)

__all__ = ["main"]


def _comma_list(parse):
    return lambda value: tuple(parse(s) for s in value.split(","))


# every --config key -> (parser, flag or None, flag help)
_KEYS = {
    "dim": (int, "--dim", None),
    "level": (int, "--level", None),
    "seed": (int, "--seed", None),
    "trials": (int, "--trials", None),
    "m_list": (_comma_list(int), "--m",
               "comma-separated shift exponents, e.g. 1,2,4"),
    "lam": (parse_scalar, "--lambda",
            "oscillation quantile in (0,1), e.g. 1/8; every oscillation "
            "decomposition fixes it at 2^-(n+2)"),
    "kind": (str, "--kind", "generator: spike | indicator-sums | "
                            "random-cells | power-profile"),
    "operator": (str, "--operator", "scan operator: sparse | hilbert"),
    "fmt": (str, "--format", "report format: json | csv"),
    "out": (str, "--out", None),
    "q_lo": (parse_scalar, None, None),
    "q_hi": (parse_scalar, None, None),
    "exponents": (_comma_list(float), None, None),
}
_KEY_ALIASES = {"lambda": "lam", "m": "m_list"}


def _parse_config_file(path: str) -> dict:
    """key=value lines, one per key; '#' starts a comment; typed by key."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, value = (s.strip() for s in line.split("=", 1))
            key = _KEY_ALIASES.get(key, key)
            if key not in _KEYS:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            if key in out:
                raise ValueError("%s:%d: %s is given twice" % (path, lineno, key))
            out[key] = _KEYS[key][0](value)
    return out


def _gather_config(args, defaults: ExperimentConfig = None,
                   criterion: str = None) -> tuple:
    """Merge defaults <- explicit flags <- config file into (ExperimentConfig,
    every key given).  A key that the subcommand, or with ``criterion`` that
    criterion, does not read is a usage error naming the key's readers."""
    who = "acceptance: criterion " + criterion if criterion else args.command
    reads = {"fmt", "out"}.union(
        _REGISTRY[criterion][2] if criterion else _COMMANDS[args.command][1])
    if getattr(args, "input", None):  # the generator's keys go unread
        reads -= {"seed", "kind"}
        who += " --input"
    given = {key: parse(getattr(args, key))
             for key, (parse, flag, _) in _KEYS.items()
             if flag and getattr(args, key) is not None}
    if args.config:
        given.update(_parse_config_file(args.config))
    for key in sorted(given.keys() - reads):
        commands = [name for name, (_, r) in _COMMANDS.items() if key in r]
        criteria = [cid for cid, (_, _, r, _) in _REGISTRY.items() if key in r]
        raise ValueError("%s reads no %s (%s); subcommands that read it: %s; "
                         "criteria: %s" % (who, key, _KEYS[key][1] or "--config",
                                           ", ".join(commands) or "none",
                                           ", ".join(criteria) or "none"))
    merged = asdict(defaults) if defaults is not None else {}
    merged.update((f.name, given[f.name]) for f in fields(ExperimentConfig)
                  if f.name in given)
    return ExperimentConfig(**merged), given


def _input_function(args, cfg: ExperimentConfig) -> StepFunction:
    if getattr(args, "input", None):
        return StepFunction.from_csv(args.input, cfg.dim, cfg.level)
    return generate_function(cfg.seed, cfg.kind, cfg.mesh())


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten("%s.%s" % (prefix, k) if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten("%s[%d]" % (prefix, i), v, rows)
    else:
        rows.append((prefix, obj))


def _emit(report: dict, cfg: ExperimentConfig, text: str = None) -> None:
    """Stamp the report with the time and write it to ``cfg.out`` or
    stdout: as JSON, or in CSV as ``text`` when given and as flattened
    key,value rows otherwise."""
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if cfg.fmt != "csv":
        text = json.dumps(report, indent=2) + "\n"
    elif text is None:
        rows = [("key", "value")]
        _flatten("", report, rows)
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cover_test(args) -> int:
    """shifted-grid cover cubes: containment and the 6x side bound"""
    cfg, _ = _gather_config(args, default_config("cover-6x"))
    verdict = run_criterion("cover-6x", cfg)
    _emit(verdict.to_json(), cfg)
    return 0 if verdict.passed else 1


def _cmd_decompose(args) -> int:
    """oscillation decomposition of a step function on the unit cube"""
    cfg, _ = _gather_config(args)
    f = _input_function(args, cfg)
    q0 = Cube(GridId.standard(cfg.dim), 0, (0,) * cfg.dim)
    res = oscillation_decompose(f, q0)
    gap = verify_decomposition(f, res)
    report = {"decomposition": res.to_json(),
              "verify_gap": rat_str(gap),
              "family_size": res.family.cube_count(),
              "config": cfg.to_json()}
    _emit(report, cfg)
    return 0 if gap >= 0 else 1


def _cmd_cz_sparse(args) -> int:
    """sparse families from the maximal-function stopping construction"""
    cfg, _ = _gather_config(args)
    f = _input_function(args, cfg)
    grids = []
    ok = True
    for grid in GridId.all_grids(cfg.dim):
        fam = cz_sparse(f, grid)
        entry = {"grid": grid.to_json(), "family": fam.to_json()}
        try:
            verify_sparse_family(fam)
        except AssertionError as exc:
            entry["invariants"] = str(exc)
            ok = False
        else:  # the gap reads the nesting the check certifies
            entry["invariants"] = "ok"
            if not fam.is_empty:
                gap = cz_pointwise_gap(f, fam, dyadic_maximal(f, grid))
                entry["pointwise_gap"] = rat_str(gap)
                ok = ok and gap >= 0
        grids.append(entry)
    report = {"grids": grids, "config": cfg.to_json()}
    _emit(report, cfg)
    return 0 if ok else 1


def _cmd_dominate(args) -> int:
    """dominate the maximal truncated transform by sparse averages"""
    cfg, _ = _gather_config(args)
    f = abs(_input_function(args, cfg))
    rep = dominate(f)
    report = {"domination": rep.to_json(), "config": cfg.to_json()}
    _emit(report, cfg)
    return 0 if rep.violations == 0 and rep.decomposition_gap >= 0 else 1


def _cmd_osc_estimate(args) -> int:
    """oscillation of the maximal truncated transform on one interval"""
    cfg, given = _gather_config(args)
    f = abs(_input_function(args, cfg))
    q = Box.interval(given.get("q_lo", Fraction(3, 8)),
                     given.get("q_hi", Fraction(5, 8)))
    rep = oscillation_estimate_report(f, q, cfg.lam)
    report = {"q": q.to_json(), "estimate": rep.to_json(),
              "config": cfg.to_json()}
    _emit(report, cfg)
    return 0 if not rep.defect else 1


def _cmd_a2_scan(args) -> int:
    """A2 constants against weighted operator norms over power weights"""
    cfg, given = _gather_config(args)
    if cfg.dim != 1:
        raise ValueError("a2-scan is one-dimensional")
    exponents = given.get("exponents", (0, 0.3, 0.6, 0.8, 0.9, 0.95))
    table, = a2_scan([cfg.operator], exponents, level=cfg.level,
                     seed=cfg.seed)
    _emit({"scan": table.to_json(), "config": cfg.to_json()}, cfg,
          table.to_csv())
    return 0


def _cmd_acceptance(args) -> int:
    """run acceptance criteria with pinned configurations"""
    ids = list(CRITERION_IDS) if args.all else [_ALIASES.get(args.id, args.id)]
    if ids == [None]:
        raise ValueError("acceptance: provide --id <criterion> or --all")
    # every config is gathered before any criterion runs, so a usage error
    # exits 2 with nothing run
    configs = [_gather_config(args, default_config(cid), cid)[0] for cid in ids]
    verdicts = []
    for cid, cfg in zip(ids, configs):
        verdict = run_criterion(cid, cfg)
        verdicts.append(verdict)
        print("%s  %-20s %6.1fs" % ("PASS" if verdict.passed else "FAIL",
                                    verdict.criterion, verdict.elapsed),
              file=sys.stderr)
    report = {"verdicts": [v.to_json() for v in verdicts],
              "all_passed": all(v.passed for v in verdicts)}
    # no pinned config sets fmt or out, so every cfg carries those of the
    # flags and the config file
    _emit(report, cfg)
    return 0 if all(v.passed for v in verdicts) else 1


# the keys a function given by --input or generated reads
_FUNCTION_KEYS = ("dim", "level", "seed", "kind")

# subcommand -> (runner, config keys it reads besides fmt and out); the
# acceptance suite reads those that each criterion it runs declares
_COMMANDS = {
    "cover-test": (_cmd_cover_test, _REGISTRY["cover-6x"][2]),
    "decompose": (_cmd_decompose, _FUNCTION_KEYS),
    "cz-sparse": (_cmd_cz_sparse, _FUNCTION_KEYS),
    "dominate": (_cmd_dominate, _FUNCTION_KEYS),
    "osc-estimate": (_cmd_osc_estimate, _FUNCTION_KEYS + ("lam", "q_lo", "q_hi")),
    "a2-scan": (_cmd_a2_scan, ("dim", "level", "seed", "operator", "exponents")),
    "acceptance": (_cmd_acceptance, ()),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsedom",
        description="Desk-scale sparse domination toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (fn, reads) in _COMMANDS.items():
        sub = subs.add_parser(name, help=fn.__doc__)
        # every flag parses (an unread one exits 2); --help lists only those read
        shown = {"fmt", "out"}.union(reads)
        if name == "acceptance":  # the keys its criteria read
            shown = shown.union(*(r for _, _, r, _ in _REGISTRY.values()))
        for key, (_, flag, flag_help) in _KEYS.items():
            if flag:
                sub.add_argument(flag, dest=key, help=flag_help if key in shown
                                 else argparse.SUPPRESS)
        sub.add_argument("--config", help="key=value file overriding flags")
        if "kind" in reads:  # the commands that generate a function
            sub.add_argument("--input", type=str, default=None,
                             help="CSV of cell values (rational or decimal)")
        if name == "acceptance":
            pick = sub.add_mutually_exclusive_group()
            pick.add_argument("--id", type=str, default=None,
                              choices=CRITERION_IDS + [str(i + 1) for i in
                                                       range(len(CRITERION_IDS))])
            pick.add_argument("--all", action="store_true")
        sub.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print("sparsedom: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
