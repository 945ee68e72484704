"""Command-line front end: demos for the core constructions plus the
acceptance suite.

Every subcommand reads the same flag set, optionally overridden by a
``--config`` file of key=value lines, both parsed through one key table,
and emits a JSON (or key,value CSV) report to stdout or the ``out`` of
flag or file.  Exit codes: 0 pass, 1 criterion or invariant failure, 2
usage or configuration error.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict
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
    ExperimentConfig,
    default_config,
    generate_function,
    run_criterion,
)

__all__ = ["main"]


def _comma_list(parse):
    return lambda value: tuple(parse(s) for s in value.split(","))


# every --config key -> (parser, flag or None, flag help); the keys without
# a flag are read by one subcommand only (_EXTRA_KEYS)
_KEYS = {
    "dim": (int, "--dim", None),
    "level": (int, "--level", None),
    "seed": (int, "--seed", None),
    "trials": (int, "--trials", None),
    "m_list": (_comma_list(int), "--m",
               "comma-separated shift exponents, e.g. 1,2,4"),
    "lam": (parse_scalar, "--lambda",
            "oscillation quantile in (0,1), e.g. 1/8"),
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

# the config-file keys that only one subcommand reads
_EXTRA_KEYS = {"q_lo": "osc-estimate", "q_hi": "osc-estimate",
               "exponents": "a2-scan"}


def _parse_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; values typed by key."""
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
            out[key] = _KEYS[key][0](value)
    return out


def _gather_config(args, defaults: ExperimentConfig = None,
                   no_lambda: str = None) -> tuple:
    """Merge defaults <- explicit flags <- config file; returns
    (ExperimentConfig, extras) where extras holds subcommand-only keys.
    A subcommand-only key given to another subcommand is a usage error, as
    is, with ``no_lambda``, a λ given by flag or config file (reported with
    that reason)."""
    merged = asdict(defaults) if defaults is not None else {}
    flags = {key: parse(getattr(args, key))
             for key, (parse, flag, _) in _KEYS.items()
             if flag and getattr(args, key) is not None}
    merged.update(flags)
    extras, overrides = {}, {}
    if args.config:
        overrides = _parse_config_file(args.config)
        for key in sorted(_EXTRA_KEYS.keys() & overrides.keys()):
            if args.command != _EXTRA_KEYS[key]:
                raise ValueError("%s: %s in --config is read by %s only"
                                 % (args.command, key, _EXTRA_KEYS[key]))
            extras[key] = overrides.pop(key)
        merged.update(overrides)
    if no_lambda and ("lam" in flags or "lam" in overrides):
        raise ValueError("%s: --lambda (lam, lambda in --config) is not "
                         "accepted: %s" % (args.command, no_lambda))
    return ExperimentConfig(**merged), extras


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

_LAMBDA_FIXED = "λ is fixed at 2^-(n+2) by the oscillation decomposition"
_LAMBDA_READERS = {"adjoint-osc-growth", "osc-stability"}  # criteria 7 and 9
_LAMBDA_UNREAD = ("criterion %s reads no λ: only criteria 7 and 9 do, and "
                  "every oscillation decomposition runs with λ fixed at 2^-(n+2)")


def _cmd_cover_test(args) -> int:
    cfg, _ = _gather_config(args, default_config("cover-6x"),
                            no_lambda=_LAMBDA_UNREAD % "cover-6x")
    verdict = run_criterion("cover-6x", cfg)
    _emit(verdict.to_json(), cfg)
    return 0 if verdict.passed else 1


def _cmd_decompose(args) -> int:
    cfg, _ = _gather_config(args, no_lambda=_LAMBDA_FIXED)
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
    cfg, _ = _gather_config(args, no_lambda="the Calderón-Zygmund "
                            "construction uses no λ")
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
    cfg, _ = _gather_config(args, no_lambda=_LAMBDA_FIXED)
    f = abs(_input_function(args, cfg))
    rep = dominate(f)
    report = {"domination": rep.to_json(), "config": cfg.to_json()}
    _emit(report, cfg)
    return 0 if rep.violations == 0 and rep.decomposition_gap >= 0 else 1


def _cmd_osc_estimate(args) -> int:
    cfg, extras = _gather_config(args)
    f = abs(_input_function(args, cfg))
    q_lo = extras.get("q_lo", Fraction(3, 8))
    q_hi = extras.get("q_hi", Fraction(5, 8))
    q = Box.interval(q_lo, q_hi)
    rep = oscillation_estimate_report(f, q, cfg.lam)
    report = {"q": q.to_json(), "estimate": rep.to_json(),
              "config": cfg.to_json()}
    _emit(report, cfg)
    return 0 if not rep.defect else 1


def _cmd_a2_scan(args) -> int:
    cfg, extras = _gather_config(args, no_lambda="the A2 scan reads no λ")
    if cfg.dim != 1:
        raise ValueError("a2-scan is one-dimensional")
    exponents = extras.get("exponents", (0, 0.3, 0.6, 0.8, 0.9, 0.95))
    table, = a2_scan([cfg.operator], exponents, level=cfg.level,
                     seed=cfg.seed)
    _emit({"scan": table.to_json(), "config": cfg.to_json()}, cfg,
          table.to_csv())
    return 0


def _cmd_acceptance(args) -> int:
    ids = list(CRITERION_IDS) if args.all else [_ALIASES.get(args.id, args.id)]
    if ids == [None]:
        print("acceptance: provide --id <criterion> or --all",
              file=sys.stderr)
        return 2
    # every config is gathered before any criterion runs, so a usage error
    # exits 2 with nothing run
    configs = [_gather_config(args, default_config(cid), no_lambda=None
                              if cid in _LAMBDA_READERS else _LAMBDA_UNREAD % cid)[0]
               for cid in ids]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsedom",
        description="Desk-scale sparse domination toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("cover-test", _cmd_cover_test,
         "shifted-grid cover cubes: containment and the 6x side bound"),
        ("decompose", _cmd_decompose,
         "oscillation decomposition of a step function on the unit cube"),
        ("cz-sparse", _cmd_cz_sparse,
         "sparse families from the maximal-function stopping construction"),
        ("dominate", _cmd_dominate,
         "dominate the maximal truncated transform by sparse averages"),
        ("osc-estimate", _cmd_osc_estimate,
         "oscillation of the maximal truncated transform on one interval"),
        ("a2-scan", _cmd_a2_scan,
         "A2 constants against weighted operator norms over power weights"),
        ("acceptance", _cmd_acceptance,
         "run acceptance criteria with pinned configurations"),
    ]
    for name, fn, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        for key, (_, flag, flag_help) in _KEYS.items():
            if flag:
                sub.add_argument(flag, dest=key, help=flag_help)
        sub.add_argument("--config", help="key=value file overriding flags")
        if name in ("decompose", "cz-sparse", "dominate", "osc-estimate"):
            sub.add_argument("--input", type=str, default=None,
                             help="CSV of cell values (rational or decimal)")
        if name == "acceptance":
            sub.add_argument("--id", type=str, default=None,
                             choices=CRITERION_IDS + [str(i + 1) for i in
                                                      range(len(CRITERION_IDS))])
            sub.add_argument("--all", action="store_true")
        sub.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print("sparsedom: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
