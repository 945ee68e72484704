"""Command-line front end: demos for the core constructions plus the
acceptance suite.

Every subcommand reads the same flag set, optionally overridden by a
``--config`` file of key=value lines, and emits a JSON (or key,value CSV)
report to stdout or ``--out``.  Exit codes: 0 pass, 1 criterion or
invariant failure, 2 usage or configuration error.
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
    ExperimentConfig,
    default_config,
    generate_function,
    run_criterion,
)

__all__ = ["main"]

_CONFIG_INT_KEYS = ("dim", "level", "seed", "trials")
_CONFIG_STR_KEYS = ("kind", "operator", "fmt", "out")


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
            if key in _CONFIG_INT_KEYS:
                out[key] = int(value)
            elif key == "lam" or key == "lambda":
                out["lam"] = parse_scalar(value)
            elif key == "m" or key == "m_list":
                out["m_list"] = tuple(int(s) for s in value.split(","))
            elif key in _CONFIG_STR_KEYS:
                out[key] = value
            elif key in ("q_lo", "q_hi"):
                out[key] = parse_scalar(value)
            elif key == "exponents":
                out[key] = tuple(float(s) for s in value.split(","))
            else:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
    return out


# the config-file keys that only one subcommand reads
_EXTRA_KEYS = {"q_lo": "osc-estimate", "q_hi": "osc-estimate",
               "exponents": "a2-scan"}


def _gather_config(args, defaults: ExperimentConfig = None,
                   no_lambda: str = None) -> tuple:
    """Merge defaults <- explicit flags <- config file; returns
    (ExperimentConfig, extras) where extras holds subcommand-only keys.
    A subcommand-only key given to another subcommand is a usage error, as
    is, with ``no_lambda``, a λ given by flag or config file (reported with
    that reason)."""
    merged = asdict(defaults) if defaults is not None else {}
    for key in ("dim", "level", "seed", "trials", "kind", "operator",
                "fmt", "out"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "lam", None) is not None:
        merged["lam"] = parse_scalar(args.lam)
    if getattr(args, "m", None) is not None:
        merged["m_list"] = tuple(int(s) for s in args.m.split(","))
    extras, overrides = {}, {}
    if getattr(args, "config", None):
        overrides = _parse_config_file(args.config)
        for key in sorted(_EXTRA_KEYS.keys() & overrides.keys()):
            if args.command != _EXTRA_KEYS[key]:
                raise ValueError("%s: %s in --config is read by %s only"
                                 % (args.command, key, _EXTRA_KEYS[key]))
            extras[key] = overrides.pop(key)
        merged.update(overrides)
    if no_lambda and (getattr(args, "lam", None) is not None
                      or "lam" in overrides):
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
    """Write the report as JSON, or in CSV as ``text`` when given and as
    flattened key,value rows otherwise."""
    if cfg.fmt != "csv":
        text = json.dumps(report, indent=2) + "\n"
    elif text is None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        rows = []
        _flatten("", report, rows)
        for key, value in rows:
            writer.writerow([key, value])
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stamp(report: dict) -> dict:
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cover_test(args) -> int:
    cfg, _ = _gather_config(args, default_config("cover-6x"))
    verdict = run_criterion("cover-6x", cfg)
    _emit(_stamp(verdict.to_json()), cfg)
    return 0 if verdict.passed else 1


_LAMBDA_FIXED = "λ is fixed at 2^-(n+2) by the oscillation decomposition"


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
    _emit(_stamp(report), cfg)
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
            entry["invariants"] = "ok"
        except AssertionError as exc:
            entry["invariants"] = str(exc)
            ok = False
        if not fam.is_empty:
            gap = cz_pointwise_gap(f, fam, dyadic_maximal(f, grid))
            entry["pointwise_gap"] = rat_str(gap)
            ok = ok and gap >= 0
        grids.append(entry)
    report = {"grids": grids, "config": cfg.to_json()}
    _emit(_stamp(report), cfg)
    return 0 if ok else 1


def _cmd_dominate(args) -> int:
    cfg, _ = _gather_config(args, no_lambda=_LAMBDA_FIXED)
    f = abs(_input_function(args, cfg))
    rep = dominate(f)
    report = {"domination": rep.to_json(), "config": cfg.to_json()}
    _emit(_stamp(report), cfg)
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
    _emit(_stamp(report), cfg)
    return 0 if not rep.defect else 1


def _cmd_a2_scan(args) -> int:
    cfg, extras = _gather_config(args)
    if cfg.dim != 1:
        raise ValueError("a2-scan is one-dimensional")
    exponents = extras.get("exponents", (0, 0.3, 0.6, 0.8, 0.9, 0.95))
    table, = a2_scan([cfg.operator], exponents, level=cfg.level,
                     seed=cfg.seed)
    _emit(_stamp({"scan": table.to_json(), "config": cfg.to_json()}), cfg,
          table.to_csv())
    return 0


def _cmd_acceptance(args) -> int:
    ids = list(CRITERION_IDS) if args.all else [args.id]
    if ids == [None]:
        print("acceptance: provide --id <criterion> or --all",
              file=sys.stderr)
        return 2
    verdicts = []
    for cid in ids:
        cfg = default_config(cid)
        merged, _ = _gather_config(args, cfg)
        verdict = run_criterion(cid, merged)
        verdicts.append(verdict)
        print("%s  %-20s %6.1fs" % ("PASS" if verdict.passed else "FAIL",
                                    verdict.criterion, verdict.elapsed),
              file=sys.stderr)
    report = {"verdicts": [v.to_json() for v in verdicts],
              "all_passed": all(v.passed for v in verdicts)}
    out_cfg = ExperimentConfig(fmt=args.fmt or "json", out=args.out)
    _emit(_stamp(report), out_cfg)
    return 0 if all(v.passed for v in verdicts) else 1


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--level", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--m", type=str, default=None,
                     help="comma-separated shift exponents, e.g. 1,2,4")
    sub.add_argument("--lambda", dest="lam", type=str, default=None,
                     help="oscillation quantile in (0,1), e.g. 1/8")
    sub.add_argument("--kind", type=str, default=None,
                     help="generator: spike | indicator-sums | "
                          "random-cells | power-profile")
    sub.add_argument("--operator", type=str, default=None,
                     help="scan operator: sparse | hilbert")
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"),
                     default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--config", type=str, default=None,
                     help="key=value file overriding flags")


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
        _add_common_flags(sub)
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
