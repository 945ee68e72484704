"""Benchmark of sparsedom's exact verification pipeline.

    python3 perfbench/run.py --seconds S [--workload NAME|all] [--seed N]
                             [--trace 0|1]

Run from the root of a source tree (the directory holding ``src/``).  One
workload runs in its own worker process (``worker.py``) with one thread;
its outputs are then checked here, independently of the program
(``checks.py``).  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

``--seconds`` is the length of one run's timed phase, a whole number from 1
to 60; ``run_seconds`` in ``BENCHMARK.json`` gives the value runs are
compared at.  ``--workload all`` (the default) runs every workload in turn
and prints a table; with ``--trace 1`` it runs each workload untraced and
traced and also prints the per-layer figures and the tracing overhead.
"""

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_workload  # noqa: E402
from speed import CAL_REF_S  # noqa: E402
from tracing import COUNTERS, run_seconds  # noqa: E402

WORKLOADS = ("sparse-1d", "maximal", "weighted", "rational-1d")
IMPORT_PROBES = 5
IMPORT_CALS = 3        # calibration passes before, and again after, each import
WORKER_SLACK_S = 90    # set-up, the last round's overrun and the pickle

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
SETUP_LAYERS = ("harness.generate_function", "stepfn.from_csv",
                "weights.power_weight")
RUN_LAYERS = ("sparse.cz_sparse", "stepfn.dyadic_maximal",
              "sparse.cz_pointwise_gap", "sparse.verify_sparse_family",
              "sparse.sparse_operator", "sparse.oscillation_decompose",
              "sparse.verify_decomposition", "stepfn.sharp_maximal",
              "stepfn.hl_maximal", "weights.a2_constant",
              "weights.operator_norm_weighted", "czo.maximal_truncated",
              "czo.dominate", "geometry.cover_cube")


def fail(msg: str):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_seconds(src: str) -> float:
    """Median time of `import sparsedom` in fresh interpreters, in
    reference seconds.  Each interpreter calibrates IMPORT_CALS times right
    before and right after its import (which loads `fractions` first), and
    scales by the median of those passes: one pass in a fresh interpreter
    is as noisy as the drift it corrects."""
    probe = ("import sys, time, statistics; sys.path.insert(0, %r); "
             "from speed import calibrate; "
             "cal = lambda: [calibrate()[0] for _ in range(%d)]; a = cal(); "
             "t = time.perf_counter(); import sparsedom; "
             "t = time.perf_counter() - t; "
             "print(t * %r / statistics.median(a + cal()))"
             % (HERE, IMPORT_CALS, CAL_REF_S))
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", probe], env=worker_env(src),
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            fail("importing sparsedom failed:\n" + out.stderr)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_one(args, root: str) -> dict:
    """One workload in a worker process, checked here.  Prints its figures
    and, last, the result JSON; returns the result with the run's untraced
    or traced run_s added."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sparsedom", "__init__.py")):
        fail("no src/sparsedom under %s: run from the root of the source tree"
             % root)
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    pkl = os.path.join(outdir, stem + ".pkl")
    if os.path.exists(pkl):
        os.remove(pkl)
    setup_import = None if args.trace else import_seconds(src)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", pkl]
    timeout = args.seconds + WORKER_SLACK_S
    try:
        proc = subprocess.run(cmd, env=worker_env(src), cwd=root,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("worker exceeded %d s" % timeout)
    if proc.returncode != 0 or not os.path.exists(pkl):
        fail("worker failed with exit code %d" % proc.returncode)
    with open(pkl, "rb") as fh:
        res = pickle.load(fh)
    os.remove(pkl)

    problems = check_workload(args.workload, res["inputs"], res["outputs"],
                              args.seed)
    rounds = res["rounds"]
    counts0 = rounds[0]["counts"]
    for r in rounds[1:]:
        if r["counts"] != counts0:
            problems.append("counters differ between rounds")
            break
    for p in problems:
        print("CHECK FAILED: " + p)
    for _, msg in sorted(res["errors"].items()):
        print("OPERATION FAILED: %s" % msg)

    run_s = run_seconds(rounds, "wall")
    if args.trace:
        metrics = {}
        for name in SETUP_LAYERS:
            metrics[name + ".s"] = statistics.median(
                b.get(name, 0.0) for b in res["setup_layers"])
        for name in RUN_LAYERS:
            metrics[name + ".s"] = statistics.median(
                r["layers"].get(name, 0.0) for r in rounds)
        metrics = {k: {"value": v, "unit": "s"} for k, v in metrics.items()}
        for name in COUNTERS:
            metrics[name] = {"value": counts0[name], "unit": "count"}
    else:
        values = {
            "setup_s": setup_import + statistics.median(res["builds"]),
            "run_s": run_s,
            "cpu_s": run_seconds(rounds, "cpu"),
            "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    result = {"correct": not problems,
              "attempted": len(res["ops"]) * len(rounds),
              "failed": res["failed"],
              "metrics": metrics}
    print("%s seed %d: %d rounds of %d operations, %s"
          % (args.workload, args.seed, len(rounds), len(res["ops"]),
             "checks passed" if not problems else "CHECKS FAILED"))
    for k, m in metrics.items():
        print("  %-45s %14.6f %s" % (k, m["value"], m["unit"]))
    print(json.dumps(result))
    return dict(result, run_s=run_s)


def run_all(args, root: str):
    """Every workload in its own process; a table, then per-layer figures."""
    summary = {}
    modes = (0, 1) if args.trace else (0,)
    for wl in WORKLOADS:
        for trace in modes:
            one = argparse.Namespace(workload=wl, seed=args.seed,
                                     seconds=args.seconds, trace=trace)
            summary[(wl, trace)] = run_one(one, root)
    print()
    print("%-12s %9s %6s %7s" % ("workload", "attempted", "failed", "correct")
          + "".join(" %16s" % ("%s [%s]" % kv) for kv in END_TO_END))
    for wl in WORKLOADS:
        r = summary[(wl, 0)]
        print("%-12s %9d %6d %7s" % (wl, r["attempted"], r["failed"], r["correct"])
              + "".join(" %16.4f" % r["metrics"][k]["value"] for k, _ in END_TO_END))
    if args.trace:
        print()
        print("%-45s" % "per-layer metric" + "".join(" %12s" % wl for wl in WORKLOADS))
        names = list(summary[(WORKLOADS[0], 1)]["metrics"])
        for name in names:
            print("%-45s" % name + "".join(
                " %12.5g" % summary[(wl, 1)]["metrics"][name]["value"]
                for wl in WORKLOADS))
        print("%-45s" % "tracing overhead (traced/untraced run_s - 1)" + "".join(
            " %11.2f%%" % (100 * (summary[(wl, 1)]["run_s"]
                                  / summary[(wl, 0)]["run_s"] - 1))
            for wl in WORKLOADS))
    print(json.dumps({wl: {"correct": summary[(wl, 0)]["correct"],
                           "attempted": summary[(wl, 0)]["attempted"],
                           "failed": summary[(wl, 0)]["failed"],
                           "metrics": summary[(wl, 0)]["metrics"]}
                      for wl in WORKLOADS}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, choices=range(1, 61), required=True,
                    metavar="1..60")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if args.workload == "all":
        run_all(args, root)
    else:
        run_one(args, root)


if __name__ == "__main__":
    main()
