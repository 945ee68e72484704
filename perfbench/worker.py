"""One workload in one process: set-up, timed rounds, plain outputs.

Run by ``run.py`` with ``src`` on PYTHONPATH; writes a pickle that only
``run.py`` reads.  A round runs every operation of the workload once.  The
first round's outputs go to the independent checks; every later round's
outputs must equal them, or that operation counts as failed.
"""

import argparse
import gc
import os
import pickle
import resource
import time

from tracing import COUNTERS, Trace, run_seconds
from workloads import WORKLOADS

SETUP_REPEATS = 5
MIN_ROUNDS = 3   # a median needs a few rounds even on a slow machine


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    tr = Trace(bool(args.trace))
    workdir = os.path.dirname(os.path.abspath(args.out))

    builds, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        first = len(tr.spans)
        tr.take_times()
        inputs = wl.build(args.seed, tr, workdir)
        builds.append(tr.take_times()[0])
        setup_layers.append(tr.layer_seconds(first))

    ops = wl.ops(inputs)
    rounds, outputs, errors, failed = [], None, {}, 0
    start = time.perf_counter()
    while True:
        gc.collect()
        first = len(tr.spans)
        raw, wall, cpu = [], [], []
        for name, fn in ops:
            with tr.span("instance:" + name):
                try:
                    raw.append(fn(tr))
                except Exception as e:  # one failed operation, not the run
                    raw.append(None)
                    failed += 1
                    errors.setdefault(len(raw) - 1, "%s: %r" % (name, e))
            w, c = tr.take_times()
            wall.append(w)
            cpu.append(c)
        counts = dict.fromkeys(COUNTERS, 0)
        plain = [None if r is None else wl.plain_output(i, r, counts)
                 for i, r in enumerate(raw)]
        if outputs is None:
            outputs = plain
        else:
            # an output that differs from the first round's is a failure
            failed += sum(1 for a, b in zip(outputs, plain)
                          if a != b and b is not None)
        # hold no more than one round's outputs while the next one runs
        del raw, plain
        rounds.append({"wall": wall, "cpu": cpu, "counts": counts,
                       "layers": tr.layer_seconds(first)})
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start >= args.seconds):
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ops": [name for name, _ in ops], "builds": builds,
              "setup_layers": setup_layers, "rounds": rounds,
              "errors": errors, "failed": failed,
              "inputs": wl.plain_inputs(inputs), "outputs": outputs,
              "peak_rss_mb": peak_kb / 1024.0}
    if args.trace:
        trace_path = os.path.join(workdir, "trace-%s-seed%d.json"
                                  % (args.workload, args.seed))
        tr.write(trace_path, {
            "workload": args.workload, "seed": args.seed,
            "note": "start and end are raw perf_counter seconds; scale "
                    "turns a duration into reference seconds (speed.py)",
            "run_s": run_seconds(rounds, "wall")})
    with open(args.out, "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
