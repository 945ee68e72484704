"""Timing and spans around the benchmark's calls into the program.

Every program call goes through ``Trace.call``, which times it (wall and
CPU).  Once CAL_EVERY_S of program time has gathered, the calibration loop
of ``speed.py`` runs, and the calls since the previous calibration are
scaled to reference seconds by the calibrations just before and just
after them.  Only program calls are timed: the benchmark's own glue and
checks are not.

With tracing on, each call also leaves a span: a name, a start, an end,
and the id of the span that caused it (the instance it belongs to).  Spans
are kept in memory and written once, when the run ends.
"""

import json
import resource
import statistics
import time
from contextlib import contextmanager

from speed import calibrate, factor

# calibrate once at least this much program time has run since the last
# calibration: often enough to follow the drift, rarely enough to be cheap
CAL_EVERY_S = 0.05

# work counts per round, read from the program's outputs (workloads.py)
COUNTERS = ("sparse.cz_sparse.cubes", "sparse.oscillation_decompose.cubes",
            "stepfn.hl_maximal.calls", "weights.a2_constant.candidates",
            "weights.operator_norm_weighted.iterations", "czo.dominate.cubes",
            "geometry.cover_cube.calls")


def run_seconds(rounds: list, key: str) -> float:
    """Time of one round: the sum over operations of each operation's
    median time over the rounds."""
    return sum(statistics.median(op) for op in zip(*(r[key] for r in rounds)))


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have ended."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


class Trace:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []        # [id, parent, name, start, end, scale]
        self.wall = 0.0        # reference seconds in calls since take_times()
        self.cpu = 0.0
        self._stack = []
        self._cal = calibrate()
        self._pending_wall = self._pending_cpu = 0.0
        self._pending_spans = []

    @contextmanager
    def span(self, name: str):
        """A grouping span (an instance); it is not timed or calibrated."""
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None, 1.0]
        self.spans.append(rec)
        self._stack.append(sid)
        return rec

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed, inside a span ``name`` when tracing."""
        rec = self._open(name) if self.enabled else None
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            return fn(*args, **kwargs)
        finally:
            w1, c1 = time.perf_counter(), cpu_seconds()
            self._pending_wall += w1 - w0
            self._pending_cpu += c1 - c0
            if rec is not None:
                self._stack.pop()
                rec[3], rec[4] = w0, w1
                self._pending_spans.append(rec)
            if self._pending_wall >= CAL_EVERY_S:
                self._flush()

    def _flush(self):
        """Scale the calls since the last calibration by a new one."""
        cal = calibrate()
        k = factor(self._cal[0], cal[0])
        self.wall += self._pending_wall * k
        self.cpu += self._pending_cpu * factor(self._cal[1], cal[1])
        for rec in self._pending_spans:
            rec[5] = k
        self._cal = cal
        self._pending_wall = self._pending_cpu = 0.0
        self._pending_spans = []

    def take_times(self) -> tuple:
        """Reference (wall, CPU) seconds in calls since the last take."""
        if self._pending_wall:
            self._flush()
        out = (self.wall, self.cpu)
        self.wall = self.cpu = 0.0
        return out

    def layer_seconds(self, first: int) -> dict:
        """Reference seconds per span name over spans[first:]."""
        out = {}
        for _, _, name, start, end, k in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (end - start) * k
        return out

    def write(self, path: str, meta: dict):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                                  "start": s[3], "end": s[4], "scale": s[5]}
                                 for s in self.spans]}, fh)
