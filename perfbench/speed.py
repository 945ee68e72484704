"""Machine-speed calibration.

On a shared machine the speed of one core drifts by up to 2x within tens
of seconds, so raw wall times of the same work are not comparable between
runs.  A fixed calibration loop of exact-rational arithmetic, the kind of
work that dominates the program, is timed right before and right after each
timed step.  Scaling the step's time by CAL_REF_S over the mean of those
two calibrations expresses it in reference seconds: seconds on a core
where the calibration loop takes CAL_REF_S.  Wall time is scaled by the
loop's wall time and CPU time by the loop's CPU time, so time the process
spends descheduled shows in the one and not in the other.
"""

import time
from fractions import Fraction

CAL_TERMS = 10000
CAL_REF_S = 0.025   # the loop's time on an idle core of the reference machine


def calibrate() -> tuple:
    """(wall, CPU) seconds of one pass of the calibration loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    s = Fraction(0)
    for i in range(1, CAL_TERMS):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - w0, time.process_time() - c0


def factor(before: float, after: float) -> float:
    """Multiplier from measured seconds to reference seconds, given the
    calibration times before and after the measured step."""
    return CAL_REF_S / ((before + after) / 2)
