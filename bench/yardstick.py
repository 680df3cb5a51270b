"""Calibration loop that converts wall time into reference time.

The machine a benchmark runs on changes speed from second to second when
it shares its cores (on a 2-vCPU VM, 100 default sweeps took from 0.7x to
1.2x their median time over three minutes).  A pass of this loop is a
fixed mix of the work ottosim does per stroke (2x2 and 4x4 complex numpy
calls and Python bookkeeping) that never calls the program.  Timing a pass
between segments of requests measures the machine's current speed, and

    reference time = wall time * REF_PASS_S / (time of a pass now)

is the time the request would have taken on a machine where one pass takes
REF_PASS_S, so changes of the program show and changes of the machine's
speed mostly do not.
"""

import math
import time

import numpy as np

# Median pass time on the 2-vCPU VM the benchmark was defined on (Python
# 3.11.7, numpy 2.4.6), so that a reference second is close to a wall
# second there.
REF_PASS_S = 0.020
_STEPS = 250

_EYE2 = np.eye(2, dtype=complex)
_RHO = np.array([[0.5, 0.2j], [-0.2j, 0.5]])


def run_pass():
    """One pass of the calibration mix; returns a checksum so no work is skipped."""
    acc = 0.0
    seen = {}
    for k in range(_STEPS):
        c, s = math.cos(k * 0.01), math.sin(k * 0.01)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        r = u @ _RHO @ u.conj().T
        acc += float(np.linalg.eigvalsh(r)[0]) + float(np.abs(r - r.conj().T).max())
        joint = np.kron(r, _EYE2)
        acc += float(np.einsum("ikjk->ij", joint.reshape(2, 2, 2, 2)).trace().real)
        seen[f"{k:.12g}"] = acc
    return acc + len(seen)


def timed_pass():
    """Wall seconds of one pass."""
    start = time.perf_counter()
    run_pass()
    return time.perf_counter() - start
