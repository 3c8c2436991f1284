"""Machine-speed calibration.

The effective speed of a CPU shared with other tenants drifts by tens
of percent over seconds. The benchmark therefore times a fixed
integer-only loop next to the work it measures and reports calibrated
times: wall time x REFERENCE_S / (the loop's time measured alongside).
The loop allocates nothing the garbage collector tracks and touches
little memory, so what the program under test does cannot change its
speed; a change in the program shows, a change in the machine mostly
cancels.
"""

from time import perf_counter

# Median time of kernel() on the machine the baseline was recorded on
# (2 vCPUs, Python 3.11.7). Calibrated times read as seconds on a
# machine where the loop takes this long.
REFERENCE_S = 0.010


def kernel() -> float:
    """Seconds taken by one run of the fixed loop."""
    t0 = perf_counter()
    x = 12345
    s = 0
    for i in range(30000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        s += (x >> 3) % 7 + (x & i).bit_count()
    return perf_counter() - t0
