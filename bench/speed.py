"""Reference-speed timing on a shared machine.

The box this benchmark was defined on is a 2-vCPU VM whose CPU speed
swings by 25-45% over spans of seconds to minutes as neighbouring load
comes and goes; process CPU time swings with it, so it is no refuge.
Every timed call is therefore paired with a fixed pure-Python loop run
just before it, and end-to-end timings are reported in reference seconds:

    raw seconds * REFERENCE_LOOP_S / loop seconds

The loop never touches the package, so a change to the package cannot
move it; such a change moves only the raw time of the calls it affects.
"""
from fractions import Fraction
import time

LOOP_TERMS = 1200
REFERENCE_LOOP_S = 0.006  # the loop's time on the reference box, not slowed


def loop_seconds() -> float:
    """Time a fixed sum of Fractions: big-integer arithmetic and object
    churn like the exact layer's.  It tracked both the exact table builds and
    the sampler better than a plain integer loop did."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, LOOP_TERMS + 1):
        total += Fraction(i, i + 7)
    return time.perf_counter() - start


def scale() -> float:
    """Factor that turns raw seconds measured now into reference seconds."""
    return REFERENCE_LOOP_S / loop_seconds()
