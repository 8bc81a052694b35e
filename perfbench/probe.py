"""Host-speed probe: a fixed computation whose time tracks the machine's current speed.

On a shared host the speed of interpreter-bound code drifts by up to ~1.8x
over minutes, so raw times of runs made minutes apart are not comparable.  The
benchmark times this probe next to the program and scales its times by it
(see host_factor in run.py).  The probe does not touch qmcut.
"""

from time import perf_counter

# Median probe time on a 2-vCPU Intel Xeon at 2.1 GHz in a fast phase of the
# host; it only fixes the scale.
PYTHON_PROBE_NOMINAL_S = 0.056


def python_probe_s() -> float:
    """Seconds for a fixed pure-Python loop, the interpreter-bound kind of work."""
    t0 = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return perf_counter() - t0
