"""A fixed piece of pure-Python work that measures how fast the host runs
right now.

The benchmark shares its machine with other tenants, and the speed at
which one core executes Python drifts by 30% or more over minutes and
within seconds, with no CPU steal to show for it.  Every op time
therefore moves with the host, whatever the program does.  The benchmark
times ``probe()`` right before and right after each op, and reports the
op's wall time scaled to a host on which ``probe()`` takes
``PROBE_REF_S``:

    reference time = wall time * PROBE_REF_S / probe time

The probe does not call mhbound, so a change to mhbound moves the
reference time exactly as much as the wall time.  This module imports
nothing, so a fresh interpreter can time it before importing mhbound.
"""

import time

#: probe time of the reference host: about what ``probe()`` takes on an
#: undisturbed core of the 2-vCPU Xeon the benchmark was tuned on
PROBE_REF_S = 0.025
#: loop length of one probe
PROBE_STEPS = 175000


def _work(steps: int) -> int:
    acc = 0
    table = {}
    for i in range(steps):
        acc = (acc + i * i) % 1000003
        table[i & 1023] = acc
    return acc


def probe() -> float:
    """Wall time of one fixed piece of interpreter work, in seconds."""
    start = time.perf_counter()
    _work(PROBE_STEPS)
    return time.perf_counter() - start
