"""Machine-speed probes used to scale the benchmark's wall times.

On a shared host the CPU speed available to one process can shift by up to
1.8x for tens of seconds at a time (seen on a 2-vCPU Intel Xeon virtual
machine), far more than the changes the benchmark must resolve. A probe is
a fixed computation that never touches carpetdim. Timing it next to a job
and scaling the job's wall time by `REFERENCE_S / probe time` gives the
job's time on a machine where the probe takes `REFERENCE_S`: a speed change
of the host cancels out, a change in carpetdim does not.

Host contention slows different kinds of work by different factors, so each
workload is scaled by the probe that does the kind of work its jobs spend
their time on: interpreter work on small tuples and floats (`tuples`), or
products and powers of large integers (`bigints`).
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.005


def _tuples() -> None:
    rows = []
    acc = 0.0
    for i in range(2500):
        digits = tuple((i * 7 + k) % 3 for k in range(8))
        rows.append(digits[:4] + (2,) * 4)
        acc += sum(digits) * 0.5
    max(rows)


def _bigints() -> None:
    base = 4 ** 150 * 3 ** 40
    for exponent in range(296, 301):
        _ = base ** exponent > base ** (exponent - 1)


KINDS = {"tuples": _tuples, "bigints": _bigints}


def seconds(kind: str) -> float:
    """Wall time of one probe run, with the garbage collector held off."""
    work = KINDS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(wall_s: float, probe_s: float) -> float:
    """Wall time converted to seconds on a machine where the probe takes REFERENCE_S."""
    return wall_s * REFERENCE_S / probe_s
