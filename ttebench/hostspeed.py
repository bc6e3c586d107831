"""Host-speed reference: a fixed loop timed between the benchmark's units.

A shared 2-vCPU host runs the same code up to about 1.7x slower while
other tenants are busy.  Slow spells last seconds, and the share of a
run they cover differs from run to run, so a throughput's run-to-run
spread reports the host rather than the program.  ``sample()`` times a
fixed, program-independent reference loop (interpreter heap and dict
work, numpy sorts, a small GEMM -- the mix the program's hot paths run)
on the thread that runs the units, right before and right after each
timed unit; their mean over ``NOMINAL_S`` is the unit's host factor,
and the closed-loop throughputs are reported per *reference second*: a
unit's wall seconds divided by its host factor.  On a host where the
loop takes ``NOMINAL_S`` a reference second is a wall second.  The wall
throughputs are printed beside them.  Set-up time stays in wall seconds
(it is mostly imports, which did not follow the reference), and so does
open-loop latency (part of it is the micro-batcher's timed wait, which
a slow host does not stretch).

Slow spells last about as long as a unit, so the samples next to a unit
track it: on dense builds, a unit's wall and the mean of its two samples
correlated at 0.78, and walls over host factor varied 0.14 (coefficient
of variation) where walls varied 0.23.

The loop is timed in thread CPU time (``time.thread_time``).  A slow
host stretches it as much as wall time (the loop's CPU and wall times
agreed within 1% on a host whose speed varied 1.6x), but time spent
waiting for the GIL is not counted, so a program thread kept busy
between units cannot slow the reference and hide its own cost.  A
reference loop in a separate process tracked the units' speed less well:
it may run on the other vCPU.
"""

import heapq
import time

import numpy as np

# Mean reference time that defines one reference second: the loop took
# 25-27 ms on a quiet 2-vCPU x86-64 host at one BLAS thread (40-49 ms
# while other tenants were busy).
NOMINAL_S = 0.026


def reference() -> float:
    """Run the fixed reference loop once; returns a checksum."""
    # Interpreter work: a Dijkstra-like heap walk over a fixed ring
    # graph with chords.
    n = 12000
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in (((u + 1) % n, 1.0), ((u * 7 + 3) % n, 2.5)):
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    total = sum(dist.values())
    # numpy work: sorts and a small GEMM chain.
    a = np.arange(4000.0)
    for _ in range(150):
        a = np.sort(a[::-1]) + 1.0
    m = np.full((96, 96), 1.0 / 96.0)
    x = np.eye(96)
    for _ in range(150):
        x = x @ m + 0.5
    return total + float(a[0]) + float(x[0, 0])


def sample() -> float:
    """Time one reference loop; returns its thread CPU seconds."""
    t0 = time.thread_time()
    reference()
    return time.thread_time() - t0


def unit_factor(before: float, after: float) -> float:
    """A unit's host factor from the samples taken right before and
    right after it (above 1: slow host)."""
    return (before + after) / 2.0 / NOMINAL_S
