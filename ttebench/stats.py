"""The benchmark's own arithmetic: percentiles, throughput, pin checks.

Kept free of ``repro`` imports so ``test_ttebench.py`` can cover it
without building anything.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Mapping, Sequence, Tuple

# A percentile is reported only when at least this many raw samples lie
# strictly above it; otherwise its tail rests on a handful of outliers.
MIN_TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of raw samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def min_samples_for(q: float, tail: int = MIN_TAIL_SAMPLES) -> int:
    """Fewest samples that leave ``tail`` samples beyond the
    nearest-rank ``q``-th percentile."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < tail:
        n += 1
    return n


def tail_percentile(samples: Sequence[float], q: float,
                    tail: int = MIN_TAIL_SAMPLES) -> Tuple[float, int]:
    """``(value, sample count)`` of the ``q``-th percentile.

    Raises ``ValueError`` when fewer than ``tail`` samples lie beyond
    the percentile's rank, so a thin tail can never be reported.
    """
    n = len(samples)
    if n < min_samples_for(q, tail):
        raise ValueError(
            f"p{q:g} needs {min_samples_for(q, tail)} samples to keep "
            f"{tail} beyond it; got {n}")
    return percentile(samples, q), n


def throughput(work: Sequence[float], walls: Sequence[float]) -> float:
    """Work per second over a whole phase: total work / total wall.

    Not a mean of per-unit rates, which would over-weight short units.
    """
    if len(work) != len(walls) or not walls:
        raise ValueError("need one wall time per unit of work")
    total = sum(walls)
    if total <= 0:
        raise ValueError("phase wall time must be positive")
    return sum(work) / total


def ref_throughput(work: Sequence[float], walls: Sequence[float],
                   factors: Sequence[float]) -> float:
    """Work per reference second: total work over the sum of each
    unit's wall divided by its host factor (``hostspeed``)."""
    if not len(work) == len(walls) == len(factors) or not walls:
        raise ValueError("need one wall time and host factor per unit")
    if min(factors) <= 0:
        raise ValueError("host factors must be positive")
    return throughput(work, [w / f for w, f in zip(walls, factors)])


def spread_units(counts: Mapping[str, int], steps: int) -> List[List[str]]:
    """Order one round's units: ``counts[phase]`` units of each phase
    spread evenly over ``steps`` consecutive steps (unit ``k`` of ``c``
    goes to step ``floor((k + 1/2) * steps / c)``), phases in ``counts``
    order within a step.

    A host whose speed drifts over seconds then slows every phase alike
    instead of the one phase that happened to run in a slow block.
    """
    if steps < 1 or any(c < 0 for c in counts.values()):
        raise ValueError("need steps >= 1 and counts >= 0")
    out: List[List[str]] = [[] for _ in range(steps)]
    for phase, count in counts.items():
        for k in range(count):
            out[int((2 * k + 1) * steps // (2 * count))].append(phase)
    for step in out:
        step.sort(key=list(counts).index)
    return out


def overhead_share(traced: Sequence[float],
                   untraced: Sequence[float]) -> float:
    """Mean traced unit wall over mean untraced unit wall, minus one."""
    if not traced or not untraced:
        raise ValueError("need traced and untraced units")
    return ((sum(traced) / len(traced))
            / (sum(untraced) / len(untraced)) - 1.0)


def pin_mismatches(actual: Mapping[str, object],
                   pinned: Mapping[str, object]) -> List[str]:
    """Names whose value differs from the pin, exactly.

    Fails closed: a pinned name missing from ``actual``, an actual name
    with no pin, or an empty pin all count as mismatches.
    """
    if not pinned:
        return ["<no pin>"]
    bad = [name for name, want in pinned.items()
           if name not in actual or actual[name] != want]
    bad += [name for name in actual if name not in pinned]
    return sorted(bad)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    """``a`` equals ``b`` to ``rel`` relative (absolute below 1)."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness
    figure ``spread.py`` prints), from ``statistics.quantiles(values,
    n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
