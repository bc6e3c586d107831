"""Outside-in layer timing.

A :class:`Probe` replaces a function at the name its caller looks it up
(a module attribute such as ``repro.mapmatching.hmm.dijkstra_sssp``, a
class attribute such as ``SpatialIndex.edges_within``, or an instance
attribute such as ``service.batcher.handler``) with a wrapper that times
each call.  The program itself is not edited: the wrappers sit between
caller and callee, so each consumer of a shared function can get its own
key (``roadnet.route.trips`` for the trip generator's
``perturbed_route``, ``roadnet.route.hmm`` for the matcher's
``dijkstra``).

Per key and phase the probe keeps the call count and inclusive time of
outermost calls, and the self time: a call's duration minus the time of
wrapped calls nested inside it on the same thread.  A call nested in a
call of the *same* key (``nearest_edge`` calling ``k_nearest_edges``)
adds its self time to the key but not another call or inclusive
interval, so nothing is counted twice.

:meth:`Probe.restore` puts every original object back and returns the
names whose restored attribute is not, by identity, the original.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class LayerStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("key", "t0", "child_s")

    def __init__(self, key: str, t0: float):
        self.key = key
        self.t0 = t0
        self.child_s = 0.0


class Probe:
    """Install timing wrappers; collect :class:`LayerStats` per phase.

    ``phase`` names the bucket that finishing calls are added to;
    ``None`` pauses accounting (the wrappers then only pass through).
    ``clock`` is injectable so the arithmetic can be tested.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.phase: Optional[str] = None
        self.stats: Dict[Tuple[str, str], LayerStats] = {}
        self._installed: List[Tuple[object, str, object, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- accounting --------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, key: str) -> Optional[_Frame]:
        """Open a timed frame (``None`` while accounting is paused)."""
        if self.phase is None:
            return None
        frame = _Frame(key, self.clock())
        self._stack().append(frame)
        return frame

    def exit(self, frame: Optional[_Frame]) -> None:
        if frame is None:
            return
        now = self.clock()
        stack = self._stack()
        stack.pop()
        duration = now - frame.t0
        outermost = all(f.key != frame.key for f in stack)
        if stack:
            stack[-1].child_s += duration
        phase = self.phase
        if phase is None:
            return
        with self._lock:
            stats = self.stats.setdefault((phase, frame.key), LayerStats())
            stats.self_s += duration - frame.child_s
            if outermost:
                stats.calls += 1
                stats.incl_s += duration

    def get(self, phase: str, key: str) -> LayerStats:
        return self.stats.get((phase, key), LayerStats())

    def self_total(self, phase: str) -> float:
        """Self time of every key in ``phase`` (time inside some layer)."""
        return sum(s.self_s for (p, _), s in self.stats.items()
                   if p == phase)

    # -- installation ------------------------------------------------------
    def wrap(self, owner: object, attr: str, key: str,
             observe: Optional[Callable] = None,
             before: Optional[Callable] = None,
             generator: bool = False) -> None:
        """Replace ``owner.attr`` by a timing wrapper.

        ``before(args, kwargs)`` and ``observe(args, kwargs, result)``
        run around each accounted call, outside its timed interval.
        ``generator=True`` times every ``next()`` of the returned
        generator instead of its creation.
        The attribute must be the owner's own (module global, class
        dict or instance dict), so restoring it is exact.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} has no own attribute {attr!r}")
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{attr!r} of {owner!r} is not callable")
        probe = self

        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return probe._timed_iter(key, original(*args, **kwargs))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None and probe.phase is not None:
                    before(args, kwargs)
                frame = probe.enter(key)
                try:
                    result = original(*args, **kwargs)
                finally:
                    probe.exit(frame)
                if observe is not None and frame is not None:
                    observe(args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, key))

    def _timed_iter(self, key: str, iterator):
        try:
            while True:
                frame = self.enter(key)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                yield item
        finally:
            iterator.close()

    def restore(self) -> List[str]:
        """Undo every :meth:`wrap`; return the names not restored."""
        broken = []
        for owner, attr, original, key in reversed(self._installed):
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                broken.append(f"{key} ({attr})")
        self._installed = []
        return broken
