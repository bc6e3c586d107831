"""Micro-batching: coalesce single queries into vectorised batches.

DeepOD's prediction path (M_O + M_E, the paper's Table 5 "estimation
time") is a stack of matrix multiplies whose fixed per-call overhead
dwarfs the marginal cost of one extra row — a batch of 256 queries costs
barely more than a batch of 1.  The micro-batcher exploits that: callers
submit one query at a time and receive a future; a worker runs one
vectorised call per batch and resolves all its futures.

The policy is work-conserving: the worker never idles while a query is
queued.  When it is free it takes whatever is waiting (up to
``max_batch``) and runs it at once; queries that arrive while a batch
computes form the next one.  So batches grow only with load — a burst
fills ``max_batch``, and a lone query is answered in a batch of one
without waiting for company.  There is no batching window to tune.

The class is usable two ways:

* **threaded** — ``start()`` spawns a worker; ``submit()`` is then safe
  from any number of request threads (the HTTP front-end uses this);
* **manually driven** — without ``start()``, the owner calls ``flush()``
  or ``drain()``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence, Tuple


class MicroBatcher:
    """Coalesces submitted items into calls of ``handler(items) -> results``.

    Parameters
    ----------
    handler:
        Called with a list of items; must return one result per item, in
        order.  If it raises, the exception is propagated into every
        future of that batch (callers fail individually, the worker
        survives).
    max_batch:
        The most items one handler call receives.
    on_batch:
        Optional callback ``on_batch(batch_size)`` fired after every
        flush — the service uses it to feed the batch-size histogram.
    """

    def __init__(self, handler: Callable[[List[object]], Sequence[object]],
                 max_batch: int = 64,
                 on_batch: Optional[Callable[[int], None]] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.handler = handler
        self.max_batch = max_batch
        self.on_batch = on_batch
        self._queue: List[Tuple[object, Future]] = []
        self._cond = threading.Condition()
        self._worker: Optional[threading.Thread] = None
        self._running = False

    # -- submission ------------------------------------------------------
    def submit(self, item: object) -> Future:
        """Queue one item; the returned future resolves after a flush."""
        future: Future = Future()
        with self._cond:
            self._queue.append((item, future))
            self._cond.notify()
        return future

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- flushing --------------------------------------------------------
    def _take_batch_locked(self) -> List[Tuple[object, Future]]:
        batch = self._queue[:self.max_batch]
        del self._queue[:self.max_batch]
        return batch

    def _run_batch(self, batch: List[Tuple[object, Future]]) -> None:
        if not batch:
            return
        items = [item for item, _ in batch]
        try:
            results = self.handler(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"handler returned {len(results)} results for "
                    f"{len(items)} items")
        except Exception as exc:
            for _, future in batch:
                future.set_exception(exc)
            return
        finally:
            if self.on_batch is not None:
                self.on_batch(len(items))
        for (_, future), result in zip(batch, results):
            future.set_result(result)

    def flush(self) -> int:
        """Run one batch now (up to ``max_batch`` items); returns its size."""
        with self._cond:
            batch = self._take_batch_locked()
        self._run_batch(batch)
        return len(batch)

    def drain(self) -> int:
        """Flush repeatedly until the queue is empty; returns items flushed."""
        total = 0
        while True:
            n = self.flush()
            if n == 0:
                return total
            total += n

    # -- threaded mode ---------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._running:
            return self
        self._running = True
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="micro-batcher", daemon=True)
        self._worker.start()
        return self

    def stop(self, drain: bool = True) -> None:
        with self._cond:
            self._running = False
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        if drain:
            self.drain()

    @property
    def running(self) -> bool:
        return self._running

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while self._running and not self._queue:
                    self._cond.wait()
                if not self._running and not self._queue:
                    return
                batch = self._take_batch_locked()
            self._run_batch(batch)
