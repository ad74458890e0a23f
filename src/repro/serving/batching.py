"""Dynamic micro-batching for concurrent single-RHS SpMV requests.

The engine's :meth:`~repro.core.twostep.TwoStepEngine.run_many` amortises
the matrix-side traversal (plan lookup, stripe walk, merge scheduling)
across every column of a multi-RHS block, so k coalesced requests cost
far less than k independent ``run`` calls.  The :class:`MicroBatcher`
exploits that without making a lone request wait for partners that
never come.  Each (tenant, matrix) lane tracks the batches it has
dispatched that have not finished, and forms a batch when

* the lane is **idle** (nothing executing): the pending requests are
  flushed on the next event-loop turn (``loop.call_soon``), so requests
  submitted in the same tick -- a gathered burst -- still form one
  batch, but nobody waits on a timer;
* the lane reaches ``BatchPolicy.max_batch`` pending requests (**full**),
  busy or not;
* the lane is busy and its oldest pending request has waited
  ``BatchPolicy.max_delay_s`` (**timer**): requests that arrive while a
  batch executes coalesce behind it, and the lane's last running batch
  finishing flushes them at once (an **idle** flush) if the timer has
  not fired yet;
* :meth:`MicroBatcher.flush` / :meth:`MicroBatcher.drain` force it
  (**drain**).

The trigger labels the ``serving_batches_total`` counter and
:attr:`MicroBatcher.by_trigger`.

Admission control is a single bound across all lanes: once
``BatchPolicy.max_queue`` requests are in flight (queued or executing),
further submissions are shed immediately with
:class:`~repro.faults.errors.OverloadedError` rather than queued into an
unbounded backlog.

Requests may carry a :class:`~repro.serving.resilience.Deadline`.  It is
enforced twice: at admission (when the estimated queue wait --
:meth:`MicroBatcher.estimated_wait_s`, an EWMA of observed batch
latency scaled by queue depth -- already exceeds the remaining budget,
the request is shed with
:class:`~repro.faults.errors.DeadlineExceededError` instead of queueing
to certain death) and when the batch forms (members whose deadline
expired while queued are dropped from the batch *before* execution and
resolved with the same typed error, so an expired request never wastes
executor time).  Cancelled requests -- a client disconnect cancels the
awaiting task, which cancels the pending future -- are likewise dropped
at batch formation and counted, releasing their queue slot.

All queue state is mutated only on the event-loop thread, so no locks
are needed.  Batches execute on a small *dedicated* thread pool
(``BatchPolicy.workers``, default 2) rather than ``asyncio.to_thread``'s
shared default pool, so batch execution never queues behind unrelated
``to_thread`` work.  Two workers let a lane's second full batch run at
once instead of waiting for the first, so two batches of one lane may
finish in either order; each request still gets its own column.  (The
engine is thread-safe: its plan cache is locked.)  One batch skips the
pool: a lone request (``k == 1``) on an otherwise idle server
(``in_flight == 1``) whose lane has measured its execution at no more
than ``BatchPolicy.max_delay_s`` runs **inline** on the event-loop
thread, sparing it the two thread crossings (handoff to the pool,
wake-up back on the loop) that otherwise cost as much as the kernel.
Blocking the loop for at most ``max_delay_s`` delays any other request
by no more than the policy already lets a batch wait behind a busy
lane.  A lane's first batch has no estimate yet and uses the pool, and
so does every burst, busy server and slow lane.  A batch dispatched
before any of its lane's batches succeeded includes the plan build (or
waits on it on the other worker), so its time only stands in until the
first later batch's sample replaces it.  An inline ``execute`` that
cannot finish without blocking (a retry backoff) raises
:class:`Offload`, and the rest of the batch finishes on the pool.
:attr:`MicroBatcher.inline` counts inline batches.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServerClosedError,
)
from repro.faults.injection import apply_fault
from repro.serving.resilience import Deadline

#: Smoothing factor for the observed-batch-latency EWMA.
_EWMA_ALPHA = 0.2

#: Why a batch was formed: the ``trigger`` label of ``serving_batches_total``.
TRIGGERS = ("idle", "full", "timer", "drain")


def _ewma(estimate: float | None, sample: float) -> float:
    """Fold ``sample`` into an EWMA; a falsy estimate means none yet."""
    if not estimate:
        return sample
    return (1 - _EWMA_ALPHA) * estimate + _EWMA_ALPHA * sample


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching policy: flush triggers and queue bound.

    Attributes:
        max_batch: Flush a lane as soon as this many requests are
            pending (one ``run_many`` call serves them all).
        max_delay_s: How long a partial batch waits behind a busy lane
            (one with a batch executing) before it is dispatched anyway.
            An idle lane never waits on it: its requests are flushed on
            the next event-loop turn.  It also bounds inline execution:
            a lone request on an idle server runs on the event-loop
            thread only when its lane's measured execution time is at
            most this long.
        max_queue: Total in-flight requests (queued + executing, across
            all lanes) before submissions are shed with
            ``OverloadedError``.
        workers: Dedicated batch-execution threads; a dedicated pool
            keeps batch execution off asyncio's shared default
            executor.  Every batch runs here except an inline one (see
            the module docstring).  The default 2 is sized to
            saturation: more clients than ``max_batch`` form two full
            batches of a lane, and with one worker the second waits for
            the first.  Keep it at most the host's CPU count: more
            threads than CPUs only make the kernels contend.
    """

    max_batch: int = 32
    max_delay_s: float = 0.002
    max_queue: int = 1024
    workers: int = 2

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive")
        if self.max_delay_s < 0:
            raise ConfigurationError("max_delay_s must be non-negative")
        if self.max_queue <= 0:
            raise ConfigurationError("max_queue must be positive")
        if self.workers <= 0:
            raise ConfigurationError("workers must be positive")


class Offload(Exception):
    """Raised by an ``execute`` called with ``inline=True`` that cannot
    finish without blocking the event loop (say, before a retry backoff).

    The batcher runs ``finish()`` on the executor instead; it returns
    what ``execute`` would have.
    """

    def __init__(self, finish):
        super().__init__("batch continues on the executor")
        self.finish = finish


@dataclass
class _Pending:
    """One queued request: its RHS, deadline, and the caller's future."""

    x: np.ndarray
    future: asyncio.Future
    enqueued: float
    deadline: Deadline | None = None


@dataclass
class _Lane:
    """Per-(tenant, fingerprint) pending queue and dispatch state."""

    pending: list = field(default_factory=list)
    #: The armed flush: ``call_soon`` on an idle lane, the
    #: ``max_delay_s`` timer on a busy one; at most one at a time.
    flush: asyncio.Handle | None = None
    #: Dispatched batch tasks whose executor call has not returned.
    running: set = field(default_factory=set)
    #: EWMA of the lane's batch body time (stack, execute, transpose),
    #: on either route; None until its first batch succeeds.
    exec_s: float | None = None
    #: Whether ``exec_s`` holds a warm sample: one from a batch
    #: dispatched after the lane's first success.  Cold batches pay the
    #: plan build (or wait on it), so their samples only stand in until
    #: the first warm one replaces them, and are dropped after it.
    warm: bool = False


@dataclass(frozen=True)
class BatchResult:
    """What a coalesced request gets back: its column plus batch facts."""

    y: np.ndarray
    batch_size: int
    queued_s: float


class MicroBatcher:
    """Coalesces per-lane requests into batched ``execute`` calls.

    Args:
        execute: ``execute(key, X, deadline, inline) -> np.ndarray`` of
            shape ``(m, k)``; called with the stacked RHS block (shape
            ``(n, k)``, column-major, column ``j`` request ``j``) in a
            worker thread (``inline=False``) or on the event-loop
            thread for an inline batch (``inline=True``, when it may
            raise :class:`Offload` to finish on the executor instead of
            blocking the loop).  ``deadline`` is the tightest
            :class:`~repro.serving.resilience.Deadline` among the
            batch's members, or None, so a retry loop can respect the
            budget.
        policy: Flush triggers and the global queue bound.
        metrics: Optional ``MetricsRegistry``; observes batch sizes and
            queue waits, counts batches, shed/expired/cancelled requests.
    """

    def __init__(self, execute, policy: BatchPolicy | None = None, metrics=None):
        self._execute = execute
        self.policy = policy or BatchPolicy()
        self._metrics = metrics
        self._lanes: dict = {}
        self._in_flight = 0
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.policy.workers, thread_name_prefix="spmv-batch"
        )
        self.batches = 0
        self.coalesced = 0
        self.shed = 0
        self.expired = 0
        self.cancelled = 0
        #: Executed batches by what formed them (see :data:`TRIGGERS`).
        self.by_trigger = dict.fromkeys(TRIGGERS, 0)
        #: Batches run on the event-loop thread instead of the pool.
        self.inline = 0
        #: EWMA of observed batch execution wall time; 0 until the first
        #: batch completes.  Drives admission-time deadline estimates
        #: and the HTTP frontend's queue-aware ``Retry-After`` hint.
        self.ewma_batch_s = 0.0

    @property
    def in_flight(self) -> int:
        """Requests currently queued or executing, across all lanes."""
        return self._in_flight

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has begun; submissions fail fast."""
        return self._closed

    def estimated_wait_s(self, extra: int = 1) -> float:
        """Estimated queueing delay for a request arriving now.

        ``ceil((in_flight + extra) / max_batch)`` batches ahead of it,
        run ``workers`` at a time, so ``ceil(batches / workers)``
        observed EWMA batch latencies, plus -- only when something is
        already in flight -- the ``max_delay_s`` it may wait coalescing
        behind a busy lane (an idle server dispatches at once).
        Deliberately simple -- an admission estimate only has to be
        right about *order of magnitude* to keep doomed requests out of
        the queue.
        """
        max_batch, workers = self.policy.max_batch, self.policy.workers
        batches_ahead = (self._in_flight + extra + max_batch - 1) // max_batch
        wait = (batches_ahead + workers - 1) // workers * self.ewma_batch_s
        return wait + self.policy.max_delay_s if self._in_flight else wait

    async def submit(
        self, key, x: np.ndarray, deadline: Deadline | None = None
    ) -> BatchResult:
        """Queue one RHS for ``key``; resolves when its batch executes.

        Raises:
            OverloadedError: The global ``max_queue`` bound is hit; the
                request was shed without queueing.
            DeadlineExceededError: ``deadline`` has already expired, or
                the estimated queue wait exceeds its remaining budget
                (shed-on-arrival instead of queueing to certain death).
            ServerClosedError: :meth:`shutdown` has begun.
        """
        if self._closed:
            raise ServerClosedError(
                "batcher is shut down; no further submissions accepted"
            )
        if self._in_flight >= self.policy.max_queue:
            self.shed += 1
            if self._metrics is not None:
                self._metrics.inc(
                    "serving_shed_total", help="Requests shed by admission control"
                )
            error = OverloadedError(
                f"serving queue full ({self._in_flight} in flight, "
                f"limit {self.policy.max_queue}); retry later",
                queue_depth=self._in_flight,
                limit=self.policy.max_queue,
            )
            error.retry_after_s = max(self.estimated_wait_s(), self.policy.max_delay_s)
            raise error
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0 or self.estimated_wait_s() > remaining:
                self.expired += 1
                if self._metrics is not None:
                    self._metrics.inc(
                        "serving_deadline_exceeded_total",
                        labels={"stage": "admission"},
                        help="Requests past their deadline, by enforcement stage",
                    )
                raise DeadlineExceededError(
                    f"deadline budget {deadline.budget_s * 1e3:.1f}ms cannot be "
                    f"met: {remaining * 1e3:.1f}ms remaining vs estimated queue "
                    f"wait {self.estimated_wait_s() * 1e3:.1f}ms",
                    stage="admission",
                    budget_s=deadline.budget_s,
                )
        loop = asyncio.get_running_loop()
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = _Lane()
        pending = _Pending(
            x=x,
            future=loop.create_future(),
            enqueued=time.perf_counter(),
            deadline=deadline,
        )
        lane.pending.append(pending)
        self._in_flight += 1
        if len(lane.pending) >= self.policy.max_batch:
            self._dispatch(key, lane, "full")
        elif lane.flush is None:
            if lane.running:
                lane.flush = loop.call_later(
                    self.policy.max_delay_s, self._dispatch, key, lane, "timer"
                )
            else:
                lane.flush = loop.call_soon(self._dispatch, key, lane, "idle")
        return await pending.future

    async def flush(self, key=None) -> None:
        """Immediately flush one lane (or every lane) and await those batches."""
        keys = [key] if key is not None else list(self._lanes)
        tasks = [
            self._dispatch(k, self._lanes[k], "drain")
            for k in keys
            if k in self._lanes and self._lanes[k].pending
        ]
        if tasks:
            await asyncio.gather(*tasks)

    async def drain(self) -> None:
        """Flush everything and wait for in-flight batches to finish.

        Awaits the lanes' running batch tasks rather than polling, so a
        long batch does not keep the event loop spinning against the
        executor thread.  The batcher stays usable afterwards; call
        :meth:`shutdown` to also release the execution threads.
        """
        while self._in_flight:
            await self.flush()
            running = [t for lane in self._lanes.values() for t in lane.running]
            if running:
                await asyncio.wait(running)
            elif not any(lane.pending for lane in self._lanes.values()):
                return  # nothing left that could settle the count

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and release the execution threads.

        Terminal: the closed flag is raised *before* the pool is torn
        down, so a submission racing the shutdown gets a fast typed
        :class:`~repro.faults.errors.ServerClosedError` instead of an
        opaque ``RuntimeError`` from a dead executor.
        """
        self._closed = True
        self._pool.shutdown(wait=wait)

    def forget(self, key) -> None:
        """Drop ``key``'s lane and its timing if nothing is pending or
        running on it (its matrix was unregistered or evicted)."""
        lane = self._lanes.get(key)
        if lane is not None and not lane.pending and not lane.running:
            del self._lanes[key]

    def _dispatch(self, key, lane: _Lane, trigger: str) -> asyncio.Task:
        """Detach up to ``policy.max_batch`` requests and start their batch.

        Also the armed flush's callback: a flush is armed only while
        requests are pending, and every dispatch disarms it.  The batch
        counts as running on the lane until its executor call returns.
        """
        limit = self.policy.max_batch
        batch = lane.pending[:limit]
        del lane.pending[:limit]
        if lane.flush is not None:
            lane.flush.cancel()
            lane.flush = None
        task = asyncio.ensure_future(self._execute_batch(key, lane, batch, trigger))
        lane.running.add(task)
        return task

    def _batch_done(self, key, lane: _Lane) -> None:
        """The current batch leaves the lane; if it was the last one
        running, what queued behind it is dispatched at once."""
        lane.running.discard(asyncio.current_task())
        if not lane.running and lane.pending:
            self._dispatch(key, lane, "idle")

    def _triage(self, batch: list) -> tuple:
        """Split a formed batch into live members and dropped ones.

        Cancelled members (future already done: the awaiting task was
        cancelled by a client disconnect) are silently dropped; expired
        members are resolved with ``DeadlineExceededError``.  Both
        release their queue slot immediately.
        """
        live = []
        dropped = 0
        for p in batch:
            if p.future.done():
                # Client went away; nothing to deliver.
                dropped += 1
                self.cancelled += 1
                if self._metrics is not None:
                    self._metrics.inc(
                        "serving_cancelled_total",
                        labels={"stage": "batch"},
                        help="Requests cancelled before execution",
                    )
            elif p.deadline is not None and p.deadline.expired:
                dropped += 1
                self.expired += 1
                p.future.set_exception(
                    DeadlineExceededError(
                        f"deadline expired after {time.perf_counter() - p.enqueued:.4f}s "
                        "in queue; dropped from batch before execution",
                        stage="batch",
                        budget_s=p.deadline.budget_s,
                    )
                )
                if self._metrics is not None:
                    self._metrics.inc(
                        "serving_deadline_exceeded_total",
                        labels={"stage": "batch"},
                        help="Requests past their deadline, by enforcement stage",
                    )
            else:
                live.append(p)
        return live, dropped

    def _execute_stacked(self, key, xs: list, deadline, inline: bool) -> tuple:
        """The batch body on either route: stack, execute, transpose.

        Returns ``(YT, seconds)``; ``YT`` is ``(k, m)`` so each request's
        ``y`` is a contiguous row.  ``execute`` receives a column-major
        ``X`` whose column ``j`` is request ``j``'s vector, copied
        contiguously; a one-stripe engine folds it column by column into
        a column-major ``Y``, whose transpose is already ``YT``, so the
        transpose copies nothing.  (A multi-stripe engine returns a
        row-major ``Y``, and its transpose is copied here, off the loop
        on the executor route.)
        """
        t0 = time.perf_counter()
        X = np.stack(xs).T
        Y = self._execute(key, X, deadline, inline)
        YT = np.ascontiguousarray(Y.T)
        return YT, time.perf_counter() - t0

    @staticmethod
    def _finish(offload: Offload) -> tuple:
        """Executor body of an offloaded inline batch, as
        :meth:`_execute_stacked` returns it.  Its time excludes the
        inline part but includes any backoff, so a lane that just
        failed leaves the loop until its estimate falls back."""
        t0 = time.perf_counter()
        YT = np.ascontiguousarray(offload.finish().T)
        return YT, time.perf_counter() - t0

    async def _execute_batch(self, key, lane: _Lane, batch: list, trigger: str) -> None:
        """Execute one coalesced batch and fan results back to futures.

        A lone request on an idle server whose lane runs in at most
        ``max_delay_s`` executes inline on the loop thread (an
        :class:`Offload` moves the rest of it to the executor); every
        other batch runs on the executor.  The batch leaves the lane as
        soon as execution returns, before the fan-out, so the next batch
        is already executing while this one's callers are woken.
        """
        now = time.perf_counter()
        live, dropped = self._triage(batch)
        self._in_flight -= dropped
        if not live:
            self._batch_done(key, lane)
            return
        k = len(live)
        deadlines = [p.deadline for p in live if p.deadline is not None]
        batch_deadline = (
            min(deadlines, key=lambda d: d.expires_at) if deadlines else None
        )
        xs = [p.x for p in live]
        cold = lane.exec_s is None  # no batch of this lane has succeeded yet
        inline = (
            self._in_flight == 1  # this lone request is all the server holds
            and not cold
            and lane.exec_s <= self.policy.max_delay_s
        )
        loop = asyncio.get_running_loop()
        try:
            try:
                apply_fault("batch", self.batches)
                if inline:
                    self.inline += 1
                    try:
                        YT, exec_s = self._execute_stacked(
                            key, xs, batch_deadline, True
                        )
                    except Offload as offload:
                        YT, exec_s = await loop.run_in_executor(
                            self._pool, self._finish, offload
                        )
                else:
                    YT, exec_s = await loop.run_in_executor(
                        self._pool,
                        self._execute_stacked,
                        key,
                        xs,
                        batch_deadline,
                        False,
                    )
            finally:
                self._batch_done(key, lane)
        except Exception as exc:
            if isinstance(exc, RuntimeError) and self._closed:
                # The pool was torn down while this batch was in flight;
                # resolve with the typed shutdown error, not the
                # executor's opaque RuntimeError.
                exc = ServerClosedError(
                    "batch aborted: batcher shut down while the batch was queued"
                )
            for p in live:
                if not p.future.done():
                    p.future.set_exception(exc)
        else:
            if not cold:
                lane.exec_s = _ewma(lane.exec_s, exec_s) if lane.warm else exec_s
                lane.warm = True
            elif not lane.warm:
                lane.exec_s = exec_s
            self.ewma_batch_s = _ewma(self.ewma_batch_s, time.perf_counter() - now)
            for j, p in enumerate(live):
                if not p.future.done():
                    p.future.set_result(
                        BatchResult(
                            y=YT[j],
                            batch_size=k,
                            queued_s=now - p.enqueued,
                        )
                    )
        finally:
            self._in_flight -= k
            self.batches += 1
            self.by_trigger[trigger] += 1
            self.coalesced += k
            if self._metrics is not None:
                self._metrics.inc(
                    "serving_batches_total",
                    labels={"trigger": trigger},
                    help="Coalesced batches executed, by what formed them",
                )
                self._metrics.observe(
                    "serving_batch_size",
                    float(k),
                    help="Requests per coalesced batch",
                )
                for p in live:
                    self._metrics.observe(
                        "serving_queue_wait_seconds",
                        now - p.enqueued,
                        help="Time requests spent queued",
                    )


__all__ = ["BatchPolicy", "BatchResult", "MicroBatcher", "Offload"]
