"""Supervised, lease-based parallel campaign execution.

A compare- or signature-oracle campaign slice is embarrassingly
parallel: every fault is simulated alone against the same immutable
``(test, content)`` context, so a per-class fault list can be split
into contiguous chunks and evaluated on separate processes with no
shared state.  This module provides

* :class:`CompareWork` / :class:`SignatureWork` / :class:`AliasingWork`
  — picklable work-unit descriptions (the flow structure minus the
  faults), keyed into the campaign-context cache
  (:mod:`repro.engine.context`); each has one ``run(engine, faults,
  context)`` that evaluates a fault list or streaming class through
  the engine's oracle call (``detect_compare``, or ``detect_session``
  and its ``.signature`` plane) and returns packed verdicts;
* :class:`CampaignRunner` — a supervised worker-pool wrapper that
  shards fault classes into **leases**, dispatches them, survives
  worker faults, and merges verdicts deterministically.

Fault-tolerant execution fabric
-------------------------------

Every dispatched chunk is a :class:`ChunkLease` ``(work_key, class,
start, stop, attempt, deadline)`` tracked by the parent.  Workers are
plain ``multiprocessing`` processes supervised over per-worker duplex
pipes — no shared queues a dying worker could corrupt — and the
supervisor loop detects three fault families:

* **crash** — the worker's pipe hits EOF (or the process stops being
  alive): its lease is unacked, the worker is respawned, the lease
  re-dispatched;
* **hang** — the lease's deadline (``RetryPolicy.timeout``) passes:
  the worker is terminated and respawned, the lease re-dispatched;
* **corruption / poison** — the chunk result carries the wrong number
  of verdicts, or the chunk raised in the worker: the attempt is
  discarded and the lease re-dispatched.

Re-dispatch is bounded by :class:`~repro.engine.retry.RetryPolicy`
(attempt count, per-attempt deadline, exponential backoff).  A lease
that exhausts its attempts **degrades gracefully**: the chunk runs
in-process through the runner's own context cache (and when the pool
cannot be built or rebuilt at all, the whole class falls back to
``jobs=1`` execution) instead of aborting the campaign; pass
``degrade=False`` to make exhaustion raise instead.  Everything the
supervisor did is accounted in
:class:`~repro.engine.retry.FaultToleranceStats`
(``CampaignReport.fault_tolerance``, the CLI ``faults:`` line).

An injectable chaos layer (:mod:`repro.engine.chaos`) disturbs
dispatches deterministically — worker N crashes/hangs/corrupts on
chunk M — so tests, CI and the benchmark can prove the recovery paths
produce bit-identical reports.

Amortized campaign contexts
---------------------------

The expensive part of a chunk is not the fault verdicts — it is the
*context*: packed bit-planes, MISR weight tables, fault-free
baselines.  That context depends only on ``(test, geometry, words,
mode, engine)``, so every worker process keeps a
:class:`~repro.engine.context.ContextCache` for its lifetime:

* the **first** chunk a worker sees for a given key builds the context
  (at most one build per distinct context per worker);
* every later chunk — across classes, campaigns and oracles — replays
  the cached one;
* signature- and aliasing-mode work units share one ``"session"``
  context key on purpose, so a mixed-mode run builds the two-phase
  session state once per worker, not once per mode.

Chunk results carry the worker cache's counter deltas back to the
parent, where :meth:`CampaignRunner.take_stats` aggregates them with
the in-process cache (the jobs=1 / small-class path) so
``CampaignReport.context_stats`` can prove the amortization.

Determinism contract
--------------------

``jobs=1`` and ``jobs=N`` produce bit-identical coverage vectors and
stable report ordering — *with or without faults in the fabric* — by
construction:

* all randomness (initial memory content, fault-universe sampling) is
  resolved from the campaign seed *before* sharding — the work unit
  carries the concrete word list, and fault enumeration order is fixed
  by the universe builder;
* chunk boundaries depend only on ``(len(faults), jobs)``, never on
  timing; because the enumerators emit faults in address order,
  contiguous chunks are address-range shards;
* verdicts are merged back in lease order (chunk *i*'s verdicts land
  before chunk *i+1*'s), recovering the exact sequential order
  regardless of completion order, retries or degradation;
* a chunk is a pure function of ``(work, class, start, stop)`` — a
  retried attempt, a chunk evaluated on a respawned worker and a
  degraded in-process run all produce the same verdicts bit for bit;
* cached contexts are pure precomputations of the work unit — a warm
  replay and a cold build produce the same verdicts (only the cache
  *counters* differ between runs).

Incremental binding
-------------------

Workers are forked when the platform allows it, and
:meth:`CampaignRunner.bind` publishes the work units and fault classes
to the runner's private binding store immediately before the fork, so
chunks travel as bare ``(work_key, class, gen, start, stop)`` messages
and the fault objects reach the workers through copy-on-write memory.
Re-binding is **incremental**: binding new works or a different
universe while the pool is alive ships only the per-class *diff* to
each worker over its pipe — the pool, its processes and their warm
context caches all survive, and because every runner owns its store
(respawned workers inherit a just-in-time snapshot of it), two bound
runners can interleave in one process without clobbering each other.
On spawn-only platforms chunks carry their pickled work unit and fault
slice instead — slower transport, same verdicts.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Callable, Sequence

from ..memory.injection import FaultClass
from .base import Engine, ExecutionError, engine_names, get_engine
from .chaos import FaultPlan, perform as perform_chaos
from .context import ContextCache, ContextStats
from .retry import FaultToleranceStats, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.march import MarchTest
    from ..memory.faults import Fault
    from .verdicts import PackedPairVerdicts, PackedVerdicts


@dataclass(frozen=True)
class CompareWork:
    """One compare-oracle campaign context description: everything an
    engine's :meth:`~repro.engine.Engine.detect_compare` needs except
    the faults."""

    test: "MarchTest"
    n_words: int
    width: int
    words: tuple[int, ...]
    derive_writes: bool = True

    def context_key(self) -> tuple:
        """Cache key of the amortizable campaign state (the engine is
        fixed per cache, completing the ``(test, geometry, words,
        mode, engine)`` key of the context runtime)."""
        return (
            "compare",
            self.test,
            self.n_words,
            self.width,
            self.words,
            self.derive_writes,
        )

    def build_context(self, engine: Engine) -> object:
        return engine.build_compare_context(
            self.test,
            self.n_words,
            self.width,
            list(self.words),
            derive_writes=self.derive_writes,
        )

    def run(
        self, engine: Engine, faults: "Sequence[Fault]", context: object = None
    ) -> "PackedVerdicts":
        return engine.detect_compare(
            self.test,
            self.n_words,
            self.width,
            list(self.words),
            faults,
            derive_writes=self.derive_writes,
            context=context,
        )


@dataclass(frozen=True)
class SignatureWork:
    """One signature-oracle campaign context description: the two-phase
    MISR session of :meth:`~repro.engine.Engine.detect_session`,
    reporting its ``.signature`` plane."""

    test: "MarchTest"
    prediction: "MarchTest"
    n_words: int
    width: int
    words: tuple[int, ...]
    misr_width: int = 16
    misr_seed: int = 0

    def context_key(self) -> tuple:
        """Deliberately shared with :class:`AliasingWork`: both oracles
        read the same two-phase session state, so signature- and
        aliasing-mode campaigns of the same session reuse one cached
        context."""
        return (
            "session",
            self.test,
            self.prediction,
            self.n_words,
            self.width,
            self.words,
            self.misr_width,
            self.misr_seed,
        )

    def build_context(self, engine: Engine) -> object:
        return engine.build_session_context(
            self.test,
            self.prediction,
            self.n_words,
            self.width,
            list(self.words),
            misr_width=self.misr_width,
            misr_seed=self.misr_seed,
        )

    def run(
        self, engine: Engine, faults: "Sequence[Fault]", context: object = None
    ) -> "PackedVerdicts":
        return self._session(engine, faults, context).signature

    def _session(self, engine, faults, context) -> "PackedPairVerdicts":
        return engine.detect_session(
            self.test,
            self.prediction,
            self.n_words,
            self.width,
            list(self.words),
            faults,
            misr_width=self.misr_width,
            misr_seed=self.misr_seed,
            context=context,
        )


@dataclass(frozen=True)
class AliasingWork(SignatureWork):
    """One aliasing-oracle campaign context description: the exact
    session of :class:`SignatureWork` (including its cache key), but
    reporting the whole ``(stream detected, signature detected)`` pair
    so aliasing events can be counted."""

    def run(
        self, engine: Engine, faults: "Sequence[Fault]", context: object = None
    ) -> "PackedPairVerdicts":
        return self._session(engine, faults, context)


def work_key(work) -> tuple:
    """Dispatch identity of a work unit: its class plus its context
    key.  Two works may *share* a context (signature + aliasing share
    the session state) yet run different oracles, so bound-work lookup
    must key on both."""
    return (type(work).__name__, work.context_key())


class ChunkExhaustedError(ExecutionError):
    """A chunk lease failed on every allowed attempt and degradation
    was disabled (``degrade=False`` / ``--no-degrade``)."""


@dataclass
class ChunkLease:
    """One dispatched (and re-dispatchable) chunk of a fault class.

    The parent tracks every lease until its verdicts are acked; an
    unacked lease — worker crash, deadline passed, corrupt or raising
    chunk — is re-dispatched with bounded backoff, and chunk purity
    makes the retry bit-identical.  ``index`` is the merge position in
    the class's chunk order; ``chunk`` the ordinal the chaos plan keys
    on (identical to ``index`` for a single-class dispatch).
    """

    index: int
    task: tuple
    class_name: str | None
    chunk: int
    start: int
    stop: int
    attempt: int = 0
    not_before: float = 0.0
    deadline: float | None = None
    dispatched_at: float = 0.0
    last_error: str | None = None

    @property
    def n_faults(self) -> int:
        return self.stop - self.start

    def describe(self) -> str:
        label = self.class_name if self.class_name is not None else "<direct>"
        return f"chunk {self.chunk} of class {label} [{self.start}:{self.stop}]"


# ---------------------------------------------------------------------------
# Worker-side persistent state
# ---------------------------------------------------------------------------

# Per-process campaign-context caches, one per engine name, alive for
# the worker process's lifetime.  A worker builds each distinct context
# at most once and replays it for every subsequent chunk that shares
# the key — across fault classes, campaigns and oracle modes.  The
# parent process never touches these (its inline path uses the
# runner's own cache), so forked children start empty.
_WORKER_CACHES: dict[str, ContextCache] = {}


def _worker_cache(engine_name: str) -> ContextCache:
    cache = _WORKER_CACHES.get(engine_name)
    if cache is None:
        cache = ContextCache(get_engine(engine_name))
        _WORKER_CACHES[engine_name] = cache
    return cache


class _BindingStore:
    """Bound campaign state: work units and fault classes by name.

    Each :class:`CampaignRunner` owns one; each worker process holds a
    snapshot of its runner's store (inherited copy-on-write at fork)
    and applies incremental ``bind`` diffs the parent pushes over the
    worker's pipe.  ``class_gen`` carries a per-class generation the
    chunk messages echo, so a worker evaluating a chunk against stale
    class data fails loudly instead of returning wrong verdicts.
    """

    __slots__ = ("works", "classes", "class_gen")

    def __init__(self) -> None:
        self.works: dict[tuple, object] = {}
        self.classes: dict[str, Sequence] = {}
        self.class_gen: dict[str, int] = {}

    def apply(self, works, classes, gens, drops) -> None:
        self.works.update(works)
        self.classes.update(classes)
        self.class_gen.update(gens)
        for name in drops:
            self.classes.pop(name, None)
            self.class_gen.pop(name, None)


# Fork-transfer slot: set to the spawning runner's store immediately
# before each Process.start() and cleared right after, so every forked
# worker — initial or respawned — inherits exactly its own runner's
# current binding snapshot.  Single-threaded parents make this
# race-free, and per-runner stores make interleaved bound runners safe
# (each pool's workers only ever see their own runner's campaigns).
_FORK_STORE: "_BindingStore | None" = None


class _BindingError(Exception):
    """A chunk referenced a work or class generation its worker does
    not hold — a supervision-protocol bug, never retried."""


def _execute_chunk(engine_name: str, store: _BindingStore, task, action):
    """Run one chunk in a worker: resolve the work unit and fault
    slice (from the inherited binding or the message itself), apply
    any injected chaos, and evaluate against the worker's persistent
    context cache.  Returns ``(packed_verdicts, stats_delta)`` — the
    packed bitset pickles back to the parent at a few bytes per 8
    faults."""
    perform_chaos(action)
    if task[0] == "bound":
        _, key, class_name, gen, start, stop = task
        work = store.works.get(key)
        if work is None or store.class_gen.get(class_name) != gen:
            raise _BindingError(
                f"worker holds no binding for work {key[0]} / class "
                f"{class_name!r} at generation {gen} (bind diffs must "
                "precede the chunks that use them)"
            )
        faults = store.classes[class_name][start:stop]
    else:
        _, work, faults = task
    if action == "corrupt":
        # Evaluate a truncated slice: the result is a well-formed
        # verdict vector for the wrong number of faults, which is
        # exactly what the parent's integrity check must catch.
        faults = faults[:-1]
    if action == "error":
        raise RuntimeError("chaos: injected chunk failure")
    cache = _worker_cache(engine_name)
    ctx = cache.get(work)
    verdicts = work.run(cache.engine, faults, context=ctx.payload)
    return verdicts, cache.take_stats().as_dict()


def _worker_main(engine_name: str, conn) -> None:
    """Worker process loop: apply bind diffs, evaluate chunk leases,
    ship results (or picklable failure descriptions) back over the
    worker's private pipe.  Module-level so it pickles under both fork
    and spawn; under spawn the inherited store is empty and chunks
    arrive self-contained."""
    store = _FORK_STORE if _FORK_STORE is not None else _BindingStore()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        if kind == "bind":
            store.apply(*message[1:])
            continue
        _, lease_index, attempt, task, action = message
        try:
            verdicts, stats = _execute_chunk(engine_name, store, task, action)
            reply = ("ok", lease_index, attempt, verdicts, stats)
        except _BindingError as error:
            reply = ("err", lease_index, attempt, False, str(error))
        except Exception as error:  # noqa: BLE001 - shipped to the parent
            reply = (
                "err",
                lease_index,
                attempt,
                True,
                f"{type(error).__name__}: {error}",
            )
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return  # parent is gone; nothing left to report to


def shard_bounds(n_faults: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[start, stop)`` chunk bounds.

    Sizes differ by at most one, larger chunks first; depends only on
    the arguments, so the shard layout is reproducible.
    """
    n_chunks = max(1, min(n_chunks, n_faults)) if n_faults else 0
    bounds = []
    start = 0
    for i in range(n_chunks):
        size = n_faults // n_chunks + (1 if i < n_faults % n_chunks else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _pool_context():
    """Prefer fork (cheap, inherits the engine registry and binding
    store); fall back to the platform default where fork does not
    exist."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _Worker:
    """Parent-side handle of one supervised worker process: its
    process, its private duplex pipe, and the lease it currently
    holds (at most one — the supervisor is the scheduler)."""

    process: object
    conn: object
    id: int
    lease: "ChunkLease | None" = None


class _SupervisedPool:
    """A fixed-size set of supervised worker processes.

    One duplex pipe per worker — no shared queue a dying worker could
    corrupt — and at most one outstanding lease per worker, so the
    lease→worker mapping is exact and worker loss maps to a precise
    set of unacked leases.  :meth:`run_leases` is the supervisor loop:
    dispatch, wait on the busy pipes, collect, reap crashed and hung
    workers, re-dispatch with backoff, degrade what exhausts.
    """

    # Idle poll cap: pipe EOF wakes the wait() immediately on crashes,
    # so this only bounds how late a liveness edge case is noticed.
    _POLL_SECONDS = 0.2

    def __init__(
        self,
        jobs: int,
        mp_context,
        engine_name: str,
        store: _BindingStore,
        stats: FaultToleranceStats,
    ) -> None:
        self._jobs = jobs
        self._context = mp_context
        self._engine_name = engine_name
        self._store = store
        self._stats = stats
        self._workers: list[_Worker] = []
        self._next_id = 0
        try:
            for _ in range(jobs):
                self._workers.append(self._spawn())
        except Exception:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> _Worker:
        global _FORK_STORE
        _FORK_STORE = self._store
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(self._engine_name, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
        finally:
            _FORK_STORE = None
        worker = _Worker(process, parent_conn, self._next_id)
        self._next_id += 1
        return worker

    def _respawn(self) -> None:
        """Replace a lost worker; a failed respawn shrinks the pool
        (counted, and survivable down to in-process degradation)."""
        if len(self._workers) >= self._jobs:
            return
        try:
            self._workers.append(self._spawn())
            self._stats.respawns += 1
        except Exception:
            self._stats.pool_failures += 1

    def _discard(self, worker: _Worker, *, terminate: bool) -> None:
        self._workers = [w for w in self._workers if w is not worker]
        try:
            worker.conn.close()
        except Exception:
            pass
        try:
            if terminate and worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn child
                worker.process.kill()
                worker.process.join(timeout=1.0)
        except Exception:
            pass

    def close(self) -> None:
        """Stop every worker; never raises (teardown must not mask a
        campaign error or an interpreter-shutdown sequence)."""
        for worker in list(self._workers):
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
            self._discard(worker, terminate=True)
        self._workers = []

    @property
    def alive(self) -> bool:
        return bool(self._workers)

    def worker_pids(self) -> list[int]:
        """Live worker process ids (tests assert pool survival on
        re-bind through these)."""
        return [w.process.pid for w in self._workers]

    # -- binding -------------------------------------------------------
    def broadcast_bind(self, works, classes, gens, drops) -> None:
        """Push an incremental binding diff to every worker.  Pipes
        are FIFO, so the diff lands before any chunk that needs it; a
        worker that died while idle is replaced (and inherits the
        already-updated store wholesale at fork)."""
        for worker in list(self._workers):
            try:
                worker.conn.send(("bind", works, classes, gens, drops))
            except (OSError, ValueError):
                self._stats.crashes += 1
                self._discard(worker, terminate=True)
                self._respawn()

    # -- supervision ---------------------------------------------------
    def run_leases(
        self,
        leases: "list[ChunkLease]",
        *,
        retry: RetryPolicy,
        chaos: "FaultPlan | None",
        degrade: bool,
        run_inline: "Callable[[ChunkLease], object]",
    ) -> list:
        """Execute every lease to acknowledgement and return
        ``[(verdicts, stats_delta_or_None), ...]`` in lease order.

        Completion order never matters: results are keyed by lease
        index, so retries, respawns and degradations cannot perturb
        the deterministic merge.
        """
        results: dict[int, tuple] = {}
        pending: deque[ChunkLease] = deque(leases)
        try:
            while len(results) < len(leases):
                now = time.monotonic()
                self._dispatch(
                    pending, results, retry, chaos, degrade, run_inline, now
                )
                if len(results) >= len(leases):
                    break
                busy = [w for w in self._workers if w.lease is not None]
                if not busy:
                    if not pending:  # pragma: no cover - accounting guard
                        raise RuntimeError(
                            "lease accounting error: leases outstanding "
                            "but neither pending nor dispatched"
                        )
                    # Every pending lease is backing off (or the pool
                    # is gone, which _dispatch degrades next pass).
                    wait = min(
                        (lease.not_before for lease in pending),
                        default=now,
                    ) - now
                    if wait > 0:
                        time.sleep(min(wait, self._POLL_SECONDS))
                    continue
                timeout = self._poll_timeout(pending, busy, now)
                ready = mp_connection.wait(
                    [w.conn for w in busy], timeout=timeout
                )
                for conn in ready:
                    worker = next(
                        (w for w in self._workers if w.conn is conn), None
                    )
                    if worker is not None:
                        self._collect(
                            worker, results, pending, retry, degrade,
                            run_inline,
                        )
                self._reap(results, pending, retry, degrade, run_inline)
        finally:
            # A raising campaign (degrade=False, or a genuine error
            # resurfacing from an in-process degraded run) must not
            # leave workers computing abandoned leases: their late
            # results could collide with a future dispatch's
            # (index, attempt) tag, so replace those workers outright.
            # On the success path every lease was acked and this is a
            # no-op.
            for worker in list(self._workers):
                if worker.lease is not None:
                    worker.lease = None
                    self._discard(worker, terminate=True)
                    self._respawn()
        return [results[lease.index] for lease in leases]

    def _dispatch(
        self, pending, results, retry, chaos, degrade, run_inline, now
    ) -> None:
        while pending:
            if not self._workers:
                # No pool left at all: the remaining leases can only
                # run in-process (the jobs=1 degradation ladder rung).
                lease = pending.popleft()
                lease.last_error = lease.last_error or "worker pool lost"
                self._degrade(lease, results, degrade, run_inline)
                continue
            idle = next((w for w in self._workers if w.lease is None), None)
            if idle is None:
                return
            lease = self._next_ready(pending, now)
            if lease is None:
                return
            lease.attempt += 1
            action = (
                chaos.action_for(lease.class_name, lease.chunk, lease.attempt)
                if chaos is not None
                else None
            )
            if action is not None:
                self._stats.chaos_injected += 1
            lease.dispatched_at = now
            lease.deadline = (
                now + retry.timeout if retry.timeout is not None else None
            )
            try:
                idle.conn.send(
                    ("chunk", lease.index, lease.attempt, lease.task, action)
                )
            except (OSError, ValueError):
                # Died while idle: undo the attempt (it never ran),
                # replace the worker and let the loop re-dispatch.
                lease.attempt -= 1
                pending.appendleft(lease)
                self._stats.crashes += 1
                self._discard(idle, terminate=True)
                self._respawn()
                continue
            idle.lease = lease

    @staticmethod
    def _next_ready(pending, now) -> "ChunkLease | None":
        for _ in range(len(pending)):
            if pending[0].not_before <= now:
                return pending.popleft()
            pending.rotate(-1)
        return None

    def _poll_timeout(self, pending, busy, now) -> float:
        timeout = self._POLL_SECONDS
        for lease in pending:
            timeout = min(timeout, lease.not_before - now)
        for worker in busy:
            if worker.lease is not None and worker.lease.deadline is not None:
                timeout = min(timeout, worker.lease.deadline - now)
        return max(0.0, timeout)

    def _collect(
        self, worker, results, pending, retry, degrade, run_inline
    ) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._on_death(worker, results, pending, retry, degrade, run_inline)
            return
        kind, lease_index, attempt = message[:3]
        lease = worker.lease
        if (
            lease is None
            or lease.index != lease_index
            or lease.attempt != attempt
        ):
            return  # stale result from a superseded attempt; drop it
        if kind == "ok":
            verdicts, stats = message[3:]
            if len(verdicts) != lease.n_faults:
                self._stats.corrupt_chunks += 1
                worker.lease = None
                self._retry_or_degrade(
                    lease,
                    f"corrupt chunk: {len(verdicts)} verdicts for "
                    f"{lease.n_faults} faults",
                    results, pending, retry, degrade, run_inline,
                )
                return
            worker.lease = None
            results[lease.index] = (verdicts, stats)
            return
        retryable, message_text = message[3:]
        worker.lease = None
        if not retryable:
            raise RuntimeError(message_text)
        self._stats.chunk_errors += 1
        self._retry_or_degrade(
            lease, message_text, results, pending, retry, degrade, run_inline
        )

    def _reap(self, results, pending, retry, degrade, run_inline) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            lease = worker.lease
            if not worker.process.is_alive():
                self._on_death(
                    worker, results, pending, retry, degrade, run_inline
                )
            elif (
                lease is not None
                and lease.deadline is not None
                and now > lease.deadline
            ):
                # Hung worker: only termination can reclaim the lease.
                self._stats.timeouts += 1
                worker.lease = None
                self._discard(worker, terminate=True)
                self._respawn()
                self._retry_or_degrade(
                    lease,
                    f"chunk deadline exceeded ({retry.timeout:.3f}s)",
                    results, pending, retry, degrade, run_inline,
                )

    def _on_death(
        self, worker, results, pending, retry, degrade, run_inline
    ) -> None:
        self._stats.crashes += 1
        lease = worker.lease
        worker.lease = None
        self._discard(worker, terminate=False)
        self._respawn()
        if lease is not None:
            self._retry_or_degrade(
                lease,
                f"worker crashed (exit code {worker.process.exitcode})",
                results, pending, retry, degrade, run_inline,
            )

    def _retry_or_degrade(
        self, lease, reason, results, pending, retry, degrade, run_inline
    ) -> None:
        now = time.monotonic()
        if lease.dispatched_at:
            self._stats.lost_seconds += max(0.0, now - lease.dispatched_at)
        lease.last_error = reason
        if lease.attempt >= retry.max_attempts:
            self._degrade(lease, results, degrade, run_inline)
            return
        self._stats.retries += 1
        lease.not_before = now + retry.backoff(lease.attempt)
        pending.append(lease)

    def _degrade(self, lease, results, degrade, run_inline) -> None:
        if not degrade:
            raise ChunkExhaustedError(
                f"{lease.describe()} failed after {lease.attempt} "
                f"attempt(s) with degradation disabled: {lease.last_error} "
                "(drop --no-degrade / pass degrade=True to run exhausted "
                "chunks in-process, or raise --max-retries)"
            )
        self._stats.degraded_chunks += 1
        results[lease.index] = (run_inline(lease), None)


class CampaignRunner:
    """Shards per-class fault lists across supervised worker processes.

    The pool is created lazily on the first class large enough to
    shard and reused for every subsequent class — and, through the
    incremental binding, every subsequent *campaign* — so worker
    startup **and** per-context construction are amortized across
    everything the runner executes.  Classes smaller than
    ``min_chunk * 2`` run inline through the runner's own context
    cache.

    Dispatched chunks are supervised leases: worker crashes, hangs
    past ``retry.timeout`` and corrupt results are retried up to
    ``retry.max_attempts`` times with exponential backoff on
    respawned workers, then degraded to in-process execution (set
    ``degrade=False`` to raise instead); the accounting is drained per
    campaign via :meth:`take_fault_stats`.  An optional *chaos* plan
    (:class:`~repro.engine.chaos.FaultPlan`) injects deterministic
    worker faults for tests and benchmarks.

    A runner is reusable: pass it to several ``run_campaign`` calls
    (e.g. one per oracle mode) via ``run_campaign(..., runner=...)``.
    Bind every mode's work unit up front —
    ``runner.bind([w1, w2, w3], universe)`` — and the pool, its
    workers and their warm context caches survive across the whole
    mixed-mode run; re-binding with a different universe or new works
    ships only the diff to the live workers (the pool is never
    restarted for a re-bind).
    """

    def __init__(
        self,
        engine: "str | Engine | None" = None,
        jobs: int = 1,
        *,
        chunks_per_job: int = 4,
        min_chunk: int = 64,
        max_contexts: int = 16,
        retry: "RetryPolicy | None" = None,
        chaos: "FaultPlan | None" = None,
        degrade: bool = True,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.engine = get_engine(engine)
        # An unregistered engine instance cannot be rehydrated by name
        # in a worker; run it inline instead of crashing mid-campaign.
        self.jobs = jobs if self.engine.name in engine_names() else 1
        self.chunks_per_job = chunks_per_job
        self.min_chunk = min_chunk
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.degrade = degrade
        self._context = _pool_context()
        self._pool: "_SupervisedPool | None" = None
        self._pool_broken = False
        self._cache = ContextCache(self.engine, max_contexts)
        self._worker_stats = ContextStats()
        self._fault_stats = FaultToleranceStats()
        self._store = _BindingStore()
        self._generation = 0
        self._bound_refs: dict[str, Sequence] = {}

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the pool, drop the binding and the runner's own
        cached contexts (counters survive for a final take_stats).

        Idempotent and exception-safe: teardown failures — a pool
        whose workers already died, an interpreter mid-shutdown — are
        swallowed so ``close()`` in a ``finally`` (or ``__exit__``)
        never masks the error that got us here.
        """
        try:
            if self._pool is not None:
                self._pool.close()
        except Exception:
            pass
        finally:
            self._pool = None
            self._pool_broken = False
        try:
            self._store = _BindingStore()
            self._bound_refs = {}
            self._cache.clear()
        except Exception:
            pass

    # -- statistics ----------------------------------------------------
    def take_stats(self) -> ContextStats:
        """Context-cache counter increments since the previous call:
        the runner's inline cache plus every worker delta returned with
        the chunks in between.  ``run_campaign`` calls this once per
        campaign, so shared runners report per-campaign stats."""
        stats = self._worker_stats
        self._worker_stats = ContextStats()
        return stats.merge(self._cache.take_stats())

    def take_fault_stats(self) -> FaultToleranceStats:
        """Fault-tolerance counter increments since the previous call
        (retries, respawns, degradations, lost wall-clock) —
        ``run_campaign`` drains this into
        ``CampaignReport.fault_tolerance`` per campaign."""
        stats = self._fault_stats.copy()
        # Reset in place: the live pool keeps accounting into the same
        # object, so the drain must not swap it out from under it.
        self._fault_stats.reset()
        return stats

    # -- binding -------------------------------------------------------
    def bind(self, work, universe: "dict[str, Sequence[Fault]]") -> None:
        """Bind a campaign — or, given a sequence of work units, a
        whole mixed-mode run — so forked workers inherit the works and
        fault classes copy-on-write and chunks travel as bare
        ``(work_key, class, gen, start, stop)`` messages.

        Binding is **incremental**: re-binding the same works and
        universe is a no-op, and binding new works or changed classes
        while the pool is alive ships only the per-class diff to each
        worker over its pipe — the pool, its processes and their warm
        context caches survive every re-bind.  Respawned workers
        inherit the runner's full current store at fork, so diffs and
        respawns compose.  Without a fork-capable platform (or with
        ``jobs=1``) the binding is recorded for diffing only: chunks
        then carry their pickled work unit and fault list, which is
        merely slower, not wrong (contexts are still cached per
        worker).
        """
        if self.jobs == 1:
            # Inline execution has no pool to keep warm and never
            # consults the binding — its context cache survives any
            # re-bind on its own, so recording anything would only
            # cost the universe copy and per-campaign comparison.
            return
        works = list(work) if isinstance(work, (list, tuple)) else [work]
        # work_key embodies every field of a (frozen) work unit, so
        # key presence is value equality.
        works_diff = {
            work_key(w): w
            for w in works
            if work_key(w) not in self._store.works
        }
        classes_diff = {
            name: faults
            for name, faults in universe.items()
            if not self._class_matches(name, faults)
        }
        drops = [name for name in self._store.classes if name not in universe]
        if not works_diff and not classes_diff and not drops:
            return  # already bound — keep pool and warm caches
        self._generation += 1
        gens: dict[str, int] = {}
        normalized: dict[str, Sequence] = {}
        for name, faults in classes_diff.items():
            # Streaming FaultClass descriptors are bound as-is — they
            # are tiny, index-addressable and picklable, so workers
            # never need (and the parent never builds) a materialized
            # copy.
            normalized[name] = (
                faults if isinstance(faults, FaultClass) else list(faults)
            )
            gens[name] = self._generation
        self._store.works.update(works_diff)
        self._store.classes.update(normalized)
        self._store.class_gen.update(gens)
        for name in drops:
            del self._store.classes[name]
            del self._store.class_gen[name]
        # The caller's original per-class sequences, for the identity
        # short-circuit of the common same-universe re-bind.
        self._bound_refs = dict(universe)
        if self._pool is not None:
            self._pool.broadcast_bind(works_diff, normalized, gens, drops)

    def _class_matches(self, name: str, faults) -> bool:
        bound = self._store.classes.get(name)
        if bound is None:
            return False
        # Identity of the caller's sequences (the common case: one
        # universe object reused across modes) makes the re-bind check
        # O(classes); only genuinely new sequences pay the deep
        # element-wise comparison.  FaultClass descriptors compare by
        # enumeration spec — O(1), and never equal to a plain list, so
        # swapping representations re-binds the class (correct, merely
        # a one-class diff).
        if self._bound_refs.get(name) is faults:
            return True
        if isinstance(bound, FaultClass) or isinstance(faults, FaultClass):
            return bound == faults
        return len(bound) == len(faults) and bound == list(faults)

    @property
    def _use_bound(self) -> bool:
        return self._context.get_start_method() == "fork"

    # -- execution -----------------------------------------------------
    def detect_class_packed(
        self,
        work,
        faults: "Sequence[Fault]",
        *,
        class_name: str | None = None,
    ) -> "PackedVerdicts | PackedPairVerdicts":
        """Packed verdict bitset for one fault class, bit-identical to
        ``work.run(engine, faults)`` executed sequentially.

        When *class_name* names a class of a prior :meth:`bind` (and
        the work unit was bound), the bound copies are what the workers
        evaluate — the zero-copy fork path.  Streaming
        :class:`~repro.memory.injection.FaultClass` descriptors always
        run inline: their class kernels answer the whole class in a few
        packed passes over state the workers would each have to rebuild,
        so sharding them would multiply the context work it saves.
        """
        key = work_key(work)
        bound = (
            self._use_bound
            and self.jobs > 1
            and class_name is not None
            and class_name in self._store.classes
            and key in self._store.works
        )
        if bound:
            faults = self._store.classes[class_name]
        elif not isinstance(faults, FaultClass):
            faults = list(faults)
        if (
            isinstance(faults, FaultClass)
            or self.jobs == 1
            or len(faults) < 2 * self.min_chunk
        ):
            return self._run_inline(work, faults)
        n_chunks = min(
            self.jobs * self.chunks_per_job,
            max(1, len(faults) // self.min_chunk),
        )
        bounds = shard_bounds(len(faults), n_chunks)
        if len(bounds) <= 1:
            return self._run_inline(work, faults)
        pool = self._ensure_pool()
        if pool is None:
            # Bottom rung of the degradation ladder: the pool cannot
            # be (re)built, so the whole class runs as if jobs=1.
            return self._run_inline(work, faults)
        leases = []
        for index, (start, stop) in enumerate(bounds):
            if bound:
                task = (
                    "bound",
                    key,
                    class_name,
                    self._store.class_gen[class_name],
                    start,
                    stop,
                )
            else:
                task = ("direct", work, faults[start:stop])
            leases.append(
                ChunkLease(index, task, class_name, index, start, stop)
            )

        def run_inline(lease: ChunkLease):
            chunk_faults = faults[lease.start:lease.stop]
            ctx = self._cache.get(work)
            return work.run(self.engine, chunk_faults, context=ctx.payload)

        parts = []
        for chunk_verdicts, stats in pool.run_leases(
            leases,
            retry=self.retry,
            chaos=self.chaos,
            degrade=self.degrade,
            run_inline=run_inline,
        ):
            parts.append(chunk_verdicts)
            if stats is not None:
                self._worker_stats.merge(stats)
        merged = type(parts[0]).concat(parts)
        if len(merged) != len(faults):
            raise RuntimeError(
                f"sharded class returned {len(merged)} verdicts for "
                f"{len(faults)} faults; refusing to report truncated coverage"
            )
        return merged

    def _run_inline(self, work, faults):
        ctx = self._cache.get(work)
        return work.run(self.engine, faults, context=ctx.payload)

    def _ensure_pool(self) -> "_SupervisedPool | None":
        if self._pool is not None:
            if self._pool.alive:
                return self._pool
            # All workers lost and respawns failed mid-run: retire the
            # dead pool and try to build a fresh one below.
            self._pool.close()
            self._pool = None
        if self._pool_broken:
            return None
        try:
            self._pool = _SupervisedPool(
                self.jobs,
                self._context,
                self.engine.name,
                self._store,
                self._fault_stats,
            )
        except Exception:
            # The fabric itself cannot come up (fork failures, fd
            # exhaustion): degrade this runner to inline execution for
            # its remaining lifetime instead of aborting campaigns.
            self._pool = None
            self._pool_broken = True
            self._fault_stats.pool_failures += 1
        return self._pool
