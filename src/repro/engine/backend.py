"""Execution backends: fan per-worker local solves across real cores.

Every superstep of every system in the study contains an embarrassingly
parallel region — ``k`` independent local solves (``gd_step`` /
``mgd_epoch`` / ``sgd_epoch`` / full-pass gradients), one per cached
partition — that the simulation previously executed serially in one
Python process.  An :class:`ExecutionBackend` owns that region:

* ``serial``    — in-process loop (the reference behaviour, zero overhead);
* ``threads``   — a thread pool; partitions are shared by reference.
  NumPy/SciPy kernels release the GIL inside matvecs, so wide models see
  real overlap; small ones mostly measure pool overhead;
* ``processes`` — a process pool with **pickle-once** partitions: under
  the preferred ``fork`` start method the partition list is installed
  into a module-level store *before* the pool is created, so children
  inherit it copy-on-write with **zero pickles**; on spawn platforms the
  pool initializer ships it to each worker exactly once.  Per-call
  traffic is the broadcast model, the task args and the returned local
  model;
* ``shm``       — a process pool over :mod:`repro.engine.shm`: partition
  CSR shards live in a write-once shared-memory segment and the
  broadcast model is written once per superstep into a shared arena —
  zero-copy broadcast; only task scalars, RNG state and the tiny local
  models cross process boundaries;
* ``socket``    — long-lived worker daemons (:mod:`repro.engine.daemon`)
  speaking the length-prefixed frame protocol of
  :mod:`repro.engine.wire` over localhost TCP.  Each superstep sends
  every daemon **one** TASK frame holding all of its partitions' tasks,
  so the broadcast model is pickled once per daemon per superstep, as
  Spark ships a broadcast variable once per executor.  Everything
  crosses a real transport, so each superstep's bytes-on-wire and wall
  seconds are *measured* — the backend's
  :meth:`~ExecutionBackend.wire_summary` feeds ``repro perf
  --validate-network``, which compares them against
  :class:`~repro.cluster.network.NetworkModel`'s *simulated* seconds.

Bit-identity is structural, not statistical: tasks are submitted and
collected in partition-index order, every task receives (and returns) its
worker's private RNG so streams advance exactly as in the serial loop,
and all cross-worker *combining* stays in the parent in the serial code's
float-addition order.  ``tests/test_perf_backend.py`` asserts every
system's ``TrainResult.history`` is bit-identical across all backends,
and the golden convergence test pins the serial numbers.

Task functions must be module-level (pickled by reference); see
:mod:`repro.core.worker`.  The ``shm`` and ``socket`` machinery
(:mod:`repro.engine.shm`, :mod:`repro.engine.wire`,
:mod:`repro.engine.daemon`) is imported by those backends on
construction, so serial runs never load it.  Backends are context
managers — ``with make_backend(...) as backend:`` guarantees pool
teardown on any exit path — and every lifecycle violation raises
:class:`RuntimeError` explicitly (never a bare ``assert``, which
vanishes under ``python -O``).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import socket as socketlib
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, \
    ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..perf.profiler import NullProfiler, PhaseProfiler

if TYPE_CHECKING:
    from . import shm as shm_store
    from . import wire

__all__ = ["BACKENDS", "ExecutionBackend", "SerialBackend",
           "ThreadBackend", "ProcessBackend", "ShmBackend",
           "SocketBackend", "make_backend"]

#: Valid ``TrainerConfig.backend`` / ``--backend`` values.
BACKENDS = ("serial", "threads", "processes", "shm", "socket")

#: Process-unique ids keying the per-backend partition stores, so that
#: concurrently open backends (e.g. two scheduler jobs in one driver
#: process) never clobber each other's partitions.
_BACKEND_IDS = itertools.count(1)

#: store id -> that backend's partition list.  Populated in the *parent*
#: before a fork-context pool is created (children inherit the entry
#: copy-on-write — no serialization at all) or by the pool initializer
#: on spawn platforms (one pickle per worker, never per task).
_PROCESS_PARTITION_STORE: dict[int, Sequence[Any]] = {}


def _install_process_partitions(store_id: int,
                                partitions: Sequence[Any]) -> None:
    """Spawn-platform pool initializer (fork installs before forking)."""
    _PROCESS_PARTITION_STORE[store_id] = partitions


def _run_on_partition(store_id: int, fn: Callable[..., Any], index: int,
                      args: tuple) -> Any:
    """Pool-side trampoline: look the partition up by worker index."""
    partitions = _PROCESS_PARTITION_STORE.get(store_id)
    if partitions is None:
        raise RuntimeError(
            "process-backend partition store is not installed in this "
            "worker (pool initializer did not run)")
    return fn(partitions[index], *args)


def _preferred_start_method(requested: str | None) -> str | None:
    """``fork`` when available (zero-copy inheritance), else platform
    default; an explicit request always wins."""
    if requested is not None:
        return requested
    return "fork" if "fork" in mp.get_all_start_methods() else None


class ExecutionBackend:
    """Runs per-worker task functions against installed partitions.

    Lifecycle: ``install_partitions`` once per ``fit`` (before the first
    step), then any number of ``map_partitions`` / ``run_one`` calls, then
    ``close``.  Results always come back in submission (partition-index)
    order, so parent-side combining is order-identical to the serial loop.

    Backends are context managers: ``__exit__`` closes the pool, so any
    exit path — including a fault injected mid-``fit`` — reaps worker
    processes and threads.
    """

    name = "abstract"

    def __init__(self) -> None:
        #: Wall-clock hook; trainers install theirs so the fanned-out
        #: local-solve region shows up as the ``local_solve`` phase.
        self.profiler: PhaseProfiler = NullProfiler()

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        raise NotImplementedError

    def map_partitions(self, fn: Callable[..., Any],
                       args_by_worker: Sequence[tuple]) -> list[Any]:
        """Run ``fn(partitions[i], *args_by_worker[i])`` for every ``i``."""
        raise NotImplementedError

    def run_one(self, fn: Callable[..., Any], worker: int,
                args: tuple) -> Any:
        """Run ``fn(partitions[worker], *args)`` (event-driven trainers)."""
        raise NotImplementedError

    def wire_summary(self) -> dict[str, Any] | None:
        """Measured transport accounting, or ``None`` for backends whose
        communication is not on a real wire."""
        return None

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution — the reference the parallel backends match."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self._partitions: Sequence[Any] = ()

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        self._partitions = list(partitions)

    def map_partitions(self, fn: Callable[..., Any],
                       args_by_worker: Sequence[tuple]) -> list[Any]:
        with self.profiler.phase("local_solve"):
            return [fn(self._partitions[i], *args)
                    for i, args in enumerate(args_by_worker)]

    def run_one(self, fn: Callable[..., Any], worker: int,
                args: tuple) -> Any:
        with self.profiler.phase("local_solve"):
            return fn(self._partitions[worker], *args)


class _PoolBackend(ExecutionBackend):
    """Shared submit/collect logic for the executor-pool backends."""

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        self._max_workers = max_workers
        self._pool: Executor | None = None

    def _pool_size(self, num_partitions: int) -> int:
        if self._max_workers is not None:
            return max(1, min(self._max_workers, num_partitions))
        return max(1, min(num_partitions, os.cpu_count() or 1))

    def _require_pool(self) -> Executor:
        if self._pool is None:
            raise RuntimeError(
                f"{type(self).__name__}: install_partitions() was not "
                "called before submitting work")
        return self._pool

    def _submit(self, fn: Callable[..., Any], index: int,
                args: tuple) -> Any:
        raise NotImplementedError

    def map_partitions(self, fn: Callable[..., Any],
                       args_by_worker: Sequence[tuple]) -> list[Any]:
        self._require_pool()
        with self.profiler.phase("local_solve"):
            futures = [self._submit(fn, i, args)
                       for i, args in enumerate(args_by_worker)]
            return [future.result() for future in futures]

    def run_one(self, fn: Callable[..., Any], worker: int,
                args: tuple) -> Any:
        self._require_pool()
        with self.profiler.phase("local_solve"):
            return self._submit(fn, worker, args).result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ThreadBackend(_PoolBackend):
    """Thread pool; partitions shared by reference (no copies at all)."""

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__(max_workers)
        self._partitions: Sequence[Any] = ()

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        self.close()
        self._partitions = list(partitions)
        self._pool = ThreadPoolExecutor(
            max_workers=self._pool_size(len(self._partitions)),
            thread_name_prefix="repro-worker")

    def _submit(self, fn: Callable[..., Any], index: int,
                args: tuple) -> Any:
        pool = self._require_pool()
        return pool.submit(fn, self._partitions[index], *args)


class ProcessBackend(_PoolBackend):
    """Process pool with pickle-once (fork: pickle-never) partitions.

    Under ``fork`` the partition list is installed into
    :data:`_PROCESS_PARTITION_STORE` *before* the pool exists, so worker
    processes inherit it copy-on-write — no serialization at all, which
    a regression test pins by counting partition pickle events.  On
    spawn platforms the pool initializer ships the list to each worker
    exactly once.
    """

    name = "processes"

    #: Test hook: force a start method for every instance (e.g. the
    #: spawn-suite runs the whole bit-identity battery with this set).
    default_start_method: str | None = None

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        super().__init__(max_workers)
        self._start_method = start_method
        self._store_id = next(_BACKEND_IDS)

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        self.close()
        parts = list(partitions)
        method = _preferred_start_method(
            self._start_method or self.default_start_method)
        ctx = mp.get_context(method)
        if ctx.get_start_method() == "fork":
            # Install BEFORE the pool forks: children inherit the store
            # entry copy-on-write and initargs stay empty.
            _PROCESS_PARTITION_STORE[self._store_id] = parts
            initializer: Callable[..., None] | None = None
            initargs: tuple = ()
        else:
            initializer = _install_process_partitions
            initargs = (self._store_id, parts)
        self._pool = ProcessPoolExecutor(
            max_workers=self._pool_size(len(parts)),
            mp_context=ctx,
            initializer=initializer,
            initargs=initargs)

    def _submit(self, fn: Callable[..., Any], index: int,
                args: tuple) -> Any:
        pool = self._require_pool()
        return pool.submit(_run_on_partition, self._store_id, fn, index,
                           args)

    def close(self) -> None:
        super().close()
        _PROCESS_PARTITION_STORE.pop(self._store_id, None)


def _is_model_vector(value: Any, capacity: int) -> bool:
    """Does ``value`` look like a broadcast model vector that fits the
    shared arena?  (1-d float64 — the shape of every model in the study.)"""
    return (isinstance(value, np.ndarray) and value.ndim == 1
            and value.dtype == np.float64 and value.size <= capacity)


class ShmBackend(_PoolBackend):
    """Process pool over shared-memory partitions + broadcast arena.

    ``install_partitions`` packs every partition's CSR arrays into one
    write-once shared segment (:func:`repro.engine.shm.build_store`);
    workers operate on read-only zero-copy views.  ``map_partitions``
    detects the broadcast model vector (the same ndarray object in every
    worker's args), writes it into the shared arena **once**, and ships
    only a tiny :class:`~repro.engine.shm.BroadcastRef` marker per task —
    per-superstep pickle traffic shrinks to task scalars, RNG state and
    the returned local models.

    Safe because the study's tasks never mutate the broadcast model or
    their partition (the ``--sanitize`` battery freezes both and all
    nine systems pass bit-exactly); the shared views are read-only, so a
    violating task raises instead of corrupting its neighbours.
    """

    name = "shm"

    #: Test hook mirroring :attr:`ProcessBackend.default_start_method`.
    default_start_method: str | None = None

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        from . import shm as shm_store

        super().__init__(max_workers)
        self._start_method = start_method
        self._store_id = shm_store.new_store_id()
        self._store: shm_store.ShmStore | None = None

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        from . import shm as shm_store

        self.close()
        parts = list(partitions)
        self._store = shm_store.build_store(parts)
        method = _preferred_start_method(
            self._start_method or self.default_start_method)
        ctx = mp.get_context(method)
        if ctx.get_start_method() == "fork":
            # Same pre-fork trick as ProcessBackend, but what children
            # inherit is a handful of *views* over MAP_SHARED segments —
            # the partition bytes themselves are never even copied-on-
            # write, and parent arena writes are visible to workers.
            shm_store.install_worker_state(self._store_id,
                                           self._store.worker_state())
            initializer: Callable[..., None] | None = None
            initargs: tuple = ()
        else:
            initializer = shm_store.attach_worker_state
            initargs = (self._store_id, self._store.layout)
        self._pool = ProcessPoolExecutor(
            max_workers=self._pool_size(len(parts)),
            mp_context=ctx,
            initializer=initializer,
            initargs=initargs)

    def _require_store(self) -> shm_store.ShmStore:
        if self._store is None:
            raise RuntimeError(
                "ShmBackend: install_partitions() was not called before "
                "submitting work")
        return self._store

    def _broadcast_position(self,
                            args_by_worker: Sequence[tuple]) -> int | None:
        """Position of the shared broadcast arg: the same model-vector
        *object* in every worker's tuple."""
        store = self._require_store()
        first = args_by_worker[0]
        for pos, value in enumerate(first):
            if not _is_model_vector(value, store.layout.bcast_capacity):
                continue
            if all(args[pos] is value for args in args_by_worker[1:]):
                return pos
        return None

    def map_partitions(self, fn: Callable[..., Any],
                       args_by_worker: Sequence[tuple]) -> list[Any]:
        self._require_pool()
        if not args_by_worker:
            return []
        prepared: Sequence[tuple] = args_by_worker
        pos = self._broadcast_position(args_by_worker)
        if pos is not None:
            ref = self._require_store().write_broadcast(
                args_by_worker[0][pos])
            prepared = [args[:pos] + (ref,) + args[pos + 1:]
                        for args in args_by_worker]
        with self.profiler.phase("local_solve"):
            futures = [self._submit(fn, i, args)
                       for i, args in enumerate(prepared)]
            # The arena is reused next superstep, but only after every
            # task of this one has finished reading it (collected here).
            return [future.result() for future in futures]

    def run_one(self, fn: Callable[..., Any], worker: int,
                args: tuple) -> Any:
        self._require_pool()
        store = self._require_store()
        for pos, value in enumerate(args):
            if _is_model_vector(value, store.layout.bcast_capacity):
                ref = store.write_broadcast(value)
                args = args[:pos] + (ref,) + args[pos + 1:]
                break
        with self.profiler.phase("local_solve"):
            return self._submit(fn, worker, args).result()

    def _submit(self, fn: Callable[..., Any], index: int,
                args: tuple) -> Any:
        from .shm import run_on_shm_partition

        pool = self._require_pool()
        return pool.submit(run_on_shm_partition, self._store_id, fn,
                           index, args)

    def close(self) -> None:
        from . import shm as shm_store

        super().close()
        shm_store.discard_worker_state(self._store_id)
        if self._store is not None:
            self._store.close()
            self._store = None


class SocketBackend(ExecutionBackend):
    """Long-lived worker daemons over localhost TCP — a measured wire.

    Executors are separate OS processes (:func:`repro.engine.daemon.
    daemon_main`) that dial back to the parent, cache their partition
    shards once, and serve TASK frames until shutdown.  Partition
    ``index`` is pinned to daemon ``index % n_daemons`` — the Spark
    executor/cache locality model.  A ``map_partitions`` call sends each
    daemon one TASK frame holding all of its partitions' tasks; the frame
    is one pickle, so an argument the tasks share (the broadcast model)
    crosses the wire once per daemon.  Every exchange's bytes and wall
    seconds are recorded (:class:`repro.engine.wire.WireRecord`);
    :meth:`wire_summary` aggregates them for the measured-vs-simulated
    network validation.

    Concurrency: one lock per daemon enforces strict request/response on
    each connection (no interleaved frames, no send/recv deadlock) while
    an IO thread per daemon lets the daemons compute in parallel.
    Results are put back in partition-index order, and a failure
    surfaces as the lowest-index task's exception — what the serial loop
    raises — preserving the bit-identity contract.
    """

    name = "socket"

    #: Test hook mirroring :attr:`ProcessBackend.default_start_method`.
    default_start_method: str | None = None

    def __init__(self, max_workers: int | None = None,
                 start_method: str | None = None) -> None:
        from . import wire

        super().__init__()
        self._max_workers = max_workers
        self._start_method = start_method
        self._daemons: list[Any] = []
        self._channels: dict[int, wire.FrameChannel] = {}
        self._locks: dict[int, threading.Lock] = {}
        self._assignment: dict[int, int] = {}
        self._io: ThreadPoolExecutor | None = None
        self._log = wire.WireLog()
        self._round = 0

    def _pool_size(self, num_partitions: int) -> int:
        if self._max_workers is not None:
            return max(1, min(self._max_workers, num_partitions))
        return max(1, min(num_partitions, os.cpu_count() or 1))

    def install_partitions(self, partitions: Sequence[Any]) -> None:
        from . import wire
        from .daemon import daemon_main

        self.close()
        # Fresh accounting per run; close() keeps the old log readable so
        # the session can harvest it after teardown.
        self._log = wire.WireLog()
        self._round = 0
        parts = list(partitions)
        n_daemons = self._pool_size(len(parts))
        method = _preferred_start_method(
            self._start_method or self.default_start_method)
        ctx = mp.get_context(method)
        listener = socketlib.create_server(("127.0.0.1", 0))
        listener.settimeout(wire.DEFAULT_TIMEOUT)
        try:
            port = listener.getsockname()[1]
            for worker_id in range(n_daemons):
                proc = ctx.Process(target=daemon_main,
                                   args=(port, worker_id), daemon=True,
                                   name=f"repro-daemon-{worker_id}")
                proc.start()
                self._daemons.append(proc)
            for _ in range(n_daemons):
                conn, _addr = listener.accept()
                channel = wire.FrameChannel(conn)
                kind, worker_id, _ = channel.recv()
                if kind != wire.HELLO:
                    raise RuntimeError(
                        f"worker daemon sent frame kind {kind} before "
                        "HELLO")
                self._channels[worker_id] = channel
                self._locks[worker_id] = threading.Lock()
        except BaseException:
            listener.close()
            self.close()
            raise
        listener.close()
        # Ship each daemon its partition shards exactly once.
        shards: dict[int, dict[int, Any]] = {w: {} for w in self._channels}
        for index, part in enumerate(parts):
            worker_id = index % n_daemons
            self._assignment[index] = worker_id
            shards[worker_id][index] = part
        for worker_id, shard in shards.items():
            kind, _ack, exchange = self._channels[worker_id].request(
                wire.INSTALL, shard)
            if kind != wire.ACK:
                raise RuntimeError(
                    f"worker daemon {worker_id} failed to acknowledge "
                    "partition installation")
            self._log.add(wire.WireRecord(
                label="install", worker=worker_id, superstep=0,
                bytes_out=exchange.bytes_out, bytes_in=exchange.bytes_in,
                roundtrip_seconds=exchange.seconds))
        self._io = ThreadPoolExecutor(max_workers=n_daemons,
                                      thread_name_prefix="repro-io")

    def _require_io(self) -> ThreadPoolExecutor:
        if self._io is None:
            raise RuntimeError(
                "SocketBackend: install_partitions() was not called "
                "before submitting work")
        return self._io

    def _exchange(self, fn: Callable[..., Any], worker_id: int,
                  batch: list[tuple[int, tuple]], superstep: int,
                  ) -> tuple[list[Any], tuple[int, BaseException] | None]:
        """One TASK frame carrying ``batch`` to daemon ``worker_id``.

        Returns the results in batch order and ``None``, or no results
        and ``(index, exc)`` for the first task that failed.  The reply
        may take as long as the batch's tasks would have taken one frame
        each, so the wait scales with the batch.
        """
        from . import wire

        with self._locks[worker_id]:
            kind, payload, exchange = self._channels[worker_id].request(
                wire.TASK, (fn, batch),
                timeout=wire.DEFAULT_TIMEOUT * len(batch))
        if kind == wire.ERROR:
            return [], payload
        if kind != wire.RESULT:
            raise RuntimeError(
                f"worker daemon {worker_id} replied with frame kind "
                f"{kind} to a task")
        results, compute_in_daemon = payload
        self._log.add(wire.WireRecord(
            label="task", worker=worker_id, superstep=superstep,
            bytes_out=exchange.bytes_out, bytes_in=exchange.bytes_in,
            roundtrip_seconds=exchange.seconds,
            compute_seconds=compute_in_daemon, tasks=len(batch)))
        return results, None

    def _dispatch(self, fn: Callable[..., Any],
                  tasks: Sequence[tuple[int, tuple]]) -> list[Any]:
        """Run ``tasks`` (``(index, args)`` pairs), one frame per daemon;
        results come back in the order of ``tasks``."""
        io = self._require_io()
        self._round += 1
        batches: dict[int, list[tuple[int, tuple]]] = {}
        for index, args in tasks:
            batches.setdefault(self._assignment[index], []).append(
                (index, tuple(args)))
        with self.profiler.phase("local_solve"):
            futures = [io.submit(self._exchange, fn, worker_id, batch,
                                 self._round)
                       for worker_id, batch in batches.items()]
            replies = [future.result() for future in futures]
        failures = [failure for _results, failure in replies
                    if failure is not None]
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        by_index: dict[int, Any] = {}
        for batch, (results, _failure) in zip(batches.values(), replies):
            for (index, _args), result in zip(batch, results):
                by_index[index] = result
        return [by_index[index] for index, _args in tasks]

    def map_partitions(self, fn: Callable[..., Any],
                       args_by_worker: Sequence[tuple]) -> list[Any]:
        return self._dispatch(fn, list(enumerate(args_by_worker)))

    def run_one(self, fn: Callable[..., Any], worker: int,
                args: tuple) -> Any:
        return self._dispatch(fn, [(worker, args)])[0]

    def wire_summary(self) -> dict[str, Any] | None:
        return self._log.summary()

    def close(self) -> None:
        from . import wire

        if self._io is not None:
            self._io.shutdown(wait=True)
            self._io = None
        for worker_id, channel in list(self._channels.items()):
            try:
                with self._locks[worker_id]:
                    channel.request(wire.SHUTDOWN, None)
            except Exception:
                pass  # daemon already gone; reaped below
            channel.close()
        self._channels.clear()
        self._locks.clear()
        self._assignment.clear()
        for proc in self._daemons:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - wedged daemon
                proc.terminate()
                proc.join(timeout=10)
        self._daemons.clear()
        self._round = 0


def make_backend(name: str,
                 max_workers: int | None = None) -> ExecutionBackend:
    """Build the backend named by ``TrainerConfig.backend``."""
    if name == "serial":
        return SerialBackend()
    if name == "threads":
        return ThreadBackend(max_workers)
    if name == "processes":
        return ProcessBackend(max_workers)
    if name == "shm":
        return ShmBackend(max_workers)
    if name == "socket":
        return SocketBackend(max_workers)
    raise ValueError(f"unknown backend {name!r}; expected one of "
                     f"{BACKENDS}")
