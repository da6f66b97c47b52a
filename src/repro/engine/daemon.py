"""Long-lived worker daemon for the ``socket`` execution backend.

Each daemon is a separate OS process that dials back to the parent's
localhost listener, identifies itself with a HELLO frame, receives its
partition shards once (INSTALL), then sits in a strict request/response
loop executing TASK frames until SHUTDOWN.  This is the moral equivalent
of a Spark executor: state (the cached partitions) lives with the
worker across supersteps, and only models/gradients cross the wire.
Each TASK frame carries the daemon's whole share of a superstep, so the
broadcast model arrives once per daemon, not once per partition.

The daemon times each batch's execution (``compute_seconds``) and ships
the timing inside the RESULT payload, so the parent can subtract compute
from the measured round trip and attribute the remainder to the
transport.  This file shares :mod:`repro.engine.wire`'s DET001 wall-clock
exemption — measured seconds never feed the simulated clock; they exist
only for the measured-vs-simulated validation report.
"""

from __future__ import annotations

import pickle
import socket
import time
from typing import Any

import numpy as np

from . import wire

__all__ = ["daemon_main", "freeze_shared_arrays"]


def _safe_exception(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return wire.RemoteTaskError(
            f"task raised unpicklable {type(exc).__name__}: {exc!r}")


def _arrays_in(value: Any):
    """The ndarrays in ``value``, looking inside tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)


def freeze_shared_arrays(batch: list[tuple[int, tuple]]) -> None:
    """Mark read-only every ndarray that more than one task of ``batch``
    shares.

    The batch was unpickled from one frame, so an array the parent handed
    to several tasks (the broadcast model) is one object here; a task
    writing to it would silently change the input of every task after it.
    The ``shm`` backend's read-only broadcast view gives the same
    guarantee.
    """
    first_task: dict[int, int] = {}  # id(array) -> first task using it
    for task, (_index, args) in enumerate(batch):
        for array in _arrays_in(args):
            if first_task.setdefault(id(array), task) != task:
                array.setflags(write=False)


def daemon_main(port: int, worker_id: int,
                host: str = "127.0.0.1") -> None:
    """Entry point of one worker daemon process.

    Protocol (daemon side):

    * connect, send ``HELLO worker_id``;
    * ``INSTALL {index: partition}`` → merge into the local cache, ACK;
    * ``TASK (fn, [(index, args), ...])`` → freeze the arrays the tasks
      share, run ``fn(partitions[index], *args)`` for each task in
      order, reply ``RESULT ([result, ...], compute_seconds)``; the
      first task that raises stops the batch and is answered with
      ``ERROR (index, exc)``;
    * ``SHUTDOWN`` → reply BYE and exit.
    """
    conn = socket.create_connection((host, port),
                                    timeout=wire.DEFAULT_TIMEOUT)
    channel = wire.FrameChannel(conn)
    channel.send(wire.HELLO, worker_id)
    partitions: dict[int, Any] = {}
    try:
        while True:
            kind, payload, _ = channel.recv()
            if kind == wire.INSTALL:
                partitions.update(payload)
                channel.send(wire.ACK, len(partitions))
            elif kind == wire.TASK:
                fn, batch = payload
                freeze_shared_arrays(batch)
                start = time.perf_counter()
                results = []
                index = -1
                try:
                    for index, args in batch:
                        if index not in partitions:
                            raise RuntimeError(
                                f"partition {index} is not installed on "
                                f"worker daemon {worker_id}")
                        results.append(fn(partitions[index], *args))
                except BaseException as exc:  # noqa: BLE001 - shipped back
                    channel.send(wire.ERROR, (index, _safe_exception(exc)))
                else:
                    compute = time.perf_counter() - start
                    channel.send(wire.RESULT, (results, compute))
            elif kind == wire.SHUTDOWN:
                channel.send(wire.BYE, worker_id)
                return
            else:
                channel.send(wire.ERROR, (-1, wire.RemoteTaskError(
                    f"unexpected frame kind {kind} on worker daemon "
                    f"{worker_id}")))
    except (ConnectionError, EOFError, OSError):
        # Parent died or tore the wire down without SHUTDOWN; exit quietly
        # — the backend's close() path reaps us either way.
        return
    finally:
        channel.close()
