"""Length-prefixed frame protocol for the ``socket`` backend.

One frame = a 5-byte header (``>BI``: kind byte + payload length) followed
by a pickled payload.  msgpack would be the natural payload codec for a
cross-language wire, but it is not part of this environment's toolchain,
and every object crossing this wire is Python-to-Python (ndarrays, CSR
partitions, RNG generators) — pickle protocol 5 is the measured
transport.

This module and :mod:`repro.engine.daemon` are the only places outside
``repro/perf`` allowed to read the wall clock (the determinism linter's
DET001 exemption is scoped to exactly these files): the whole point of
the socket backend is that each request's bytes-on-wire and elapsed wall
seconds are *measured*, so they can be compared against the simulated
:class:`~repro.cluster.network.NetworkModel` pricing.  An
:class:`Exchange` records one request/response pair; trainers never see
these — the backend aggregates them into a :func:`summarize` report
after the run, keeping the simulated clock backend-invariant.

A TASK frame carries one daemon's whole share of a superstep,
``(fn, [(index, args), ...])``, pickled in one ``dumps`` call: pickle's
memo writes an object the tasks share (the broadcast model, the
objective, the config) once per frame, so the model crosses the wire
once per daemon per superstep, as a Spark broadcast variable crosses
once per executor.  The daemon answers with one RESULT frame,
``(results, compute_seconds)``, or one ERROR frame, ``(index, exc)``,
naming the first partition whose task raised.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["HELLO", "INSTALL", "TASK", "RESULT", "ERROR", "SHUTDOWN",
           "BYE", "ACK", "KIND_NAMES", "Exchange", "WireRecord",
           "FrameChannel", "RemoteTaskError", "summarize"]

#: Frame header: kind byte + big-endian uint32 payload length.
_HEADER = struct.Struct(">BI")

HELLO, INSTALL, TASK, RESULT, ERROR, SHUTDOWN, BYE, ACK = range(1, 9)

KIND_NAMES = {HELLO: "hello", INSTALL: "install", TASK: "task",
              RESULT: "result", ERROR: "error", SHUTDOWN: "shutdown",
              BYE: "bye", ACK: "ack"}

#: Generous ceiling on a single blocking socket operation; a wedged
#: daemon fails loudly instead of hanging the run.
DEFAULT_TIMEOUT = 300.0


class RemoteTaskError(RuntimeError):
    """A daemon's task raised and the original could not be re-raised."""


@dataclass(frozen=True)
class Exchange:
    """Measured facts about one request/response round trip."""

    bytes_out: int
    bytes_in: int
    seconds: float


@dataclass(frozen=True)
class WireRecord:
    """One accounted wire exchange, tagged for per-superstep grouping.

    ``compute_seconds`` is the daemon-side task execution time (reported
    inside the RESULT payload); ``roundtrip_seconds - compute_seconds``
    is therefore the measured communication cost of the exchange —
    serialization, TCP transit, and dispatch overhead.  ``tasks`` is the
    number of partition tasks the exchange carried (0 for an install).
    """

    label: str
    worker: int
    superstep: int
    bytes_out: int
    bytes_in: int
    roundtrip_seconds: float
    compute_seconds: float = 0.0
    tasks: int = 0

    @property
    def comm_seconds(self) -> float:
        return max(0.0, self.roundtrip_seconds - self.compute_seconds)


def encode(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode(payload: bytes) -> Any:
    return pickle.loads(payload)


class FrameChannel:
    """One connected socket speaking the frame protocol.

    Not thread-safe: the socket backend serializes access per daemon
    with a lock, which also guarantees at most one outstanding frame in
    each direction (strict request/response — no send/recv deadlock).
    """

    def __init__(self, sock: socket.socket,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        sock.settimeout(timeout)
        # Frames are tiny-header-then-payload; don't wait to coalesce.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - transport without TCP opts
            pass
        self._sock = sock

    # -- raw framing ---------------------------------------------------
    def send(self, kind: int, obj: Any) -> int:
        """Send one frame; returns total bytes written."""
        payload = encode(obj)
        self._sock.sendall(_HEADER.pack(kind, len(payload)) + payload)
        return _HEADER.size + len(payload)

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise ConnectionError("peer closed the wire mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> tuple[int, Any, int]:
        """Receive one frame; returns ``(kind, payload, total_bytes)``."""
        header = self._recv_exact(_HEADER.size)
        kind, length = _HEADER.unpack(header)
        payload = self._recv_exact(length) if length else b""
        return kind, decode(payload) if length else None, \
            _HEADER.size + length

    # -- measured round trips ------------------------------------------
    def request(self, kind: int, obj: Any, timeout: float | None = None,
                ) -> tuple[int, Any, Exchange]:
        """Send a frame, await the response, measure the round trip.

        ``timeout`` overrides the channel's bound on each blocking socket
        operation for this exchange only (a batch of tasks waits longer
        for its reply than a single task does).
        """
        previous = self._sock.gettimeout()
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            start = time.perf_counter()
            bytes_out = self.send(kind, obj)
            reply_kind, reply, bytes_in = self.recv()
            elapsed = time.perf_counter() - start
        finally:
            self._sock.settimeout(previous)
        return reply_kind, reply, Exchange(bytes_out=bytes_out,
                                           bytes_in=bytes_in,
                                           seconds=elapsed)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def summarize(records: list[WireRecord]) -> dict[str, Any]:
    """Aggregate wire records into the measured-transport report.

    Returns totals plus a per-superstep breakdown (superstep 0 holds the
    one-time partition installation).  ``messages`` counts request/reply
    exchanges and ``tasks`` the partition tasks they carried.  All
    numbers are *measured*, never simulated.
    """
    supersteps: dict[int, dict[str, float]] = {}
    for rec in records:
        row = supersteps.setdefault(rec.superstep, {
            "superstep": rec.superstep, "messages": 0, "tasks": 0,
            "bytes_out": 0, "bytes_in": 0, "roundtrip_seconds": 0.0,
            "compute_seconds": 0.0, "comm_seconds": 0.0})
        row["messages"] += 1
        row["tasks"] += rec.tasks
        row["bytes_out"] += rec.bytes_out
        row["bytes_in"] += rec.bytes_in
        row["roundtrip_seconds"] += rec.roundtrip_seconds
        row["compute_seconds"] += rec.compute_seconds
        row["comm_seconds"] += rec.comm_seconds
    ordered = [supersteps[key] for key in sorted(supersteps)]
    return {
        "messages": len(records),
        "tasks": sum(r.tasks for r in records),
        "bytes_out": sum(r.bytes_out for r in records),
        "bytes_in": sum(r.bytes_in for r in records),
        "roundtrip_seconds": sum(r.roundtrip_seconds for r in records),
        "compute_seconds": sum(r.compute_seconds for r in records),
        "comm_seconds": sum(r.comm_seconds for r in records),
        "install_bytes": sum(r.bytes_out + r.bytes_in for r in records
                             if r.label == "install"),
        "per_superstep": ordered,
    }


@dataclass
class WireLog:
    """Mutable accumulator the socket backend appends records to."""

    records: list[WireRecord] = field(default_factory=list)

    def add(self, record: WireRecord) -> None:
        self.records.append(record)

    def summary(self) -> dict[str, Any] | None:
        if not self.records:
            return None
        return summarize(self.records)
