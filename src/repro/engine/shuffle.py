"""The shuffle operator: programmable all-to-all block exchange.

Spark's ``shuffle`` lets each map task route blocks to arbitrary reduce
tasks.  MLlib* builds its AllReduce on exactly this primitive (Section
IV-B2): Reduce-Scatter is a shuffle where executor ``r`` sends model
partition ``i`` to executor ``i``; AllGather is a shuffle where executor
``r`` sends its owned partition to everyone.

:func:`exchange` performs the actual data movement on real Python values so
the numerical trainers and the tests can verify routing correctness.  A
round's cost is priced separately, by its
:class:`~repro.collectives.Schedule`: all executors send and receive
concurrently on their own links, so a round costs what the busiest
endpoint pays — contrast with the driver fan-in of MLlib's
treeAggregate, which serializes all ``k`` transfers through one node.
"""

from __future__ import annotations

from typing import TypeVar

__all__ = ["exchange"]

T = TypeVar("T")


def exchange(outboxes: list[dict[int, T]],
             num_workers: int | None = None) -> list[list[T]]:
    """Route messages: ``outboxes[src][dst] = payload`` -> inbox lists.

    Returns ``inboxes`` where ``inboxes[dst]`` collects payloads addressed
    to ``dst`` in ascending source order.  This is the data-plane of the
    shuffle; cost accounting is separate (its schedule).
    """
    k = num_workers if num_workers is not None else len(outboxes)
    if k < 1:
        raise ValueError("need at least one worker")
    inboxes: list[list[T]] = [[] for _ in range(k)]
    for src, outbox in enumerate(outboxes):
        for dst, payload in outbox.items():
            if not 0 <= dst < k:
                raise ValueError(
                    f"worker {src} addressed message to {dst}, but only "
                    f"{k} workers exist")
            inboxes[dst].append(payload)
    return inboxes
