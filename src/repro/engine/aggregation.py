"""MLlib's ``treeAggregate``: hierarchical gradient/model aggregation.

MLlib alleviates (but does not remove) the driver bottleneck by aggregating
through intermediate executors: with ``k`` executors and depth 2, roughly
``sqrt(k)`` executors first combine the vectors of their group, then the
driver combines the ``sqrt(k)`` partial aggregates (Figure 2(a)).

:class:`TreeAggregateModel` decides the shape of the tree (its depth and
the round-robin aggregator groups).  The flat treeAggregate
:class:`~repro.collectives.Schedule` built from that shape
(:func:`~repro.collectives.tree_fan_in_wire`) prices the two levels under
the alpha-beta network model: the receiving node of each level pays
serialized ingress (one message after another) plus the dense vector
additions — bottleneck B2 made quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TreeAggregateModel"]


@dataclass(frozen=True)
class TreeAggregateModel:
    """Shape of MLlib's hierarchical aggregation of size-``m`` vectors.

    Parameters
    ----------
    depth:
        Aggregation depth.  ``depth=1`` means every executor sends straight
        to the driver (flat aggregation, the pre-treeAggregate behaviour);
        ``depth=2`` is MLlib's default hierarchical scheme.
    """

    depth: int = 2

    def __post_init__(self) -> None:
        if self.depth not in (1, 2):
            raise ValueError("supported depths are 1 (flat) and 2 (MLlib)")

    def num_aggregators(self, k: int) -> int:
        """Number of intermediate aggregators for ``k`` executors."""
        if k < 1:
            raise ValueError("need at least one executor")
        if self.depth == 1:
            return 0
        return min(k, max(1, math.isqrt(k)))

    def groups(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Assign executors to aggregator groups.

        Group ``j`` is aggregator ``j`` followed by its members, assigned
        round-robin (executor ``e`` ships to aggregator ``e % a``) so
        sizes differ by at most one.  With depth 1 there are no groups
        (everyone sends to the driver).
        """
        a = self.num_aggregators(k)
        return tuple(tuple(range(j, k, a)) for j in range(a))

    def plan(self, k: int) -> dict[int, int]:
        """``{aggregator_executor_index: group_size}`` of :meth:`groups`."""
        return {group[0]: len(group) for group in self.groups(k)}
