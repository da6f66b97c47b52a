"""Spark-like BSP execution engine: RDDs, driver, aggregation, shuffle."""

from .aggregation import TreeAggregateModel
from .backend import (BACKENDS, ExecutionBackend, ProcessBackend,
                      SerialBackend, ShmBackend, SocketBackend,
                      ThreadBackend, make_backend)
from .broadcast import BroadcastModel
from .dag import MiniRdd, RddContext
from .driver import DRIVER_LABEL, BspEngine, CommRecord, executor_label
from .rdd import PartitionedDataset
from .shuffle import exchange

__all__ = [
    "BspEngine", "CommRecord", "DRIVER_LABEL", "executor_label",
    "PartitionedDataset",
    "BACKENDS", "ExecutionBackend", "SerialBackend", "ThreadBackend",
    "ProcessBackend", "ShmBackend", "SocketBackend", "make_backend",
    "TreeAggregateModel",
    "BroadcastModel",
    "exchange",
    "RddContext", "MiniRdd",
]
