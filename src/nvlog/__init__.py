"""Simulated persistent memory, single-round-trip durable logs, and a
crash-consistent hash map built on them."""

from .pmem import (
    CrashState,
    EnumerationLimitError,
    LINE_SIZE,
    RELEASE,
    SimMemory,
    SnapshotFormatError,
    StaleCrashStateError,
    UsageError,
    WORD_SIZE,
)
from .logalg import ALGORITHMS, CircularLog, RecoveredEntry
from .stps import PersistentHashMap

__all__ = [
    "ALGORITHMS",
    "CircularLog",
    "CrashState",
    "EnumerationLimitError",
    "LINE_SIZE",
    "PersistentHashMap",
    "RELEASE",
    "RecoveredEntry",
    "SimMemory",
    "SnapshotFormatError",
    "StaleCrashStateError",
    "UsageError",
    "WORD_SIZE",
]

__version__ = "0.1.0"
