"""Interchangeable circular-log implementations over a simulated memory."""

from .atlas import AtlasLog
from .base import (CircularLog, EntryLayout, LogError, LogFullError,
                   PayloadError, RecoveredEntry, TrimError,
                   UnrecoverableLogError, HEADER_BYTES)
from .crclog import Crc32Log, Crc64Log
from .csorandom import CsoRandomLog, RANDOM_VALUE, SENTINEL_VALUE
from .csovb import CsoVbLog, layout as csovb_layout
from .fvb import CsoFvbLog, check_cacheline, write_cacheline
from .tornbit import TornbitLog
from .tworounds import TwoRoundsLog

ALGORITHMS: dict[str, type[CircularLog]] = {
    cls.name: cls
    for cls in (CsoVbLog, CsoRandomLog, CsoFvbLog, TornbitLog,
                Crc32Log, Crc64Log, TwoRoundsLog, AtlasLog)
}


def make_log(name: str, mem, base: int, size: int,
             payload_len: int) -> CircularLog:
    try:
        cls = ALGORITHMS[name]
    except KeyError:
        raise LogError(f"unknown algorithm {name!r}; "
                       f"choose from {sorted(ALGORITHMS)}") from None
    return cls(mem, base, size, payload_len)
