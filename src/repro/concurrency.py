"""Concurrency primitives shared by the updates and service layers.

The stdlib has no reader-writer lock; this module provides a small, reentrant
one with writer preference.  It is the synchronization backbone of the
concurrent read path: any number of query threads hold the read side of an
index handle at once (the storage engine below them is thread-safe for
readers), while inserts, delta flushes and rebuild swaps take the write side
and run exclusively.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """Reentrant many-readers / one-writer lock with writer preference.

    Semantics:

    * any number of threads may hold the read side simultaneously;
    * the write side is exclusive against both readers and other writers;
    * both sides are reentrant per thread, and a thread holding the write
      side may additionally take the read side (the nested read stays
      exclusive);
    * a thread holding only the read side must not request the write side —
      lock upgrades deadlock by construction (two upgrading readers wait on
      each other forever), so the attempt raises ``RuntimeError`` instead;
    * new readers queue behind waiting writers (writer preference), so a
      steady stream of queries cannot starve an insert; reentrant re-acquires
      are exempt, or a reader could deadlock against a waiting writer.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers: dict[int, int] = {}  # thread ident -> reentrant depth
        self._writer: "int | None" = None
        self._write_depth = 0
        self._writer_nested_reads = 0
        self._waiting_writers = 0

    # -- read side -------------------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_nested_reads += 1
                return
            if me in self._readers:
                self._readers[me] += 1
                return
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                if self._writer_nested_reads <= 0:
                    raise RuntimeError("release_read() without a matching acquire_read()")
                self._writer_nested_reads -= 1
                return
            depth = self._readers.get(me, 0)
            if depth <= 0:
                raise RuntimeError("release_read() without a matching acquire_read()")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    # -- write side ------------------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._write_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; "
                    "release the read side first"
                )
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._write_depth = 1
            finally:
                self._waiting_writers -= 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me or self._write_depth <= 0:
                raise RuntimeError("release_write() without a matching acquire_write()")
            self._write_depth -= 1
            if self._write_depth == 0:
                if self._writer_nested_reads:
                    raise RuntimeError(
                        "write lock released while nested read acquisitions are open"
                    )
                self._writer = None
                self._cond.notify_all()

    # -- context managers ------------------------------------------------------------

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """``with lock.read_locked():`` — shared access."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """``with lock.write_locked():`` — exclusive access."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection (tests, assertions) ---------------------------------------------

    @property
    def active_readers(self) -> int:
        """Number of distinct threads currently holding the read side."""
        with self._cond:
            return len(self._readers)
