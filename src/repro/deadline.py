"""Per-request wall-clock deadlines, propagated through query execution.

A :class:`Deadline` is an absolute point on the monotonic clock.  The serving
layer arms one per request (server default, overridable per request on the
wire) in a :mod:`contextvars` context variable; everything below — planner,
cursors, probes — runs inside that context and the storage engine checks it
at every **page-access boundary** (:meth:`BufferPool.get_page
<repro.storage.buffer_pool.BufferPool.get_page>`).  An expired query
therefore stops reading pages at the next access instead of running to
completion, raising :class:`~repro.errors.DeadlineExceededError` out through
the cursor machinery.

Accounting stays exact: the check happens *before* the access is charged, so
every page a query did read is recorded in both its own
:class:`~repro.storage.stats.ReadContext` and the pool totals (the two are
updated atomically under the buffer-pool lock), and no access is ever
half-charged when the deadline fires.

Propagation:

* **threads** — in-process shard fan-out runs on the query's own thread,
  inside the context where the deadline is armed, so every shard sees it;
* **processes** — a deadline cannot cross the process boundary as an
  absolute monotonic instant; the parent ships the *remaining* budget in
  milliseconds and each worker arms a fresh local deadline from it
  (:class:`~repro.core.shard.procpool.ShardProcessPool`).

Checks are cheap when no deadline is armed: one context-variable read.
"""

from __future__ import annotations

import time
from contextvars import ContextVar

from repro.errors import DeadlineExceededError

_CURRENT: "ContextVar[Deadline | None]" = ContextVar("repro_deadline", default=None)


class Deadline:
    """An absolute wall-clock expiry on the monotonic clock."""

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float) -> None:
        self._expires_at = expires_at

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        if budget_ms <= 0:
            raise DeadlineExceededError(
                f"deadline budget must be positive, got {budget_ms} ms"
            )
        return cls(time.monotonic() + budget_ms / 1000.0)

    def remaining_ms(self) -> float:
        """Milliseconds until expiry (negative once expired)."""
        return (self._expires_at - time.monotonic()) * 1000.0

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` if this deadline has passed."""
        if time.monotonic() >= self._expires_at:
            raise DeadlineExceededError(
                "query deadline exceeded "
                f"({-self.remaining_ms():.1f} ms past the deadline)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


def current() -> "Deadline | None":
    """The deadline armed for the calling context, if any."""
    return _CURRENT.get()


def activate(deadline: "Deadline | None"):
    """Arm ``deadline`` for the calling context; returns the reset token."""
    return _CURRENT.set(deadline)


def deactivate(token) -> None:
    """Disarm the deadline armed by the matching :func:`activate` call."""
    _CURRENT.reset(token)


def check() -> None:
    """Raise :class:`DeadlineExceededError` when the armed deadline passed.

    The page-access hook: one context-variable read when no deadline is
    armed, one extra clock read when one is.
    """
    deadline = _CURRENT.get()
    if deadline is not None and time.monotonic() >= deadline._expires_at:
        raise DeadlineExceededError(
            "query deadline exceeded "
            f"({-deadline.remaining_ms():.1f} ms past the deadline)"
        )
