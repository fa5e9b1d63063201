"""Injectable clocks so pacing, rate windows and multi-day crawls are
testable in virtual time."""

from __future__ import annotations

import time


class SystemClock:
    """Wall clock, millisecond resolution."""

    def now_ms(self) -> int:
        return time.time_ns() // 1_000_000

    def sleep_ms(self, ms: int) -> None:
        if ms > 0:
            time.sleep(ms / 1000.0)


class VirtualClock:
    """Clock that advances only when slept on.

    Time never moves on its own, which makes request schedules fully
    deterministic: a loop that sleeps N ms between requests produces
    requests exactly N virtual ms apart.
    """

    def __init__(self, start_ms: int = 0):
        self._now_ms = int(start_ms)

    def now_ms(self) -> int:
        return self._now_ms

    def sleep_ms(self, ms: int) -> None:
        if ms > 0:
            self._now_ms += int(ms)
