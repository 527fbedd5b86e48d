"""The host's speed, as the time of a fixed pure-Python loop.

On a shared host the same request can take twice as long from one
second to the next, and a whole run can be slow.  The benchmark times
this loop right before and right after each request, and every
``TICK_S`` seconds while it runs (``SpeedSampler``), and scales the
request's time by ``REFERENCE_S`` over the mean of those loop times.  A
scaled time is in seconds of a host that runs the loop in
``REFERENCE_S``; a slow spell slows the loop and the request alike, so
it cancels.

The loop creates no object that the garbage collector tracks, so it
does not move the collections that the request will run.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

REFERENCE_S = 0.010  # near the loop's time on the reference host (NOTES.md)
TICK_S = 0.1
_ROUNDS = 40_000
_TICK_SHARE = 8  # a tick runs 1/8 of the loop
_TABLE = {i: (i * 7919) % 257 for i in range(256)}


def loop_seconds(rounds: int = _ROUNDS) -> float:
    """Time of one run of the fixed loop (or of its first rounds)."""
    table = _TABLE
    acc = 0
    start = perf_counter()
    for i in range(rounds):
        acc = (acc * 31 + table[i & 255] + len(str(i))) % 1_000_003
    return perf_counter() - start


class SpeedSampler:
    """Times a short loop on SIGALRM every TICK_S seconds while active.

    A request shorter than TICK_S sees no tick.  ``loops`` holds each
    tick's time scaled to the whole loop; ``spent`` is the time the
    ticks took, which is not the request's.  The handler runs between
    bytecodes, so a tick due during a long C call waits for it to end.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        elapsed = loop_seconds(_ROUNDS // _TICK_SHARE)
        self.loops.append(elapsed * _TICK_SHARE)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(seconds: float, loops: list[float]) -> float:
    """seconds, measured while the loop took ``loops``, at the reference
    speed."""
    return seconds * REFERENCE_S / fmean(loops)
