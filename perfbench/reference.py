"""How fast the host runs right now, measured beside every timed operation.

The machines this benchmark runs on are shares of a host whose speed
swings by up to 2x, in spells that last from a fraction of a second to
tens of seconds.  A run's wall times follow those spells, so medians of
runs a minute apart differ by far more than any change worth detecting.

A reference is the same kind of work with arcsort taken out.  It runs
right before and right after each timed operation, and the operation's
wall time divided by the mean of those two reference times is its cost in
references (unit ``ref``): a spell slows both alike and cancels, while a
change to arcsort moves only the numerator.  Two kinds are used, because
spells slow them differently:

- ``loop_seconds``: a fixed loop of pure Python written here, 0.5 to 1 ms,
  for calls made inside the worker;
- ``interpreter_start``: a fresh ``python -c pass`` in the same
  environment as the ``arcsort`` processes it brackets, about 60 ms.

Calls that take seconds are sampled during the call instead (``Sampler``).
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

LOOP_ROUNDS = 60


def reference_loop() -> int:
    """Dict updates, integer arithmetic and an insertion sort: the kinds of work arcsort does."""
    counts: dict[int, int] = {}
    for i in range(LOOP_ROUNDS * 20):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
    out: list[int] = []
    r = 12345
    for _ in range(LOOP_ROUNDS * 3):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        j = len(out)
        out.append(r)
        while j and out[j - 1] > r:
            out[j] = out[j - 1]
            j -= 1
        out[j] = r
    return len(counts) + len(out)


def loop_seconds() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def interpreter_start(env: dict[str, str], cwd: Path) -> Callable[[], float]:
    """A probe that times one bare interpreter start in ``env`` and ``cwd``."""

    def probe() -> float:
        # stderr is a pipe, as for every timed launch: then the wait for the
        # child ends when its pipe closes, not at a step of wait()'s polling
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        return time.perf_counter() - t0

    return probe


class Reference:
    """Runs a reference probe and expresses wall times in units of it."""

    def __init__(self, probe: Callable[[], float] = loop_seconds) -> None:
        self.probe = probe
        self.last = probe()

    def mark(self) -> None:
        """Run the probe now: the next operation starts here."""
        self.last = self.probe()

    def units(self, seconds: float) -> float:
        """``seconds`` of an operation that has just ended, in references.

        The probe runs again now; its mean with the previous run, made just
        before the operation, is the host's speed during it.
        """
        before = self.last
        self.last = self.probe()
        return seconds / ((before + self.last) / 2)


class Sampler:
    """Runs the reference loop every ``period`` seconds, from a timer signal.

    For operations of seconds, a loop before and after says little about
    the spells in between.  While a sampler is on, a ``SIGALRM`` handler
    runs the loop between two bytecodes of whatever is running and records
    when and how long; ``units`` takes the time the handler ran inside a
    span off its wall time and divides the rest by the loop's mean there.
    """

    def __init__(self, period: float = 0.025) -> None:
        self.period = period
        self.samples: list[tuple[int, int, float]] = []  # (start ns, end ns, loop seconds)

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        seconds = loop_seconds()
        self.samples.append((start, time.perf_counter_ns(), seconds))

    def units(self, span) -> tuple[float, float]:
        """``span``'s wall time without the handler's, in seconds and in reference loops."""
        inside = [s for s in self.samples if span.start <= s[0] and s[1] <= span.end]
        if not inside:
            raise ValueError(f"no reference sample inside {span.name}; it is shorter than the period")
        seconds = (span.ns - sum(end - start for start, end, _ in inside)) / 1e9
        return seconds, seconds / (sum(s[2] for s in inside) / len(inside))
