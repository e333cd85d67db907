"""Timed operations whose times compare across runs on a shared machine.

On a shared machine the speed one process gets drifts by a fifth or more,
over seconds and over minutes, so two runs of the same code can differ more
than a regression worth catching.  While a session is open, an interval
timer interrupts the process every SAMPLE_EVERY seconds to run a small
fixed task (interpreter loop, regex and JSON work, like the program) and
notes how long it took.  Each operation's time, less the samples taken
inside it, is then reported scaled to a machine on which that task takes
REFERENCE_S:

    scaled = (measured - samples inside) * REFERENCE_S / (median sample near it)

The raw times are kept next to the scaled ones.  Every operation's output
is checked; one that raises or fails its check counts as failed.
"""

import bisect
import contextlib
import gc
import io
import json
import re
import signal
import statistics
import time
import traceback
from dataclasses import dataclass

from traitlex import cli

SAMPLE_EVERY = 0.05
REFERENCE_S = 0.0006  # the sample task's time on the machine the bounds were set on
NEIGHBOURHOOD_S = 0.25  # samples this close to an operation set its scale

_WORDS = "The quick brown fox, jumps! Over the lazy dog's back; again and again " * 15
_RECORD = {str(i): [i, i * 0.5, "word"] for i in range(100)}


def sample_task():
    """A fixed mix of interpreter, regex and JSON work."""
    total = 0
    for i in range(2500):
        total += i * i % 7
    re.findall(r"[a-z]+(?:['\-][a-z]+)*", _WORDS.lower())
    json.loads(json.dumps(_RECORD))
    return total


@dataclass
class Timing:
    start: float
    end: float
    scaled: float | None = None  # set by Session.scale

    @property
    def seconds(self):
        return self.end - self.start


class Session:
    """Runs operations, times them, and counts the ones that failed."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.timings = []
        self.op_timings = {}  # op id -> Timing, for scaling span times
        self.samples = []  # (start, seconds) of each sample task, in time order
        self._previous_handler = None

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, signum, frame):
        # No collection inside the task: its cost would depend on the
        # program's heap rather than on the machine's speed.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        sample_task()
        self.samples.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()

    def track(self, start, end):
        timing = Timing(start, end)
        self.timings.append(timing)
        return timing

    def run(self, label, fn, check):
        """Time fn(); return (Timing, or None when it failed; its result)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # an operation that raises is a failed operation
            self.fail(label, traceback.format_exc(limit=-2).strip())
            return None, None
        timing = self.track(start, time.perf_counter())
        self.op_timings[self.attempted] = timing
        with self._untraced():
            problem = check(result)
        if problem:
            self.fail(label, problem)
            return None, result
        return timing, result

    def fail(self, label, message, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {message}")

    def scale(self):
        """Set `scaled` on every timing from the samples in and around it."""
        starts = [start for start, _ in self.samples]
        overall = statistics.median(s for _, s in self.samples)
        for timing in self.timings:
            lo = bisect.bisect_left(starts, timing.start)
            hi = bisect.bisect_right(starts, timing.end)
            busy = timing.seconds - sum(s for _, s in self.samples[lo:hi])
            lo = bisect.bisect_left(starts, timing.start - NEIGHBOURHOOD_S)
            hi = bisect.bisect_right(starts, timing.end + NEIGHBOURHOOD_S)
            near = statistics.median(s for _, s in self.samples[lo:hi]) if hi > lo else overall
            timing.scaled = busy * REFERENCE_S / near

    def cli(self, *argv):
        """Run one traitlex command in process; return (exit code, output)."""
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if self.tracer is None:
                code = cli.main(argv)
            else:
                with self.tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        return code, out.getvalue()

    @contextlib.contextmanager
    def _untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True
