"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on shared cores whose speed for this process changes by up
to a factor of two, in phases that last from under a second to minutes
(another tenant on a sibling thread, clock changes).  A pass's raw wall and
CPU times follow those phases, so a median over one run says as much about
the host as about the program.

The probe is a fixed piece of work in the benchmark's own code, shaped like
the program's hot loop: sparse elimination with ``Fraction`` rows held in
dicts.  While a pass runs, a ``Sampler`` runs the probe from a timer signal
every ``INTERVAL_S`` of wall time, so the samples are spread evenly over the
pass, long jobs included.  The pass's time, less the time spent in probes, is
scaled by ``REFERENCE_S`` over the mean probe time: a pass that ran in a slow
phase is counted at the speed the probe showed during it.  ``REFERENCE_S`` is
a constant, so the scaled times of different runs and different commits are
comparable.  It is close to the probe's time on the 2-core host the benchmark
was defined on (1.5-3 ms, depending on the phase), so scaled times there read
close to raw ones.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

# the probe's wall (and CPU) time at reference speed, in seconds
REFERENCE_S = 0.002
# wall time between two probes while a Sampler is active
INTERVAL_S = 0.1


def _rows(seed: int = 7, cols: int = 16, count: int = 18, nnz: int = 4) -> list:
    rng = random.Random(seed)
    return [
        {c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for c in rng.sample(range(cols), nnz)}
        for _ in range(count)
    ]


_ROWS = _rows()


def _eliminate(rows: list) -> int:
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {k: v / lead for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                value = row.get(k, 0) - factor * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def probe() -> tuple:
    """(wall s, CPU s) of one run of the probe."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _eliminate(_ROWS)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def scale(seconds: float, *probe_seconds: float) -> float:
    """``seconds`` at reference speed, given probe times taken while they ran."""
    return seconds * REFERENCE_S * len(probe_seconds) / sum(probe_seconds)


class Sampler:
    """Runs the probe once on entry and then every ``INTERVAL_S`` of wall time.

    The probes run in the main thread, from ``SIGALRM``, between two bytecodes
    of whatever is running.  ``spent`` is the (wall s, CPU s) they have taken
    so far, which the caller takes out of the times it measures.
    """

    def __init__(self):
        self.samples = []  # (wall s, CPU s) of each probe
        self.spent = (0.0, 0.0)
        self._previous = None

    def sample(self, *_signal_args):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.samples.append(probe())
        self.spent = (self.spent[0] + time.perf_counter() - wall0, self.spent[1] + time.process_time() - cpu0)

    def scale(self, wall: float, cpu: float) -> tuple:
        """(wall, cpu) at reference speed, by the mean of the samples."""
        return scale(wall, *(s[0] for s in self.samples)), scale(cpu, *(s[1] for s in self.samples))

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
