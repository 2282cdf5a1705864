"""Host speed, sampled while the benchmark's own work runs.

The benchmark runs on a machine whose CPUs are shared with other tenants.
Their load slows one thread by up to 2x, in stretches of seconds to many
minutes, and process CPU time moves with wall time, so neither clock alone
tells a slow program from a slow host. ``SpeedProbe`` measures the host
instead: a SIGALRM timer interrupts the work every PERIOD_S seconds, and
the handler times one of three fixed pure-Python kernels of about 0.2 ms,
in turn:

- ``int``: an integer arithmetic loop, which stays in the first-level cache;
- ``graph``: Dijkstra with ``heapq`` over a dict-of-dicts grid graph, the
  shape of the program's own route searches;
- ``chain``: a pointer chase through a list and a dict of 65,536 entries
  (about 10 MB, larger than the second-level cache), so that it waits on the
  shared cache as the program's graph code does.

A kernel's speed is its nominal time over its measured time. The host's
speed over a stretch of work is the geometric mean over the kernels of
their mean speeds, raised to the power SENSITIVITY, because the program
slows more than the kernels do; it is 1.0 on a host as fast as the nominal
times. Multiplying the stretch's time by it gives reference seconds. A stretch shorter than
MIN_SAMPLES ticks is widened to the MIN_SAMPLES samples around it, so each
timed unit is scaled by the host's speed close to when it ran. The kernels use no
package outside the standard library, so that the probe moves no import
cost into the program's set-up.

``clock()`` is ``perf_counter()`` minus the time spent in the handler, so
intervals measured with it hold only the program's own work.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
GRID_SIDE = 30
CUTOFF = 2.5
CHAIN_N = 1 << 16
CHAIN_STEPS = 250
MIN_SAMPLES = 30
# Each kernel's typical time on the 2-CPU Xeon host this benchmark was built
# on (Python 3.11); they set only the unit of the reference seconds.
NOMINAL_S = {"int": 0.00028, "graph": 0.00025, "chain": 0.00027}
# How much more the pipeline slows than the kernels: within one run, log
# pass time fell on log kernel speed with slope -1.8 (r = 0.97, 69 passes of
# place-exact; r = 0.98, 29 passes of N14); across runs the slopes were 2.4
# and 1.2. The host speed is the kernels' speed to this power.
SENSITIVITY = 1.5


class SpeedProbe:
    """Samples the kernels' times every PERIOD_S while started."""

    def __init__(self):
        t0 = perf_counter()
        rng = random.Random(0)
        self.graph: dict = {(x, y): {} for x in range(GRID_SIDE) for y in range(GRID_SIDE)}
        for (x, y), nbrs in self.graph.items():
            for nb in ((x + 1, y), (x, y + 1)):
                if nb in self.graph:
                    nbrs[nb] = self.graph[nb][(x, y)] = {"weight": rng.random()}
        self.chain = list(range(CHAIN_N))
        rng.shuffle(self.chain)
        self.table = {i: 3 * i for i in range(CHAIN_N)}
        self.at = 0
        self.kernels = (("int", self._int), ("graph", self._graph), ("chain", self._chain))
        # one (clock() at the tick, kernel name, kernel seconds) per tick
        self.samples: list[tuple[float, str, float]] = []
        self.stamps: list[float] = []
        self.busy = False
        # time the probe took, building its data included
        self.spent = perf_counter() - t0

    def _int(self) -> None:
        total = 0
        for i in range(2000):
            total += i * i % 7

    def _graph(self) -> None:
        source = (GRID_SIDE // 2, GRID_SIDE // 2)
        dist, heap = {source: 0.0}, [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, attr in self.graph[u].items():
                nd = d + attr["weight"]
                if nd <= CUTOFF and nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

    def _chain(self) -> None:
        at, total = self.at, 0
        for _ in range(CHAIN_STEPS):
            at = self.chain[at]
            total += self.table[at]
        self.at = at

    def _tick(self, signum, frame) -> None:
        if self.busy:  # a tick that falls due inside a slow tick is skipped
            return
        self.busy = True
        t0 = perf_counter()
        name, kernel = self.kernels[len(self.samples) % len(self.kernels)]
        kernel()
        t1 = perf_counter()
        self.samples.append((t0 - self.spent, name, t1 - t0))
        self.stamps.append(t0 - self.spent)
        self.spent += perf_counter() - t0
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds of work, leaving out the time the probe itself took."""
        return perf_counter() - self.spent

    def speed(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Host speed between two ``clock()`` readings, in reference seconds
        per second; by default over every sample so far."""
        n = len(self.stamps)
        lo = bisect.bisect_left(self.stamps, start, 0, n)
        hi = bisect.bisect_right(self.stamps, end, 0, n)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        speeds: dict[str, list[float]] = {name: [] for name, _ in self.kernels}
        for _, name, seconds in self.samples[lo:hi]:
            speeds[name].append(NOMINAL_S[name] / seconds)
        if not all(speeds.values()):
            raise RuntimeError("too few probe samples to rate the host's speed")
        return math.exp(SENSITIVITY * statistics.fmean(math.log(statistics.fmean(xs))
                                                       for xs in speeds.values()))
