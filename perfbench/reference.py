"""Host speed, measured with a fixed computation between queries.

On a shared host the CPU's speed drifts: on a 2-vCPU cloud host a plain
Python loop was measured running up to 1.7 times slower for minutes at a
time, so whole runs of the benchmark came out uniformly slower or faster and
no run length averaged that away. The benchmark therefore times this
reference computation between its queries and reports times scaled to a
fixed reference speed. The computation is the benchmark's own (a Dijkstra
search with ``heapq`` and dicts, like the solvers' inner loops) and uses
nothing from the package, so no change to the package can move it.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time

# Seconds one sample takes at the reference speed: about its median on that
# 2-vCPU host in its faster periods.
REFERENCE_S = 0.035


class ReferenceClock:
    def __init__(self):
        rng = random.Random(5)
        self._adj = [[(rng.randrange(3000), rng.randint(1, 9))
                      for _ in range(6)] for _ in range(3000)]
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for source in range(5):
            self._search(source)
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Reference speed over this host's speed during the run.

        Multiply a measured time by it to get seconds at reference speed.
        """
        return REFERENCE_S / statistics.median(self.samples)

    def _search(self, source: int) -> None:
        dist = {source: 0}
        heap = [(0, source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
