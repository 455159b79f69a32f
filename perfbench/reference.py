"""A fixed reference kernel that gauges the host's speed during a run.

On a shared host the same work runs at two or more speeds, up to about 1.7
times apart, and the host switches between them every few seconds (other
tenants on the cores, caches and memory bus). The benchmark runs this kernel
between any two timed set-ups or rounds, and scales each measured time by
``REFERENCE_S`` over the mean time of the kernel runs just before and just
after it: the reported times are seconds on a host on which the kernel takes
``REFERENCE_S``. The kernel does not call riccialign, so a change to the
package leaves it alone and moves the scaled times as much as the raw ones.

Its three parts mirror the pipeline's three kinds of work, in about equal
shares: an interpreted random walk over adjacency lists with a visited set
(the sampling and graph layers), an integer Gram matrix turned into float
distances (``cost_matrix``), and a loop of small vector operations
(``hungarian``).
"""

from __future__ import annotations

import random
import time

import numpy as np

# About the kernel's median time over five minutes on a 2-core x86-64 VM
# (Xeon, shared host), fast and slow stretches together.
REFERENCE_S = 0.030

_NODES = 3000
_WALK_STEPS = 18000
_ROWS, _WIDTH = 470, 40
_VECTOR = 550


class Reference:
    """The kernel's inputs, built once from fixed seeds; calling it runs and
    times the kernel."""

    def __init__(self):
        draw = random.Random(0x5EED)
        self.adjacency = [[draw.randrange(_NODES) for _ in range(draw.randrange(1, 40))]
                          for _ in range(_NODES)]
        rng = np.random.default_rng(0x5EED)
        self.rows = rng.integers(0, 20, size=(_ROWS, _WIDTH), dtype=np.int64)
        self.costs = rng.random((_VECTOR, _VECTOR))
        self.expected = self._kernel()

    def _kernel(self) -> tuple[int, float, int]:
        draw = random.Random(99)
        current, seen = 0, set()
        for _ in range(_WALK_STEPS):
            nbrs = self.adjacency[current]
            current = nbrs[int(draw.random() * len(nbrs))]
            seen.add(current)

        a = self.rows
        norms = (a * a).sum(axis=1)
        sq = norms[:, None] + norms[None, :] - 2 * (a @ a.T)
        distances = np.sqrt(np.maximum(sq, 0).astype(np.float64))

        c = self.costs
        minv = np.full(_VECTOR, np.inf)
        used = np.zeros(_VECTOR, dtype=bool)
        shift = np.zeros(_VECTOR)
        for i in range(_VECTOR):
            free = ~used
            reduced = c[i] - shift
            minv = np.where(free & (reduced < minv), reduced, minv)
            j = int(np.argmin(np.where(free, minv, np.inf)))
            used[j] = True
            shift[np.flatnonzero(used)] -= 1e-9
        return len(seen), float(distances.sum()), int(used.sum())

    def __call__(self) -> float:
        start = time.perf_counter()
        result = self._kernel()
        seconds = time.perf_counter() - start
        if result != self.expected:
            raise RuntimeError(f"reference kernel gave {result}, not {self.expected}")
        return seconds


def scales(kernel_times: list[float]) -> list[float]:
    """Time scales of the items run between consecutive kernel runs:
    REFERENCE_S over the mean of the kernel runs just before and after."""
    return [2 * REFERENCE_S / (before + after)
            for before, after in zip(kernel_times, kernel_times[1:])]
