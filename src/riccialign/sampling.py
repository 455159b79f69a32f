"""Random-walk subgraph extraction and random edge deletion.

All randomness flows through an explicit RngHandle; nothing touches global
RNG state, so a seed fully determines every sample and each experiment round
can own an independent handle. The walk replays ``random.Random.choice``
inline, one bounded ``getrandbits`` draw at a time, and gives the draws,
and leaves the handle's state, of one ``random.Random.choice`` per step. The
edge deletion draws only when its outcome is uncertain (0 < p < 1 and at
least one edge): then its uniforms are the handle's own ``random()`` calls,
one per edge, which Python documents to replay for a given seed across
versions. A certain deletion (p = 0, p = 1 or no edges) draws nothing and
leaves the handle as it was.
"""

from __future__ import annotations

import numbers
import random
from itertools import repeat, starmap

import numpy as np

from .graph import Graph, GraphError, _integer

_MAX_STAGNANT = 100  # stagnant walk steps before a jump to an unvisited node


class RngHandle(random.Random):
    """A ``random.Random`` whose seeds are checked; the same seed replays the same draws.

    Seeds, at construction and on reseed, are Python or numpy integers of any
    size; anything else, bools included, raises GraphError, and so does a seed
    below 0 (random.Random seeds from the absolute value, so -s would replay s).

    A handle is stateful and must not be shared across threads; give each
    thread its own handle instead.
    """

    def seed(self, a, version=2):
        super().seed(_integer(a, "seed", 0), version)

    def __reduce__(self):
        # random.Random's calls the class with no seed, which seed() rejects
        return type(self), (0,), self.getstate()


def random_walk_sample(g: Graph, size: int, rng: RngHandle) -> Graph:
    """Induced subgraph on `size` nodes collected by a random walk.

    The walk starts at a uniform random node and repeatedly moves to a
    uniform random neighbor (or a uniform random node of the whole graph
    when the current node is isolated). Steps that revisit known nodes
    count toward a stagnation counter; after ``_MAX_STAGNANT`` stagnant steps
    the walk jumps to a uniform random not-yet-collected node and collects it.
    The counter resets on progress and on jumps.

    Each step draws, and leaves the handle's state, as one ``rng.choice``. The
    start and a step from an isolated node call ``rng.randrange(n)``, a jump
    calls ``rng.choice`` on the ascending uncollected ids, and a move replays
    ``choice`` over its CSR row inline: on CPython 3.10-3.13 ``choice`` and
    ``randrange`` over d items draw ``getrandbits(d.bit_length())`` until the
    result is below d. Binding ``rng._randbelow`` instead made walks of 500 and
    2000 nodes about 20% slower. The tests compare walks with ``choice``
    itself, so a CPython that draws otherwise fails them. Rows are read
    through memoryviews (plain ints).
    """
    size = _integer(size, "sample size", 1)
    if size > g.num_nodes:
        raise GraphError(f"sample size {size} exceeds graph size {g.num_nodes}")

    n = g.num_nodes
    indptr, indices = memoryview(g.indptr), memoryview(g.indices)  # plain-int reads
    getrandbits = rng.getrandbits
    current = rng.randrange(n)
    visited = {current: None}
    stagnant, max_stagnant = 0, _MAX_STAGNANT

    while len(visited) < size:
        lo = indptr[current]
        degree = indptr[current + 1] - lo
        if degree:
            k = degree.bit_length()
            r = getrandbits(k)
            while r >= degree:
                r = getrandbits(k)
            nxt = indices[lo + r]
        else:
            nxt = rng.randrange(n)
        if nxt not in visited:
            visited[nxt] = None
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= max_stagnant:
                nxt = rng.choice([v for v in range(n) if v not in visited])
                visited[nxt] = None
                stagnant = 0
        current = nxt

    return g.induced_subgraph(np.fromiter(visited, dtype=np.int64, count=len(visited)))


def _check_probability(p) -> None:
    """Raise GraphError unless p is a real number in [0, 1] (bools and NaN are not)."""
    if isinstance(p, (bool, np.bool_)) or not isinstance(p, numbers.Real) \
            or not 0.0 <= p <= 1.0:
        raise GraphError(f"deletion probability must be a number in [0, 1], got {p!r}")


def delete_edges_randomly(g: Graph, p: float, rng: RngHandle) -> Graph:
    """Drop each edge independently with probability p; nodes are untouched.

    An uncertain deletion, 0 < p < 1 on a graph with an edge, makes one
    `rng.random()` call per edge and keeps edge i of the canonical order
    when the i-th is >= p. A certain one draws nothing and leaves the
    handle's state as it was: at p = 0, or with no edges, the result is `g`
    itself, and at p = 1 it is `g` without edges. When every drawn edge is
    kept the result is also `g` itself.
    """
    _check_probability(p)
    if p == 0 or g.num_edges == 0:
        return g
    if p == 1:
        return g._keep_edges(np.zeros(g.num_edges, dtype=bool))
    num_edges = g.num_edges
    keep = np.fromiter(starmap(rng.random, repeat((), num_edges)), np.float64, num_edges) >= p
    return g if keep.all() else g._keep_edges(keep)
