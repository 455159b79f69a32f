"""Random-walk subgraph extraction and random edge deletion.

All randomness flows through an explicit RngHandle; nothing touches global
RNG state, so a seed fully determines every sample and each experiment round
can own an independent handle. The walk replays ``random.Random.choice``
inline, one bounded ``getrandbits`` draw at a time, and the edge deletion
draws all its uniforms in one numpy call from the handle's own Mersenne
Twister state; both give the draws, and leave the handle's state, of the
per-call ``random.Random`` methods they replace.
"""

from __future__ import annotations

import numbers
import random
import threading

import numpy as np

from .graph import Graph, GraphError, _integer

_thread = threading.local()  # one numpy Mersenne Twister per thread, for the deletion
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


def _below(getrandbits, n: int) -> int:
    """The index ``random.Random.choice`` draws from n > 0 items, from the same bits.

    On CPython 3.10-3.13 ``choice(seq)`` is ``seq[_randbelow(len(seq))]``, and
    ``_randbelow(n)`` draws ``getrandbits(n.bit_length())`` until the result
    is below n. This is that loop; binding ``rng._randbelow`` instead made
    walks of 500 and 2000 nodes about 20% slower. The tests compare walks
    with ``choice`` itself, so a CPython that draws otherwise fails them.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_walk_sample(g: Graph, size: int, rng: RngHandle) -> Graph:
    """Induced subgraph on `size` nodes collected by a random walk.

    The walk starts at a uniform random node and repeatedly moves to a
    uniform random neighbor (or a uniform random node of the whole graph
    when the current node is isolated). Steps that revisit known nodes
    count toward a stagnation counter; after ``_MAX_STAGNANT`` stagnant steps
    the walk jumps to a uniform random not-yet-collected node and collects it.
    The counter resets on progress and on jumps.

    Steps draw with ``_below`` and jumps with ``rng.choice``, the same draw, so
    the walk and the handle's end state are those of one ``choice`` per step.
    The CSR rows are read through memoryviews, which give plain ints.
    """
    size = _integer(size, "sample size", 1)
    if size > g.num_nodes:
        raise GraphError(f"sample size {size} exceeds graph size {g.num_nodes}")

    n = g.num_nodes
    indptr, indices = memoryview(g.indptr), memoryview(g.indices)  # plain-int reads
    getrandbits = rng.getrandbits
    current = _below(getrandbits, n)
    visited = {current: None}
    stagnant, max_stagnant = 0, _MAX_STAGNANT

    while len(visited) < size:
        lo = indptr[current]
        degree = indptr[current + 1] - lo
        nxt = indices[lo + _below(getrandbits, degree)] if degree else _below(getrandbits, n)
        if nxt not in visited:
            visited[nxt] = None
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= max_stagnant:
                nxt = rng.choice(sorted(set(range(n)).difference(visited)))
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

    Edge i of the canonical order is kept when the i-th uniform is >= p.
    numpy's MT19937 makes a double from two 32-bit words as CPython's
    `random()` does, so one numpy draw on the handle's own Mersenne Twister
    state gives the uniforms, and leaves the state, of one call per edge.
    When every edge is kept (always at p=0) the result is `g` itself.
    """
    _check_probability(p)
    version, internal, gauss_next = rng.getstate()
    if not hasattr(_thread, "draw"):  # seeded once: the handle's state replaces it
        _thread.draw = np.random.Generator(np.random.MT19937(0))
    key = np.array(internal[:-1], dtype=np.uint32)
    bits = _thread.draw.bit_generator
    bits.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": internal[-1]}}
    keep = _thread.draw.random(g.num_edges) >= p
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return g if keep.all() else g._keep_edges(keep)
