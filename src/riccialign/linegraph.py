"""Line-graph transformation.

The line graph L(G) has one node per edge of G, with two nodes adjacent iff
the originating edges share an endpoint. Each original node of degree d
therefore becomes a d-clique, which is what makes line graphs useful as
denser, more surface-like stand-ins for the original network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

_CHUNK_ENTRIES = 2**16  # the most ids one chunk of line_graph gathers and sorts


@dataclass(frozen=True)
class LineGraphResult:
    """A line graph; node i of ``graph`` is row i of the parent's ``edge_array``."""

    graph: Graph


def line_graph(g: Graph) -> LineGraphResult:
    """Build L(G), whose node i is the edge ``g.edge_array[i]`` (``g.edges[i]``).

    Row e = (a, b) of L(G) merges the ids of the edges at a and at b, less e
    itself: deg(a) + deg(b) - 2 entries. The CSR arrays are written directly,
    in chunks of whole rows that gather at most ``_CHUNK_ENTRIES`` ids (or one
    longer row) and order them by one sort. Time is quadratic in the largest
    degree, which is accepted: a degree-d node emits d-choose-2 clique edges.
    Memory is the result's ``indptr`` and ``indices`` plus one chunk, with no
    constructor sort; its ``edge_array`` is only built if it is read.
    """
    n, ends = g.num_edges, g.edge_array
    slot_edge = g._slot_edges()  # ascending along each row of g
    gathered = g.degrees[ends].sum(axis=1)  # row e's ids, and e twice
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(gathered - 2, out=indptr[1:])
    reach = indptr + 2 * np.arange(n + 1)  # ids gathered before each row
    indices = np.empty(indptr[-1], dtype=np.int64)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(reach, reach[lo] + _CHUNK_ENTRIES, "right")) - 1)
        row = np.repeat(np.arange(lo, hi), gathered[lo:hi])
        ids = slot_edge[g._row_slots(ends[lo:hi].ravel())[0]]
        other = ids != row
        row, ids = row[other], ids[other]
        # one stable sort of row-major keys merges each row's two ascending runs
        ids = np.sort(row * n + ids, kind="stable") - row * n
        indices[indptr[lo]:indptr[hi]] = ids
        lo = hi
    return LineGraphResult(graph=Graph.__new__(Graph)._set_csr(n, indptr, indices))

