"""Undirected graphs with dense integer node ids, plus file ingestion.

Graphs are immutable after construction: node ids are always the dense range
0..N-1, and optional positive node/edge weights default to 1. The structure
is stored as read-only numpy arrays in compressed sparse row (CSR) form:
node v's neighbors are ``indices[indptr[v]:indptr[v + 1]]`` in ascending
order, and ``edge_array`` holds every edge once as a canonical (min, max)
row, sorted lexicographically. The arrays are built with numpy sorts rather
than per-edge Python objects, so every layer can work on them vectorised,
and a fixed edge order keeps every downstream matrix row order reproducible.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np


class GraphError(ValueError):
    """Structural violation: bad node id, self-loop, nonpositive weight, ..."""


class GraphMLError(GraphError):
    """The file is not a readable undirected GraphML document."""


class DirectedGraphError(GraphMLError):
    """The GraphML document declares directed edges."""


def canonical_pair(u: int, v: int) -> tuple[int, int]:
    """Return the (min, max) form of an edge; self-loops are rejected."""
    if u == v:
        raise GraphError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


def _edge_rows(edges) -> np.ndarray:
    """Edges as an (E, 2) integer array; malformed pairs raise GraphError.

    Every edge must be a pair of integer ids: numpy integers and Python ints
    are accepted, bools, floats, strings and other arities are not.
    """
    pairs = None
    if isinstance(edges, np.ndarray):
        arr = edges
    else:
        pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        try:
            arr = np.array(pairs)
        except (ValueError, TypeError) as exc:
            raise GraphError(f"edges must be pairs of node ids: {exc}") from exc
    if arr.size == 0 and arr.ndim < 2:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edges must be pairs of node ids, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise GraphError(f"edge endpoints must be integers, got dtype {arr.dtype}")
    # numpy turns a bool next to an int into 0 or 1, so look for them here
    if pairs is not None and any(isinstance(x, (bool, np.bool_))
                                 for pair in pairs for x in pair):
        raise GraphError("edge endpoints must be integers, not bools")
    return arr


class Graph:
    """Immutable undirected graph on nodes 0..N-1, stored as CSR arrays.

    Parameters
    ----------
    num_nodes:
        Node count N, a Python or numpy integer (not a bool); nodes are
        exactly 0..N-1.
    edges:
        Iterable of id pairs, or an (E, 2) integer array. Pairs are
        canonicalized and deduplicated; self-loops, out-of-range endpoints
        and anything that is not a pair of integers raise GraphError.
    node_weights, edge_weights:
        Optional strictly positive weights. Absent means unweighted
        (equivalently: all weights 1).
    original_labels:
        Optional map id -> string recording where a node came from
        (GraphML id, parent-graph id, originating edge, ...).

    Attributes
    ----------
    indptr, indices:
        int64 CSR arrays: the neighbors of v, ascending, are
        ``indices[indptr[v]:indptr[v + 1]]``.
    edge_array:
        int64 (E, 2) array of canonical (min, max) edges in lexicographic
        order; ``edges`` is the same as a tuple of pairs.
    """

    __slots__ = ("num_nodes", "indptr", "indices", "edge_array", "node_weights",
                 "edge_weights", "original_labels", "_edges")

    def __init__(self, num_nodes, edges, node_weights=None, edge_weights=None,
                 original_labels=None):
        if isinstance(num_nodes, bool) or not isinstance(num_nodes, (int, np.integer)):
            raise GraphError(f"node count must be an integer, got {num_nodes!r}")
        if num_nodes < 0:
            raise GraphError(f"negative node count {num_nodes}")
        n = self.num_nodes = int(num_nodes)

        arr = _edge_rows(edges)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        loops = lo == hi
        if loops.any():
            raise GraphError(f"self-loop at node {lo[loops.argmax()]}")
        bad = (lo < 0) | (hi >= n)
        if bad.any():
            pair = (int(lo[bad.argmax()]), int(hi[bad.argmax()]))
            raise GraphError(f"edge {pair} has an endpoint outside 0..{n - 1}")
        lo, hi = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)

        # both directions as row-major keys row * N + col; one sort gives the
        # CSR order, and dropping repeats removes duplicate edges
        keys = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        rows, cols = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        forward = rows < cols
        self.indptr = indptr
        self.indices = cols
        self.edge_array = np.column_stack((rows[forward], cols[forward]))
        for a in (self.indptr, self.indices, self.edge_array):
            a.flags.writeable = False
        self._edges = None

        if node_weights is not None:
            node_weights = {int(v): float(w) for v, w in node_weights.items()}
            for v, w in node_weights.items():
                self._require_node(v)
                if w <= 0:
                    raise GraphError(f"nonpositive weight {w} on node {v}")
        if edge_weights is not None:
            edge_weights = {canonical_pair(*e): float(w) for e, w in edge_weights.items()}
            for e, w in edge_weights.items():
                if not self.has_edge(*e):
                    raise GraphError(f"weight given for missing edge {e}")
                if w <= 0:
                    raise GraphError(f"nonpositive weight {w} on edge {e}")
        self.node_weights = node_weights
        self.edge_weights = edge_weights
        self.original_labels = dict(original_labels) if original_labels else None

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(self.num_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical (min, max) edges in lexicographic order, as Python ints."""
        if self._edges is None:
            self._edges = tuple(map(tuple, self.edge_array.tolist()))
        return self._edges

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by node id."""
        return np.diff(self.indptr)

    def _require_node(self, v: int) -> None:
        if not (0 <= v < self.num_nodes):
            raise GraphError(f"unknown node id {v} (graph has {self.num_nodes} nodes)")

    def degree(self, v: int) -> int:
        """Number of incident edges of v."""
        self._require_node(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Adjacent node ids in ascending order."""
        self._require_node(v)
        return tuple(self.indices[self.indptr[v]:self.indptr[v + 1]].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = lo + np.searchsorted(self.indices[lo:hi], v)
        return bool(i < hi and self.indices[i] == v)

    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    # -- weights -----------------------------------------------------------

    @property
    def is_unweighted(self) -> bool:
        """True when every node and edge weight is (implicitly) 1."""
        if self.node_weights and any(w != 1.0 for w in self.node_weights.values()):
            return False
        if self.edge_weights and any(w != 1.0 for w in self.edge_weights.values()):
            return False
        return True

    # -- structure ---------------------------------------------------------

    def _row_slots(self, rows: np.ndarray) -> np.ndarray:
        """Positions in `indices` of the given rows' entries, row by row."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)

    def is_connected(self) -> bool:
        """True iff the graph has a single connected component (N >= 1)."""
        if self.num_nodes == 0:
            raise GraphError("connectivity is undefined for the empty graph")
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            reached = self.indices[self._row_slots(frontier)]
            frontier = np.unique(reached[~seen[reached]])
            seen[frontier] = True
        return bool(seen.all())

    def induced_subgraph(self, keep) -> "Graph":
        """Subgraph on `keep` with all internal edges, relabeled to 0..k-1.

        Kept nodes are relabeled in ascending parent-id order; each new node's
        original_labels entry records the parent label (or the parent id when
        the parent graph is unlabeled).
        """
        keep = sorted(set(keep))
        for v in keep:
            self._require_node(v)
        kept = np.array(keep, dtype=np.int64)
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[kept] = np.arange(len(kept))
        # only the kept nodes' rows are read, not every parent edge
        slots = self._row_slots(kept)
        src = np.repeat(np.arange(len(kept)), self.indptr[kept + 1] - self.indptr[kept])
        dst = new_id[self.indices[slots]]
        inside = src < dst
        sub_edges = np.column_stack((src[inside], dst[inside]))

        parent = self.original_labels or {}
        labels = {i: parent[v] if v in parent else str(v) for i, v in enumerate(keep)}
        index = {v: i for i, v in enumerate(keep)}
        node_w = None
        if self.node_weights is not None:
            node_w = {index[v]: w for v, w in self.node_weights.items() if v in index}
        edge_w = None
        if self.edge_weights is not None:
            edge_w = {(index[u], index[v]): w for (u, v), w in self.edge_weights.items()
                      if u in index and v in index}
        return Graph(len(keep), sub_edges, node_weights=node_w,
                     edge_weights=edge_w, original_labels=labels)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and np.array_equal(self.edge_array, other.edge_array)
                and self.node_weights == other.node_weights
                and self.edge_weights == other.edge_weights)

    def __hash__(self):
        return hash((self.num_nodes, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def from_edge_list(pairs, n: int | None = None) -> Graph:
    """Build a graph from id pairs, inferring N = max id + 1 unless given.

    Passing `n` larger than any referenced id adds isolated nodes.
    """
    pairs = _edge_rows(pairs)
    max_ref = int(pairs.max()) if pairs.size else -1
    if n is None:
        n = max_ref + 1
    elif n < max_ref + 1:
        raise GraphError(f"n={n} is smaller than max referenced id {max_ref}")
    return Graph(n, pairs)


# -- GraphML ingestion (read-only, undirected subset) -----------------------

def _local_name(tag) -> str:
    return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""


def load_graphml(path) -> Graph:
    """Read an undirected GraphML file.

    Nodes are relabeled to 0..N-1 in document order; the original string ids
    are kept in ``original_labels``. Only node ids and edge endpoints are
    read; other attributes are ignored. Self-loops and duplicate edges in the
    file are dropped. A directed edge declaration (``edgedefault="directed"``
    or a per-edge ``directed="true"``) raises DirectedGraphError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such GraphML file: {path}")
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise GraphMLError(f"malformed XML in {path}: {exc}") from exc

    graph_el = None
    for el in root.iter():
        if _local_name(el.tag) == "graph":
            graph_el = el
            break
    if graph_el is None:
        raise GraphMLError(f"no <graph> element in {path}")
    if graph_el.get("edgedefault", "undirected").lower() == "directed":
        raise DirectedGraphError(f"{path} declares edgedefault=\"directed\"")

    ids: dict[str, int] = {}
    for el in graph_el.iter():
        if _local_name(el.tag) == "node":
            raw = el.get("id")
            if raw is None:
                raise GraphMLError("node element without id attribute")
            if raw not in ids:
                ids[raw] = len(ids)

    edges: list[tuple[int, int]] = []
    for el in graph_el.iter():
        if _local_name(el.tag) != "edge":
            continue
        if el.get("directed", "false").lower() == "true":
            raise DirectedGraphError(f"{path} contains a directed edge")
        src, dst = el.get("source"), el.get("target")
        if src is None or dst is None:
            raise GraphMLError("edge element without source/target")
        if src not in ids or dst not in ids:
            raise GraphMLError(f"edge references unknown node id {src!r} or {dst!r}")
        if src == dst:
            continue
        edges.append((ids[src], ids[dst]))

    labels = {i: raw for raw, i in ids.items()}
    return Graph(len(ids), edges, original_labels=labels)


# -- plain edge-list text format --------------------------------------------

def _edge_list_int(token: str, path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"{path}:{lineno}: expected an integer, got {token!r}") from None


def read_edge_list(path) -> Graph:
    """Read the `u v` per-line format, with `#` comments and optional `n=<N>`."""
    path = Path(path)
    n = None
    pairs = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("n="):
                n = _edge_list_int(line[2:], path, lineno)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            pairs.append(tuple(_edge_list_int(t, path, lineno) for t in parts))
    return from_edge_list(pairs, n=n)


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list text format, with an `n=` header."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"n={g.num_nodes}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
