"""Undirected graphs with dense integer node ids, plus file ingestion.

Graphs are immutable after construction: node ids are always the dense range
0..N-1, and a graph holds only its structure, as read-only numpy arrays in
compressed sparse row (CSR) form: node v's neighbors are
``indices[indptr[v]:indptr[v + 1]]`` in ascending order. ``edge_array``,
every edge once as a canonical (min, max) row, sorted lexicographically, is
the CSR entries with row < col, built on every read: the pipeline's walks,
subgraphs and curvatures read only the CSR arrays. The arrays are built with
numpy sorts rather than per-edge Python objects, so every layer can work on
them vectorised, and a fixed edge order keeps every downstream matrix row
order reproducible.

Only the checked constructor sorts. Graphs derived from a valid Graph
(``induced_subgraph``, the edges kept by ``delete_edges_randomly``,
``line_graph``) skip its checks: each is a gather or a mask of its parent's
CSR slots, which keeps their order, so their rows come out finished.

``load_graphml`` reads GraphML in one ``xml.parsers.expat`` pass that builds
no element tree.
"""

from __future__ import annotations

import operator
from itertools import chain
from pathlib import Path
from xml.parsers import expat

import numpy as np


class GraphError(ValueError):
    """Bad input: unknown node id, self-loop, missing edge, non-positive value, ..."""


class GraphMLError(GraphError):
    """The file is not a readable undirected GraphML document."""


class DirectedGraphError(GraphMLError):
    """The GraphML document declares directed edges."""


def _integer(value, name: str, low: int | None = None) -> int:
    """A Python or numpy integer (not a bool) as a Python int, with no numpy
    round trip to wrap it; anything else, or one below `low`, raises
    GraphError naming `name`."""
    if isinstance(value, (bool, np.bool_)):
        raise GraphError(f"{name}: expected integers, not bools")
    try:
        value = operator.index(value)
    except TypeError:
        raise GraphError(f"{name}: expected integers, got {value!r}") from None
    if low is not None and value < low:
        raise GraphError(f"{name} must be >= {low}, got {value}")
    return value


def _integers(values, shape: tuple) -> np.ndarray:
    """`values` as an int64 array of the given shape (-1: any length), for
    arrays and sequences only; scalars go through `_integer`.

    Python and numpy integers are accepted, each checked by value: one
    outside int64 raises GraphError naming it. Bools, floats, strings, None,
    ragged nesting and any other shape raise GraphError too.
    """
    arr = values
    if not isinstance(values, np.ndarray):
        try:
            if not isinstance(values, (list, tuple)):
                values = list(values)  # sets, ranges, dict views, generators
            arr = np.array(values)
        except (ValueError, TypeError) as exc:
            raise GraphError(f"expected integers: {exc}") from exc
        # numpy reads a bool next to an integer as 0 or 1, and an integer
        # outside int64 next to others as a float, so look for them here
        leaves = [values]
        for _ in range(arr.ndim):
            leaves = chain.from_iterable(leaves)
        if arr.dtype.kind in "iu":
            if not {bool, np.bool_}.isdisjoint(map(type, leaves)):
                raise GraphError("expected integers, not bools")
        else:
            for v in leaves:
                if isinstance(v, (int, np.integer)) and not -2**63 <= v < 2**63:
                    raise GraphError(f"integer {v} does not fit in int64")
    if arr.shape == (0,):  # an empty sequence, whose dtype numpy cannot know
        arr = np.empty((0,) + shape[1:], dtype=np.int64)
    if arr.ndim != len(shape) or any(k not in (-1, m) for k, m in zip(shape, arr.shape)):
        raise GraphError(f"expected integers of shape {shape}, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise GraphError(f"expected integers, got dtype {arr.dtype}")
    if arr.dtype == np.uint64 and arr.size and arr.max() >= 2**63:  # would wrap negative
        raise GraphError(f"integer {arr.max()} does not fit in int64")
    return arr.astype(np.int64, copy=False)


class Graph:
    """Immutable undirected graph on nodes 0..N-1, stored as CSR arrays.

    Parameters
    ----------
    num_nodes:
        Node count N, a Python or numpy integer (not a bool) below 2**63 that
        numpy accepts as an array size;
        nodes are exactly 0..N-1.
    edges:
        Iterable of id pairs, or an (E, 2) integer array. Pairs are
        canonicalized and deduplicated; self-loops, out-of-range endpoints
        and anything that is not a pair of integers raise GraphError.

    Attributes
    ----------
    indptr, indices:
        CSR arrays: the neighbors of v, ascending, are
        ``indices[indptr[v]:indptr[v + 1]]``. ``indptr`` is int64; so is
        ``indices``, but for a line graph's int32 ids (see ``line_graph``)
        and the edges kept from one. ``induced_subgraph`` always gives
        int64, and ``==`` and ``hash`` compare values, not dtypes.
    edge_array:
        int64 (E, 2) array of canonical (min, max) edges in lexicographic
        order, built from the CSR arrays on every read: the one edge form.
        ``edges`` iterates the same pairs once as Python ints; it is not a
        sequence, so ``tuple(g.edges)`` builds the tuple.
    """

    __slots__ = ("num_nodes", "indptr", "indices")

    def __init__(self, num_nodes, edges):
        n = self.num_nodes = _integer(num_nodes, "num_nodes")
        if n < 0:
            raise GraphError(f"negative node count {n}")
        if n >= 2**63:
            raise GraphError(f"node count {n} does not fit in int64")

        arr = _integers(edges, (-1, 2))
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        loops = lo == hi
        if loops.any():
            raise GraphError(f"self-loop at node {lo[loops.argmax()]}")
        self.node_ids(arr.ravel())

        # both directions as row-major keys row * N + col; one sort gives the
        # CSR order, and dropping repeats removes duplicate edges
        keys = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        rows, cols = np.divmod(keys, n)
        try:
            indptr = np.zeros(n + 1, dtype=np.int64)
        except ValueError:  # numpy refuses the size before it allocates
            raise GraphError(f"node count {n} is too large for an array") from None
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self._set_csr(n, indptr, cols)

    def _set_csr(self, n: int, indptr, indices) -> "Graph":
        """Set and freeze every field from finished CSR arrays, unchecked:
        an int64 ``indptr``, and ``indices`` in int64, or int32 for a line
        graph's ids and the edges kept from one."""
        self.num_nodes = n
        self.indptr, self.indices = indptr, indices
        indptr.flags.writeable = indices.flags.writeable = False
        return self

    # -- basic accessors ---------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(self.num_nodes)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def edge_array(self) -> np.ndarray:
        """The CSR entries with row < col, as (row, col) rows: CSR order is
        lexicographic. A new read-only array on every read."""
        rows, forward = self._edge_slots()
        edge_array = np.column_stack((rows[forward], self.indices[forward]))
        edge_array.flags.writeable = False
        return edge_array

    @property
    def edges(self) -> zip:
        """A new one-pass iterator of the `edge_array` rows as (u, v) pairs of
        Python ints, through one list of the node ids: one int object per node,
        not per endpoint. It has no length, indexing, ``in`` or equality; write
        ``tuple(g.edges)`` or ``g.edge_array.tolist()``. Kept for the
        benchmark's relabel loop only."""
        rows, forward = self._edge_slots()
        node = list(range(self.num_nodes)).__getitem__
        cols = self.indices[forward]
        return zip(map(node, memoryview(rows[forward])), map(node, memoryview(cols)))

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by node id."""
        return np.diff(self.indptr)

    def node_ids(self, values) -> np.ndarray:
        """A sequence of node ids as an int64 array.

        Every entry must be an integer (not a bool) in 0..N-1; anything else
        raises GraphError.
        """
        ids = _integers(values, (-1,))
        if ids.size and not (ids.min() >= 0 and ids.max() < self.num_nodes):
            bad = ids.min() if ids.min() < 0 else ids.max()
            raise GraphError(f"unknown node id {bad} (graph has {self.num_nodes} nodes)")
        return ids

    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    # -- structure ---------------------------------------------------------

    def _edge_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The row of every CSR slot, and the mask of the forward slots, those
        with row < col: CSR order is lexicographic, so edge i is the i-th
        forward slot. `_slot_edges` numbers every slot by this rule."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees)
        return rows, rows < self.indices

    def _slot_edges(self) -> np.ndarray:
        """The int64 edge id of every CSR slot: edge i is the i-th forward slot,
        and a backward slot (r, c) holds edge (c, r). Backward slots come in row
        order, so a stable sort of their columns alone puts them in edge order."""
        forward = self._edge_slots()[1]
        back = np.flatnonzero(~forward)
        cols = self.indices[back].astype(np.int16 if self.num_nodes <= 2**15 else np.int64)
        order = np.arange(len(back))
        ids = np.empty(len(self.indices), dtype=np.int64)
        ids[forward] = order
        ids[back[np.argsort(cols, kind="stable")]] = order  # int16: a radix sort
        return ids

    def _row_slots(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in `indices` of the given rows' entries, row by row, and
        the end of each row's run among them."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        ends = np.cumsum(lengths)
        slots = np.repeat(starts - ends + lengths, lengths)
        slots += np.arange(len(slots))  # in place: two entry-sized arrays at most
        return slots, ends

    def induced_subgraph(self, keep) -> "Graph":
        """Subgraph on `keep` with all internal edges, relabeled to 0..k-1.

        Kept nodes are relabeled in ascending parent-id order: new node i is
        the i-th smallest distinct id of `keep`.
        """
        kept = np.sort(self.node_ids(keep))
        kept = kept[np.diff(kept, prepend=-1) != 0]
        new_id = np.full(self.num_nodes, -1, dtype=np.int64)
        new_id[kept] = np.arange(len(kept))
        # only the kept nodes' rows are read, not every parent edge; an entry
        # whose neighbour is not kept gets -1
        slots, ends = self._row_slots(kept)
        # the ids go back into the slots' int64 buffer, so that a line graph's
        # int32 ids are looked up by an int64 index (an int32 one gathers about
        # 3x slower) and the subgraph is int64; two entry-sized arrays at most
        slots[...] = self.indices[slots]
        dst = new_id[slots]
        del slots
        # new ids keep the parent order, so the kept entries are in CSR order;
        # on such scattered masks, indices gather faster than a boolean mask
        inside = np.flatnonzero(dst >= 0)
        # indptr[i + 1] counts the kept entries before the end of gathered row i
        indptr = np.zeros(len(kept) + 1, dtype=np.int64)
        indptr[1:] = np.searchsorted(inside, ends)
        return Graph.__new__(Graph)._set_csr(len(kept), indptr, dst[inside])

    def _keep_edges(self, keep: np.ndarray) -> "Graph":
        """Same nodes, only the edges where the boolean `keep` is set: a mask of
        the CSR slots by edge id, so each row keeps its slots' order, and row
        v ends at the count of kept slots before the parent's row v ends."""
        kept = keep[self._slot_edges()]
        indptr = np.concatenate(([0], np.cumsum(kept, dtype=np.int64)))[self.indptr]
        return Graph.__new__(Graph)._set_csr(self.num_nodes, indptr, self.indices[kept])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # equal CSR arrays are equal edge lists, and build no edge list
        return (self.num_nodes == other.num_nodes
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        # hashed as int64, so that equal graphs hash alike whatever their id dtype
        return hash((self.num_nodes, self.indices.astype(np.int64, copy=False).tobytes()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def from_edge_list(pairs, n: int | None = None) -> Graph:
    """Build a graph from id pairs, inferring N = max id + 1 unless given.

    Passing `n` larger than any referenced id adds isolated nodes.
    """
    pairs = _integers(pairs, (-1, 2))
    max_ref = int(pairs.max()) if pairs.size else -1
    n = max_ref + 1 if n is None else _integer(n, "n")
    if 0 <= n <= max_ref:  # a negative n is the constructor's error
        raise GraphError(f"n={n} is smaller than max referenced id {max_ref}")
    return Graph(n, pairs)


# -- GraphML ingestion (read-only, undirected subset) -----------------------

def load_graphml(path) -> Graph:
    """Read an undirected GraphML file.

    One ``xml.parsers.expat`` pass over the file's bytes, with no element
    tree, matching names by local name (any namespace, or none). Only the
    first ``<graph>`` element is read: its ``edgedefault``, and inside it node
    ids and edge endpoints; nodes, nested graphs' included, are numbered
    0..N-1 in document order; a repeated node id is not an error but names
    the node its first element made. Edge endpoints are numbered during the
    pass, with no dict kept per edge; one naming a later node is resolved after it.
    After the graph closes, the rest of the document is only checked for
    well-formedness. Nothing is raised before the whole document has parsed;
    then the faults are reported in this order: malformed XML (an undefined
    entity included), no graph, a directed ``edgedefault``, a node without an
    id, and then each edge in document order, for a directed flag, then a
    missing endpoint, then an unknown id. Self-loops and duplicate edges are
    dropped. A directed declaration (``edgedefault="directed"`` or a per-edge
    ``directed="true"``) raises DirectedGraphError.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such GraphML file: {path}")
    parser = expat.ParserCreate(namespace_separator="}")  # names read "uri}local"
    names: dict = {}  # expat name -> local name, filled on first sight
    ids: dict[str, int] = {}
    ends: list = []  # two per edge: a node's number, else its raw id or None
    directed: set[int] = set()  # the document-order numbers of the directed edges
    graph_attrs = undefined = None  # the first graph's attributes; a skipped entity
    anonymous = False  # a node without an id was met
    depth = 0  # elements open inside the graph, itself included

    def before_graph(name, attrs):
        nonlocal graph_attrs, depth
        if name.rsplit("}", 1)[-1] == "graph":
            graph_attrs, depth = attrs, 1
            parser.StartElementHandler, parser.EndElementHandler = inside_graph, close

    def inside_graph(name, attrs):
        nonlocal depth, anonymous
        depth += 1
        local = names.get(name)
        if local is None:
            local = names[name] = name.rsplit("}", 1)[-1]
        if local == "node":
            raw = attrs.get("id")
            if raw is None:
                anonymous = True
            else:
                ids.setdefault(raw, len(ids))
        elif local == "edge":
            src, dst = attrs.get("source"), attrs.get("target")
            ends.extend((ids.get(src, src), ids.get(dst, dst)))
            if "directed" in attrs and attrs["directed"].lower() == "true":
                directed.add(len(ends) // 2 - 1)

    def close(name):
        nonlocal depth
        depth -= 1
        if not depth:  # the graph closed: the rest needs no Python callbacks
            parser.StartElementHandler = parser.EndElementHandler = None

    def skipped(name, is_parameter_entity):
        # expat skips an undeclared entity in content when a DTD it has not
        # read could declare it; the content cannot be read without it
        nonlocal undefined
        if undefined is None and not is_parameter_entity:
            undefined = name

    parser.StartElementHandler = before_graph
    parser.SkippedEntityHandler = skipped
    try:
        parser.Parse(path.read_bytes(), True)
    except expat.ExpatError as exc:
        raise GraphMLError(f"malformed XML in {path}: {exc}") from exc
    if undefined is not None:
        raise GraphMLError(f"malformed XML in {path}: undefined entity &{undefined};")
    if graph_attrs is None:
        raise GraphMLError(f"no <graph> element in {path}")
    if graph_attrs.get("edgedefault", "undirected").lower() == "directed":
        raise DirectedGraphError(f"{path} declares edgedefault=\"directed\"")
    if anonymous:
        raise GraphMLError("node element without id attribute")

    kinds = set(map(type, ends))
    if str in kinds:  # ids of later nodes, which are numbered now
        ends = [ids.get(end, end) for end in ends]
        kinds = set(map(type, ends))
    if directed or kinds - {int}:  # some edge is at fault: find the first
        for i, pair in enumerate(zip(ends[::2], ends[1::2])):
            if i in directed:
                raise DirectedGraphError(f"{path} contains a directed edge")
            if None in pair:
                raise GraphMLError("edge element without source/target")
            if str in map(type, pair):
                src, dst = (list(ids)[end] if type(end) is int else end for end in pair)
                raise GraphMLError(f"edge references unknown node id {src!r} or {dst!r}")
    arr = np.array(ends, dtype=np.int64).reshape(-1, 2)
    return Graph(len(ids), arr[arr[:, 0] != arr[:, 1]])  # self-loops skipped


# -- plain edge-list text format --------------------------------------------

def _edge_list_int(token: str, path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"{path}:{lineno}: expected an integer, got {token!r}") from None


def read_edge_list(path) -> Graph:
    """Read the `u v` per-line format, with `#` comments and optional `n=<N>`;
    a second `n=` line raises GraphError naming the file and line."""
    path = Path(path)
    n = None
    pairs = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("n="):
                if n is not None:
                    raise GraphError(f"{path}:{lineno}: a second 'n=' header, after n={n}")
                n = _edge_list_int(line[2:], path, lineno)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            pairs.append(tuple(_edge_list_int(t, path, lineno) for t in parts))
    return from_edge_list(pairs, n=n)

