"""Signature matrices (degree and Ricci modes), assignment, and scoring.

Both alignment flavors share one shape: an N x m matrix whose row for node v
lists a feature of v's neighbors in ascending order, zero-padded on the
right, with m the common maximum degree of the graph pair. Degree mode (DMC)
uses neighbor degrees; Ricci mode (RMC) swaps in the neighbors' Forman-Ricci
node curvatures, which are exact integers. Row v belongs to node v; rows
are compared by Euclidean distance and matched with an exact minimum-cost
assignment solver. When both graphs have the same multiset of rows (G2 an
unchanged or relabelled copy of G1), `align()` reads a zero-cost optimum off
the sorted rows instead, without building the cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import Graph, GraphError
from .curvature import node_curvatures


# The paper's method names (the `rmc` flags and the PPI config's `mode`) and
# the signature mode each one aligns with.
MODES = {"rmc": "ricci", "dmc": "degree"}

# rows of m1 per matrix product in `cost_matrix`
_PANEL_ROWS = 128


@dataclass(frozen=True)
class SignatureMatrix:
    """Per-node feature rows of one graph.

    rows[v] belongs to node v; entries are ascending with zero padding on
    the right, so node v has exactly deg(v) feature slots. mode is "degree"
    or "ricci".
    """

    rows: np.ndarray
    mode: str

    @property
    def width(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Assignment:
    """A bijective node mapping between two graphs and its total cost.

    row_costs[v], when filled, is the cost of the pair (v, mapping[v]). It is
    left out of equality, so a hand-built Assignment without it compares by
    mapping and total.
    """

    mapping: dict
    total_cost: float
    row_costs: tuple = field(default=(), compare=False)


def common_max_degree(g1: Graph, g2: Graph) -> int:
    """Maximum degree across both graphs: the shared signature width m."""
    return max(g1.max_degree(), g2.max_degree())


def _signature_rows(g: Graph, m: int, features) -> np.ndarray:
    if m < g.max_degree():
        raise GraphError(f"width {m} is below the maximum degree {g.max_degree()}")
    deg = g.degrees
    owner = np.repeat(np.arange(g.num_nodes), deg)
    vals = np.asarray(features, dtype=np.int64)[g.indices]
    # pad with the largest value so that sorting a row leaves the node's own
    # values in its first deg(v) slots; the padding is zeroed afterwards
    rows = np.full((g.num_nodes, m), vals.max(initial=0), dtype=np.int64)
    rows[owner, np.arange(len(owner)) - g.indptr[owner]] = vals
    rows.sort(axis=1)
    rows[np.arange(m) >= deg[:, None]] = 0
    return rows


def degree_matrix(g: Graph, m: int) -> SignatureMatrix:
    """Rows of sorted neighbor degrees, zero-padded to width m."""
    return SignatureMatrix(rows=_signature_rows(g, m, g.degrees), mode="degree")


def ricci_matrix(g: Graph, m: int) -> SignatureMatrix:
    """Rows of sorted neighbor node curvatures, zero-padded to width m.

    Same dimensions as the degree matrix: a row still has deg(v) feature
    slots, they just hold curvatures.
    """
    return SignatureMatrix(rows=_signature_rows(g, m, node_curvatures(g)), mode="ricci")


def cost_matrix(m1: SignatureMatrix, m2: SignatureMatrix) -> np.ndarray:
    """Pairwise Euclidean distances between rows of two signature matrices.

    Squared distances are exact integers, so an entry is exactly 0.0 iff the
    two rows are equal. The squared distance |a - b|^2 is the dot product of
    the augmented rows [|a|^2, 1, -2a] and [1, |b|^2, b], so one matrix
    product gives them all. With S the largest row sum of squares, every
    partial sum of that product is an integer of magnitude at most 4S
    (Cauchy-Schwarz). The product runs in float64 (BLAS) when 4S < 2^53 and
    in int64 when 4S < 2^63; beyond that the matrix is rejected rather than
    wrapped. m1's rows are taken in panels sorted by the width they use (up
    to their last nonzero slot), and each panel is multiplied only that far,
    so zero padding is skipped; the result is the one n1 x n2 array built.
    """
    if m1.width != m2.width:
        raise GraphError(f"signature widths differ: {m1.width} vs {m2.width}")
    if m1.mode != m2.mode:
        raise GraphError(f"signature modes differ: {m1.mode} vs {m2.mode}")
    a, b = np.asarray(m1.rows, dtype=np.int64), np.asarray(m2.rows, dtype=np.int64)
    sa = np.square(a, dtype=np.float64).sum(axis=1)
    sb = np.square(b, dtype=np.float64).sum(axis=1)
    dtype = np.float64
    # float64 sums of squares below 2^51 are exact; above that S is recomputed exactly
    if 4 * max(sa.max(initial=0.0), sb.max(initial=0.0)) >= 2.0 ** 53:
        exact = (a.astype(object) ** 2).sum(axis=1).tolist() + \
            (b.astype(object) ** 2).sum(axis=1).tolist()
        if 4 * max(exact) >= 2 ** 63:
            raise GraphError("signature rows are too large for an exact int64 cost matrix")
        dtype = np.int64
        sa, sb = (a * a).sum(axis=1), (b * b).sum(axis=1)

    n1, n2, m = len(a), len(b), m1.width
    lhs = np.empty((n1, m + 2), dtype=dtype)
    lhs[:, 0], lhs[:, 1], lhs[:, 2:] = sa, 1, -2 * a
    rhs = np.empty((m + 2, n2), dtype=dtype)
    rhs[0], rhs[1], rhs[2:] = 1, sb, b.T
    used = 2 + np.where(a != 0, np.arange(1, m + 1), 0).max(axis=1, initial=0)
    order = np.argsort(used, kind="stable")
    out = np.empty((n1, n2))
    panel = np.empty((min(_PANEL_ROWS, n1), n2))
    for start in range(0, n1, _PANEL_ROWS):
        rows = order[start:start + _PANEL_ROWS]
        k = used[rows[-1]]
        # an int64 product is converted to float64 here, each entry rounded once
        block = np.matmul(lhs[rows, :k], rhs[:k], out=panel[:len(rows)])
        out[rows] = np.sqrt(block, out=block)
    return out


def hungarian(cost) -> Assignment:
    """Exact minimum-cost perfect assignment on a square cost matrix.

    Solved by scipy's `linear_sum_assignment`, a shortest-augmenting-path
    method (Crouse, IEEE TAES 2016). It is deterministic for a given
    matrix; which of several equal-cost optima it returns is scipy's
    choice. Requires finite nonnegative entries. `total_cost` adds the
    chosen entries one after another in ascending column order;
    `row_costs` lists them by row.
    """
    # imported here: scipy.optimize more than triples `import riccialign`
    from scipy.optimize import linear_sum_assignment

    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise GraphError(f"cost matrix must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise GraphError("cost matrix contains non-finite entries")
    if c.size and c.min() < 0:
        raise GraphError("cost matrix contains negative entries")

    n = c.shape[0]
    _, cols = linear_sum_assignment(c)  # rows come back as 0..n-1
    row_of_col = np.argsort(cols)
    total = float(np.cumsum(c[row_of_col, np.arange(n)])[-1]) if n else 0.0
    return Assignment(mapping=dict(zip(row_of_col.tolist(), range(n))), total_cost=total,
                      row_costs=tuple(c[np.arange(n), cols].tolist()))


def _equal_rows_assignment(rows1: np.ndarray, rows2: np.ndarray) -> Assignment | None:
    """The zero-cost assignment when both row sets are one multiset, else None.

    Each int64 row is viewed as one np.void key, equal exactly when the rows
    are. The k-th row of rows1 in stable key order goes to the k-th of rows2,
    so every pair costs 0.0, which no assignment undercuts.
    """
    n, m = rows1.shape
    if m == 0:  # a void view of size 0 drops the rows; empty rows are all equal
        order1 = order2 = np.arange(n)
    else:
        a = np.ascontiguousarray(rows1, dtype=np.int64)
        b = np.ascontiguousarray(rows2, dtype=np.int64)
        # equal multisets have equal sums (mod 2^64): a cheap early no
        if a.sum() != b.sum():
            return None
        key = np.dtype((np.void, 8 * m))
        order1 = np.argsort(a.view(key).ravel(), kind="stable")
        order2 = np.argsort(b.view(key).ravel(), kind="stable")
        # int64 rows compare far faster than their void keys
        if not np.array_equal(a[order1], b[order2]):
            return None
    dst = np.empty(n, dtype=np.int64)
    dst[order1] = order2
    return Assignment(mapping=dict(enumerate(dst.tolist())), total_cost=0.0,
                      row_costs=(0.0,) * n)


def align(g1: Graph, g2: Graph, mode: str = "ricci") -> Assignment:
    """Full alignment: a minimum-cost assignment of g1's signature rows to g2's.

    The graphs must have the same node count; the returned mapping sends
    g1 node ids to g2 node ids. When the two row sets are the same multiset
    the optimum (cost exactly 0.0) is read off the sorted rows, pairing ids
    of equal rows in ascending order, so `align(g, g)` is the identity.
    Otherwise it is `hungarian(cost_matrix(sig1, sig2))` on both signature
    matrices at the common maximum degree, mapping and total bit for bit.
    """
    if g1.num_nodes != g2.num_nodes:
        raise GraphError(
            f"graphs must have equal node counts, got {g1.num_nodes} and {g2.num_nodes}")
    if mode not in ("degree", "ricci"):
        raise GraphError(f"mode must be 'degree' or 'ricci', got {mode!r}")
    m = common_max_degree(g1, g2)
    build = degree_matrix if mode == "degree" else ricci_matrix
    sig1, sig2 = build(g1, m), build(g2, m)
    return _equal_rows_assignment(sig1.rows, sig2.rows) or hungarian(cost_matrix(sig1, sig2))


def score_alignment(a: Assignment) -> tuple[int, float]:
    """Count of fixed points (node mapped to its own id) and the percentage."""
    correct = sum(1 for src, dst in a.mapping.items() if src == dst)
    if not a.mapping:
        return 0, 0.0
    return correct, 100.0 * correct / len(a.mapping)


def write_assignment_csv(a: Assignment, path) -> None:
    """Write `g1_node,g2_node,row_cost` lines in g1 node order from `a.row_costs`."""
    if len(a.row_costs) != len(a.mapping):
        raise GraphError(f"assignment has {len(a.row_costs)} row costs "
                         f"for {len(a.mapping)} pairs")
    with Path(path).open("w") as fh:
        fh.write("g1_node,g2_node,row_cost\n")
        for src in sorted(a.mapping):
            fh.write(f"{src},{a.mapping[src]},{a.row_costs[src]}\n")
