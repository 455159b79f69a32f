"""Signature matrices (degree and Ricci modes), assignment, and scoring.

Both alignment flavors share one shape: an N x m matrix whose row for node v
lists a feature of v's neighbors in ascending order, zero-padded on the
right, with m the common maximum degree of the graph pair. Degree mode (DMC)
uses neighbor degrees; Ricci mode (RMC) swaps in the neighbors' Forman-Ricci
node curvatures, which are exact integers. Row v belongs to node v; rows
are compared by Euclidean distance and matched with an exact minimum-cost
assignment solver. When both graphs have the same multiset of rows (G2 an
unchanged or relabelled copy of G1), `align()` reads a zero-cost optimum off
the rows instead, without building the cost matrix: a 64-bit row hash
proposes the pairing and the sort keys of the CSR entries check it exactly,
G1's in id order against G2's in the paired order, both over one value
range. Equal rows pair in ascending id order unless two different rows'
64-bit hashes collide; the total never depends on the hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, GraphError, _integers
from .curvature import _row_sums, node_curvature_array


# The paper's method names (the `rmc` flags and the PPI config's `mode`) and
# the signature mode each one aligns with.
MODES = {"rmc": "ricci", "dmc": "degree"}


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


def _value_range(*pairs) -> tuple[int, int]:
    """(low, span) with every feature value that a CSR entry of a (graph,
    features) pair reads in [low, low + span); (0, 1) when none is read."""
    live = np.concatenate([np.asarray(f, dtype=np.int64)[g.degrees > 0] for g, f in pairs])
    if not live.size:
        return 0, 1
    low = int(live.min())
    return low, int(live.max()) - low + 1


def _sorted_keys(g: Graph, features, low: int, span: int, rows=None) -> np.ndarray:
    """g's CSR entries as sorted keys place * span + (value - low), place
    being the owner's position in `rows`, a permutation of g's nodes (default
    the identity), so the runs come as if gathered at ``g._row_slots(rows)[0]``.
    Every value read must lie in [low, low + span). Keys are below n * span:
    int32 when that is below 2^31, else int64."""
    n, deg = g.num_nodes, g.degrees
    if n * span >= 2 ** 63:
        raise GraphError("signature features span too wide a range for int64 sort keys")
    dtype = np.int32 if n * span < 2 ** 31 else np.int64
    step = np.arange(n, dtype=dtype) * span
    place = np.empty_like(step)
    place[np.arange(n) if rows is None else rows] = step
    # value - low in int64, then narrowed; isolated nodes' features are not read
    shifted = np.zeros(n, dtype=dtype)
    live = deg > 0
    shifted[live] = np.asarray(features, dtype=np.int64)[live] - low
    keys = np.repeat(place, deg)
    keys += shifted[g.indices]
    keys.sort()
    return keys


def _fill_rows(g: Graph, m: int, keys: np.ndarray, low: int, span: int) -> np.ndarray:
    """The n x m int64 rows of g's sorted values, zero-padded on the right,
    from its own-order `_sorted_keys` (`rows=None`) built with low and span."""
    n, deg = g.num_nodes, g.degrees
    vals = np.subtract(keys, np.repeat(np.arange(n) * span, deg), dtype=np.int64)
    vals += low
    # CSR entry i goes to slot i - indptr[owner] of its owner's row
    flat = np.arange(len(vals)) + np.repeat(np.arange(n) * m - g.indptr[:-1], deg)
    rows = np.zeros((n, m), dtype=np.int64)
    rows.reshape(-1)[flat] = vals
    return rows


def _signature_rows(g: Graph, m: int, features) -> np.ndarray:
    if m < g.max_degree():
        raise GraphError(f"width {m} is below the maximum degree {g.max_degree()}")
    low, span = _value_range((g, features))
    return _fill_rows(g, m, _sorted_keys(g, features, low, span), low, span)


def degree_matrix(g: Graph, m: int) -> SignatureMatrix:
    """Rows of sorted neighbor degrees, zero-padded to width m."""
    return SignatureMatrix(rows=_signature_rows(g, m, g.degrees), mode="degree")


def ricci_matrix(g: Graph, m: int) -> SignatureMatrix:
    """Rows of sorted neighbor node curvatures, zero-padded to width m.

    Same dimensions as the degree matrix: a row still has deg(v) feature
    slots, they just hold curvatures.
    """
    return SignatureMatrix(rows=_signature_rows(g, m, node_curvature_array(g)), mode="ricci")


def cost_matrix(m1: SignatureMatrix, m2: SignatureMatrix) -> np.ndarray:
    """Pairwise Euclidean distances between rows of two signature matrices.

    Squared distances are exact integers, so an entry is exactly 0.0 iff the
    two rows are equal. The squared distance |a - b|^2 is the dot product of
    the augmented rows [|a|^2, 1, -2a] and [1, |b|^2, b], so one matrix
    product gives them all. With S the largest row sum of squares, every
    partial sum of that product is an integer of magnitude at most 4S
    (Cauchy-Schwarz). The product runs in float64 (BLAS) when 4S < 2^53 and
    in int64 when 4S < 2^63; beyond that the matrix is rejected rather than
    wrapped. Rows that are not integers raise GraphError. The float64
    product is written straight into the result, the one n1 x n2 array
    built; the int64 product, which no sampled workload reaches, passes
    through one n1 x n2 int64 temporary on its way into it.
    """
    a, b = _integers(m1.rows, (-1, -1)), _integers(m2.rows, (-1, -1))
    if m1.width != m2.width:
        raise GraphError(f"signature widths differ: {m1.width} vs {m2.width}")
    if m1.mode != m2.mode:
        raise GraphError(f"signature modes differ: {m1.mode} vs {m2.mode}")
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
    # an int64 product is converted to float64 here, each entry rounded once
    out = np.matmul(lhs, rhs, out=np.empty((n1, n2)))
    return np.sqrt(out, out=out)


def hungarian(cost) -> Assignment:
    """Exact minimum-cost perfect assignment on a square cost matrix.

    Solved by scipy's `linear_sum_assignment`, a shortest-augmenting-path
    method (Crouse, IEEE TAES 2016). It is deterministic for a given
    matrix; which of several equal-cost optima it returns is scipy's
    choice. Requires finite nonnegative entries. `row_costs` lists the
    chosen entries by row, and `total_cost` is their correctly rounded sum
    (`math.fsum`), which does not depend on the order of rows or columns.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise GraphError(f"cost matrix must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise GraphError("cost matrix contains non-finite entries")
    if c.size and c.min() < 0:
        raise GraphError("cost matrix contains negative entries")
    return _solve(c)


def _solve(c: np.ndarray) -> Assignment:
    """`hungarian` without its checks, for `cost_matrix`'s output: square,
    float64, and square roots of exact nonnegative integers."""
    # imported here: scipy.optimize more than triples `import riccialign`
    from scipy.optimize import linear_sum_assignment

    _, cols = linear_sum_assignment(c)  # rows come back as 0..n-1
    row_costs = c[np.arange(c.shape[0]), cols].tolist()
    return Assignment(mapping=dict(enumerate(cols.tolist())), total_cost=math.fsum(row_costs),
                      row_costs=tuple(row_costs))


def _zero_cost(dst: np.ndarray) -> Assignment:
    return Assignment(mapping=dict(enumerate(dst.tolist())), total_cost=0.0,
                      row_costs=(0.0,) * len(dst))


def _mix(values: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of int64 values, in uint64; it maps 0 to 0."""
    z = np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_pairing(g1: Graph, f1: np.ndarray, g2: Graph, f2: np.ndarray) -> np.ndarray | None:
    """g1 -> g2 node ids pairing rows in stable row-hash order, or None when
    the row multisets differ for certain.

    Row v's hash is the uint64 sum of `_mix` over its values. `_mix(0)` is 0,
    so a zero value adds what the zero padding adds, nothing: equal rows hash
    equally, and unequal sorted hash lists prove unequal row multisets. Equal
    lists prove nothing; the caller checks the pairing.
    """
    # equal row multisets have equal sums of deg * f (mod 2^64): a cheap early no
    if np.dot(g1.degrees, f1) != np.dot(g2.degrees, f2):
        return None
    h1, h2 = _row_sums(g1, _mix(f1)[g1.indices]), _row_sums(g2, _mix(f2)[g2.indices])
    o1, o2 = np.argsort(h1, kind="stable"), np.argsort(h2, kind="stable")
    if not np.array_equal(h1[o1], h2[o2]):
        return None
    dst = np.empty(len(o1), dtype=np.int64)
    dst[o1] = o2
    return dst


def align(g1: Graph, g2: Graph, mode: str = "ricci") -> Assignment:
    """Full alignment: a minimum-cost assignment of g1's signature rows to g2's.

    The graphs must have the same node count; the returned mapping sends
    g1 node ids to g2 node ids. When the two row sets are the same multiset
    the optimum (cost exactly 0.0) pairs the ids of equal rows in ascending
    order, so `align(g, g)` is the identity. Otherwise it is
    `hungarian(cost_matrix(sig1, sig2))` on both signature matrices at the
    common maximum degree, mapping and total bit for bit.

    The equal-multiset test reads the CSR entries, not dense rows: a row hash
    proposes the pairing, which stands if g1's sorted keys equal g2's keyed
    by the paired place, both over the value range of the two graphs; hash
    groups keep ascending ids, so it is then the ascending-id pairing. Only
    when it fails are the width m, g2's own-order keys and the dense rows
    built; the pairing then stands if each dense row equals its image's, as
    for rows equal only once zero-padded (a K2 node's Ricci [0] and an
    isolated node's). Equal rows pair in ascending id order unless two
    different rows' 64-bit hashes collide; the total never depends on the hash.
    """
    if g1.num_nodes != g2.num_nodes:
        raise GraphError(
            f"graphs must have equal node counts, got {g1.num_nodes} and {g2.num_nodes}")
    if mode not in ("degree", "ricci"):
        raise GraphError(f"mode must be 'degree' or 'ricci', got {mode!r}")
    f1, f2 = (g1.degrees, g2.degrees) if mode == "degree" else \
        (node_curvature_array(g1), node_curvature_array(g2))
    low, span = _value_range((g1, f1), (g2, f2))
    keys1, dst = _sorted_keys(g1, f1, low, span), _hash_pairing(g1, f1, g2, f2)
    if dst is not None and np.array_equal(keys1, _sorted_keys(g2, f2, low, span, rows=dst)):
        return _zero_cost(dst)
    m = common_max_degree(g1, g2)
    sig1 = SignatureMatrix(rows=_fill_rows(g1, m, keys1, low, span), mode=mode)
    sig2 = SignatureMatrix(rows=_fill_rows(g2, m, _sorted_keys(g2, f2, low, span), low, span),
                           mode=mode)
    if dst is not None and np.array_equal(sig1.rows, sig2.rows[dst]):
        return _zero_cost(dst)
    return _solve(cost_matrix(sig1, sig2))


def score_alignment(a: Assignment) -> tuple[int, float]:
    """Count of fixed points (node mapped to its own id) and the percentage."""
    correct = sum(1 for src, dst in a.mapping.items() if src == dst)
    if not a.mapping:
        return 0, 0.0
    return correct, 100.0 * correct / len(a.mapping)
