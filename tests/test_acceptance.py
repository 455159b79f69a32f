"""Acceptance suite: one test per headline guarantee, with a PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The pipeline criteria read the network named by RICCIALIGN_PPI_GRAPHML when
that variable is set, and otherwise use a seeded synthetic network of
comparable scale (see conftest.ppi_graphml).
"""

import random
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest

from riccialign import (
    Graph,
    RngHandle,
    align,
    build_universe,
    common_max_degree,
    cost_matrix,
    curvature_distribution,
    curvature_laplacian_residuals,
    delete_edges_randomly,
    from_edge_list,
    hungarian,
    lift_to_3d,
    line_graph,
    node_curvatures,
    ricci_matrix,
    run_ppi_experiment,
    run_round,
    score_alignment,
    triangular_ring_2d,
)

from conftest import (EXAMPLE_EDGES, assignment_minimum, edge_pair_count, paper_config,
                      random_connected_graph, random_graph, recording_align)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_curvature_worked_example():
    with criterion("curvature worked example"):
        g = Graph(9, EXAMPLE_EDGES)
        assert node_curvatures(g)[1:4] == [-2, -20, -27]
        assert ricci_matrix(g, 5).rows[0].tolist() == [-27, -20, -2, 0, 0]
        assert ricci_matrix(g, 8).rows[0].tolist() == [-27, -20, -2, 0, 0, 0, 0, 0]


def test_curvature_laplacian_identity(ppi_graphml):
    with criterion("curvature-Laplacian identity"):
        cases = [lift_to_3d(triangular_ring_2d()),
                 line_graph(from_edge_list([(0, 1), (0, 2), (1, 2)])).graph,
                 line_graph(from_edge_list([(0, 1), (0, 2), (0, 3)])).graph,
                 build_universe(paper_config(ppi_graphml))]
        rng = random.Random(2024)
        cases += [random_connected_graph(rng.randint(2, 30), seed)
                  for seed in range(100)]
        for g in cases:
            d = g.degrees
            assert np.array_equal(curvature_laplacian_residuals(g), 2 * d * (1 - d))


def test_torus_structure():
    with criterion("torus structure and hole alignment"):
        torus = lift_to_3d(triangular_ring_2d())
        distribution = curvature_distribution(torus)
        assert len(distribution) == 3
        assert [count for _, count in distribution] == [12, 12, 12]
        a, b, c = (value for value, _ in distribution)
        assert abs(b - c) < abs(a - b)

        curv = node_curvatures(torus)
        result = align(torus, torus, mode="ricci")
        hole = [v for v in torus.nodes if curv[v] == a]
        assert all(curv[result.mapping[v]] == a for v in hole)


def _permutation_minimum(cost: np.ndarray) -> float:
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n)) for p in permutations(range(n)))


def test_hungarian_optimality():
    with criterion("assignment solver optimality (200 matrices vs an exact subset oracle)"):
        rng = random.Random(7)
        for trial in range(200):
            n = 2 + trial % 7
            cost = np.array([[rng.randint(0, 50) for _ in range(n)] for _ in range(n)],
                            dtype=np.float64)
            best = assignment_minimum(cost)
            if n <= 5:  # the oracle itself, against all n! assignments
                assert best == _permutation_minimum(cost)
            assert hungarian(cost).total_cost == best


def test_line_graph_identities():
    with criterion("line-graph size identities and the triangle/claw pair"):
        for seed in range(100):
            g = random_graph(2 + seed % 17, 0.3, seed)
            if g.num_edges == 0:
                continue
            lg = line_graph(g).graph
            assert lg.num_nodes == g.num_edges
            assert lg.num_edges == edge_pair_count(g)

        lk3 = line_graph(from_edge_list([(0, 1), (0, 2), (1, 2)])).graph
        lclaw = line_graph(from_edge_list([(0, 1), (0, 2), (0, 3)])).graph
        for lg in (lk3, lclaw):
            assert lg.num_nodes == 3 and lg.num_edges == 3  # both are K3
        assert sorted(lk3.degrees.tolist()) == sorted(lclaw.degrees.tolist())


def test_ppi_reproduction(ppi_graphml):
    with criterion("line-graph alignment accuracy band and determinism"):
        cfg = paper_config(ppi_graphml)
        report = run_ppi_experiment(cfg)
        for r in report.per_round:
            print(f"  round {r.round}: {r.correct}/500 = {r.percentage:.1f}%")
        assert report.mean_percentage >= 80.0
        assert all(70.0 <= r.percentage <= 100.0 for r in report.per_round)

        repeat = run_ppi_experiment(cfg)
        assert [r.correct for r in repeat.per_round] == \
            [r.correct for r in report.per_round]


def test_perturbation_sanity(ppi_graphml):
    with criterion("zero-deletion identity and deletion-rate expectation"):
        # p = 0: G2 equals G1, the signature matrices coincide, and align()
        # pairs equal rows in ascending id order, so it returns the identity
        with recording_align() as rounds:
            report = run_ppi_experiment(paper_config(ppi_graphml, deletion_probability=0.0,
                                                     rounds=3))
        assert all(r.percentage == 100.0 for r in report.per_round)

        g1, g2, _ = rounds[0]
        m = common_max_degree(g1, g2)
        m1, m2 = ricci_matrix(g1, m), ricci_matrix(g2, m)
        assert (m1.rows == m2.rows).all()
        solved = hungarian(cost_matrix(m1, m2))
        assert solved.total_cost == 0.0
        distinct = len(np.unique(m1.rows, axis=0)) == len(m1.rows)
        if distinct:
            assert score_alignment(solved)[1] == 100.0

        # E[removed] = 1.0 for p = 0.01 on 100 edges; 10k trials stay in 3 sigma
        ring = from_edge_list([(i, (i + 1) % 100) for i in range(100)])
        removed = 0
        trials = 10_000
        for k in range(trials):
            out = delete_edges_randomly(ring, 0.01, RngHandle(1234 + k))
            removed += 100 - out.num_edges
        assert 0.5 <= removed / trials <= 1.5


def test_zero_deletion_maps_onto_equal_rows(ppi_graphml):
    with criterion("p=0 optimum pairs only equal Ricci rows (any exact solver)"):
        # the same three rounds as test_perturbation_sanity's p = 0 run; a
        # cost of 0 means equal rows, so this holds whichever optimum is found
        cfg = paper_config(ppi_graphml, deletion_probability=0.0)
        universe = build_universe(cfg)
        with recording_align() as rounds:
            for r in (1, 2, 3):
                run_round(universe, cfg, r)
        for g1, g2, _ in rounds:
            m = common_max_degree(g1, g2)
            m1, m2 = ricci_matrix(g1, m), ricci_matrix(g2, m)
            solved = hungarian(cost_matrix(m1, m2))
            src, dst = zip(*solved.mapping.items())
            assert (m1.rows[list(src)] == m2.rows[list(dst)]).all()
            assert solved.total_cost == 0.0
