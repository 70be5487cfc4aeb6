
import itertools

import numpy as np
import pytest

import pspectral as ps
from pspectral.combinatorics import _transposition_preserves
from helpers import fano, path, random_graph, transversal_exhaustive


def test_degree_profile_complete():
    prof = ps.degree_profile(ps.complete(3, 4), k=2)
    assert all(d == 3.0 for d in prof.degrees)
    assert prof.delta == prof.Delta == 3.0
    assert all(d == 2.0 for _, d in prof.set_degrees)


def test_degree_profile_beta_star():
    prof = ps.degree_profile(ps.beta_star(3, 4))
    assert prof.degrees[0] == 4.0
    assert all(d == 1.0 for d in prof.degrees[1:])
    assert prof.beta_degrees[0] == 4
    assert prof.Delta_beta == 4 and prof.delta_beta == 1


def test_degree_profile_empty():
    prof = ps.degree_profile(ps.WeightedHypergraph(3, 3, {}))
    assert all(d == 0.0 for d in prof.degrees)


def test_handshake_weighted():
    rng = np.random.default_rng(0)
    for _ in range(20):
        G = random_graph(rng, weighted=True)
        prof = ps.degree_profile(G, with_beta=False)
        assert sum(prof.degrees) == pytest.approx(G.rank * G.size())


def test_beta_degree_overlapping_edges():
    # two triples through vertex 0 sharing a second vertex: not a compatible pair
    G = ps.from_edge_list(3, 4, [(0, 1, 2), (0, 1, 3)])
    prof = ps.degree_profile(G)
    assert prof.beta_degrees[0] == 1


def test_beta_degree_budget():
    from pspectral.combinatorics import STAR_BUDGET
    at_budget = ps.complete(2, STAR_BUDGET + 1)  # STAR_BUDGET edges through each vertex
    assert ps.degree_profile(at_budget).Delta_beta == STAR_BUDGET
    with pytest.raises(ValueError, match="budget"):
        ps.degree_profile(ps.complete(2, STAR_BUDGET + 2))
    assert ps.degree_profile(ps.complete(2, STAR_BUDGET + 2), with_beta=False).Delta \
        == STAR_BUDGET + 1


def test_components():
    assert len(ps.components(ps.cycle(3, 5))) == 1
    two = ps.disjoint_union(ps.complete(3, 3), ps.complete(3, 3))
    assert ps.components(two) == [[0, 1, 2], [3, 4, 5]]
    G = ps.WeightedHypergraph(3, 5, {(0, 1, 2): 1.0})
    assert ps.components(G) == [[0, 1, 2], [3], [4]]


def test_k_tight_basics():
    # two triples sharing one vertex: connected hence 1-tight, not 2-tight
    G = ps.from_edge_list(3, 5, [(0, 1, 2), (2, 3, 4)])
    ok, _ = ps.is_k_tight(G, 1)
    assert ok
    ok, witness = ps.is_k_tight(G, 2)
    assert not ok and witness is not None
    # the witness contains an edge and is met by no edge in [2, r-1] vertices
    assert any(set(e) <= witness for e in G.edges())
    assert all(not 2 <= len(set(e) & witness) <= 2 for e in G.edges())

    ok, _ = ps.is_k_tight(ps.complete(3, 5), 2)
    assert ok
    # no edges: not tight
    ok, _ = ps.is_k_tight(ps.WeightedHypergraph(3, 4, {}), 1)
    assert not ok


def test_tight_implies_lower_orders():
    rng = np.random.default_rng(1)
    for _ in range(15):
        G = random_graph(rng, r=int(rng.integers(3, 5)), n_lo=4, n_hi=7)
        flags = [ps.is_k_tight(G, k)[0] for k in range(1, G.rank)]
        for lo, hi in zip(flags, flags[1:]):
            assert lo or not hi  # k-tight at higher k implies at lower k


def test_one_tight_iff_connected():
    rng = np.random.default_rng(2)
    for _ in range(25):
        G = random_graph(rng, density=float(rng.uniform(0.1, 0.6)))
        assert ps.is_k_tight(G, 1)[0] == (ps.is_connected(G) and G.num_edges > 0)


def test_tight_budget():
    with pytest.raises(ValueError, match="budget"):
        ps.is_k_tight(ps.complete(2, 21), 1)


def test_odd_transversal_cases():
    # bipartite cycle: a color class works
    t = ps.odd_transversal(ps.cycle(2, 4))
    assert t is not None and len(t & {0, 1, 2, 3}) in (1, 2, 3)
    # triangle has none
    assert ps.odd_transversal(ps.complete(2, 3)) is None
    # single 3-edge: a singleton inside the edge
    t = ps.odd_transversal(ps.single_edge(3))
    assert t is not None and len(t & {0, 1, 2}) % 2 == 1
    e = ps.even_transversal(ps.single_edge(3))
    assert e is not None and len(e & {0, 1, 2}) % 2 == 0 and 0 < len(e) < 3


def test_even_transversal_none_for_connected_two_graphs():
    assert ps.even_transversal(ps.complete(2, 4)) is None
    assert ps.even_transversal(ps.cycle(2, 5)) is None
    # an isolated vertex admits a proper even transversal
    G = ps.WeightedHypergraph(2, 3, {(0, 1): 1.0})
    t = ps.even_transversal(G)
    assert t is not None and 0 < len(t) < 3
    assert len(t & {0, 1}) % 2 == 0


def test_gf2_solver_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    graphs = [random_graph(rng, n_lo=3, n_hi=9) for _ in range(40)]
    graphs += [ps.cycle(2, 4), ps.cycle(2, 5), ps.single_edge(3), fano(),
               ps.beta_star(3, 3), ps.complete(4, 6)]
    for G in graphs:
        odd = ps.odd_transversal(G)
        assert (odd is not None) == (transversal_exhaustive(G, 1) is not None)
        if odd is not None:
            assert all(len(odd & set(e)) % 2 == 1 for e in G.edges())
        even = ps.even_transversal(G)
        assert (even is not None) == (transversal_exhaustive(G, 0, proper=True) is not None)
        if even is not None:
            assert 0 < len(even) < G.n_vertices
            assert all(len(even & set(e)) % 2 == 0 for e in G.edges())


def test_transversal_witnesses_are_pinned():
    # the witness decides the flipped minimizer's vector, so a drift in the
    # GF(2) solve fails here before it fails a solver digest
    cases = [(ps.cycle(2, 6), {1, 3, 5}, None),
             (ps.cycle(3, 7), set(range(7)), None),
             (fano(), {2, 4, 5}, {0, 2, 4, 6}),
             (ps.beta_star(3, 3), {2, 4, 6}, {0, 2, 4, 6}),
             (ps.random_gnp(3, 9, 0.4, 1), set(range(9)), None),
             (ps.random_gnp(4, 8, 0.5, 2), None, None)]
    for G, odd, even in cases:
        assert ps.odd_transversal(G) == odd
        assert ps.even_transversal(G) == even


def test_linearity_and_steiner():
    # every 2-graph is 1-linear
    assert ps.is_k_linear(ps.complete(2, 5), 1)
    F = fano()
    assert ps.is_steiner(F, 2)
    assert ps.is_k_linear(F, 1)
    G = ps.from_edge_list(3, 4, [(0, 1, 2), (0, 1, 3)])
    assert not ps.is_k_linear(G, 1)
    assert ps.is_k_linear(G, 2)
    assert not ps.is_steiner(ps.complete(3, 4), 2)


def test_set_regularity():
    assert ps.is_k_set_regular(ps.complete(3, 4), 2)
    assert ps.is_k_set_regular(ps.cycle(3, 5), 1)
    assert not ps.is_k_set_regular(ps.cycle(3, 5), 2)
    assert ps.is_k_set_regular(fano(), 2)
    prof = ps.degree_profile(fano(), k=2, with_beta=False)
    assert all(d == 1.0 for _, d in prof.set_degrees)


def test_equivalence_classes():
    assert ps.equivalence_classes(ps.complete(3, 5)) == (tuple(range(5)),)
    # a star's leaves are equivalent within an edge but not across edges:
    # swapping leaves of different edges does not preserve the edge set
    assert ps.equivalence_classes(ps.beta_star(3, 4)) == \
        ((0,), (1, 2), (3, 4), (5, 6), (7, 8))
    G = ps.from_edge_list(3, 5, [(0, 1, 2), (2, 3, 4)])
    assert ps.equivalence_classes(G) == ((0, 1), (2,), (3, 4))
    # weights break symmetry
    W = ps.WeightedHypergraph(2, 3, {(0, 1): 1.0, (1, 2): 2.0})
    assert ps.equivalence_classes(W) == ((0,), (1,), (2,))


def test_equivalence_classes_match_the_definition():
    rng = np.random.default_rng(8)
    merged = 0
    for i in range(100):
        r = int(rng.integers(2, 5))
        n = int(rng.integers(r, 9))
        edges = {e: float(rng.integers(1, 3)) if i % 2 else 1.0
                 for e in itertools.combinations(range(n), r) if rng.random() < 0.5}
        G = ps.WeightedHypergraph(r, n, edges)
        classes = ps.equivalence_classes(G)
        assert sorted(v for c in classes for v in c) == list(range(n))
        for a, A in enumerate(classes):
            assert all(_transposition_preserves(G, u, v)
                       for u, v in itertools.combinations(A, 2))
            assert not any(_transposition_preserves(G, u, v)
                           for B in classes[a + 1:] for u in A for v in B)
        merged += sum(len(c) > 1 for c in classes)
    assert merged > 0


def test_eigenvector_constant_on_classes_by_construction():
    # the relation is exactly "swap is weight-preserving": verify on K(1,2,2)
    G = ps.complete_multipartite(3, [1, 2, 2])
    classes = ps.equivalence_classes(G)
    assert ((0,) in classes) and any(len(c) == 2 for c in classes)


def test_chromatic_number():
    assert ps.chromatic_number_exact(ps.complete(2, 5)) == 5
    assert ps.chromatic_number_exact(ps.single_edge(3)) == 2
    assert ps.chromatic_number_exact(ps.cycle(2, 5)) == 3
    assert ps.chromatic_number_exact(ps.WeightedHypergraph(2, 3, {})) == 1
    assert ps.chromatic_number_exact(fano()) == 3
    with pytest.raises(ValueError, match="budget"):
        ps.chromatic_number_exact(ps.complete(2, 17))


def test_partiteness():
    assert ps.partiteness_number(ps.complete(2, 4)) == 4
    assert ps.partiteness_number(ps.complete_multipartite(3, [2, 2, 2])) == 3
    assert ps.partiteness_number(ps.cycle(3, 6)) >= 3
    assert ps.is_k_partite(ps.turan(6, 3), 3)
    assert ps.is_k_partite(ps.turan(6, 3), 3, partition=[[0, 1], [2, 3], [4, 5]])
    assert not ps.is_k_partite(ps.complete(2, 4), 3)
    with pytest.raises(ValueError, match="partiteness search exceeds budget"):
        ps.partiteness_number(ps.complete(2, 17))


def test_partiteness_is_the_chromatic_number_of_the_2_section():
    rng = np.random.default_rng(9)
    for _ in range(30):
        G = random_graph(rng, r=int(rng.integers(3, 5)), n_lo=4, n_hi=10,
                         density=float(rng.uniform(0.05, 0.3)))
        assert ps.partiteness_number(G) == ps.chromatic_number_exact(ps.k_section(G, 2))


def test_path_graph_classes_and_chromatic():
    # the 4-path reversal is an automorphism but no single transposition is,
    # so all classes are singletons
    P = path(4)
    assert ps.chromatic_number_exact(P) == 2
    assert ps.equivalence_classes(P) == ((0,), (1,), (2,), (3,))


def test_cliques_are_every_clique_in_order():
    from pspectral.combinatorics import _cliques
    rng = np.random.default_rng(12)
    for _ in range(20):
        G = random_graph(rng, r=2, n_lo=3, n_hi=9)
        n, pairs = G.n_vertices, set(G.edges())
        want = [S for k in range(2, n + 1) for S in itertools.combinations(range(n), k)
                if all(e in pairs for e in itertools.combinations(S, 2))]
        assert _cliques(n, G.edges()) == sorted(want)


def test_cliques_stop_at_the_budget():
    from pspectral.combinatorics import CLIQUE_BUDGET, _cliques
    # K_n has 2^n - n - 1 cliques of two or more vertices
    n = (CLIQUE_BUDGET + 1).bit_length()
    assert len(_cliques(n - 1, ps.complete(2, n - 1).edges())) == 2 ** (n - 1) - n
    assert _cliques(n, ps.complete(2, n).edges()) is None
