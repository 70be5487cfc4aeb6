import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import pspectral as ps
from pspectral.hypergraph import FamilySpec, construct
from helpers import random_graph


def test_basic_construction_and_invariants():
    G = ps.WeightedHypergraph(3, 5, {(0, 1, 2): 1.0, (2, 3, 4): 0.5})
    assert G.rank == 3 and G.n_vertices == 5
    assert G.num_edges == 2
    assert G.size() == pytest.approx(1.5)
    assert G.weight((2, 1, 0)) == 1.0
    assert G.weight((0, 1, 3)) == 0.0
    assert G.weight((4, 3, 2)) == 0.5 and G.weight((2, 3, 4.0)) == 0.5
    assert G.weight((0, 1, 2, 3)) == 0.0 and G.weight((3, 4, 5)) == 0.0
    assert G.edges() == ((0, 1, 2), (2, 3, 4))


def test_zero_weight_means_absent_edge():
    G = ps.WeightedHypergraph(2, 3, {(0, 1): 1.0, (1, 2): 0.0})
    assert G.edges() == ((0, 1),)


def test_rejects_bad_edges():
    with pytest.raises(ValueError, match="repeated vertex"):
        ps.WeightedHypergraph(3, 4, {(0, 0, 1): 1.0})
    with pytest.raises(ValueError, match="outside"):
        ps.WeightedHypergraph(2, 3, {(0, 3): 1.0})
    with pytest.raises(ValueError, match="negative weight"):
        ps.WeightedHypergraph(2, 3, {(0, 1): -1.0})
    with pytest.raises(ValueError, match="rank"):
        ps.WeightedHypergraph(1, 3, {})
    with pytest.raises(ValueError, match="vertices"):
        ps.WeightedHypergraph(2, 4, {(0,): 1.0})


def test_rejects_non_finite_weights():
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has non-finite weight"):
            ps.WeightedHypergraph(2, 3, {(0, 1): w})
    for w in ("NaN", "Infinity", "-Infinity"):
        doc = '{"rank": 2, "vertices": 3, "edges": [{"verts": [1, 0], "w": %s}]}' % w
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has non-finite weight"):
            ps.from_json(doc)
    for w in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has non-finite weight"):
            ps.from_text(f"2 3 1\n0 1 {w}\n")


def test_weights_must_be_real_numbers():
    for w in ("[1]", '"1.5"', "true"):
        doc = '{"rank": 2, "vertices": 3, "edges": [{"verts": [1, 0], "w": %s}]}' % w
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has weight .* not a real number"):
            ps.from_json(doc)
    for w in (True, "1.5", None, 1j):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) has weight"):
            ps.WeightedHypergraph(2, 3, {(0, 1): w})
    G = ps.WeightedHypergraph(2, 3, {(0, 1): np.float32(0.5), (1, 2): np.int64(2),
                                     (0, 2): Fraction(1, 4)})
    assert [G.weight(e) for e in [(0, 1), (1, 2), (0, 2)]] == [0.5, 2.0, 0.25]


def test_rejects_a_total_weight_the_polynomial_cannot_hold():
    # every value, gradient and Hessian entry on the unit sphere is at most
    # r! * sum(w), and the solvers' x . grad = r * value at most r * r! * sum(w)
    for rank, n, edges in [(2, 2, {(0, 1): 1e308}), (2, 3, {(0, 1): 1e308, (1, 2): 1e308}),
                           (3, 3, {(0, 1, 2): 3e307}), (2, 2, {(0, 1): 8e307}),
                           (3, 3, {(0, 1, 2): 2.9e307}), (4, 4, {(0, 1, 2, 3): 7e306})]:
        with pytest.raises(ValueError, match="is not finite"):
            ps.WeightedHypergraph(rank, n, edges)
    assert ps.WeightedHypergraph(2, 2, {(0, 1): 4.4e307}).size() == 4.4e307
    assert ps.WeightedHypergraph(3, 3, {(0, 1, 2): 9.9e306}).size() == 9.9e306
    assert ps.WeightedHypergraph(4, 4, {(0, 1, 2, 3): 1.8e306}).size() == 1.8e306


def test_json_rejects_non_integer_ids():
    # float ids were cut down (edge [0.6, 1.2] read as (0, 1)) and a string
    # was read as a list of digits
    for doc, what in [
            ('{"rank": 2.7, "vertices": 3, "edges": []}', "rank must be an integer"),
            ('{"rank": 2, "vertices": 3.9, "edges": []}', "vertex count must be an integer"),
            ('{"rank": 2, "vertices": 3.0, "edges": []}', "vertex count must be an integer"),
            ('{"rank": 2, "vertices": 3, "edges": [{"verts": [0.6, 1.2]}]}', "integer vertex"),
            ('{"rank": 2, "vertices": 3, "edges": [{"verts": [0, 1.0]}]}', "integer vertex"),
            ('{"rank": 2, "vertices": 3, "edges": [{"verts": "01"}]}', "integer vertex"),
            ('{"rank": 2, "vertices": 3, "edges": [{"verts": 1}]}', "integer vertex")]:
        with pytest.raises(ValueError, match=what):
            ps.from_json(doc)
    G = ps.WeightedHypergraph(np.int64(2), np.int32(3), {(np.int64(2), np.int8(0)): 1.0})
    assert G == ps.from_edge_list(2, 3, [(0, 2)])


def test_canonical_edge_tuples_are_reused():
    e = (0, 1, 2)
    G = ps.WeightedHypergraph(3, 5, {e: 1.0, (np.int64(4), 3, 2): 0.5})
    assert G.edges()[0] is e
    assert G.edges()[1] == (2, 3, 4) and all(type(v) is int for v in G.edges()[1])
    H = ps.WeightedHypergraph(3, 5, G.edge_weights)
    assert H == G and all(a is b for a, b in zip(H.edges(), G.edges()))
    with pytest.raises(ValueError, match="outside"):
        ps.WeightedHypergraph(3, 4, G.edge_weights)
    with pytest.raises(ValueError, match="rank"):
        ps.WeightedHypergraph(3, 5, {(0, 1): 1.0})
    with pytest.raises(TypeError):
        G.edge_weights[e] = 2.0


def test_families():
    assert ps.complete(3, 3).edges() == ((0, 1, 2),)
    C5 = ps.cycle(3, 5)
    assert C5.num_edges == 5
    assert all(len(e) == 3 for e in C5.edges())

    B = ps.beta_star(3, 4)
    assert B.n_vertices == 9 and B.num_edges == 4
    for e, f in itertools.combinations(B.edges(), 2):
        assert set(e) & set(f) == {0}

    S = ps.t_star(3, 1, 5)
    assert S.num_edges == math.comb(4, 2)
    assert all(0 in e for e in S.edges())

    T = ps.turan(7, 3)
    sizes = sorted(len(b) for b in ps.components(ps.complement(T)))
    assert sizes == [2, 2, 3]  # complement of a Turan graph is disjoint cliques

    M = ps.complete_multipartite(3, [1, 2, 2])
    assert M.num_edges == 4  # one vertex from each of the three parts


def test_family_domain_errors():
    with pytest.raises(ValueError, match="n >= r"):
        ps.complete(3, 2)
    with pytest.raises(ValueError, match="n > r"):
        ps.cycle(3, 3)
    with pytest.raises(ValueError, match="r > t >= 1"):
        ps.t_star(3, 3, 6)
    with pytest.raises(ValueError, match="at least r"):
        ps.complete_multipartite(3, [2, 2])
    with pytest.raises(ValueError, match="positive"):
        ps.complete_multipartite(2, [2, 0])


def test_construct_dispatch():
    assert construct(FamilySpec("complete", r=2, n=4)) == ps.complete(2, 4)
    assert construct(FamilySpec("cycle", r=2, n=4)) == ps.cycle(2, 4)
    assert construct(FamilySpec("turan", n=6, k=2)) == ps.turan(6, 2)
    with pytest.raises(ValueError, match="unknown family"):
        construct(FamilySpec("petersen"))


def test_blow_up_identity_and_size_scaling():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r, 6))
        edges = {e: 1.0 for e in itertools.combinations(range(n), r)
                 if rng.random() < 0.6}
        G = ps.WeightedHypergraph(r, n, edges)
        assert ps.blow_up(G, [1] * n) == G
        for k in (2, 3):
            H = ps.blow_up(G, [k] * n)
            assert H.size() == pytest.approx(k ** r * G.size())


def test_blow_up_examples():
    # doubling both vertices of a single 2-edge yields the 4-cycle
    H = ps.blow_up(ps.single_edge(2), [2, 2])
    assert H.num_edges == 4 and H.n_vertices == 4
    assert ps.odd_transversal(H) is not None  # bipartite
    # one doubled vertex in a 3-edge: two edges sharing two vertices
    H = ps.blow_up(ps.single_edge(3), [2, 1, 1])
    assert H.num_edges == 2
    e, f = H.edges()
    assert len(set(e) & set(f)) == 2


def test_blow_up_errors():
    G = ps.single_edge(2)
    with pytest.raises(ValueError, match="length"):
        ps.blow_up(G, [1])
    with pytest.raises(ValueError, match="positive"):
        ps.blow_up(G, [1, 0])


def test_graph_operations_refuse_non_integers():
    # int() would build the [1, 2] blow-up, parts [2, 1] and keep vertex 0
    with pytest.raises(ValueError, match="multiplicity must be an integer"):
        ps.blow_up(ps.single_edge(2), [1.5, 2.9])
    with pytest.raises(ValueError, match="part size must be an integer"):
        ps.complete_multipartite(2, [2.7, 1.2])
    with pytest.raises(ValueError, match="vertex id must be an integer"):
        ps.induced_subgraph(ps.complete(2, 3), [0.5])
    assert ps.blow_up(ps.single_edge(2), np.array([1, 2])) == \
        ps.blow_up(ps.single_edge(2), [1, 2])
    assert ps.complete_multipartite(2, np.array([2, 1])) == ps.complete_multipartite(2, [2, 1])
    H, relabel = ps.induced_subgraph(ps.complete(2, 3), np.array([0, 2]))
    assert H == ps.complete(2, 2) and relabel == {0: 0, 2: 1}
    assert all(type(v) is int for v in relabel)


def test_disjoint_union():
    G = ps.complete(3, 3)
    U = ps.disjoint_union(G, G)
    assert U.n_vertices == 6 and U.num_edges == 2
    E = ps.WeightedHypergraph(3, 0, {})
    assert ps.disjoint_union(G, E) == G
    U2 = ps.disjoint_union(ps.cycle(2, 4), ps.single_edge(2))
    assert U2.n_vertices == 6 and U2.num_edges == 5
    with pytest.raises(ValueError, match="rank"):
        ps.disjoint_union(G, ps.single_edge(2))
    # associativity up to relabeling, and size additivity
    A, B, C = ps.single_edge(2), ps.cycle(2, 4), ps.complete(2, 3)
    left = ps.disjoint_union(ps.disjoint_union(A, B), C)
    right = ps.disjoint_union(A, ps.disjoint_union(B, C))
    assert left == right
    assert left.size() == pytest.approx(A.size() + B.size() + C.size())


def test_complement():
    assert ps.complement(ps.complete(3, 5)).num_edges == 0
    empty = ps.WeightedHypergraph(2, 4, {})
    assert ps.complement(empty) == ps.complete(2, 4)
    # complement of the 4-cycle is a perfect matching
    M = ps.complement(ps.cycle(2, 4))
    assert M.edges() == ((0, 2), (1, 3))
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, r = int(rng.integers(3, 7)), 2
        edges = [e for e in itertools.combinations(range(n), r) if rng.random() < 0.5]
        G = ps.from_edge_list(r, n, edges)
        assert ps.complement(ps.complement(G)) == G
    with pytest.raises(ValueError, match="weighted"):
        ps.complement(ps.WeightedHypergraph(2, 3, {(0, 1): 0.5}))


def test_join_family():
    # joining a new vertex into every edge of the complete 2-graph gives a 1-star
    J = ps.join_family(ps.complete(2, 4), "k1")
    S = ps.t_star(3, 1, 5)
    assert J.num_edges == S.num_edges == 6
    assert all(4 in e for e in J.edges())

    J2 = ps.join_family(ps.single_edge(2), "t-k1", t=2)
    assert J2.num_edges == 2 and J2.rank == 3
    e, f = J2.edges()
    assert set(e) & set(f) == {0, 1}

    J3 = ps.join_family(ps.single_edge(2), "k-t-t", t=1)
    assert J3.rank == 3 and J3.num_edges == 1
    assert J3.edges() == ((0, 1, 2),)

    with pytest.raises(ValueError, match="t >= 1"):
        ps.join_family(ps.single_edge(2), "t-k1", t=0)
    with pytest.raises(ValueError, match="unknown join"):
        ps.join_family(ps.single_edge(2), "cone")


def test_induced_subgraph():
    K5 = ps.complete(3, 5)
    H, relabel = ps.induced_subgraph(K5, [0, 1, 2, 3])
    assert H == ps.complete(3, 4)
    assert relabel == {0: 0, 1: 1, 2: 2, 3: 3}
    G, _ = ps.induced_subgraph(K5, range(5))
    assert G == K5
    H, relabel = ps.induced_subgraph(ps.cycle(2, 5), [0, 1, 2])
    assert H.edges() == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="not contained"):
        ps.induced_subgraph(K5, [0, 9])


def test_random_gnp():
    assert ps.random_gnp(2, 5, 1.0, 7) == ps.complete(2, 5)
    assert ps.random_gnp(3, 6, 0.0, 7).num_edges == 0
    G1 = ps.random_gnp(3, 10, 0.4, 42)
    G2 = ps.random_gnp(3, 10, 0.4, 42)
    assert G1 == G2
    # binomial concentration at (r, n, prob) = (3, 30, 0.3): within 4 sigma
    G = ps.random_gnp(3, 30, 0.3, 1)
    mean = 0.3 * math.comb(30, 3)
    sigma = math.sqrt(mean * 0.7)
    assert abs(G.num_edges - mean) <= 4 * sigma
    with pytest.raises(ValueError, match="probability"):
        ps.random_gnp(2, 4, 1.5, 0)


def test_k_section():
    assert ps.k_section(ps.complete(3, 5), 2) == ps.complete(2, 5)
    assert ps.k_section(ps.single_edge(3), 2) == ps.complete(2, 3)
    two = ps.disjoint_union(ps.single_edge(3), ps.single_edge(3))
    sec = ps.k_section(two, 2)
    assert sec.num_edges == 6 and len(ps.components(sec)) == 2
    assert ps.k_section(ps.complete(4, 6), 3) == ps.complete(3, 6)
    with pytest.raises(ValueError, match="2 <= k < r"):
        ps.k_section(ps.complete(3, 4), 3)


def test_degrees_and_size():
    G = ps.WeightedHypergraph(3, 4, {(0, 1, 2): 2.0, (0, 1, 3): 0.5})
    assert list(G.degrees()) == [2.5, 2.5, 2.0, 0.5]
    assert sum(G.degrees()) == pytest.approx(G.rank * G.size())


def test_degrees_bit_identical_to_a_loop_over_incidences():
    rng = np.random.default_rng(51)
    for _ in range(20):
        G = random_graph(rng, weighted=True)
        expect = np.zeros(G.n_vertices)
        for e, w in zip(G.edges(), G.arrays()[1]):
            for v in e:
                expect[v] += w
        assert np.array_equal(G.degrees(), expect)
    empty = ps.WeightedHypergraph(3, 4, {}).degrees()
    assert empty.dtype == np.float64 and not empty.any()


# serialization -------------------------------------------------------------

def test_json_round_trip():
    G = ps.WeightedHypergraph(3, 5, {(0, 1, 2): 1.0, (2, 3, 4): 0.1234567890123})
    assert ps.from_json(ps.to_json(G)) == G
    doc = '{"rank": 3, "vertices": 3, "edges": [{"verts": [0, 1, 2], "w": 1.0}]}'
    assert ps.from_json(doc) == ps.complete(3, 3)


def test_text_round_trip():
    G = ps.cycle(2, 4)
    assert ps.from_text(ps.to_text(G)) == G
    text = "2 4 4\n0 1\n1 2\n2 3\n0 3\n"
    assert ps.from_text(text) == G
    weighted = "2 3 1\n0 1 0.25\n"
    assert ps.from_text(weighted).weight((0, 1)) == 0.25


def test_round_trip_weights_bit_exact():
    rng = np.random.default_rng(9)
    edges = {e: float(rng.uniform(0.01, 3.0))
             for e in itertools.combinations(range(6), 3) if rng.random() < 0.5}
    G = ps.WeightedHypergraph(3, 6, edges)
    for codec in (lambda g: ps.from_json(ps.to_json(g)),
                  lambda g: ps.from_text(ps.to_text(g)),
                  lambda g: ps.parse(ps.to_json(g)),
                  lambda g: ps.parse(ps.to_text(g))):
        H = codec(G)
        assert H == G
        assert all(H.weight(e) == w for e, w in G.edge_weights.items())


@pytest.mark.parametrize("parse, text, what", [
    (ps.from_json, '{"rank": 2,', "^malformed JSON graph: .*line 1 column"),
    (ps.from_json, "[2, 3]", "top level must be an object"),
    (ps.from_json, '{"rank": 2, "vertices": 3, "edges": [{"w": 1.0}]}',
     "edge #0 missing 'verts'"),
    (ps.from_text, " \n\n", "empty text graph"),
    (ps.from_text, "2 three 1\n0 1\n", "header fields must be integers"),
    (ps.from_text, "2 3 1\n0 1 heavy\n", "line 2: bad weight field 'heavy'"),
    (ps.from_text, "2 3 1\n0 1 2 0.5\n", "line 2: expected 2 vertex ids"),
], ids=["json-syntax", "json-array", "json-no-verts", "text-empty", "text-header",
        "text-weight", "text-fields"])
def test_parsers_refuse_malformed_input(parse, text, what):
    with pytest.raises(ValueError, match=what):
        parse(text)


def test_scale():
    G = ps.WeightedHypergraph(2, 3, {(0, 1): 0.5, (1, 2): 2.0})
    H = ps.scale(G, 3.0)
    assert H.edge_weights == {(0, 1): 1.5, (1, 2): 6.0}
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale factor must be positive"):
            ps.scale(G, c)


def test_parse_errors_have_locations():
    with pytest.raises(ValueError, match="repeated vertex"):
        ps.from_json('{"rank": 3, "vertices": 3, "edges": [{"verts": [0, 0, 1]}]}')
    with pytest.raises(ValueError, match="duplicate edge"):
        ps.from_text("2 3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="line 1"):
        ps.from_text("2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        ps.from_text("2 3 1\n0 x\n")
    with pytest.raises(ValueError, match="missing field"):
        ps.from_json('{"vertices": 3}')
    with pytest.raises(ValueError, match="announces"):
        ps.from_text("2 3 2\n0 1\n")
