import math

import pytest

import pspectral as ps
from pspectral.hypergraph import FamilySpec
from helpers import FAST


def test_complete_values():
    cf = ps.closed_form(FamilySpec("complete", r=2, n=3), 2.0)
    assert cf.value == pytest.approx(2.0)
    assert cf.min_value is None  # even rank, unknown beyond the single edge
    cf = ps.closed_form(FamilySpec("complete", r=3, n=5), 3.0)
    assert cf.value == pytest.approx(math.perm(5, 3) / 5.0)
    assert cf.min_value == pytest.approx(-cf.value)  # odd rank


def test_single_edge_and_c4():
    cf = ps.closed_form(FamilySpec("single-edge", r=4), 4.0)
    assert cf.value == pytest.approx(6.0) and cf.min_value == pytest.approx(-6.0)
    cf = ps.closed_form(FamilySpec("cycle", r=2, n=4), 4.0)
    assert cf.value == pytest.approx(4.0)
    with pytest.raises(ValueError, match="4-cycle"):
        ps.closed_form(FamilySpec("cycle", r=2, n=5), 2.0)


def test_beta_star_branches():
    cf = ps.closed_form(FamilySpec("beta-star", r=3, k=4), 3.0)
    assert cf.value == pytest.approx(2 * 4 ** (1 / 3))
    cf_low = ps.closed_form(FamilySpec("beta-star", r=4, k=3), 1.5)  # p < r-1
    assert cf_low.value == pytest.approx(24 / 4 ** (4 / 1.5))
    with pytest.raises(ValueError, match="p = r-1"):
        ps.closed_form(FamilySpec("beta-star", r=3, k=4), 2.0)


def test_t_star_value_matches_join_rule():
    p = 3.0
    cf = ps.closed_form(FamilySpec("t-star", r=3, t=1, n=5), p)
    base = math.perm(4, 2) / 4 ** (2 / p)  # complete 2-graph on 4 vertices
    assert cf.value == pytest.approx(ps.join_scale(base, 3, p, "k1"))
    assert cf.value == pytest.approx(7.5595262993, abs=1e-9)


def test_join_rule_consistency():
    # t = 1 variants of the three join kinds collapse to the same factor
    for p in (1.0, 1.5, 2.0, 3.0, 4.5):
        lam = 1.7
        k1 = ps.join_scale(lam, 3, p, "k1")
        tk1 = ps.join_scale(lam, 3, p, "t-k1", t=1)
        core = ps.join_scale(lam, 3, p, "k-t-t", t=1)
        assert k1 == pytest.approx(tk1, rel=1e-12)
        assert k1 == pytest.approx(core, rel=1e-12)


def test_join_refusals_match_the_graph_join():
    # the value rule and the graph construction share one kind-and-t check
    for kind, t, what in (("cone", 1, "unknown join kind"), ("t-k1", 0, "t >= 1")):
        with pytest.raises(ValueError, match=what) as graph:
            ps.join_family(ps.single_edge(2), kind, t=t)
        with pytest.raises(ValueError, match=what) as value:
            ps.join_scale(1.0, 3, 2.0, kind, t=t)
        assert str(value.value) == str(graph.value)
    with pytest.raises(ValueError, match="core join needs t < r"):
        ps.join_scale(1.0, 3, 2.0, "k-t-t", t=3)


def test_join_scale_against_solver():
    p = 3.0
    G = ps.complete(2, 4)
    lam = ps.lambda_max(G, p, FAST).value
    J = ps.join_family(G, "k1")
    assert ps.lambda_max(J, p, FAST).value == pytest.approx(
        ps.join_scale(lam, 3, p, "k1"), abs=1e-7)
    J2 = ps.join_family(G, "t-k1", t=2)
    assert ps.lambda_max(J2, p, FAST).value == pytest.approx(
        ps.join_scale(lam, 3, p, "t-k1", t=2), abs=1e-7)
    # minimum of a join is the negated scaled maximum
    assert ps.lambda_min(J, p, FAST).value == pytest.approx(
        -ps.join_scale(lam, 3, p, "k1"), abs=1e-7)


def test_blowup_scale():
    assert ps.blowup_scale(1.0, 2, 2.0, 2) == pytest.approx(2.0)  # edge -> 4-cycle
    assert ps.blowup_scale(1.7, 3, 2.0, 1) == 1.7
    assert ps.blowup_scale(2.0, 3, 3.0, 3) == pytest.approx(18.0)


def test_blowup_scale_against_solver():
    G = ps.single_edge(3)
    H = ps.blow_up(G, [3, 3, 3])
    got = ps.lambda_max(H, 3.0, FAST).value
    assert got == pytest.approx(18.0, abs=1e-6)


def test_union_combine():
    assert ps.union_combine([2.0, 1.5], 3, 2.0) == 2.0
    lam = 6 / 3 ** (3 / 4)
    assert ps.union_combine([lam, lam], 3, 4.0) == pytest.approx(2 ** 0.25 * lam)
    assert ps.union_combine([1.23], 3, 7.0) == pytest.approx(1.23)
    assert ps.union_combine([], 3, 2.0) == 0.0
    assert ps.union_combine_min([-2.0, -1.0], 3, 2.0) == -2.0
    assert ps.union_combine_min([-lam, -lam], 3, 4.0) == pytest.approx(-2 ** 0.25 * lam)
    with pytest.raises(ValueError, match="nonnegative"):
        ps.union_combine([-1.0], 3, 2.0)


def test_regular_value():
    C6 = ps.cycle(3, 6)
    assert ps.regular_value(C6, 3.0) == pytest.approx(6.0)
    # vertex-regular only: refuses below the rank
    assert ps.regular_value(ps.cycle(2, 5), 1.5) is None
    # 2-set regular complete graph works at any exponent
    assert ps.regular_value(ps.complete(3, 4), 1.0) == pytest.approx(24 / 64)
    # non-regular graph refuses
    assert ps.regular_value(ps.beta_star(3, 2), 4.0) is None


def test_closed_forms_match_solver_on_validity_grids():
    specs = [
        (FamilySpec("single-edge", r=2), [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0]),
        (FamilySpec("single-edge", r=3), [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]),
        (FamilySpec("complete", r=2, n=5), [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]),
        (FamilySpec("cycle", r=2, n=4), [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]),
        (FamilySpec("beta-star", r=3, k=3), [2.2, 2.6, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0]),
        (FamilySpec("t-star", r=3, t=2, n=6), [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0]),
    ]
    for spec, grid in specs:
        G = ps.construct(spec)
        for p in grid:
            cf = ps.closed_form(spec, p)
            got = ps.lambda_max(G, p, FAST).value
            assert got == pytest.approx(cf.value, abs=1e-6), (spec.family, p)
