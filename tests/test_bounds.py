import math

import numpy as np
import pytest

import pspectral as ps
from helpers import (FAST, TIGHT, fano, hofmeister_limitation, random_graph,
                     two_section_chromatic_bound)

TOL = 1e-9


def applicable(reports):
    return [b for b in reports if b.applies]


def no_violations(reports):
    return all(b.slack is None or b.slack >= -2 * TOL for b in applicable(reports))


def test_size_lower_tight_for_complete():
    G = ps.complete(2, 4)
    lam = ps.lambda_max(G, 2.0, FAST).value
    reports = {b.name: b for b in ps.bound_suite_max(G, 2.0, lam)}
    assert reports["size-lower"].bound == pytest.approx(3.0)
    assert reports["size-lower"].slack == pytest.approx(0.0, abs=1e-9)
    assert reports["order-upper"].slack == pytest.approx(0.0, abs=1e-9)


def test_size_upper_cycle():
    G = ps.cycle(2, 4)
    lam = ps.lambda_max(G, 2.0, FAST).value
    reports = {b.name: b for b in ps.bound_suite_max(G, 2.0, lam)}
    assert reports["size-upper"].bound == pytest.approx(2 * 4 ** 0.5)
    assert reports["size-upper"].slack >= 0
    # the norm bound is sharper than the size bound for unweighted graphs
    assert reports["norm-upper"].bound <= reports["size-upper"].bound + 1e-12


def test_bound_suite_empty_graph():
    G = ps.WeightedHypergraph(3, 4, {})
    reports = ps.bound_suite_max(G, 2.0, 0.0)
    assert no_violations(reports)


def test_norm_bound_dominates_size_bound_unweighted():
    rng = np.random.default_rng(1)
    for _ in range(20):
        G = random_graph(rng)
        p = float(rng.uniform(1.1, G.rank + 2))
        rep = {b.name: b for b in ps.bound_suite_max(G, p)}
        assert rep["norm-upper"].bound <= rep["size-upper"].bound + 1e-10


def test_structural_complete_multipartite_equality():
    G = ps.complete_multipartite(3, [2, 2, 2])
    lam = ps.lambda_max(G, 2.0, TIGHT).value
    rep = {b.name: b for b in ps.structural_bounds(G, 2.0, lam)}
    b = rep["partite-upper"]
    assert b.applies
    assert b.bound == pytest.approx((6 / 3 ** 1.5) * 8 ** 0.5)
    assert abs(b.slack) <= 1e-5  # equality case


def test_structural_steiner_equality():
    F = fano()
    p = 1.5  # r/(k+1) for 1-linear rank-3 graphs
    lam = ps.lambda_max(F, p, TIGHT).value
    rep = {b.name: b for b in ps.structural_bounds(F, p, lam)}
    b = rep["linear-upper"]
    assert b.applies
    assert b.bound == pytest.approx(6 * 21 / (3 * 49))
    assert abs(b.slack) <= 1e-5  # Steiner system attains it


def test_structural_degree_equality_regular_at_rank():
    C = ps.cycle(3, 6)
    lam = ps.lambda_max(C, 3.0, FAST).value
    rep = {b.name: b for b in ps.structural_bounds(C, 3.0, lam)}
    b = rep["degree-upper"]
    assert b.bound == pytest.approx(6.0)
    assert abs(b.slack) <= 1e-6  # regular component at p = r


def test_structural_degree_lower_beta_star():
    B = ps.beta_star(3, 4)
    p = 3.0
    lam = ps.lambda_max(B, p, TIGHT).value
    rep = {b.name: b for b in ps.structural_bounds(B, p, lam)}
    b = rep["degree-lower"]
    assert b.applies
    assert abs(b.slack) <= 1e-6  # the star attains the degree lower bound


def test_min_suite_c4_equality():
    C4 = ps.cycle(2, 4)
    mn = ps.lambda_min(C4, 2.0, FAST).value
    mx = ps.lambda_max(C4, 2.0, FAST).value
    rep = {b.name: b for b in ps.bound_suite_min(C4, 2.0, mn, mx)}
    assert rep["min-size-lower"].bound == pytest.approx(-2.0)
    assert abs(rep["min-size-lower"].slack) <= 1e-9
    # -n^(r - r/p)/2 = -4/2 at n=4, r=p=2
    assert rep["min-order-lower"].bound == pytest.approx(-2.0)
    assert no_violations(rep.values())


def test_structural_beyond_the_coloring_budget():
    # 17 vertices exceed the exact colouring search: no partite or chromatic claim
    C = ps.cycle(2, 17)
    rep = {b.name: b for b in ps.structural_bounds(C, 2.0, 2.0)}
    assert not rep["partite-upper"].applies and rep["partite-upper"].slack is None
    assert not any(name.startswith("chromatic-") for name in rep)
    assert rep["degree-upper"].applies


def test_min_suite_odd_rank_flags():
    rep = ps.bound_suite_min(ps.single_edge(3), 2.0, -1.0, 1.0)
    named = {b.name: b for b in rep}
    assert not named["min-size-lower"].applies
    assert named["min-negated-max"].applies


def test_weyl_and_sandwich():
    G1 = ps.single_edge(3)
    G2 = ps.WeightedHypergraph(3, 3, {(0, 1, 2): 1.0})
    reports = ps.weyl_check(G1, G2, 3.0, opts=FAST)
    assert no_violations(reports)
    # doubling the weight doubles the value: subadditivity is tight
    named = {b.name: b for b in reports}
    assert named["sum-upper"].slack == pytest.approx(0.0, abs=1e-8)


def test_weyl_on_cycle_decomposition():
    C4 = ps.cycle(2, 4)
    P = ps.WeightedHypergraph(2, 4, {(0, 1): 1.0, (1, 2): 1.0})
    rest = ps.WeightedHypergraph(2, 4, {(2, 3): 1.0, (0, 3): 1.0})
    assert no_violations(ps.weyl_check(P, rest, 2.0, opts=FAST))
    with pytest.raises(ValueError, match="equal rank"):
        ps.weyl_check(C4, ps.single_edge(2), 2.0, opts=FAST)


def test_perturbation_path_vs_cycle():
    C4 = ps.cycle(2, 4)
    P4 = ps.WeightedHypergraph(2, 4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0})
    reports = ps.perturbation_check(C4, P4, 2.0, opts=FAST)
    named = {b.name: b for b in reports}
    assert named["perturb-max"].bound == pytest.approx(math.sqrt(2.0))
    golden = (1 + math.sqrt(5)) / 2
    assert named["perturb-max"].slack == pytest.approx(math.sqrt(2) - (2 - golden), abs=1e-6)
    assert no_violations(reports)
    with pytest.raises(ValueError, match="equal rank and order"):
        ps.perturbation_check(C4, ps.cycle(2, 5), 2.0, opts=FAST)
    with pytest.raises(ValueError, match="for unweighted graphs"):
        ps.perturbation_check(C4, ps.WeightedHypergraph(2, 4, {(0, 1): 0.5}), 2.0, opts=FAST)


def test_pair_checks_solve_each_maximum_once(monkeypatch):
    from pspectral import solver
    calls = []
    real = solver.lambda_max
    monkeypatch.setattr(solver, "lambda_max",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    C = ps.cycle(3, 7)
    ps.weyl_check(C, C, 2.0, opts=FAST)      # odd rank: G1, G2 and their sum
    assert calls == [2.0] * 3
    calls.clear()
    # even rank with odd transversals: the maximum seeds the minimum
    ps.perturbation_check(ps.cycle(2, 4), ps.complete(2, 4), 2.0, opts=FAST)
    assert calls == [2.0] * 2


def test_perturbation_matching_removal():
    K4 = ps.complete(2, 4)
    C4 = ps.cycle(2, 4)  # K4 minus a perfect matching
    reports = ps.perturbation_check(K4, C4, 2.0, opts=FAST)
    named = {b.name: b for b in reports}
    assert named["perturb-max"].bound == pytest.approx(2.0)
    assert named["perturb-max"].slack == pytest.approx(1.0, abs=1e-6)


def test_nordhaus_brackets():
    reports = ps.nordhaus_check(ps.complete(2, 4), 2.0, opts=FAST)
    named = {b.name: b for b in reports}
    assert named["complement-sum-lower"].bound == pytest.approx(3.0)
    assert abs(named["complement-sum-lower"].slack) <= 1e-8  # regular equality
    assert no_violations(reports)
    # the 5-cycle is self-complementary and regular: equality again
    reports = ps.nordhaus_check(ps.cycle(2, 5), 2.0, opts=FAST)
    named = {b.name: b for b in reports}
    assert abs(named["complement-sum-lower"].slack) <= 1e-8
    assert named["complement-sum-upper"].bound == pytest.approx(2 ** 0.5 * 20 ** 0.5)
    with pytest.raises(ValueError, match="complement bracket is for unweighted"):
        ps.nordhaus_check(ps.WeightedHypergraph(2, 4, {(0, 1): 0.5}), 2.0, opts=FAST)


def test_entry_bounds_uniform_case():
    G = ps.complete(2, 4)
    res = ps.lambda_max(G, 2.0, FAST)
    reports = {b.name: b for b in ps.entry_bounds(G, 2.0, res)}
    assert reports["entry-max"].slack >= -1e-12
    assert reports["entry-star-set"].slack >= -1e-12
    # the spread inequality degenerates to 0 <= 0 at the regular extreme
    assert reports["entry-min-spread"].bound == pytest.approx(0.0, abs=1e-9)
    assert reports["entry-min-spread"].slack == pytest.approx(0.0, abs=1e-9)


def test_entry_bounds_single_edge_equality():
    G = ps.single_edge(4)
    res = ps.lambda_max(G, 4.0, FAST)
    rep = {b.name: b for b in ps.entry_bounds(G, 4.0, res)}
    # every entry has |x|^p = 1/r exactly
    assert rep["entry-max"].slack == pytest.approx(0.0, abs=1e-9)


def test_entry_bounds_beta_star_center():
    B = ps.beta_star(3, 4)
    res = ps.lambda_max(B, 3.0, TIGHT)
    x = np.abs(res.vector.coords)
    assert x[0] ** 3 == pytest.approx(1 / 3, abs=1e-6)
    assert no_violations(ps.entry_bounds(B, 3.0, res))


def test_two_section_chromatic_bound_small_fixtures():
    for G in (ps.complete(2, 4), ps.single_edge(3), ps.cycle(3, 5), fano()):
        rep = two_section_chromatic_bound(G, FAST)
        assert rep.slack >= -1e-9


def test_turan_bracket_fixture():
    # fixture-specific bracket for balanced complete k-partite 2-graphs:
    # lower is the uniform-vector bound; the upper constant uses k/(8p|T|)
    # (the k/(4pn^2) variant fails already for the 2:3 split at p = 2)
    for (n, k) in ((5, 2), (6, 3), (7, 2), (9, 3)):
        T = ps.turan(n, k)
        m2 = 2 * T.size()
        lam1 = ps.lambda_max(T, 1.0, TIGHT).value
        assert lam1 == pytest.approx(1 - 1 / k, abs=1e-8)
        for p in (1.5, 2.0, 3.0):
            lam = ps.lambda_max(T, p, TIGHT).value
            lower = m2 * n ** (-2.0 / p)
            upper = m2 * n ** (-2.0 / p) * (1 + k / (8 * p * T.size()))
            assert lower - 1e-8 <= lam <= upper + 1e-8, (n, k, p)


def test_hofmeister_limitation_direction():
    G, lam, power_mean = hofmeister_limitation(3, 12, 0.5)
    assert lam < power_mean  # degree power means can overshoot the value
    assert G.n_vertices == 25


def test_random_suites_no_violations():
    rng = np.random.default_rng(2)
    for _ in range(10):
        G = random_graph(rng, n_lo=3, n_hi=6)
        p = float(rng.choice([1.0, 1.6, 2.0, float(G.rank), G.rank + 1.0]))
        mx = ps.lambda_max(G, p, FAST)
        mn = ps.lambda_min(G, p, FAST)
        assert no_violations(ps.bound_suite_max(G, p, mx.value))
        assert no_violations(ps.structural_bounds(G, p, mx.value))
        assert no_violations(ps.bound_suite_min(G, p, mn.value, mx.value))
        assert no_violations(ps.entry_bounds(G, p, mx))
