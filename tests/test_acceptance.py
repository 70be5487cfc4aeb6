"""Acceptance suite: one test per criterion, each printing a PASS line.

Comparison tolerances are pinned here, not computed: closed forms at 1e-6,
warning-fixture values at 1e-5, blow-up scaling at 1e-5 relative, union and
minimum suites at 1e-6, oracle agreement at 1e-3, stationarity residuals at
1e-8, and invariant-suite slack at twice the solver tolerance in force.
"""

import itertools
import math

import numpy as np
import pytest

import pspectral as ps
from pspectral.cli import main
from pspectral.fixtures import spurious_pair, two_edges_sharing
from helpers import fano, path, transversal_exhaustive

SUITE = ps.SolveOptions(tol=1e-9, restarts=6, seed=2024)
STRONG = ps.SolveOptions(tol=1e-10, restarts=16, seed=2024)
CASES = 200


def _pass(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# criterion 1: closed-form agreement, tolerance 1e-6
# ---------------------------------------------------------------------------

def test_criterion_1_closed_forms():
    checked = 0
    for r in (2, 3, 4):
        G = ps.single_edge(r)
        for p in (1.0, 1.5, 2.0, float(r), r + 2.0):
            want = math.factorial(r) / r ** (r / p)
            got = ps.lambda_max(G, p, SUITE).value
            assert abs(got - want) <= 1e-6, (r, p)
            checked += 1
    for (n, r) in ((5, 2), (5, 3), (6, 4)):
        G = ps.complete(r, n)
        for p in (1.0, 2.0, float(r)):
            want = math.perm(n, r) / n ** (r / p)
            got = ps.lambda_max(G, p, SUITE).value
            assert abs(got - want) <= 1e-6, (n, r, p)
            checked += 1
    C4 = ps.cycle(2, 4)
    for p in (1.0, 2.0, 4.0):
        assert abs(ps.lambda_max(C4, p, SUITE).value - 2 ** (3 - 4 / p)) <= 1e-6
        checked += 1
    for (r, k) in ((3, 2), (3, 4), (4, 2)):
        G = ps.beta_star(r, k)
        for p in (r - 0.5, float(r), r + 2.0):  # validity p > r-1
            want = (math.factorial(r) / r ** (r / p)) * k ** (1 - (r - 1) / p)
            got = ps.lambda_max(G, p, SUITE).value
            assert abs(got - want) <= 1e-6, (r, k, p)
            checked += 1
    for (r, t, n) in ((3, 1, 5), (4, 2, 6)):
        G = ps.t_star(r, t, n)
        for p in (r - 0.5, float(r), r + 2.0):
            want = ps.closed_form(ps.FamilySpec("t-star", r=r, t=t, n=n), p).value
            got = ps.lambda_max(G, p, SUITE).value
            assert abs(got - want) <= 1e-6, (r, t, n, p)
            checked += 1
    _pass(1, f"{checked} closed-form values matched to 1e-6")


# ---------------------------------------------------------------------------
# criterion 2: warning-fixture values
# ---------------------------------------------------------------------------

def test_criterion_2_warning_fixture_values():
    G = two_edges_sharing(3, 1)
    got2 = ps.lambda_max(G, 2.0, STRONG).value
    assert abs(got2 - 2 / math.sqrt(3)) <= 1e-5
    res = ps.lambda_max(G, 1.5, STRONG)
    assert abs(res.value - 2 / 3) <= 1e-5
    assert float(np.min(np.abs(res.vector.coords))) <= 1e-6
    _pass(2, "two-edge fixture: 2/sqrt(3) at p=2 and 2/3 with a zero entry at p=1.5")


# ---------------------------------------------------------------------------
# criterion 3: blow-up and disjoint-union transformation rules
# ---------------------------------------------------------------------------

def _lift(x, mult, p):
    out = []
    for v, c in enumerate(mult):
        out.extend([x[v] * c ** (-1.0 / p)] * c)
    return np.array(out)


def test_criterion_3_transformation_rules():
    rng = np.random.default_rng(33)
    done = 0
    while done < 20:
        r = int(rng.integers(2, 4))
        n = int(rng.integers(r, 6))
        edges = [e for e in itertools.combinations(range(n), r) if rng.random() < 0.6]
        if not edges:
            continue
        G = ps.from_edge_list(r, n, edges)
        k = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0, float(r), r + 1.5]))
        lam = ps.lambda_max(G, p, SUITE)
        H = ps.blow_up(G, [k] * n)
        seed_vec = _lift(lam.vector.coords, [k] * n, p)
        got = ps.lambda_max(H, p, SUITE, initial_vectors=[seed_vec]).value
        want = ps.blowup_scale(lam.value, r, p, k)
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want)), (r, n, k, p)
        done += 1

    for trial in range(6):
        rng2 = np.random.default_rng(100 + trial)
        r = int(rng2.integers(2, 4))
        A = ps.from_edge_list(r, r + 1, list(itertools.combinations(range(r + 1), r))[:2])
        nb = int(rng2.integers(r, 6))
        eb = [e for e in itertools.combinations(range(nb), r) if rng2.random() < 0.7]
        if not eb:
            continue
        B = ps.from_edge_list(r, nb, eb)
        U = ps.disjoint_union(A, B)
        p_low = float(rng2.uniform(1.0, r))
        la = ps.lambda_max(A, p_low, SUITE).value
        lb = ps.lambda_max(B, p_low, SUITE).value
        lu = ps.lambda_max(U, p_low, SUITE).value
        assert abs(lu - max(la, lb)) <= 1e-6

        p_hi = r + float(rng2.uniform(0.5, 2.0))
        ra = ps.lambda_max(A, p_hi, SUITE)
        rb = ps.lambda_max(B, p_hi, SUITE)
        want = ps.union_combine([ra.value, rb.value], r, p_hi)
        q = p_hi / (p_hi - r)
        wa, wb = ra.value ** q, rb.value ** q
        seed_vec = np.concatenate([(wa / (wa + wb)) ** (1 / p_hi) * ra.vector.coords,
                                   (wb / (wa + wb)) ** (1 / p_hi) * rb.vector.coords])
        lu = ps.lambda_max(U, p_hi, SUITE, initial_vectors=[seed_vec]).value
        assert abs(lu - want) <= 1e-6
    _pass(3, "blow-up scaling on 20 graphs (1e-5 rel); union rules both regimes (1e-6)")


# ---------------------------------------------------------------------------
# criterion 4: minimum suite for even rank, odd-rank symmetry
# ---------------------------------------------------------------------------

def _random_r_partite(rng, r):
    sizes = [int(rng.integers(1, 3)) for _ in range(r)]
    M = ps.complete_multipartite(r, sizes)
    edges = [e for e in M.edges() if rng.random() < 0.75]
    if not edges:
        edges = list(M.edges())[:1]
    return ps.from_edge_list(r, M.n_vertices, edges)


def test_criterion_4_minimum_suite():
    C4 = ps.cycle(2, 4)
    mn = ps.lambda_min(C4, 2.0, SUITE).value
    assert abs(mn - (-2.0)) <= 1e-6
    lob = -(2.0 * 4) ** (1 - 1 / 2.0) / 2 ** (1 / 2.0)
    assert abs(mn - lob) <= 1e-6  # the size lower bound is attained

    rng = np.random.default_rng(44)
    for i in range(20):
        r = 2 if i % 2 == 0 else 4
        G = _random_r_partite(rng, r)
        p = float(rng.choice([1.0, 2.0, float(r), r + 1.0]))
        mx = ps.lambda_max(G, p, SUITE)
        mn = ps.lambda_min(G, p, SUITE)
        assert abs(mn.value + mx.value) <= 1e-6, (r, p)

    for seed in range(5):
        rng3 = np.random.default_rng(300 + seed)
        edges = [e for e in itertools.combinations(range(6), 3) if rng3.random() < 0.5]
        if not edges:
            continue
        G = ps.from_edge_list(3, 6, edges)
        p = float(rng3.uniform(1.0, 5.0))
        mx = ps.lambda_max(G, p, SUITE)
        mn = ps.lambda_min(G, p, SUITE)
        assert mn.value == -mx.value  # odd rank: exact by construction
    _pass(4, "C4 attains the size bound; 20 partite graphs have symmetric extremes")


# ---------------------------------------------------------------------------
# criterion 5: oracle equivalence on every fixture with n <= 4
# ---------------------------------------------------------------------------

def _tiny_fixtures():
    return [
        ps.single_edge(2),
        path(3),
        ps.complete(2, 3),
        path(4),
        ps.cycle(2, 4),
        ps.complete(2, 4),
        ps.from_edge_list(2, 4, [(0, 1), (2, 3)]),
        ps.from_edge_list(2, 4, [(0, 1), (0, 2), (0, 3)]),
        ps.single_edge(3),
        ps.complete(3, 4),
        ps.single_edge(4),
    ]


def test_criterion_5_oracle_equivalence():
    checked = 0
    for G in _tiny_fixtures():
        r = G.rank
        for p in sorted({1.0, 2.0, float(r), r + 1.0}):
            for target in ("max", "min"):
                fn = ps.lambda_max if target == "max" else ps.lambda_min
                solved = fn(G, p, SUITE).value
                oracle = ps.brute_force_lambda(G, p, target, 10_000, seed=17)
                assert abs(solved - oracle) <= 1e-3, (G, p, target)
                checked += 1
    _pass(5, f"{checked} solver/oracle pairs agreed to 1e-3")


# ---------------------------------------------------------------------------
# criterion 6: stationarity residuals and the spurious stationary pair
# ---------------------------------------------------------------------------

def test_criterion_6_residuals_and_spurious_pair():
    battery = [
        (ps.single_edge(3), 3.0), (ps.single_edge(4), 4.0),
        (ps.complete(2, 5), 2.0), (ps.complete(3, 5), 3.0),
        (ps.cycle(2, 4), 2.0), (ps.cycle(3, 6), 3.0),
        (ps.beta_star(3, 3), 3.0), (ps.t_star(3, 1, 5), 4.0),
        (ps.complete(2, 4), 3.5), (fano(), 3.0),
    ]
    for G, p in battery:
        res = ps.lambda_max(G, p, SUITE)
        assert res.status == "converged", (G, p)
        assert res.residual <= 1e-8
        assert ps.eigen_residual(G, p, res.value, res.vector.coords) <= 1e-8
    for r in (3, 4):
        G, lam0, x0 = spurious_pair(r)
        assert ps.eigen_residual(G, float(r), lam0, x0) <= 1e-12
        top = ps.lambda_max(G, float(r), SUITE)
        assert top.value >= lam0 + 0.05, r
    _pass(6, "converged residuals below 1e-8; spurious pairs beaten by 0.05")


# ---------------------------------------------------------------------------
# criterion 7: invariant suites, 200 random cases each, zero failures
# ---------------------------------------------------------------------------

POOL = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024)
PART = ps.SolveOptions(tol=1e-9, restarts=3, seed=2024)


@pytest.fixture(scope="module")
def pool7():
    rng = np.random.default_rng(777)
    cases = []
    while len(cases) < CASES:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(max(3, r), 7))
        edges = [e for e in itertools.combinations(range(n), r)
                 if rng.random() < rng.uniform(0.35, 0.85)]
        if not edges:
            continue
        G = ps.from_edge_list(r, n, edges)
        p = float(np.round(rng.uniform(r - 1 + 0.1, r + 2.3), 3))
        q = float(np.round(p + rng.uniform(0.15, 1.2), 3))
        mx_p = ps.lambda_max(G, p, POOL)
        mx_q = ps.lambda_max(G, q, POOL, initial_vectors=[mx_p.vector.coords])
        mn_p = ps.lambda_min(G, p, POOL)
        # random edge split for the sum checks; part solves are seeded with
        # the parent's extremal vectors so the additivity identities cannot
        # fail through an under-resolved part
        mask = rng.random(G.num_edges) < 0.5
        e1 = [e for e, keep in zip(G.edges(), mask) if keep]
        e2 = [e for e, keep in zip(G.edges(), mask) if not keep]
        G1 = ps.from_edge_list(r, n, e1)
        G2 = ps.from_edge_list(r, n, e2)
        parts = {}
        for tag, Gi in (("1", G1), ("2", G2)):
            parts["max" + tag] = ps.lambda_max(
                Gi, p, PART, initial_vectors=[mx_p.vector.coords]).value
            parts["min" + tag] = ps.lambda_min(
                Gi, p, PART, initial_vectors=[mn_p.vector.coords]).value
        comp_max = ps.lambda_max(ps.complement(G), p, PART).value
        cases.append(dict(G=G, p=p, q=q, mx_p=mx_p, mx_q=mx_q, mn_p=mn_p,
                          G1=G1, G2=G2, parts=parts, comp_max=comp_max,
                          k_edits=G2.num_edges))
    return cases


def test_criterion_7a_monotone_lipschitz_h_f(pool7):
    for c in pool7:
        G, p, q = c["G"], c["p"], c["q"]
        lam_p, lam_q = c["mx_p"].value, c["mx_q"].value
        n, r = G.n_vertices, G.rank
        size = math.factorial(r) * G.size()
        assert lam_q >= lam_p - 1e-7                      # increasing in p
        assert abs(lam_q - lam_p) <= (q - p) * size + 1e-8  # Lipschitz
        assert lam_p * n ** (r / p) >= lam_q * n ** (r / q) - 1e-6   # h nonincreasing
        assert (lam_p / size) ** p >= (lam_q / size) ** q - 1e-7     # f nonincreasing
    _pass("7a", "monotone/Lipschitz/h/f on 200 cases")


def test_criterion_7b_subgraph_and_rayleigh(pool7):
    rng = np.random.default_rng(778)
    for c in pool7:
        G, p = c["G"], c["p"]
        lam, mn = c["mx_p"].value, c["mn_p"].value
        # edge-subgraph monotonicity (both split parts are subgraphs)
        assert c["parts"]["max1"] <= lam + 2e-9
        assert c["parts"]["max2"] <= lam + 2e-9
        # induced-subgraph monotonicity for the minimum: the parent solve is
        # reseeded with the lifted subgraph minimizer, which evaluates to the
        # subgraph value inside the parent, so the comparison is watertight
        keep = sorted(rng.choice(G.n_vertices, size=G.n_vertices - 1, replace=False))
        H, relabel = ps.induced_subgraph(G, keep)
        mn_H = ps.lambda_min(H, p, PART)
        lift = np.zeros(G.n_vertices)
        for old, new in relabel.items():
            lift[old] = mn_H.vector.coords[new]
        mn_seeded = ps.lambda_min(G, p, PART, initial_vectors=[lift]).value
        assert min(mn, mn_seeded) <= mn_H.value + 2e-9
        # two-sided value bound at 5 random points
        X = rng.normal(size=(5, G.n_vertices))
        vals = ps.evaluate_many(G, X)
        norms = np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)
        assert np.all(vals <= lam * norms ** G.rank + 1e-8)
        assert np.all(vals >= mn * norms ** G.rank - 1e-8)
    _pass("7b", "subgraph monotonicity and two-sided value bounds on 200 cases")


def test_criterion_7c_weyl_perturbation_nordhaus(pool7):
    for c in pool7:
        G, p = c["G"], c["p"]
        lam, mn, parts = c["mx_p"].value, c["mn_p"].value, c["parts"]
        slack = 4e-9
        assert lam <= parts["max1"] + parts["max2"] + slack
        assert parts["min1"] + parts["min2"] <= mn + slack
        assert mn <= parts["max1"] + parts["min2"] + slack
        k = c["k_edits"]
        bound = (math.factorial(G.rank) * k) ** (1 - 1 / p)
        assert abs(lam - parts["max1"]) <= bound + 1e-8
        assert abs(mn - parts["min1"]) <= bound + 1e-8
        n, r = G.n_vertices, G.rank
        total = lam + c["comp_max"]
        assert total >= math.perm(n, r) / n ** (r / p) - 1e-8
        assert total <= 2 ** (1 / p) * math.perm(n, r) ** (1 - 1 / p) + 1e-8
    _pass("7c", "sum subadditivity, sandwich, edit bound, complement bracket")


def test_criterion_7d_bound_suites_hold(pool7):
    for c in pool7:
        G, p = c["G"], c["p"]
        reports = (ps.bound_suite_max(G, p, c["mx_p"].value)
                   + ps.structural_bounds(G, p, c["mx_p"].value)
                   + ps.bound_suite_min(G, p, c["mn_p"].value, c["mx_p"].value)
                   + ps.entry_bounds(G, p, c["mx_p"]))
        for b in reports:
            if b.applies and b.slack is not None:
                assert b.slack >= -2e-9, (b.name, c["p"])
    _pass("7d", "every applicable bound holds with slack above -2 tol")


def test_criterion_7e_class_constancy_positivity_uniqueness(pool7):
    for c in pool7:
        G, p = c["G"], c["p"]
        x = c["mx_p"].vector.coords
        for cls in ps.equivalence_classes(G):
            if len(cls) > 1:
                vals = x[list(cls)]
                assert float(vals.max() - vals.min()) <= 1e-6
        if ps.is_connected(G) and p > G.rank - 1 and c["mx_p"].status == "converged":
            assert float(np.min(np.abs(x))) > 1e-9
    count = 0
    for c in pool7:
        G = c["G"]
        if not ps.is_connected(G):
            # a largest component always carries edges once the graph has any
            G = ps.induced_subgraph(G, max(ps.components(G), key=len))[0]
        p = G.rank + abs(c["p"] - G.rank)
        a = ps.lambda_max(G, p, ps.SolveOptions(tol=1e-9, restarts=3, seed=1))
        b = ps.lambda_max(G, p, ps.SolveOptions(tol=1e-9, restarts=3, seed=99))
        assert float(np.max(np.abs(a.vector.coords - b.vector.coords))) <= 1e-6
        count += 1
    assert count == CASES
    _pass("7e", "class constancy, positivity above r-1, restart uniqueness at p >= r")


# ---------------------------------------------------------------------------
# criterion 8: combinatorics oracles
# ---------------------------------------------------------------------------

def test_criterion_8_combinatorics_oracles():
    rng = np.random.default_rng(88)
    graphs = [ps.cycle(2, 4), ps.cycle(2, 5), ps.single_edge(3), fano(),
              ps.beta_star(3, 3), ps.complete(4, 6), ps.cycle(3, 7)]
    while len(graphs) < 60:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(max(3, r), 13))
        edges = [e for e in itertools.combinations(range(n), r)
                 if rng.random() < rng.uniform(0.1, 0.5)]
        graphs.append(ps.from_edge_list(r, n, edges))
    for G in graphs:
        odd = ps.odd_transversal(G)
        assert (odd is not None) == (transversal_exhaustive(G, 1) is not None)
        if odd is not None:
            assert all(len(odd & set(e)) % 2 == 1 for e in G.edges())
        even = ps.even_transversal(G)
        assert (even is not None) == \
            (transversal_exhaustive(G, 0, proper=True) is not None)
        if even is not None:
            assert 0 < len(even) < G.n_vertices
            assert all(len(even & set(e)) % 2 == 0 for e in G.edges())
        if G.n_vertices <= 12:
            tight, _ = ps.is_k_tight(G, 1) if G.num_edges else (False, None)
            assert tight == (ps.is_connected(G) and G.num_edges > 0)
    F = fano()
    assert ps.is_steiner(F, 2) and ps.is_k_linear(F, 1)
    lam = ps.lambda_max(F, 1.5, STRONG).value
    bound = 6 * math.comb(7, 2) / (math.comb(3, 2) * 7 ** 2)
    assert abs(lam - bound) <= 1e-5  # the Steiner system attains the linear bound
    _pass(8, "parity solver matches exhaustive search; tightness matches "
             "connectivity; the Steiner system attains its bound")


# ---------------------------------------------------------------------------
# criterion 9: random-graph scaling check
# ---------------------------------------------------------------------------

def test_criterion_9_random_graph_scaling():
    opts = ps.SolveOptions(tol=1e-8, restarts=3, seed=0)
    scalef = 0.3 * 40 ** (3 - 3 / 2.0)
    for trial in range(5):
        G = ps.random_gnp(3, 40, 0.3, seed=trial + 1)
        ratio = ps.lambda_max(G, 2.0, opts).value / scalef
        assert 0.9 <= ratio <= 1.1, (trial, ratio)
    _pass(9, "five seeded trials inside [0.9, 1.1]")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical machine-readable reports
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path, capsys):
    graph = tmp_path / "g.json"
    ps.write_file(ps.random_gnp(3, 7, 0.5, 5), graph)

    def capture(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    base = ["compute", "--input", str(graph), "--p", "3", "--seed", "3",
            "--vector", "--json"]
    code1, out1 = capture(base)
    code2, out2 = capture(base)
    assert out1 == out2 and code1 == code2
    _, out3 = capture(base + ["--parallel"])
    assert out3 == out1  # parallel restarts reduce to the same bytes

    _, bounds1 = capture(["bounds", "--input", str(graph), "--p", "3", "--json"])
    _, bounds2 = capture(["bounds", "--input", str(graph), "--p", "3", "--json"])
    assert bounds1 == bounds2

    _, rnd1 = capture(["random", "--r", "3", "--n", "12", "--prob", "0.4",
                       "--q", "2", "--trials", "2", "--seed", "9", "--json"])
    _, rnd2 = capture(["random", "--r", "3", "--n", "12", "--prob", "0.4",
                       "--q", "2", "--trials", "2", "--seed", "9", "--json"])
    assert rnd1 == rnd2
    _pass(10, "repeated runs byte-identical; serial and parallel results equal")
