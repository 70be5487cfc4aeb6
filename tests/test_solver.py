import hashlib
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import pspectral as ps
from helpers import (FAST, MIN_FUZZ, TIGHT, clique_number, criterion7_draws, min_fuzz_cases,
                     random_graph)


def test_single_edge_max_across_p():
    K = ps.single_edge(3)
    for p in (1.0, 1.5, 2.0, 3.0, 5.0):
        res = ps.lambda_max(K, p, FAST)
        assert res.value == pytest.approx(6 / 3 ** (3 / p), abs=1e-9)
    res = ps.lambda_max(K, 3.0, FAST)
    assert res.status == "converged"
    assert res.residual <= 1e-10


def test_cycle4_max_and_min():
    C4 = ps.cycle(2, 4)
    for p in (1.0, 2.0, 4.0):
        assert ps.lambda_max(C4, p, FAST).value == pytest.approx(2 ** (3 - 4 / p), abs=1e-8)
    res = ps.lambda_min(C4, 2.0, FAST)
    assert res.value == pytest.approx(-2.0, abs=1e-9)
    assert res.status == "converged"


def test_two_triples_sharing_vertex():
    G = ps.from_edge_list(3, 5, [(0, 1, 2), (2, 3, 4)])
    assert ps.lambda_max(G, 2.0, TIGHT).value == pytest.approx(2 / math.sqrt(3), abs=1e-6)
    res = ps.lambda_max(G, 1.5, TIGHT)
    assert res.value == pytest.approx(2 / 3, abs=1e-6)
    assert np.min(np.abs(res.vector.coords)) <= 1e-6  # no positive maximizer here


def test_min_single_edge_even_rank():
    res = ps.lambda_min(ps.single_edge(4), 4.0, FAST)
    assert res.value == pytest.approx(-6.0, abs=1e-9)


def test_min_beta_star_even_rank():
    res = ps.lambda_min(ps.beta_star(4, 2), 4.0, FAST)
    assert res.value == pytest.approx(-6 * 2 ** 0.25, abs=1e-8)


def test_min_odd_rank_is_negated_max():
    rng = np.random.default_rng(5)
    for _ in range(8):
        G = random_graph(rng, r=3)
        p = float(rng.choice([1.0, 2.0, 3.0, 4.5]))
        mx = ps.lambda_max(G, p, FAST)
        mn = ps.lambda_min(G, p, FAST)
        assert mn.value == -mx.value  # exact by construction
        assert ps.evaluate(G, mn.vector.coords) == mn.value


def test_empty_graph_returns_zero():
    G = ps.WeightedHypergraph(3, 4, {})
    for target in ("max", "min"):
        fn = ps.lambda_max if target == "max" else ps.lambda_min
        res = fn(G, 2.0, FAST)
        assert res.value == 0.0 and res.status == "converged"
        assert not res.vector.coords.any()


def test_max_value_equals_polynomial_at_vector():
    rng = np.random.default_rng(6)
    for _ in range(10):
        G = random_graph(rng, weighted=True)
        p = float(rng.uniform(1.3, G.rank + 2))
        res = ps.lambda_max(G, p, FAST)
        assert ps.evaluate(G, res.vector.coords) == res.value
        assert abs(ps.lp_norm(res.vector.coords, p) - 1.0) <= 1e-12


def test_status_regimes():
    K = ps.single_edge(3)
    assert ps.lambda_max(K, 3.0, FAST).status == "converged"
    assert ps.lambda_max(K, 1.0, FAST).status == "converged"
    assert ps.lambda_max(K, 2.0, FAST).status == "best-effort"  # 1 < p < r
    # a 2-graph's minimum at p = 2 is an eigenvalue, exact; at p = 3 the
    # even-rank minimum without an odd transversal has no certificate
    assert ps.lambda_min(ps.complete(2, 4), 2.0, FAST).status == "converged"
    assert ps.lambda_min(ps.complete(2, 4), 3.0, FAST).status == "best-effort"


def test_solve_options_validation():
    with pytest.raises(ValueError, match="tolerance"):
        ps.SolveOptions(tol=0.0)
    with pytest.raises(ValueError, match="restarts"):
        ps.SolveOptions(restarts=0)
    with pytest.raises(ValueError, match="exponent"):
        ps.lambda_max(ps.single_edge(2), 0.9, FAST)


def test_solve_options_reject_non_finite_tol_and_non_integer_counts():
    # an infinite tol would stop every restart at once: cycle(2,5) at p = 1.5
    # would return 1.155890669 instead of 1.169607095
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            ps.SolveOptions(tol=tol)
    with pytest.raises(ValueError, match="restarts must be an integer"):
        ps.SolveOptions(restarts=2.5)
    with pytest.raises(ValueError, match="iteration cap must be an integer"):
        ps.SolveOptions(max_iter=2.5)
    # else numpy's SeedSequence raises TypeError, or a message naming no option
    with pytest.raises(ValueError, match="seed must be an integer"):
        ps.SolveOptions(seed=2.5)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ps.SolveOptions(seed=-1)
    assert ps.SolveOptions(restarts=np.int64(3), max_iter=np.int32(7)).restarts == 3


# backtracking budget -----------------------------------------------------------

def test_converged_simplex_search_stops_within_the_halving_budget(monkeypatch):
    # the uniform start is the maximizer, so the first search fails every
    # trial: one projection for the start plus one per trial
    from pspectral import solver
    calls = []
    real = solver._project_simplex
    monkeypatch.setattr(solver, "_project_simplex", lambda v: calls.append(1) or real(v))
    res = ps.lambda_max(ps.single_edge(2), 1.0, ps.SolveOptions(restarts=1))
    assert res.value == 0.5 and res.status == "converged"
    assert len(calls) <= 1 + solver._MAX_HALVINGS


def test_failing_armijo_search_stops_within_the_halving_budget(monkeypatch):
    # at the minimizer no trial lowers the value: one gradient per trial
    from pspectral import solver
    G = ps.single_edge(2)
    x = np.array([1.0, -1.0]) / math.sqrt(2.0)
    g = ps.gradient(G, x)
    lam = float(x @ g) / G.rank
    calls = []
    real = solver.gradient
    monkeypatch.setattr(solver, "gradient", lambda G, x: calls.append(1) or real(G, x))
    assert solver._armijo_step(G, 2.0, x, lam, g, None) is None
    assert 0 < len(calls) <= solver._MAX_HALVINGS


# maximum at 1 < p < r: the fixed point with the Newton polish ---------------

BASELINE = ps.SolveOptions(tol=1e-10, restarts=8, seed=11)


def _every_start_meets_tol(G, p, opts) -> int:
    """Run every start of the maximum to its end, with no known end points,
    and check that each meets tol; then check that each outcome of the solve
    met tol or stopped within the duplicate radius of an earlier outcome
    that met tol with a value at least its own (within the stop rule's
    tol * max(1, |lam|)).  Returns the number of starts."""
    from pspectral import solver
    starts = solver._starts(G, p, opts, [], 1.0)
    step = solver._fixed_point_step(solver.default_shift(G))
    for x0 in starts:
        assert solver._sphere_loop(G, p, x0, opts.tol, opts.max_iter, 1.0, step).res <= opts.tol
    outcomes = ps.solve_restarts(G, p, "max", opts)
    assert len(outcomes) == len(starts)
    for i, (lam, x, res) in enumerate(outcomes):
        assert res <= opts.tol or any(
            res_k <= opts.tol and np.abs(x - x_k).max() <= solver._DUPLICATE_RADIUS
            and lam_k >= lam - opts.tol * max(1.0, abs(lam))
            for lam_k, x_k, res_k in outcomes[:i]), i
    return len(starts)


def test_every_cycle6_restart_meets_tol_at_p15():
    # the fixed point alone crawled from the edge and random starts and
    # stalled at residual 6.3e-7
    assert _every_start_meets_tol(ps.cycle(2, 6), 1.5, BASELINE) == 8


def test_every_two_triples_restart_meets_tol_at_p15():
    # Newton lands the maximizer's zero entries on roundoff such as -1e-28;
    # discarding those points left 10 of these 24 restarts stalled above tol
    from pspectral.fixtures import two_edges_sharing
    opts = ps.SolveOptions(tol=1e-11, restarts=24, seed=7)
    assert _every_start_meets_tol(two_edges_sharing(3, 1), 1.5, opts) == 24


def test_restarts_near_a_known_end_point_skip_their_polish(monkeypatch):
    # every restart ran to its own Newton polish: 23 polishes and 101
    # Hessians; the restarts that reach an earlier end point now stop there
    from pspectral import solver
    from pspectral.fixtures import two_edges_sharing
    polishes, hessians = [], []
    real_polish, real_hessian = solver._newton_polish, solver.hessian
    monkeypatch.setattr(solver, "_newton_polish",
                        lambda *a: polishes.append(1) or real_polish(*a))
    monkeypatch.setattr(solver, "hessian", lambda *a: hessians.append(1) or real_hessian(*a))
    res = ps.lambda_max(two_edges_sharing(3, 1), 1.5,
                        ps.SolveOptions(tol=1e-11, restarts=24, seed=7))
    assert float.hex(res.value) == "0x1.5555555555555p-1"
    assert res.status == "best-effort" and res.restarts_used == 24
    assert len(polishes) <= 6 and len(hessians) < 101


def test_pick_never_returns_a_duplicate():
    from pspectral.solver import _Cand, _pick
    x = np.array([0.6, 0.8])
    met = _Cand(x, 1.0, 0.0, 10, True)
    for sense in (1.0, -1.0):
        met.lam = sense
        # the duplicate has the best value, the smallest vector at a tied
        # value, or both
        for good, y in ((2.0, x), (1.0, np.array([0.0, 1.0])), (2.0, np.array([0.0, 1.0]))):
            dup = _Cand(y, sense * good, 0.5, 3, False, dup=True)
            assert _pick([dup, met], sense, 1e-10) is met
            assert _pick([met, dup], sense, 1e-10) is met


def test_pick_takes_the_best_tied_value_before_the_vector():
    from pspectral.solver import _Cand, _pick
    lo = _Cand(np.array([0.0, 1.0]), 1.0, 0.0, 10, True)
    hi = _Cand(np.array([1.0, 0.0]), 1.0 + 1e-15, 0.0, 10, True)
    assert _pick([lo, hi], 1.0, 1e-10) is hi
    assert _pick([lo, hi], -1.0, 1e-10) is lo
    hi.lam = lo.lam
    assert _pick([hi, lo], 1.0, 1e-10) is lo       # an exact tie: the smaller vector


def test_curve_restarts_after_a_face_warm_start_stop_as_duplicates(monkeypatch):
    # the p = 1 maximizer of cycle(3,7) lies inside a face of maximizers, and
    # the p = 1.5 maximum is warm-started from it; its last start ran 300
    # iterations to a point that the earlier restarts had already reached
    from pspectral import solver
    G = ps.cycle(3, 7)
    warm = ps.normalize_lp(np.abs(ps.lambda_max(G, 1.0, FAST).vector.coords), 1.5)
    runs = []
    real = solver._sphere_loop
    monkeypatch.setattr(solver, "_sphere_loop",
                        lambda *a: runs.append((a[1], a[2], a[5], real(*a))) or runs[-1][3])
    ps.lambda_curve(G, [1.0, 1.5, 2.0, 3.0], FAST)
    top = [(x0, c) for p, x0, sense, c in runs if p == 1.5 and sense > 0]
    assert len(top) == FAST.restarts
    assert np.array_equal(top[1][0], warm)
    assert top[-1][1].dup and top[-1][1].iters <= 20
    assert max(c.iters for _, c in top) <= 20


def test_cycle7_maximum_meets_tol_past_the_saddle(monkeypatch):
    # five restarts stall at the saddle value 1.0813376 without the polish;
    # Newton tried only at chunk ends kept landing on that saddle while the
    # fixed point crawled past it (26,205 gradient calls)
    from pspectral import solver
    calls = []
    real = solver.gradient
    monkeypatch.setattr(solver, "gradient", lambda G, x: calls.append(1) or real(G, x))
    res = ps.lambda_max(ps.cycle(2, 7), 1.5, BASELINE)
    assert res.residual <= BASELINE.tol
    assert res.value >= 1.08135886542
    assert len(calls) <= 1000


def test_fixed_point_steps_never_lower_the_value(monkeypatch):
    # the value-scaled shift may overshoot; its step is then redone with the
    # worst-case shift, so no step the loop receives goes downhill
    from pspectral import solver
    steps, images = [], []
    real_step, real_image = solver._fixed_point_step, solver._shifted_image

    def spy_step(cap, *a):
        step = real_step(cap, *a)

        def wrapped(G, p, x, lam, g, eta):
            moved = step(G, p, x, lam, g, eta)
            if moved is not None:
                steps.append((lam, moved[1]))
            return moved
        return wrapped

    monkeypatch.setattr(solver, "_fixed_point_step", spy_step)
    monkeypatch.setattr(solver, "_shifted_image",
                        lambda *args: images.append(1) or real_image(*args))
    rng = np.random.default_rng(31)
    for i in range(30):
        G = random_graph(rng, weighted=i % 2 == 1)
        for p in (1.1, 1.5, 2.0, 2.5, float(G.rank), G.rank + 1.5):
            ps.lambda_max(G, p, ps.SolveOptions(tol=1e-9, restarts=4, seed=i))
    assert all(new >= lam - 1e-14 * max(1.0, abs(lam)) for lam, new in steps)
    # the fallback, which costs a second image, ran too
    assert len(images) > len(steps) > 0


def test_dense_rank4_maximum_meets_tol_at_p2(monkeypatch):
    # with the worst-case shift (r-1)! * max degree, 25 times the value here,
    # the edge starts crawled about 225 iterations to the Newton gate (546
    # gradient calls); the value-scaled shift gets there in about 9
    from pspectral import solver
    calls = []
    real = solver.gradient
    monkeypatch.setattr(solver, "gradient", lambda G, x: calls.append(1) or real(G, x))
    opts = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024)
    res = ps.lambda_max(ps.random_gnp(4, 25, 0.45, 1), 2.0, opts)
    assert res.residual <= opts.tol
    assert len(calls) <= 150


def test_newton_fires_when_the_gate_opens():
    # every restart's residual enters the gate before the first chunk ends
    # at 20 iterations, and Newton from there meets tol
    opts = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024)
    res = ps.lambda_max(ps.random_gnp(4, 25, 0.45, 1), 4.0, opts)
    assert res.residual <= opts.tol
    assert res.iterations < 20


def _counting(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_newton_steps_at_p_above_1_need_no_least_squares(monkeypatch):
    # each Newton step is an LU solve; the SVD least-squares solve is only
    # the fallback for a singular system
    lstsq, solve = _counting(monkeypatch, "lstsq"), _counting(monkeypatch, "solve")
    opts = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024)
    res = ps.lambda_max(ps.random_gnp(3, 40, 0.3, 2), 2.0, opts)
    assert res.residual <= opts.tol
    assert lstsq == [] and len(solve) > 0


def test_newton_falls_back_to_least_squares_when_lu_fails(monkeypatch):
    opts = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024)
    G3, G4 = ps.random_gnp(3, 12, 0.4, 5), ps.random_gnp(4, 8, 0.5, 2)
    assert ps.odd_transversal(G4) is None   # the minimum runs its own Newton
    for G, p, solve in ((G3, 2.0, ps.lambda_max), (G3, 1.5, ps.lambda_max),
                        (G4, 4.0, ps.lambda_min), (G4, 1.5, ps.lambda_min)):
        plain = solve(G, p, opts)
        with monkeypatch.context() as m:
            def singular(*a, **k):
                raise np.linalg.LinAlgError("Singular matrix")
            m.setattr(np.linalg, "solve", singular)
            lstsq = _counting(m, "lstsq")
            fallback = solve(G, p, opts)
        assert len(lstsq) > 0
        assert fallback.status == plain.status
        assert abs(fallback.value - plain.value) <= 4 * math.ulp(plain.value)


def test_newton_leaves_its_start_unchanged():
    # the Newton loop writes into z, which at a = 1 (p = 1, p >= 2) is x
    from pspectral.solver import _newton_stationary
    G = ps.random_gnp(3, 9, 0.4, 1)
    rng = np.random.default_rng(3)
    for p in (1.0, 1.5, 2.0, 3.0):
        x = ps.normalize_lp(rng.uniform(0.1, 1.0, 9), p)
        start = x.copy()
        with np.errstate(all="ignore"):
            _newton_stationary(G, p, x, ps.evaluate(G, x), 1e-10)
        assert np.array_equal(x, start)


# maximum at p >= r: the concavity gap certifies and stops the restarts ------

def test_concavity_gap_is_infinite_where_a_live_vertex_is_zero():
    # a point on one of two disjoint edges is stationary at 2^(1/3), and the
    # gap read over its support alone is 1.5e-16; the maximum is 2^(2/3)
    from pspectral.solver import _concavity_gap
    G = ps.disjoint_union(ps.single_edge(2), ps.single_edge(2))
    x = np.array([1.0, 1.0, 0.0, 0.0]) / 2 ** (1 / 3)
    lam = ps.evaluate(G, x)
    assert ps.eigen_residual(G, 3.0, lam, x) <= 1e-15
    assert _concavity_gap(G, 3.0, x, lam, ps.gradient(G, x)) == math.inf
    assert ps.lambda_max(G, 3.0, FAST).value == pytest.approx(2 ** (2 / 3), abs=1e-12)
    # a vertex of degree 0 does not enter the polynomial
    H = ps.from_edge_list(2, 3, [(0, 1)])
    y = np.array([1.0, 1.0, 0.0]) / 2 ** (1 / 3)
    assert abs(_concavity_gap(H, 3.0, y, ps.evaluate(H, y), ps.gradient(H, y))) <= 1e-15


def test_concavity_gap_bounds_the_maximum_at_random_points():
    from pspectral.solver import _concavity_gap
    rng = np.random.default_rng(41)
    graphs = 0
    while graphs < 12:
        G = random_graph(rng, weighted=graphs % 2 == 1)
        if not ps.is_connected(G):
            continue
        graphs += 1
        for p in (float(G.rank), G.rank + 0.5, G.rank + 2.0):
            top = ps.lambda_max(G, p, FAST).value
            for _ in range(6):
                x = ps.normalize_lp(rng.uniform(0.05, 1.0, G.n_vertices), p)
                lam = ps.evaluate(G, x)
                gap = _concavity_gap(G, p, x, lam, ps.gradient(G, x))
                assert top <= lam + gap + FAST.tol


def test_maximum_at_p_ge_r_stops_at_its_first_certified_restart(monkeypatch):
    # the 2-graphs drawn at p = 2 take the restarts, as the closed form's
    # fallback does above its n cap
    from pspectral import solver
    monkeypatch.setattr(solver, "_DENSE_MAX_N", 0)
    res = ps.lambda_max(ps.random_gnp(4, 25, 0.45, 1), 4.0, POOL)
    assert res.restarts_used == 1
    rng = np.random.default_rng(43)
    stopped = 0
    for i in range(16):
        G = random_graph(rng, weighted=i % 2 == 1)
        p = G.rank + float(rng.choice([0.0, 0.5, 2.0]))
        res = ps.lambda_max(G, p, FAST)
        if res.restarts_used < FAST.restarts:
            stopped += 1
            assert res.status == "converged"
            assert res.gap <= FAST.tol * max(1.0, res.value)
    assert stopped > 0


def test_converged_at_p_ge_r_rests_on_the_gap(monkeypatch):
    # the maximizer lies on the 5-cycle, where the single edge's vertices are
    # zero: every restart meets tol, but the gap there is infinite.  At rank
    # 3 the restarts leave such vertices near 1e-7, not 0, and certify, so
    # the 2-graph takes the restarts, as above the closed form's n cap
    from pspectral import solver
    G = ps.disjoint_union(ps.cycle(2, 5), ps.single_edge(2))
    exact = ps.lambda_max(G, 2.0, FAST)
    with monkeypatch.context() as m:
        m.setattr(solver, "_DENSE_MAX_N", 0)
        res = ps.lambda_max(G, 2.0, FAST)
        assert res.residual <= FAST.tol and res.gap == math.inf
        assert res.status == "best-effort"
        # the 5-cycle has no odd transversal: the minimum's restarts certify nothing
        assert ps.lambda_min(G, 2.0, FAST).status == "best-effort"
    # the closed form is exact: the 5-cycle's top eigenvalue 2, converged
    assert exact.status == "converged" and exact.value == 2.0
    assert exact.restarts_used == 0 and math.isnan(exact.gap)
    assert ps.lambda_min(G, 2.0, FAST).status == "converged"


def test_concavity_skip_never_hides_a_failing_second_order_test(monkeypatch):
    # a positive Newton point of the maximum at p >= r skips the second-order
    # test; run the test anyway at every such point
    from pspectral import solver
    curvatures = []
    real = solver._newton_polish

    def polish(G, p, x, lam, tol, sense):
        out = real(G, p, x, lam, tol, sense)
        if out is not None and out[3] and sense > 0 and p >= G.rank and np.all(out[0] > 0.0):
            curvatures.append(solver._wrong_curvature(G, p, out[0], out[1], sense)[0])
        return out

    monkeypatch.setattr(solver, "_newton_polish", polish)
    rng = np.random.default_rng(52)
    for i in range(200):
        G = random_graph(rng, weighted=i % 2 == 1)
        p = G.rank + (0.0 if i % 10 == 0 else float(rng.uniform(0.0, 3.0)))
        ps.lambda_max(G, p, POOL)
    assert curvatures and min(curvatures) >= 0.0


def test_odd_transversal_minimum_runs_no_minimum_restart(monkeypatch):
    # case 93's part graph in the pool fixture, with the odd transversal
    # {3, 5}: beside its flipped maximizer, which is optimal, restarts of the
    # descent ran all 100,000 iterations
    from pspectral import solver
    senses = []
    real = solver._sphere_loop
    monkeypatch.setattr(solver, "_sphere_loop",
                        lambda *a: senses.append(a[5]) or real(*a))
    G = ps.from_edge_list(2, 6, [(1, 5), (2, 3), (3, 4), (4, 5)])
    opts = ps.SolveOptions(tol=1e-9, restarts=3, seed=2024)
    top = ps.lambda_max(G, 1.179, opts)
    bot = ps.lambda_min(G, 1.179, opts)
    assert bot.value == -top.value
    assert bot.restarts_used == 1 and bot.status == top.status
    assert senses and -1.0 not in senses


# the odd-transversal minimum reuses the maximum lambda_max recorded ---------

def _gradient_calls(monkeypatch):
    from pspectral import solver
    calls = []
    real = solver.gradient
    monkeypatch.setattr(solver, "gradient", lambda *a: calls.append(1) or real(*a))
    return calls


def _bits(res):
    return (float.hex(res.value), res.vector.coords.tobytes(), float.hex(res.residual),
            res.iterations, res.restarts_used, res.status, float.hex(res.gap))


def test_minimum_after_the_maximum_solves_nothing(monkeypatch):
    G = ps.cycle(3, 7)
    ps.lambda_max(G, 2.5, FAST)
    calls = _gradient_calls(monkeypatch)
    bot = ps.lambda_min(G, 2.5, FAST)
    assert calls == []
    assert _bits(bot) == _bits(ps.lambda_min(ps.cycle(3, 7), 2.5, FAST))
    assert len(calls) > 0


def test_minimum_with_other_arguments_solves_afresh(monkeypatch):
    G = ps.cycle(3, 7)
    ps.lambda_max(G, 2.5, FAST)
    calls = _gradient_calls(monkeypatch)
    other = ps.SolveOptions(tol=1e-10, restarts=8, seed=12)
    for p, opts, warm in ((3.0, FAST, ()), (2.5, other, ()),
                          (2.5, FAST, [np.linspace(1.0, 2.0, 7)])):
        calls.clear()
        ps.lambda_min(G, p, opts, initial_vectors=warm)
        assert len(calls) > 0


def test_writing_into_a_returned_maximum_leaves_the_record(monkeypatch):
    G = ps.cycle(3, 7)
    want = _bits(ps.lambda_min(ps.cycle(3, 7), 2.5, FAST))
    top = ps.lambda_max(G, 2.5, FAST)
    top.vector.coords[:] = 7.0
    calls = _gradient_calls(monkeypatch)
    assert _bits(ps.lambda_min(G, 2.5, FAST)) == want
    assert calls == []


def test_lambda_max_always_solves_and_the_record_stays_small(monkeypatch):
    from pspectral import solver
    starts = []
    real = solver._sphere_loop
    monkeypatch.setattr(solver, "_sphere_loop", lambda *a: starts.append(1) or real(*a))
    G = ps.cycle(3, 7)
    for _ in range(2):
        starts.clear()
        ps.lambda_max(G, 2.5, FAST)
        assert len(starts) > 0
    for p in np.linspace(3.0, 4.0, 10):
        ps.lambda_max(G, p, FAST)
    assert len(G._maxima) == solver._RECORDED_MAXIMA


# even-rank minimum: sphere descent with the Newton polish --------------------

POOL = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024)
EXAMPLE2 = ps.from_edge_list(2, 6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                                    (3, 4), (3, 5), (4, 5)])


def test_example2_reaches_the_oracle_minimum_without_warnings(monkeypatch):
    # at p = 1.118 the minimizer has coordinates near 4e-4, where plain
    # descent converges only linearly; the oracle finds -0.622850848.
    # Armijo steps crawled about 1,260 iterations a restart toward them
    # (8,211 gradient calls); the dual step needs about 300
    from pspectral import solver
    calls = []
    real = solver.gradient
    monkeypatch.setattr(solver, "gradient", lambda G, x: calls.append(1) or real(G, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ps.lambda_min(EXAMPLE2, 1.118, POOL)
    assert res.value <= -0.622850848 + 1e-9
    assert res.residual <= 1e-8
    assert res.iterations < POOL.max_iter
    assert len(calls) <= 1000


def test_even_rank_minimum_kernel_call_budget(monkeypatch):
    # one edge pass per Newton step at p > 1: the Hessian, with the gradient
    # read off it and both reused by the polish's residual and second-order
    # test.  A gradient call beside each Hessian made 204 gradient calls here
    from pspectral import solver
    calls = {"gradient": 0, "hessian": 0}
    for name in calls:
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda *a, name=name, real=real: calls.update(
            {name: calls[name] + 1}) or real(*a))
    res = ps.lambda_min(ps.random_gnp(4, 12, 0.5, 3), 4.0, POOL)
    assert res.residual <= POOL.tol
    assert calls == {"gradient": 192, "hessian": 10}


def test_cycle4_12_minimum_meets_tol():
    opts = ps.SolveOptions(tol=1e-10, restarts=8, seed=2024)
    # plain descent stopped at residual 4.5e-8: its Armijo rule cannot go lower
    res = ps.lambda_min(ps.cycle(4, 12), 2.0, opts)
    assert res.residual <= opts.tol


def test_criterion7_minima_reach_their_best_sign_pattern():
    from pspectral.solver import _sign_patterns
    draws = criterion7_draws(34)
    for k in (4, 18, 33):
        G, p = draws[k]
        best = float(ps.evaluate_many(G, _sign_patterns(G.n_vertices, p)).min())
        res = ps.lambda_min(G, p, POOL)
        assert res.value <= best + 1e-9 * max(1.0, abs(best)), k


def test_dense_rank4_minimum_no_higher_than_before_the_polish(monkeypatch):
    # Armijo trials are scored by the Euler identity at their gradient; the
    # exact sum is left to the reported values and Newton's acceptance test
    # (1,071 calls when every trial paid for one)
    from pspectral import solver
    calls = []
    real = solver.evaluate
    monkeypatch.setattr(solver, "evaluate", lambda G, x: calls.append(1) or real(G, x))
    res = ps.lambda_min(ps.random_gnp(4, 25, 0.45, 7), 4.0, POOL)
    # the value the descent alone returned with these options
    assert res.value <= -316.65374211888945
    assert len(calls) <= 20


def test_min_restarts_never_end_above_their_start():
    from pspectral.solver import _starts
    rng = np.random.default_rng(16)
    cases = [(EXAMPLE2, 1.118)]
    while len(cases) < 6:
        G = random_graph(rng, r=int(rng.choice([2, 4])), n_lo=4, n_hi=7)
        if ps.odd_transversal(G) is None:
            cases.append((G, float(rng.uniform(1.1, G.rank + 1.0))))
    for G, p in cases:
        starts = _starts(G, p, POOL, [], -1.0)
        outs = ps.solve_restarts(G, p, "min", POOL)
        assert len(outs) == len(starts)
        for x0, (lam, _, _) in zip(starts, outs):
            start = ps.evaluate(G, x0)
            assert lam <= start + 1e-12 * max(1.0, abs(start))


def test_dual_steps_never_raise_the_minimum(monkeypatch):
    # the minimum's shifted step in the dual point keeps an image only when
    # its value does not rise, else redoes it with the worst-case shift, and
    # takes an Armijo step only when that rises too
    from pspectral import solver
    images = []
    real = solver._shifted_image
    monkeypatch.setattr(solver, "_shifted_image", lambda *a: images.append(1) or real(*a))
    rng = np.random.default_rng(37)
    steps = 0
    for i in range(12):
        G = random_graph(rng, r=int(rng.choice([2, 4])), n_lo=4, n_hi=8, weighted=i % 2 == 1)
        step = solver._fixed_point_step(solver.default_shift(G), -1.0)
        for p in (1.05, 1.3, 1.7):
            for _ in range(3):
                x = ps.normalize_lp(rng.uniform(-1.0, 1.0, G.n_vertices), p)
                g = ps.gradient(G, x)
                lam, eta = float(x @ g) / G.rank, None
                for _ in range(10):
                    moved = step(G, p, x, lam, g, eta)
                    if moved is None:
                        break
                    steps += 1
                    assert moved[1] <= lam + 1e-14 * max(1.0, abs(lam))
                    x, lam, eta, g = moved
    # the worst-case redo, which costs a second image, ran too
    assert len(images) > steps > 0


def test_minimum_at_p_ge_2_takes_no_dual_step(monkeypatch):
    # there Newton solves in x itself, and the dual step found worse dense
    # rank-4 minima at p = 4
    from pspectral import solver
    senses = []
    real = solver._shifted_image
    monkeypatch.setattr(solver, "_shifted_image", lambda *a: senses.append(a[5]) or real(*a))
    G4 = ps.random_gnp(4, 8, 0.5, 2)
    for G in (EXAMPLE2, G4):
        assert ps.odd_transversal(G) is None
        for p in (2.0, 3.0, 4.0):
            ps.lambda_min(G, p, FAST)
    assert senses == []
    ps.lambda_min(G4, 1.5, FAST)
    assert set(senses) == {-1.0}


def test_even_rank_minimum_fuzz(monkeypatch):
    # near p = 1 the Armijo descent crawled: cases 17 and 39 ran into
    # max_iter and returned residuals 0.49 and 0.27
    from pspectral import solver
    iters = []
    real = solver._sphere_loop

    def spy(*args):
        cand = real(*args)
        iters.append(cand.iters)
        return cand
    monkeypatch.setattr(solver, "_sphere_loop", spy)
    for k, (G, p) in enumerate(min_fuzz_cases()):
        res = ps.lambda_min(G, p, MIN_FUZZ)
        assert res.residual <= 1e-6, k
        if k in (17, 39):
            assert res.value <= ps.brute_force_lambda(G, p, "min") + 1e-9, k
    assert iters and max(iters) < MIN_FUZZ.max_iter


# residuals ------------------------------------------------------------------

def test_eigen_residual_exact_pairs():
    K = ps.single_edge(3)
    x = 3 ** (-1 / 3) * np.ones(3)
    assert ps.eigen_residual(K, 3.0, 2.0, x) <= 1e-12
    # uniform vector on any cycle satisfies the stationarity system
    for (r, n, p) in ((3, 5, 2.0), (3, 6, 3.0), (2, 5, 1.5)):
        C = ps.cycle(r, n)
        lam = math.factorial(r) * n ** (1.0 - r / p)
        x = np.full(n, n ** (-1.0 / p))
        assert ps.eigen_residual(C, p, lam, x) <= 1e-12
    # sparse support pairs with value zero at rank >= 3
    G = ps.complete(3, 4)
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert ps.eigen_residual(G, 2.5, 0.0, e0) == 0.0


def test_eigen_residual_rejects_p1_and_off_sphere():
    K = ps.single_edge(3)
    with pytest.raises(ValueError, match="p = 1"):
        ps.eigen_residual(K, 1.0, 1.0, np.ones(3) / 3)
    with pytest.raises(ValueError, match="unit vector"):
        ps.eigen_residual(K, 2.0, 1.0, np.ones(3))


def test_eigen_residual_rejects_nan_vectors():
    with pytest.raises(ValueError, match="unit vector"):
        ps.eigen_residual(ps.cycle(2, 4), 2.0, 1.0, [math.nan, 0.5, 0.5, 0.5])


def test_converged_results_report_small_residual():
    rng = np.random.default_rng(7)
    for _ in range(10):
        G = random_graph(rng)
        p = float(G.rank + rng.uniform(0.0, 2.0))
        res = ps.lambda_max(G, p, FAST)
        if res.status == "converged":
            assert res.residual <= 1e-8
            # recomputation agrees
            again = ps.eigen_residual(G, p, res.value, res.vector.coords)
            assert again <= 1e-8


# oracle ---------------------------------------------------------------------

def test_oracle_single_edge():
    val = ps.brute_force_lambda(ps.single_edge(3), 2.0, "max", 20_000, 0)
    assert val == pytest.approx(6 / 3 ** 1.5, abs=1e-3)
    val = ps.brute_force_lambda(ps.single_edge(4), 4.0, "min", 20_000, 0)
    assert val == pytest.approx(-6.0, abs=1e-3)


def test_oracle_cycle_min():
    val = ps.brute_force_lambda(ps.cycle(2, 4), 2.0, "min", 20_000, 0)
    assert val == pytest.approx(-2.0, abs=1e-3)


def test_oracle_is_one_sided():
    rng = np.random.default_rng(8)
    for _ in range(5):
        G = random_graph(rng, n_lo=3, n_hi=5)
        p = float(rng.choice([1.0, 2.0, float(G.rank)]))
        mx = ps.lambda_max(G, p, TIGHT).value
        mn = ps.lambda_min(G, p, TIGHT).value
        bmx = ps.brute_force_lambda(G, p, "max", 4000, 3)
        bmn = ps.brute_force_lambda(G, p, "min", 4000, 3)
        assert bmx <= mx + 1e-9
        assert bmn >= mn - 1e-9


def test_oracle_polish_uses_only_the_batch_kernel(monkeypatch):
    # that no scipy runs at all is test_package_imports_no_scipy's to check
    from pspectral import polyform, solver
    calls = []
    for mod, name in ((polyform, "evaluate"), (solver, "evaluate")):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, real=real, name=name, **k:
                            calls.append(name) or real(*a, **k))
    ps.brute_force_lambda(ps.cycle(2, 4), 2.0, "min", 2000, 0)
    ps.brute_force_lambda(ps.complete(3, 4), 1.0, "max", 2000, 0)
    assert calls == []


def test_oracle_same_seed_bit_identical():
    G = ps.random_gnp(3, 6, 0.5, 2)
    for p, target in ((1.0, "max"), (2.5, "min")):
        a = ps.brute_force_lambda(G, p, target, 3000, 11)
        b = ps.brute_force_lambda(G, p, target, 3000, 11)
        assert a == b


def test_oracle_row_selection_keeps_the_stable_argsort_order():
    from pspectral.solver import _top_rows
    rng = np.random.default_rng(8)
    for i in range(200):
        n = int(rng.integers(1, 3000))
        vals = [rng.normal(size=n), rng.integers(0, 4, n).astype(float),
                np.full(n, 1.5), np.round(rng.normal(size=n), 1)][i % 4]
        vals[rng.random(n) < 0.2] = 0.0
        vals[rng.random(n) < 0.1] = -0.0
        for k in (1, 7, 100):
            assert np.array_equal(_top_rows(vals, k),
                                  np.argsort(-vals, kind="stable")[:k]), (i, k)


def test_oracle_names_a_bad_seed():
    # else numpy raises "expected non-negative integer", naming no option
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ps.brute_force_lambda(ps.cycle(2, 4), 2.0, seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        ps.brute_force_lambda(ps.cycle(2, 4), 2.0, seed=1.5)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        ps.brute_force_lambda(ps.WeightedHypergraph(2, 3, {}), 2.0, seed=-1)
    assert ps.brute_force_lambda(ps.cycle(2, 4), 2.0, "max", 200, np.int64(3)) == \
        ps.brute_force_lambda(ps.cycle(2, 4), 2.0, "max", 200, 3)


def test_oracle_closed_forms_to_1e9():
    val = ps.brute_force_lambda(ps.single_edge(3), 2.0, "max", 20_000, 0)
    assert val == pytest.approx(6 / 3 ** 1.5, abs=1e-9)
    val = ps.brute_force_lambda(ps.single_edge(4), 4.0, "min", 20_000, 0)
    assert val == pytest.approx(-6.0, abs=1e-9)
    val = ps.brute_force_lambda(ps.cycle(2, 4), 2.0, "min", 20_000, 0)
    assert val == pytest.approx(-2.0, abs=1e-9)


def test_oracle_p1_matching_ends_within_the_budget(monkeypatch):
    from pspectral import solver
    batches = []
    real = solver.evaluate_many
    monkeypatch.setattr(solver, "evaluate_many",
                        lambda G, X: batches.append(len(X)) or real(G, X))
    G = ps.from_edge_list(2, 4, [(0, 1), (2, 3)])
    for target, expected in (("max", 0.5), ("min", -0.5)):
        batches.clear()
        val = ps.brute_force_lambda(G, 1.0, target, 10_000, 17)
        assert val == pytest.approx(expected, abs=1e-12)
        assert len(batches) <= 1 + solver._POLISH_ITERS  # the samples, then the polish


def test_oracle_matches_example2_minimum():
    val = ps.brute_force_lambda(EXAMPLE2, 1.118, "min", 10_000, 17)
    assert abs(val - (-0.6228508481478688)) <= 1e-9


# envelopes, curves, modulus --------------------------------------------------

def test_collatz_wielandt_regular_uniform():
    lo, hi = ps.collatz_wielandt(ps.complete(2, 4), 2.0, np.full(4, 0.5))
    assert lo == pytest.approx(3.0) and hi == pytest.approx(3.0)
    C = ps.cycle(3, 6)
    lo, hi = ps.collatz_wielandt(C, 3.0, np.full(6, 6 ** (-1 / 3)))
    assert lo == pytest.approx(6.0) and hi == pytest.approx(6.0)


def test_collatz_wielandt_brackets_value():
    G = ps.beta_star(3, 2)
    n = G.n_vertices
    x = np.full(n, n ** (-1.0 / 3.0))
    lo, hi = ps.collatz_wielandt(G, 3.0, x)
    lam = ps.lambda_max(G, 3.0, FAST).value
    assert lo <= lam + 1e-9
    assert lam <= hi + 1e-9  # connected and p >= r


def test_collatz_wielandt_validation():
    G = ps.complete(2, 4)
    with pytest.raises(ValueError, match="positive"):
        ps.collatz_wielandt(G, 2.0, np.array([0.5, 0.5, 0.5, 0.0]) / 0.75 ** 0.5)
    with pytest.raises(ValueError, match="p > 1"):
        ps.collatz_wielandt(G, 1.0, np.full(4, 0.25))
    with pytest.raises(ValueError, match="unit vector"):
        ps.collatz_wielandt(G, 2.0, np.full(4, 0.9))


def test_collatz_wielandt_rejects_nan_vectors():
    with pytest.raises(ValueError, match="positive"):
        ps.collatz_wielandt(ps.cycle(2, 4), 2.0, np.array([math.nan, 0.5, 0.5, 0.5]))


def test_lambda_curve_single_edge():
    rows = ps.lambda_curve(ps.single_edge(3), [1.0, 2.0, 3.0, 6.0], FAST)
    expect = [6 / 3 ** (3 / p) for p in (1.0, 2.0, 3.0, 6.0)]
    got = [r.lam_max for r in rows]
    assert got == pytest.approx(expect, abs=1e-8)
    assert all(b > a for a, b in zip(got, got[1:]))  # increasing in p
    hs = [r.h for r in rows]
    fs = [r.f for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(fs, fs[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(hs, hs[1:]))
    # for a single edge both normalized columns are constant
    assert hs == pytest.approx([6.0] * 4, abs=1e-7)
    assert rows[0].lam_min == pytest.approx(-rows[0].lam_max)


def test_lambda_curve_rejects_bad_grid():
    with pytest.raises(ValueError, match="ascending"):
        ps.lambda_curve(ps.single_edge(2), [2.0, 2.0], FAST)


def test_algebraic_modulus_check():
    # the spurious stationary pair is dominated by the true maximum
    from pspectral.fixtures import spurious_pair
    G, lam, x = spurious_pair(3)
    assert ps.algebraic_modulus_check(G, lam, x, FAST)
    res = ps.lambda_max(G, 3.0, FAST)
    assert ps.algebraic_modulus_check(G, res.value, res.vector.coords, FAST)
    with pytest.raises(ValueError, match="stationary"):
        ps.algebraic_modulus_check(G, 1.234, np.full(5, 5 ** (-1 / 3)), FAST)
    # uniform pair on a regular cycle: 6 = r!|G|/n with equality at p = r
    C = ps.cycle(3, 5)
    assert ps.algebraic_modulus_check(C, 6.0, np.full(5, 5 ** (-1 / 3)), FAST)


def test_odd_rank_curve_solves_each_maximum_once(monkeypatch):
    from pspectral import solver
    grid = [1.0, 1.5, 2.0, 3.0, 4.0]
    for G in (ps.cycle(3, 7), ps.random_gnp(3, 9, 0.4, 1)):
        calls = []
        real = solver.lambda_max
        monkeypatch.setattr(solver, "lambda_max",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        rows = ps.lambda_curve(G, grid, FAST)
        monkeypatch.undo()
        assert calls == grid
        warm_max, warm_min = [], []
        for q, row in zip(grid, rows):
            top = ps.lambda_max(G, q, FAST, initial_vectors=warm_max)
            bot = ps.lambda_min(G, q, FAST, initial_vectors=warm_min)
            (lam, x, _), = ps.solve_restarts(G, q, "min", FAST, warm_min)
            assert lam == bot.value and np.array_equal(x, bot.vector.coords)
            warm_max, warm_min = [top.vector.coords], [bot.vector.coords]
            assert (row.lam_max, row.lam_min) == (top.value, bot.value)


def test_even_rank_curve_solves_each_maximum_once(monkeypatch):
    # the odd transversal {1, 3} of the 4-cycle makes the flipped maximum the
    # minimum: the curve hands over its own maximum
    from pspectral import solver
    calls = []
    real = solver.lambda_max
    monkeypatch.setattr(solver, "lambda_max",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    rows = ps.lambda_curve(ps.cycle(2, 4), [2.0, 3.0], FAST)
    assert calls == [2.0, 3.0]
    assert [r.lam_min for r in rows] == pytest.approx([-2.0, -2 ** (3 - 4 / 3)], abs=1e-8)


def test_curve_finds_the_odd_transversal_once(monkeypatch):
    # at odd rank the minimum is -x and no GF(2) solve runs; at even rank the
    # curve's points share one cached transversal
    from pspectral import combinatorics
    calls = []
    real = combinatorics._gf2_solve
    monkeypatch.setattr(combinatorics, "_gf2_solve",
                        lambda *a: calls.append(1) or real(*a))
    for G, count in ((ps.cycle(3, 7), 0), (ps.cycle(2, 6), 1)):
        combinatorics.odd_transversal.cache_clear()
        calls.clear()
        ps.lambda_curve(G, [1.5, 2.0, 3.0], FAST)
        assert len(calls) == count


def test_odd_rank_minimum_is_minus_the_maximizer_without_a_gf2_solve(monkeypatch):
    # P(-x) = -P(x) at odd rank; the minimizer is -x + 0.0, so a zero stays +0.0
    from pspectral import combinatorics
    from pspectral.fixtures import two_edges_sharing
    calls = []
    real = combinatorics._gf2_solve
    monkeypatch.setattr(combinatorics, "_gf2_solve",
                        lambda *a: calls.append(1) or real(*a))
    combinatorics.odd_transversal.cache_clear()
    for G, p in ((ps.random_gnp(3, 40, 0.3, 1), 2.0), (two_edges_sharing(3, 1), 1.5)):
        bot = ps.lambda_min(G, p, POOL)
        top = ps.lambda_max(G, p, POOL)
        assert bot.value == -top.value
        assert bot.vector.coords.tobytes() == (-top.vector.coords + 0.0).tobytes()
        assert bot.status == top.status
    assert (top.vector.coords == 0.0).any()
    assert calls == []


def test_simplex_gradient_with_signed_weights_matches_finite_differences():
    from pspectral.polyform import _loo_gradient
    from pspectral.solver import _simplex_value
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(8):
        G = random_graph(rng, weighted=True)
        idx, w = G.arrays()
        sw = w * rng.choice([-1.0, 1.0], size=w.size)
        y = rng.dirichlet(np.ones(G.n_vertices))
        g = _loo_gradient(idx, sw, y, G.n_vertices)
        fd = np.zeros_like(y)
        for k in range(y.size):
            up, dn = y.copy(), y.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (_simplex_value(idx, sw, up) - _simplex_value(idx, sw, dn)) / (2 * h)
        assert np.max(np.abs(g - fd)) / max(1.0, float(np.abs(g).max())) < 1e-6


def test_simplex_step_keeps_a_zeroed_entry_in_its_orthant():
    # the p = 1 step finds its orthant from the sign bits of x, so an entry
    # that the projection zeroes in a negative orthant must stay -0.0: a +0.0
    # would move it to the positive orthant and flip its gradient's sign
    from pspectral import solver
    # in the orthant (+, -, -) the minimum -0.5 is at (0.5, -0.5, -0.0); once
    # x_2 is zero, a + there would lead to (0, -0.5, 0.5) with value -1
    G = ps.WeightedHypergraph(2, 3, {(0, 1): 1.0, (1, 2): 2.0})
    x = np.array([0.45, -0.45, -0.1])
    lam = solver._simplex_value(*G.arrays(), x)
    y, lam_y, _, _ = solver._simplex_step(-1.0)(G, 1.0, x, lam, ps.gradient(G, x), None)
    assert lam_y < lam
    assert y[2] == 0.0 and np.signbit(y[2])
    assert np.array_equal(np.signbit(y), np.signbit(x))
    # and through a whole restart, which starts on the simplex of that orthant
    for x0 in (x, np.array([0.5, -0.5, -0.0])):
        c = solver._sphere_loop(G, 1.0, x0, 1e-10, 1000, -1.0, solver._simplex_step(-1.0))
        assert c.tol_met and c.lam == pytest.approx(-0.5, abs=1e-9)
        assert np.allclose(c.x, [0.5, -0.5, 0.0], atol=1e-6)
        assert c.x[2] == 0.0 and np.signbit(c.x[2])


# determinism ----------------------------------------------------------------

def test_serial_parallel_bit_identical():
    rng = np.random.default_rng(9)
    for _ in range(4):
        G = random_graph(rng)
        p = float(rng.choice([1.0, 2.0, float(G.rank), G.rank + 1.0]))
        a = ps.lambda_max(G, p, ps.SolveOptions(restarts=6, seed=3, parallel=False))
        b = ps.lambda_max(G, p, ps.SolveOptions(restarts=6, seed=3, parallel=True))
        assert a.value == b.value
        assert np.array_equal(a.vector.coords, b.vector.coords)
        c = ps.lambda_min(G, p, ps.SolveOptions(restarts=6, seed=3, parallel=False))
        d = ps.lambda_min(G, p, ps.SolveOptions(restarts=6, seed=3, parallel=True))
        assert c.value == d.value
        assert np.array_equal(c.vector.coords, d.vector.coords)


# Solves pinned bit for bit: value, a digest of the vector and the iteration
# count.  Restructuring the restart machinery must move none of them.  Six
# were re-recorded when restarts began to stop at known end points, the
# four 2-graph minima at p = 1 and 2 when those became closed forms, and five
# when Newton began to read its gradient off the Hessian (by at most 2 ulps).
_G3 = ps.random_gnp(3, 9, 0.4, 1)
_WARM = [np.linspace(1.0, 2.0, 9)]
GOLDEN = {
    "max-fixed-point-p2": (
        lambda: ps.lambda_max(_G3, 2.0, FAST), "0x1.85b6d784708e1p+2",
        "b51b392eda9915c85d8cc04cdfc295edf989d7075cc9990685bb113de09218e9", 4),
    "max-warm-p4": (
        lambda: ps.lambda_max(_G3, 4.0, FAST, initial_vectors=_WARM), "0x1.f5739a7c1c724p+4",
        "16267813dec9ba4b4e957d45f299792e97d9c1b16cf37035eb04d3eaccef8c85", 2),
    "max-warm-p1": (
        lambda: ps.lambda_max(_G3, 1.0, FAST, initial_vectors=_WARM), "0x1.399680b9d4725p-2",
        "c90138f671b50775733d1eb251a6dec2cf104e477d8a4c0bd5d25ed368c46162", 39),
    "min-odd-rank": (
        lambda: ps.lambda_min(_G3, 2.5, FAST), "-0x1.76f199b8c4a16p+3",
        "430b1948bf93ba4bfa449741bf42dc36b5234c6a001b8cae3221cf25fda1ceda", 3),
    "min-odd-transversal": (
        lambda: ps.lambda_min(ps.cycle(2, 6), 2.0, FAST), "-0x1.0000000000000p+1",
        "8aa747dcc1c5a75118b7dfaf3aa1b0e9f8f42f59e7ddd5a3e4c3dd7761a2fd19", 0),
    "min-even-p1.5": (
        lambda: ps.lambda_min(ps.cycle(2, 5), 1.5, FAST), "-0x1.0f9faf511547ap+0",
        "2d0f69ec0a34081c40d6392d7a00de8ffa07418f0fa829c857403b6069fb29da", 7),
    "min-even-p1": (
        lambda: ps.lambda_min(ps.cycle(2, 5), 1.0, FAST), "-0x1.0000000000000p-1",
        "7d39a513da137ba85a7ba59618e4021c5a74027ab0fa0f535de6b96e8eec89f1", 0),
    "min-p1-random-orthants": (
        lambda: ps.lambda_min(ps.cycle(2, 7), 1.0, FAST), "-0x1.0000000000000p-1",
        "f9fa3e072636bd05a33a8d67347cb4aa8317f375cdb97757d2ce21775866d8b7", 0),
    "min-p1-flip-orthant": (
        lambda: ps.lambda_min(ps.cycle(2, 8), 1.0, FAST), "-0x1.0000000000000p-1",
        "fbe6e7303ac7818799b7759fbfc9ca71cdc929518191e48b873bc2e195282a6d", 0),
    "min-p1-rank4": (
        lambda: ps.lambda_min(ps.random_gnp(4, 8, 0.5, 2), 1.0, FAST), "-0x1.4657ca3846e39p-3",
        "ace9b6508bd56e7fbb98f0a19fdc23f190c5a62a87524e83bac0b5e3adc9b4eb", 24),
    "min-example2": (
        lambda: ps.lambda_min(EXAMPLE2, 1.118, POOL), "-0x1.3ee64e6e29735p-1",
        "200fdc4c1f98419307e5188932a936ae69f300eac0fb428001a0a52e1ad22194", 62),
    "min-rank4": (
        lambda: ps.lambda_min(ps.random_gnp(4, 8, 0.5, 2), 4.0, FAST), "-0x1.741881a9480e8p+5",
        "8f785105cc0edb3d565b0742fda0cbca0b7bda7cff58397c36a470dbe82e072a", 12),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_solves_bit_identical(name):
    solve, value, digest, iterations = GOLDEN[name]
    res = solve()
    assert float.hex(res.value) == value
    assert hashlib.sha256(res.vector.coords.tobytes()).hexdigest() == digest
    assert res.iterations == iterations


def test_golden_odd_rank_curve_bit_identical():
    # the p = 1.5 point was re-recorded (2 ulps) when Newton began to read its
    # gradient off the Hessian
    rows = ps.lambda_curve(ps.cycle(3, 7), [1.0, 1.5, 2.0, 3.0], FAST)
    assert [(float.hex(r.lam_max), float.hex(r.lam_min)) for r in rows] == [
        ("0x1.c71c71c71c71cp-3", "-0x1.c71c71c71c71cp-3"),
        ("0x1.ce2adfd79fb4cp-1", "-0x1.ce2adfd79fb4cp-1"),
        ("0x1.2246d6cfdf9ecp+1", "-0x1.2246d6cfdf9ecp+1"),
        ("0x1.8000000000003p+2", "-0x1.8000000000003p+2"),
    ]


def test_pool_traffic_bit_identical():
    # criterion 7's call pattern: the minimum after the maximum on each graph,
    # which reuses the recorded maximum wherever there is an odd transversal
    h = hashlib.sha256()
    for G, p in criterion7_draws(20):
        for res in (ps.lambda_max(G, p, POOL), ps.lambda_min(G, p, POOL)):
            h.update(float.hex(res.value).encode())
            h.update(res.vector.coords.tobytes())
            h.update(res.status.encode())
    # re-recorded when the odd-rank minimizer became -x + 0.0: draws 7, 9, 14
    # and 19 (rank 3, T not the vertex set) moved only the signs of entries;
    # when restarts began to stop at known end points, with the best tied
    # value winning before the vector key; and when Newton began to read its
    # gradient off the Hessian (seven values moved, by at most 3 ulps)
    assert h.hexdigest() == "7ab903b1ac98ca00271f679e670c2ef555c08a3418ef6cb1cff436bd00ed0cab"


def test_start_lists_bit_identical():
    # every start list of both targets, -0.0 entries included, recorded
    # through the separate maximum and minimum builders that `_starts` replaced;
    # re-recorded when the maximum stopped counting an all-zero warm vector in
    # its truncation: its 28 lists with restarts 1 and the warm list
    # [-0.0 vector, v, |v|] lost the last of their 4 starts
    from pspectral.solver import _starts
    graphs = [ps.random_gnp(2, 5, 0.6, 1), ps.random_gnp(3, 6, 0.5, 2),
              ps.random_gnp(4, 6, 0.5, 3), ps.random_gnp(2, 8, 0.4, 4),
              ps.random_gnp(3, 9, 0.3, 5), ps.random_gnp(4, 7, 0.4, 6)]
    rng = np.random.default_rng(3)
    h = hashlib.sha256()
    for G in graphs:
        n = G.n_vertices
        v = rng.uniform(-1.0, 1.0, n)
        v[:2] = (-0.0, 0.0)
        for p in sorted({1.0, 1.5, 2.0, float(G.rank), G.rank + 1.0}):
            for restarts in (1, 4, 32):
                opts = ps.SolveOptions(restarts=restarts, seed=9)
                for warm in ([], [v], [-np.zeros(n), v, np.abs(v)]):
                    for sense in (1.0, -1.0):
                        starts = _starts(G, p, opts, warm, sense)
                        h.update(len(starts).to_bytes(4, "little"))
                        for x in starts:
                            h.update(x.tobytes())
    assert h.hexdigest() == "d173c99cdefffc639d2ccdc304d5e4ccbd288937269dfe5dcef63ed7f7d931da"


def test_malformed_warm_vectors_are_refused():
    G = ps.cycle(3, 7)
    calls = (lambda w: ps.lambda_max(G, 2.0, FAST, initial_vectors=w),
             lambda w: ps.lambda_min(G, 2.0, FAST, initial_vectors=w),
             lambda w: ps.extremes(G, 2.0, FAST, warm_min=w),
             lambda w: ps.solve_restarts(G, 2.0, "min", FAST, initial_vectors=w),
             lambda w: ps.lambda_max(ps.WeightedHypergraph(3, 7, {}), 2.0, FAST,
                                     initial_vectors=w))
    for call in calls:
        with pytest.raises(ValueError, match=r"vector 0 has shape \(5,\), expected \(7,\)"):
            call([np.ones(5)])
        with pytest.raises(ValueError, match="warm vector 1 has a non-finite entry"):
            call([np.ones(7), np.full(7, np.nan)])
        with pytest.raises(ValueError, match="non-finite"):
            call([np.array([1.0, np.inf, 0, 0, 0, 0, 0])])
    # a zero vector stays accepted, and starts nothing: it adds no restart
    # to the maximum's truncation even at restarts=1
    for opts in (FAST, ps.SolveOptions(restarts=1)):
        for p in (1.0, 2.0):
            assert _bits(ps.lambda_max(G, p, opts, initial_vectors=[np.zeros(7)])) == \
                _bits(ps.lambda_max(ps.cycle(3, 7), p, opts))


def test_same_seed_same_result():
    G = ps.random_gnp(3, 8, 0.5, 4)
    a = ps.lambda_max(G, 2.0, ps.SolveOptions(restarts=8, seed=5))
    b = ps.lambda_max(G, 2.0, ps.SolveOptions(restarts=8, seed=5))
    assert a.value == b.value
    assert np.array_equal(a.vector.coords, b.vector.coords)


# component and sign-flip rules ----------------------------------------------

def test_disjoint_union_rules():
    A, B = ps.single_edge(3), ps.complete(3, 4)
    U = ps.disjoint_union(A, B)
    for p in (1.0, 2.0, 3.0):
        la = ps.lambda_max(A, p, FAST).value
        lb = ps.lambda_max(B, p, FAST).value
        lu = ps.lambda_max(U, p, FAST).value
        assert lu == pytest.approx(max(la, lb), abs=1e-7)
    p = 5.0
    la = ps.lambda_max(A, p, FAST).value
    lb = ps.lambda_max(B, p, FAST).value
    expected = ps.union_combine([la, lb], 3, p)
    # warm start assembled from the parts pins the optimal mass split
    q = p / (p - 3.0)
    wa, wb = la ** q, lb ** q
    xa = ps.lambda_max(A, p, FAST).vector.coords
    xb = ps.lambda_max(B, p, FAST).vector.coords
    seed_vec = np.concatenate([(wa / (wa + wb)) ** (1 / p) * xa,
                               (wb / (wa + wb)) ** (1 / p) * xb])
    lu = ps.lambda_max(U, p, FAST, initial_vectors=[seed_vec]).value
    assert lu == pytest.approx(expected, abs=1e-7)


def test_min_magnitude_never_exceeds_max():
    rng = np.random.default_rng(10)
    for _ in range(10):
        G = random_graph(rng, weighted=bool(rng.integers(0, 2)))
        p = float(rng.choice([1.0, 1.7, 2.0, float(G.rank), G.rank + 1.5]))
        mx = ps.lambda_max(G, p, FAST)
        mn = ps.lambda_min(G, p, FAST)
        assert abs(mn.value) <= mx.value + 2e-9


def test_lagrangian_below_one():
    rng = np.random.default_rng(11)
    for _ in range(10):
        G = random_graph(rng)
        assert ps.lambda_max(G, 1.0, FAST).value < 1.0
        assert ps.lambda_min(G, 1.0, FAST).value >= -1.0


# p = 1: Newton on the KKT face of the first-order point ----------------------

def test_package_imports_no_scipy(tmp_path):
    path = tmp_path / "g.json"
    ps.write_file(ps.random_gnp(3, 9, 0.4, 1), path)
    script = textwrap.dedent(f"""
        import sys
        import pspectral as ps
        from pspectral import cli
        opts = ps.SolveOptions(tol=1e-10, restarts=8, seed=11)
        for G in (ps.random_gnp(3, 9, 0.4, 1), ps.cycle(2, 5)):
            ps.lambda_max(G, 1.0, opts)
            ps.lambda_min(G, 1.0, opts)
        ps.lambda_max(ps.cycle(3, 7), 2.0, opts)
        ps.lambda_min(ps.cycle(2, 5), 2.5, opts)
        ps.brute_force_lambda(ps.cycle(2, 5), 1.5, "min", 500, 0)
        cli.main(["bounds", "--input", {str(path)!r}, "--p", "1", "--json"])
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ps.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_p1_results_are_kkt_points():
    """grad_i/r = lam*sign(x_i) on the support; for the maximum also
    grad_j/r <= lam off it (Frankl & Rodl, Combinatorica 4, 1984)."""
    G3 = ps.random_gnp(3, 9, 0.4, 1)
    cases = [(ps.complete(3, 4), ()), (G3, ()), (G3, [np.linspace(1.0, 2.0, 9)]),
             (ps.random_gnp(4, 8, 0.5, 2), ()), (ps.random_gnp(2, 9, 0.5, 5), ()),
             (ps.cycle(2, 5), ())]
    for G, warm in cases:
        for fn in (ps.lambda_max, ps.lambda_min):
            res = fn(G, 1.0, FAST, initial_vectors=warm)
            x = res.vector.coords
            g = ps.gradient(G, x) / G.rank
            on = x != 0.0
            slack = 1e-12 * max(1.0, abs(res.value))
            assert np.max(np.abs(g[on] - res.value * np.sign(x[on]))) <= slack, (G, fn)
            if fn is ps.lambda_max:
                assert np.all(g[~on] <= res.value + 1e-12), G


def test_p1_maximum_hits_the_lagrangian_to_4_ulps():
    cases = [(ps.cycle(2, 5), 0.5), (ps.complete(3, 4), 0.375)]
    # Motzkin-Straus: the Lagrangian of K_n is (n-1)/n
    cases += [(ps.complete(2, n), (n - 1) / n) for n in range(3, 7)]
    for opts in (FAST, ps.SolveOptions(tol=1e-9, restarts=4)):
        for G, want in cases:
            got = ps.lambda_max(G, 1.0, opts).value
            assert abs(got - want) <= 4 * np.spacing(want), (G, opts, got)


def test_p1_even_rank_minimum_uses_its_warm_vector():
    # the warm vector was dropped at even rank and p = 1: one restart
    # returned -0.158203125 with or without it
    G = ps.random_gnp(4, 8, 0.5, 1)
    v = ps.lambda_min(G, 1.0, ps.SolveOptions(tol=1e-9, restarts=32, seed=0)).vector.coords
    res = ps.lambda_min(G, 1.0, ps.SolveOptions(tol=1e-9, restarts=1, seed=0),
                        initial_vectors=[v])
    assert res.value <= ps.evaluate(G, v) + 1e-12


# the clique {1, 5, 6, 10} gives 3/4 at p = 1; four restarts found only 2/3,
# a triangle's uniform weighting, and called it converged
G12 = ps.from_edge_list(2, 12, [
    (0, 2), (0, 4), (0, 11), (1, 2), (1, 5), (1, 6), (1, 7), (1, 10), (2, 4), (2, 7),
    (2, 9), (2, 11), (3, 8), (3, 11), (4, 5), (5, 6), (5, 10), (5, 11), (6, 7), (6, 10),
    (8, 10), (9, 10), (9, 11), (10, 11)])


def test_p1_converged_maximum_is_the_lagrangian():
    res = ps.lambda_max(G12, 1.0, POOL)
    assert abs(res.value - 0.75) <= 4 * np.spacing(0.75)
    assert res.status == "converged"
    assert np.flatnonzero(res.vector.coords).tolist() == [1, 5, 6, 10]


def test_p1_exact_maximum_mends_the_curve():
    # 2/3 at p = 1 made h and f rise to p = 1.01, against the paper
    rows = ps.lambda_curve(G12, [1.0, 1.01, 1.05, 1.1, 1.3, 2.0], POOL)
    assert abs(rows[0].lam_max - 0.75) <= 4 * np.spacing(0.75)
    for a, b in zip(rows, rows[1:]):
        assert b.h <= a.h and b.f <= a.f, (a, b)


def _adjacency(G):
    A = np.zeros((G.n_vertices, G.n_vertices))
    for (i, j), w in G.edge_weights.items():
        A[i, j] = A[j, i] = w
    return A


def _weighted_2_graphs(seed, count):
    rng = np.random.default_rng(seed)
    return [random_graph(rng, r=2, n_lo=3, n_hi=14, weighted=True) for _ in range(count)]


def test_p2_extremes_of_a_2_graph_are_its_eigenvalues():
    for G in _weighted_2_graphs(61, 30):
        evals = np.linalg.eigvalsh(_adjacency(G))
        top, bot = ps.extremes(G, 2.0, FAST)
        for res, want in ((top, evals[-1]), (bot, evals[0])):
            assert abs(res.value - want) <= 1e-12 * abs(want), (G, res.target)
            assert res.status == "converged" and res.residual <= FAST.tol
            flipped = res.target == "min" and ps.odd_transversal(G) is not None
            assert res.iterations == 0 and res.restarts_used == int(flipped)


def test_p1_minimum_of_a_2_graph_is_half_the_heaviest_weight():
    for G in _weighted_2_graphs(62, 30) + [ps.cycle(2, 5), ps.complete(2, 4)]:
        w_max = max(G.edge_weights.values())
        res = ps.lambda_min(G, 1.0, FAST)
        assert abs(res.value + w_max / 2) <= 4 * np.spacing(w_max / 2), G
        assert res.status == "converged"


def test_p1_maximum_of_a_2_graph_is_one_minus_one_over_the_clique_number():
    # Motzkin & Straus, Canad. J. Math. 17, 1965
    rng = np.random.default_rng(63)
    for _ in range(60):
        G = random_graph(rng, r=2, n_lo=4, n_hi=14, density=float(rng.uniform(0.2, 0.7)))
        want = 1.0 - 1.0 / clique_number(G)
        res = ps.lambda_max(G, 1.0, POOL)
        assert abs(res.value - want) <= 4 * np.spacing(want), G
        assert res.status == "converged" and res.restarts_used == 0


def test_p1_maximum_skips_a_singular_clique_face():
    # the face of {0, 1, 2, 3} is singular (products of opposite weights 1, 4
    # and 9), and it is solved in one batch with that of {0, 1, 2, 4}; the
    # maximum is the triangle {1, 2, 4}, where A_S y = 1 gives y = (.2, .2, .16)
    G = ps.WeightedHypergraph(2, 5, {(0, 1): 1.0, (2, 3): 1.0, (0, 2): 2.0, (1, 3): 2.0,
                                     (0, 3): 3.0, (1, 2): 3.0, (0, 4): 2.5, (1, 4): 2.5,
                                     (2, 4): 2.5})
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(_adjacency(G)[:4, :4], np.ones(4))
    res = ps.lambda_max(G, 1.0, FAST)
    assert abs(res.value - 25 / 14) <= 4 * np.spacing(25 / 14)
    assert np.flatnonzero(res.vector.coords).tolist() == [1, 2, 4]
    assert res.status == "converged" and res.restarts_used == 0


def test_closed_forms_run_no_restart(monkeypatch):
    from pspectral import solver

    def loop(*args, **kwargs):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(solver, "_sphere_loop", loop)
    graphs = _weighted_2_graphs(64, 10) + [G12, ps.cycle(2, 6), ps.complete(2, 12)]
    for G in graphs:
        for p in (1.0, 2.0):
            ps.extremes(G, p, FAST)
            ps.lambda_min(G, p, FAST)
        ps.lambda_curve(G, [1.0, 2.0], FAST)


def test_closed_forms_fall_back_to_the_restarts(monkeypatch):
    from pspectral import combinatorics, solver
    # at each limit the closed form still runs; above the clique budget the
    # p = 1 maximum is the restarts' 2/3 again, and above the n cap the p = 2
    # extremes are the restarts' values
    monkeypatch.setattr(combinatorics, "CLIQUE_BUDGET", 36)   # G12 has 36
    assert ps.lambda_max(G12, 1.0, POOL).restarts_used == 0
    monkeypatch.setattr(combinatorics, "CLIQUE_BUDGET", 35)
    res = ps.lambda_max(G12, 1.0, POOL)
    assert (float.hex(res.value), res.status, res.restarts_used, res.iterations) == (
        "0x1.5555555555557p-1", "converged", 4, 17)
    monkeypatch.setattr(solver, "_DENSE_MAX_N", 12)
    assert ps.lambda_max(G12, 2.0, POOL).restarts_used == 0
    monkeypatch.setattr(solver, "_DENSE_MAX_N", 11)
    top, bot = ps.extremes(G12, 2.0, POOL)
    assert (float.hex(top.value), top.status, top.restarts_used, top.iterations) == (
        "0x1.20574e1fa8bd2p+2", "converged", 1, 7)
    assert (float.hex(bot.value), bot.status, bot.restarts_used, bot.iterations) == (
        "-0x1.63aa78d874691p+1", "best-effort", 4, 20)
    monkeypatch.setattr(combinatorics, "CLIQUE_BUDGET", 10_000)
    assert ps.lambda_max(G12, 1.0, POOL).restarts_used == 4    # the n cap holds p = 1 too
