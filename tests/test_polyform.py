import math

import numpy as np
import pytest

import pspectral as ps
from helpers import random_graph


def fd_gradient(G, x, h=1e-6):
    """Central finite differences, the independent check on gradient()."""
    g = np.zeros_like(x)
    for k in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (ps.evaluate(G, up) - ps.evaluate(G, dn)) / (2 * h)
    return g


def fsum_gradient(G, x):
    """Per-vertex exactly rounded sums of the leave-one-out products."""
    terms = [[] for _ in range(G.n_vertices)]
    for e, w in G.edge_weights.items():
        for v in e:
            terms[v].append(w * math.prod(float(x[u]) for u in e if u != v))
    return np.array([math.factorial(G.rank) * math.fsum(t) for t in terms])


def fsum_hessian(G, x):
    """Per-pair exactly rounded sums of the leave-two-out products."""
    terms = {}
    for e, w in G.edge_weights.items():
        for i in e:
            for j in e:
                if i != j:
                    prod = w * math.prod(float(x[u]) for u in e if u != i and u != j)
                    terms.setdefault((i, j), []).append(prod)
    H = np.zeros((G.n_vertices, G.n_vertices))
    for (i, j), t in terms.items():
        H[i, j] = math.factorial(G.rank) * math.fsum(t)
    return H


def test_single_edge_values():
    K = ps.single_edge(3)
    assert ps.evaluate(K, np.ones(3)) == pytest.approx(6.0)
    x = 3 ** (-1 / 3) * np.ones(3)
    assert ps.evaluate(K, x) == pytest.approx(2.0)


def test_cycle_value():
    C4 = ps.cycle(2, 4)
    x = np.ones(4) / 2.0
    assert ps.evaluate(C4, x) == pytest.approx(2.0)


def test_gradient_symmetry_and_euler():
    K = ps.single_edge(3)
    g = ps.gradient(K, np.ones(3))
    assert list(g) == [6.0, 6.0, 6.0]
    assert float(np.ones(3) @ g) == pytest.approx(3 * ps.evaluate(K, np.ones(3)))


def test_gradient_empty_graph():
    G = ps.WeightedHypergraph(3, 4, {})
    assert ps.evaluate(G, np.ones(4)) == 0.0
    assert not ps.gradient(G, np.ones(4)).any()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(12):
        G = random_graph(rng, weighted=True)
        x = rng.normal(size=G.n_vertices)
        g = ps.gradient(G, x)
        fd = fd_gradient(G, x)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.max(np.abs(g - fd)) / scale < 1e-6


DENSE = [ps.random_gnp(3, 40, 0.3, 1), ps.random_gnp(4, 25, 0.45, 7)]
DENSE_IDS = ["r3-m2941", "r4-m5721"]


@pytest.mark.parametrize("G", DENSE, ids=DENSE_IDS)
def test_gradient_matches_exact_sums_on_dense_graphs(G):
    x = np.random.default_rng(12).uniform(-1.0, 1.0, G.n_vertices)
    g = ps.gradient(G, x)
    ref = fsum_gradient(G, x)
    assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_gradient_is_bit_reproducible():
    G = ps.random_gnp(3, 40, 0.3, 1)
    x = np.random.default_rng(13).normal(size=G.n_vertices)
    assert ps.gradient(G, x).tobytes() == ps.gradient(G, x.copy()).tobytes()


@pytest.mark.parametrize("G", DENSE, ids=DENSE_IDS)
def test_hessian_matches_exact_sums_and_euler(G):
    from pspectral.polyform import hessian
    x = np.random.default_rng(15).uniform(-1.0, 1.0, G.n_vertices)
    H = hessian(G, x)
    assert np.array_equal(H, H.T)
    assert not np.diag(H).any()
    ref = fsum_hessian(G, x)
    assert np.max(np.abs(H - ref)) <= 1e-13 * np.max(np.abs(ref))
    # Euler's identity for the degree-(r-1) gradient: H x = (r-1) grad
    g = ps.gradient(G, x)
    assert np.max(np.abs(H @ x - (G.rank - 1) * g)) <= 1e-12 * np.max(np.abs(g))
    assert hessian(G, x).tobytes() == hessian(G, x.copy()).tobytes()


def keyed_hessian(G, x):
    """The Hessian as `hessian` built it before its slot-pair bins could be
    passed in: each pair's bins i*n + j made afresh, then the same sums."""
    idx, w = G.arrays()
    n, r = G.n_vertices, G.rank
    half = np.zeros(n * n)
    Y = x[idx.T]
    for a in range(r):
        for b in range(a + 1, r):
            prod = w.copy()
            for k in range(r):
                if k != a and k != b:
                    prod *= Y[k]
            half += np.bincount(idx[:, a] * n + idx[:, b], weights=prod, minlength=n * n)
    half = half.reshape(n, n)
    return math.factorial(r) * (half + half.T)


def test_hessian_with_prebuilt_bins_is_bit_identical():
    # the solver's Newton builds the bins once per polish and reads its
    # gradient off the Hessian by Euler's identity, H (x/(r-1)) = grad
    from pspectral.polyform import _pair_bins, hessian
    rng = np.random.default_rng(28)
    for r in (2, 3, 4):
        for weighted in (False, True):
            G = random_graph(rng, r=r, n_lo=5, n_hi=9, weighted=weighted)
            bins = _pair_bins(G)
            for _ in range(3):
                x = rng.uniform(-1.0, 1.0, G.n_vertices)
                x[rng.choice(G.n_vertices, 2, replace=False)] = (0.0, -0.0)
                H = hessian(G, x, bins)
                assert H.tobytes() == hessian(G, x).tobytes()
                assert H.tobytes() == keyed_hessian(G, x).tobytes()
                g = ps.gradient(G, x)
                assert np.max(np.abs(H @ (x / (r - 1)) - g)) <= 1e-13 * np.max(np.abs(g))


def test_hessian_small_cases():
    from pspectral.polyform import hessian
    K = ps.single_edge(3)
    assert hessian(K, np.array([1.0, 2.0, 3.0])).tolist() == [[0, 18, 12], [18, 0, 6],
                                                              [12, 6, 0]]
    assert not hessian(ps.WeightedHypergraph(3, 4, {}), np.ones(4)).any()
    with pytest.raises(ValueError, match="shape"):
        hessian(K, np.ones(2))


def test_euler_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        G = random_graph(rng, weighted=True)
        x = rng.normal(size=G.n_vertices)
        lhs = G.rank * ps.evaluate(G, x)
        rhs = float(x @ ps.gradient(G, x))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_homogeneity_and_parity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        G = random_graph(rng, weighted=True)
        x = rng.normal(size=G.n_vertices)
        s = float(rng.uniform(-2.0, 2.0))
        val = ps.evaluate(G, x)
        assert ps.evaluate(G, s * x) == pytest.approx(s ** G.rank * val, abs=1e-12, rel=1e-10)
        assert ps.evaluate(G, -x) == pytest.approx((-1) ** G.rank * val, rel=1e-12)


def test_additivity_of_weighted_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        G = random_graph(rng, r=3, weighted=True)
        H = random_graph(rng, r=3, n_lo=G.n_vertices, n_hi=G.n_vertices, weighted=True)
        x = rng.normal(size=G.n_vertices)
        total = ps.evaluate(ps.add(G, H), x)
        assert total == pytest.approx(ps.evaluate(G, x) + ps.evaluate(H, x), rel=1e-12)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_evaluate_is_the_plain_product_sum_bit_for_bit(r):
    rng = np.random.default_rng(30 + r)
    G = random_graph(rng, r=r, n_lo=6, n_hi=8, weighted=True)
    idx, w = G.arrays()
    for _ in range(5):
        x = rng.normal(size=G.n_vertices)
        expect = math.factorial(r) * math.fsum((w * np.prod(x[idx], axis=1)).tolist())
        assert ps.evaluate(G, x) == expect


def test_evaluate_many_agrees_with_evaluate():
    rng = np.random.default_rng(4)
    G = random_graph(rng, weighted=True)
    X = rng.normal(size=(50, G.n_vertices))
    batch = ps.evaluate_many(G, X)
    for i in range(50):
        assert batch[i] == pytest.approx(ps.evaluate(G, X[i]), rel=1e-12, abs=1e-14)


def test_evaluate_many_single_block_is_the_plain_gather():
    from pspectral.polyform import _GATHER_BLOCK
    rng = np.random.default_rng(8)
    G = random_graph(rng, r=3, n_lo=6, n_hi=7, weighted=True)
    idx, w = G.arrays()
    X = rng.normal(size=(_GATHER_BLOCK // idx.size, G.n_vertices))
    expect = math.factorial(3) * (np.prod(X[:, idx], axis=2) @ w)
    assert np.array_equal(ps.evaluate_many(G, X), expect)


def test_evaluate_many_memory_does_not_grow_with_the_batch():
    import tracemalloc
    G = ps.random_gnp(3, 20, 0.3, 1)
    tracemalloc.start()
    try:
        ps.brute_force_lambda(G, 2.0, "min")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (10000, m, 3) gather of the samples alone would take 81 MB here
    assert peak < 40e6


def test_length_mismatch_rejected():
    K = ps.single_edge(3)
    with pytest.raises(ValueError, match="shape"):
        ps.evaluate(K, np.ones(4))
    with pytest.raises(ValueError, match="shape"):
        ps.gradient(K, np.ones(2))


def test_point_on_sphere_validation():
    x = np.array([1.0, 0.0])
    ps.PointOnSphere(x, 2.0)
    with pytest.raises(ValueError, match="off the unit sphere"):
        ps.PointOnSphere(2 * x, 2.0)
    with pytest.raises(ValueError, match="exponent"):
        ps.PointOnSphere(x, 0.5)
    y = ps.PointOnSphere.project(np.array([3.0, 4.0]), 2.0)
    assert ps.lp_norm(y.coords, 2.0) == pytest.approx(1.0)


def test_point_on_sphere_rejects_nan():
    with pytest.raises(ValueError, match="off the unit sphere"):
        ps.PointOnSphere(np.array([np.nan, 1.0]), 2.0)
