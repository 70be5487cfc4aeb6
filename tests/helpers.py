"""Shared test utilities: seeded random graphs, small named fixtures, and
the reference searches and bounds that only the tests use."""

from __future__ import annotations

import itertools
import math

import numpy as np

import pspectral as ps
from pspectral import combinatorics as comb
from pspectral.bounds import BoundReport, _report
from pspectral.combinatorics import _mask_to_set
from pspectral.hypergraph import WeightedHypergraph, complete_multipartite, k_section
from pspectral.solver import SolveOptions, lambda_max

EXHAUSTIVE_BUDGET = 24    # subset enumeration bound for transversal search


def random_graph(rng, r=None, n_lo=3, n_hi=7, density=None, weighted=False,
                 ensure_edges=True) -> ps.WeightedHypergraph:
    """A seeded random graph with rank in {2, 3, 4} and a few edges."""
    r = int(rng.integers(2, 5)) if r is None else r
    n = int(rng.integers(max(n_lo, r), n_hi + 1))
    density = float(rng.uniform(0.3, 0.8)) if density is None else density
    while True:
        edges = {}
        for e in itertools.combinations(range(n), r):
            if rng.random() < density:
                edges[e] = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
        if edges or not ensure_edges:
            return ps.WeightedHypergraph(r, n, edges)
        density = min(1.0, density + 0.2)


def criterion7_draws(count: int) -> list[tuple[ps.WeightedHypergraph, float]]:
    """The first `count` (graph, p) cases of acceptance criterion 7's pool.

    The random calls replay the pool fixture's stream exactly, including the
    edge-split mask it draws after each graph, so draw k here is case k there.
    """
    rng = np.random.default_rng(777)
    draws = []
    while len(draws) < count:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(max(3, r), 7))
        edges = [e for e in itertools.combinations(range(n), r)
                 if rng.random() < rng.uniform(0.35, 0.85)]
        if not edges:
            continue
        p = float(np.round(rng.uniform(r - 1 + 0.1, r + 2.3), 3))
        rng.uniform(0.15, 1.2)          # the pool's second exponent q
        rng.random(len(edges))          # the pool's edge-split mask
        draws.append((ps.from_edge_list(r, n, edges), p))
    return draws


def min_fuzz_cases() -> list[tuple[ps.WeightedHypergraph, float]]:
    """The 40 (graph, p) cases of the even-rank minimum fuzz: ranks 2 and 4,
    4 to 9 vertices, every other graph weighted, p from 1.01 to 6.5.  They
    are solved with MIN_FUZZ options."""
    rng = np.random.default_rng(2026)
    cases = []
    for i in range(40):
        G = random_graph(rng, r=int(rng.choice([2, 4])), n_lo=4, n_hi=9, weighted=i % 2)
        cases.append((G, float(rng.choice([1.01, 1.05, 1.3, 1.7, 2, 3, 4, 6.5]))))
    return cases


def fano() -> ps.WeightedHypergraph:
    """The 7-point, 7-line Steiner triple system."""
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
             (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    return ps.from_edge_list(3, 7, lines)


def path(n: int) -> ps.WeightedHypergraph:
    return ps.from_edge_list(2, n, [(i, i + 1) for i in range(n - 1)])


FAST = ps.SolveOptions(tol=1e-10, restarts=8, seed=11)
TIGHT = ps.SolveOptions(tol=1e-11, restarts=16, seed=11)
MIN_FUZZ = ps.SolveOptions(tol=1e-9, restarts=4, seed=7)


def transversal_exhaustive(G: WeightedHypergraph, parity: int,
                           proper: bool = False) -> frozenset[int] | None:
    """Subset-enumeration oracle for the GF(2) transversal solver (n <= 24)."""
    n = G.n_vertices
    if n > EXHAUSTIVE_BUDGET:
        raise ValueError(f"exhaustive transversal search exceeds budget (n={n})")
    edge_masks = [sum(1 << v for v in e) for e in G.edges()]
    full = (1 << n) - 1
    start = 1 if (proper or parity == 1 and edge_masks) else 0
    for mask in range(start, 1 << n):
        if proper and mask in (0, full):
            continue
        if all((mask & em).bit_count() % 2 == parity for em in edge_masks):
            return _mask_to_set(mask, n)
    return None


def two_section_chromatic_bound(G: WeightedHypergraph, opts=None) -> BoundReport:
    """Weak chromatic number is at most max-of-2-section/(r-1) + 1."""
    opts = opts or SolveOptions()
    sec = k_section(G, 2) if G.rank > 2 else G
    top = lambda_max(sec, 2.0, opts).value
    bound = top / (G.rank - 1) + 1.0
    chi = comb.chromatic_number_exact(G)
    return _report("two-section-chromatic", "upper", bound, True,
                   "chi(G) <= max(2-section)/(r-1) + 1", float(chi))


def hofmeister_limitation(r: int, k: int, eps: float = 0.5):
    """Fixture: complete r-partite graph with parts 1, k, ..., k for which the
    degree power mean with exponent r/(r-1)+eps exceeds the maximum value.

    Returns (G, max value at p = r via the r-partite equality case, power
    mean side).  For k large the strict inequality demonstrates that degree
    power means above exponent r/(r-1) cannot lower-bound the maximum.
    """
    if r < 2 or k < 1:
        raise ValueError(f"fixture needs r >= 2 and k >= 1, got r={r}, k={k}")
    G = complete_multipartite(r, [1] + [k] * (r - 1))
    size = float(k ** (r - 1))
    lam = (math.factorial(r) / r) * size ** (1.0 - 1.0 / r)
    q = r / (r - 1.0) + eps
    deg = G.degrees()
    power_mean = math.factorial(r - 1) * float(np.mean(deg ** q)) ** (1.0 / q)
    return G, lam, power_mean


def clique_number(G: WeightedHypergraph) -> int:
    """The largest clique of a 2-graph, by trying every vertex set of each
    size in turn (n <= 16)."""
    n = G.n_vertices
    if n > 16:
        raise ValueError(f"clique search exceeds budget (n={n})")
    pairs = set(G.edges())
    omega = min(n, 1)
    for k in range(2, n + 1):
        if not any(all(pair in pairs for pair in itertools.combinations(S, 2))
                   for S in itertools.combinations(range(n), k)):
            break
        omega = k
    return omega
