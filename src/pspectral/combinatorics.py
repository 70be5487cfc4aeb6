"""Structural predicates and statistics: connectivity, tightness, transversals,
linearity, regularity, vertex equivalence, degrees, exact weak coloring and
the clique list of a 2-graph.

Predicates on weighted graphs act on the support edge set.  NP-hard checks
are exact searches with explicit desk-scale budgets; exceeding a budget is an
error, never a silent approximation.  The one exception is the clique list,
whose caller, the p = 1 solver, falls back to its restarts past the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hypergraph import WeightedHypergraph

TIGHTNESS_BUDGET = 20     # exact subset enumeration bound for is_k_tight
COLORING_BUDGET = 16      # exact chromatic / partiteness search bound
STAR_BUDGET = 64          # edges through one vertex in the beta-degree search
CLIQUE_BUDGET = 16384     # cliques listed for the exact p = 1 maximum of a 2-graph


@dataclass(frozen=True)
class DegreeProfile:
    """Weighted vertex degrees plus optional k-set degree table and beta-degrees."""

    degrees: tuple[float, ...]
    delta: float
    Delta: float
    k: int | None = None
    set_degrees: tuple[tuple[tuple[int, ...], float], ...] | None = None
    beta_degrees: tuple[int, ...] | None = None
    delta_beta: int | None = None
    Delta_beta: int | None = None


def _incident_edges(G: WeightedHypergraph) -> list[list[tuple[int, ...]]]:
    inc = [[] for _ in range(G.n_vertices)]
    for e in G.edges():
        for v in e:
            inc[v].append(e)
    return inc


def _max_compatible_star(u: int, edges: list[tuple[int, ...]]) -> int:
    """Largest set of edges through u that pairwise intersect exactly in {u}."""
    m = len(edges)
    if m > STAR_BUDGET:
        raise ValueError(f"exact beta-degree search exceeds budget "
                         f"({m} edges through vertex {u} > {STAR_BUDGET})")
    others = [frozenset(e) - {u} for e in edges]
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if not (others[i] & others[j]):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    best = 0

    def extend(candidates: int, size: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        while candidates:
            i = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            if size + 1 + candidates.bit_count() <= best:
                return
            extend(candidates & compat[i], size + 1)
        best = max(best, size)

    extend((1 << m) - 1, 0)
    return best


def degree_profile(G: WeightedHypergraph, k: int | None = None,
                   with_beta: bool = True) -> DegreeProfile:
    """Exact weighted degrees; optionally the full k-set degree table."""
    deg = G.degrees()
    delta = float(deg.min()) if deg.size else 0.0
    Delta = float(deg.max()) if deg.size else 0.0
    set_degrees = None
    if k is not None:
        if not 1 <= k < G.rank:
            raise ValueError(f"set-degree size must satisfy 1 <= k < r, got k={k}")
        table = {U: 0.0 for U in itertools.combinations(range(G.n_vertices), k)}
        for e, w in G.edge_weights.items():
            for U in itertools.combinations(e, k):
                table[U] += w
        set_degrees = tuple(sorted(table.items()))
    beta = dB = DB = None
    if with_beta:
        inc = _incident_edges(G)
        beta = tuple(_max_compatible_star(u, inc[u]) for u in range(G.n_vertices))
        dB = min(beta) if beta else 0
        DB = max(beta) if beta else 0
    return DegreeProfile(tuple(float(d) for d in deg), delta, Delta, k,
                         set_degrees, beta, dB, DB)


def components(G: WeightedHypergraph) -> list[list[int]]:
    """Finest vertex partition with every edge inside one block."""
    parent = list(range(G.n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in G.edges():
        roots = {find(v) for v in e}
        target = min(roots)
        for rt in roots:
            parent[rt] = target
    blocks: dict[int, list[int]] = {}
    for v in range(G.n_vertices):
        blocks.setdefault(find(v), []).append(v)
    return sorted(blocks.values())


def is_connected(G: WeightedHypergraph) -> bool:
    return len(components(G)) == 1


def is_k_tight(G: WeightedHypergraph, k: int) -> tuple[bool, frozenset[int] | None]:
    """Exact tightness check; on failure returns a violating vertex set.

    For every proper vertex subset containing an edge there must exist an
    edge meeting it in between k and r-1 vertices.  Plain enumeration over
    all subsets, vectorized over bitmasks; refuses beyond n=20.
    """
    r, n = G.rank, G.n_vertices
    if not 1 <= k <= r - 1:
        raise ValueError(f"tightness order must satisfy 1 <= k <= r-1, got k={k}")
    if G.num_edges == 0:
        return False, None
    if n > TIGHTNESS_BUDGET:
        raise ValueError(f"exact tightness check exceeds budget (n={n} > {TIGHTNESS_BUDGET})")
    edge_masks = np.array([sum(1 << v for v in e) for e in G.edges()], dtype=np.uint32)
    masks = np.arange(1 << n, dtype=np.uint32)
    full = np.uint32((1 << n) - 1)
    proper = masks != full
    contains_edge = np.zeros(masks.shape, dtype=bool)
    has_boundary_edge = np.zeros(masks.shape, dtype=bool)
    for em in edge_masks:
        inter = masks & em
        contains_edge |= inter == em
        cnt = np.bitwise_count(inter)
        has_boundary_edge |= (cnt >= k) & (cnt <= r - 1)
    violating = proper & contains_edge & ~has_boundary_edge
    where = np.flatnonzero(violating)
    if where.size == 0:
        return True, None
    worst = int(where[0])
    return False, frozenset(v for v in range(n) if worst >> v & 1)


# ---------------------------------------------------------------------------
# transversals: parity constraints per edge, solved over GF(2)
# ---------------------------------------------------------------------------

def _gf2_solve(rows: list[int], rhs: list[int], n: int):
    """Solve the affine system over GF(2); returns (particular, null basis) or None.

    Gauss-Jordan elimination on the augmented rows (coefficients above bit
    0, right-hand side in bit 0).  Each pivot row leads with its highest
    column and is cleared from every other pivot row, so the pivots form the
    unique reduced row echelon form.  Each pivot row then reads
    x[col] + sum(row[c] x[c] for free c) = rhs: the particular solution sets
    the free variables to 0 and each pivot variable to its rhs bit, and the
    null vector of a free column c is c itself plus every pivot column whose
    row holds c.
    """
    pivots: dict[int, int] = {}
    for row, b in zip(rows, rhs):
        a = row << 1 | b
        for col, piv in pivots.items():
            if a >> (col + 1) & 1:
                a ^= piv
        if a >> 1 == 0:
            if a & 1:
                return None  # inconsistent row 0 = 1
            continue
        col = (a >> 1).bit_length() - 1
        pivots = {c: piv ^ a if piv >> (col + 1) & 1 else piv
                  for c, piv in pivots.items()}
        pivots[col] = a
    particular = sum(1 << col for col, piv in pivots.items() if piv & 1)
    basis = [(1 << fc) | sum(1 << col for col, piv in pivots.items()
                             if piv >> (fc + 1) & 1)
             for fc in range(n) if fc not in pivots]
    return particular, basis


def _mask_to_set(mask: int, n: int) -> frozenset[int]:
    return frozenset(v for v in range(n) if mask >> v & 1)


@lru_cache(maxsize=512)
def odd_transversal(G: WeightedHypergraph) -> frozenset[int] | None:
    """A vertex set meeting every support edge an odd number of times, or None."""
    n = G.n_vertices
    rows = [sum(1 << v for v in e) for e in G.edges()]
    sol = _gf2_solve(rows, [1] * len(rows), n)
    if sol is None:
        return None
    return _mask_to_set(sol[0], n)


def even_transversal(G: WeightedHypergraph) -> frozenset[int] | None:
    """A nonempty proper vertex set meeting every support edge evenly, or None."""
    n = G.n_vertices
    rows = [sum(1 << v for v in e) for e in G.edges()]
    sol = _gf2_solve(rows, [0] * len(rows), n)
    if sol is None:
        return None
    _, basis = sol
    full = (1 << n) - 1
    for vec in basis:
        if 0 < vec < full:
            return _mask_to_set(vec, n)
    return None


# ---------------------------------------------------------------------------
# linearity, Steiner systems, set regularity
# ---------------------------------------------------------------------------

def is_k_linear(G: WeightedHypergraph, k: int) -> bool:
    """Every two support edges share at most k vertices."""
    if not 1 <= k <= G.rank - 1:
        raise ValueError(f"linearity order must satisfy 1 <= k <= r-1, got k={k}")
    edges = [frozenset(e) for e in G.edges()]
    return all(len(e & f) <= k
               for e, f in itertools.combinations(edges, 2))


def is_steiner(G: WeightedHypergraph, k: int) -> bool:
    """Every k-subset of vertices lies in exactly one support edge."""
    if not 1 <= k < G.rank:
        raise ValueError(f"Steiner order must satisfy 1 <= k < r, got k={k}")
    counts = {U: 0 for U in itertools.combinations(range(G.n_vertices), k)}
    for e in G.edges():
        for U in itertools.combinations(e, k):
            counts[U] += 1
    return all(c == 1 for c in counts.values())


def is_k_set_regular(G: WeightedHypergraph, k: int) -> bool:
    """All weighted k-set degrees equal; the common value is then |G|(r)_k/(n)_k."""
    prof = degree_profile(G, k=k, with_beta=False)
    degs = [d for _, d in prof.set_degrees]
    if not degs:
        return True
    lo, hi = min(degs), max(degs)
    if hi - lo > 1e-12 * max(1.0, abs(hi)):
        return False
    expected = G.size() * math.perm(G.rank, k) / math.perm(G.n_vertices, k)
    if abs(degs[0] - expected) > 1e-9 * max(1.0, expected):
        raise RuntimeError("set-regular degree does not match |G|(r)_k/(n)_k")
    return True


# ---------------------------------------------------------------------------
# vertex equivalence (transpositions that preserve the weight function)
# ---------------------------------------------------------------------------

def _transposition_preserves(G: WeightedHypergraph, u: int, v: int) -> bool:
    for e, w in G.edge_weights.items():
        if (u in e) == (v in e):
            continue
        swapped = tuple(sorted(v if x == u else (u if x == v else x) for x in e))
        if G.weight(swapped) != w:
            return False
    return True


@lru_cache(maxsize=512)
def equivalence_classes(G: WeightedHypergraph) -> tuple[tuple[int, ...], ...]:
    """Vertex partition under "swapping u and v preserves all edge weights".

    The relation is transitive as it stands: if the swaps (u v) and (v w)
    preserve the weights, so does (u w) = (u v)(v w)(u v).  So each vertex
    is compared with one member of each class found so far, and joins the
    class it matches or starts a new one.
    """
    deg = G.degrees()
    classes: list[list[int]] = []
    for v in range(G.n_vertices):
        for cls in classes:
            if deg[cls[0]] == deg[v] and _transposition_preserves(G, cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return tuple(tuple(c) for c in classes)


# ---------------------------------------------------------------------------
# exact colorings (weak chromatic number, strong partiteness)
# ---------------------------------------------------------------------------

def _least_coloring(n: int, edges) -> int:
    """Least k such that some k-coloring of range(n) leaves no edge monochromatic.

    Backtracking over the vertices in order: a vertex takes a color at most
    one above those already used, so no permutation of colors is revisited,
    and each edge is checked once its last vertex is colored.
    """
    by_last = [[] for _ in range(n)]
    for e in edges:
        by_last[max(e)].append(e)
    colors = [-1] * n

    def place(v: int, k: int) -> bool:
        if v == n:
            return True
        used = max(colors[:v], default=-1)
        for c in range(min(used + 1, k - 1) + 1):
            colors[v] = c
            if all(any(colors[x] != c for x in e) for e in by_last[v]) \
                    and place(v + 1, k):
                return True
        colors[v] = -1
        return False

    return next((k for k in range(1, n + 1) if place(0, k)), n)


def _cliques(n: int, pairs) -> list[tuple[int, ...]] | None:
    """Every clique of two or more vertices of the graph on range(n) with the
    edges `pairs`, each an ascending tuple, in lexicographic order; None once
    more than CLIQUE_BUDGET are found.

    Depth-first: a clique grows only by a common neighbour above its largest
    vertex, kept as a bit mask, so each clique is listed once.
    """
    nbr = [0] * n
    for a, b in pairs:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    found = []

    def grow(clique: tuple[int, ...], cand: int):
        while cand and len(found) <= CLIQUE_BUDGET:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            found.append(clique + (v,))
            grow(clique + (v,), cand & nbr[v])

    for v in range(n):
        grow((v,), nbr[v] >> (v + 1) << (v + 1))
    return found if len(found) <= CLIQUE_BUDGET else None


def chromatic_number_exact(G: WeightedHypergraph) -> int:
    """Least k such that no support edge is monochromatic; exact search, n <= 16."""
    n = G.n_vertices
    if n > COLORING_BUDGET:
        raise ValueError(f"exact coloring exceeds budget (n={n} > {COLORING_BUDGET})")
    return _least_coloring(n, G.edges())


def is_k_partite(G: WeightedHypergraph, k: int,
                 partition: list[list[int]] | None = None) -> bool:
    """No support edge has two vertices inside one class.

    A witness partition is verified directly; otherwise an exact search runs
    under the coloring budget.
    """
    if k < 1:
        raise ValueError(f"partiteness order must be positive, got k={k}")
    if partition is not None:
        cls = {}
        for i, block in enumerate(partition):
            for v in block:
                if v in cls:
                    raise ValueError(f"witness partition repeats vertex {v}")
                cls[v] = i
        if len(cls) != G.n_vertices or len(partition) > k:
            return False
        return all(len({cls[v] for v in e}) == len(e) for e in G.edges())
    return partiteness_number(G) <= k


def partiteness_number(G: WeightedHypergraph) -> int:
    """Least k for which G is k-partite (exact, n <= 16).

    Equals the chromatic number of the 2-section: the coloring search runs on
    the vertex pairs that share an edge.
    """
    n = G.n_vertices
    if n > COLORING_BUDGET:
        raise ValueError(f"exact partiteness search exceeds budget (n={n})")
    pairs = {pair for e in G.edges() for pair in itertools.combinations(e, 2)}
    return _least_coloring(n, pairs)
