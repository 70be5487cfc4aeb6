"""Exact extremal values for special families, and the scaling rules for
blow-ups, disjoint unions, and star-like joins.  These are the solver's
ground truth: everything here is analytic, with falling factorials computed
in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hypergraph import FamilySpec, _join_order
from .polyform import check_exponent


@dataclass(frozen=True)
class ClosedForm:
    """An analytic value with its validity condition and eigenvector shape."""

    family: str
    p: float
    value: float
    min_value: float | None       # None when the minimum has no known form
    validity: str
    eigenvector: str


def _single_edge_value(r: int, p: float) -> float:
    return math.factorial(r) / r ** (r / p)


def closed_form(spec: FamilySpec, p: float) -> ClosedForm:
    """Analytic extremal values for single-edge, complete, beta-star, t-star, C_4.

    Rejects parameter/exponent combinations outside each formula's proven
    range, naming the gap.
    """
    p = check_exponent(p)
    f = spec.family
    if f == "single-edge":
        r = spec.r
        v = _single_edge_value(r, p)
        return ClosedForm(f, p, v, -v, "p >= 1",
                          "entries +-r^(-1/p), product sign fixed by the target")
    if f == "complete":
        r, n = spec.r, spec.n
        if n < r:
            raise ValueError(f"complete graph needs n >= r, got n={n}, r={r}")
        v = math.perm(n, r) / n ** (r / p)
        if n == r:
            mn = -v
        elif r % 2 == 1:
            mn = -v
        else:
            mn = None  # unknown for even rank beyond the single edge
        return ClosedForm(f, p, v, mn, "p >= 1", "uniform n^(-1/p)")
    if f == "beta-star":
        r, k = spec.r, spec.k
        if k < 1 or r < 3:
            raise ValueError(f"beta-star form needs r >= 3 and k >= 1, got r={r}, k={k}")
        if p == r - 1:
            raise ValueError("beta-star at exactly p = r-1 is excluded from the catalog; "
                             "solve numerically at that point")
        if p > r - 1:
            v = _single_edge_value(r, p) * k ** (1.0 - (r - 1) / p)
            shape = "two-level: center r^(-1/p), leaves spread evenly"
        else:
            v = _single_edge_value(r, p)
            shape = "supported on a single edge, entries r^(-1/p)"
        return ClosedForm(f, p, v, -v, "p != r-1", shape)
    if f == "t-star":
        r, t, n = spec.r, spec.t, spec.n
        if not (r > t >= 1) or n < r:
            raise ValueError(f"t-star form needs r > t >= 1 and n >= r, "
                             f"got r={r}, t={t}, n={n}")
        v = (math.perm(r, t) * (r - t) ** ((r - t) / p) * math.perm(n - t, r - t)
             / (r ** (r / p) * (n - t) ** ((r - t) / p)))
        return ClosedForm(f, p, v, -v, "p >= 1",
                          "core at r^(-1/p) mass, remainder uniform")
    if f == "cycle":
        if (spec.r, spec.n) != (2, 4):
            raise ValueError("cycle values are catalogued only for the 4-cycle; "
                             "other cycles have no proven form for general p")
        v = 2.0 ** (3.0 - 4.0 / p)
        return ClosedForm(f, p, v, -v, "p >= 1", "uniform 4^(-1/p)")
    raise ValueError(f"no catalogued value for family {f!r}")


def blowup_scale(lam: float, r: int, p: float, k: int) -> float:
    """Uniform k-fold blow-up multiplies both extremal values by k^(r - r/p)."""
    p = check_exponent(p)
    if k < 1:
        raise ValueError(f"blow-up factor must be a positive integer, got {k}")
    return k ** (r - r / p) * lam


def union_combine(parts, r: int, p: float) -> float:
    """Maximum value of a disjoint union from its components' values.

    At p <= r the largest component wins; at p > r the values combine in the
    l^(p/(p-r)) norm.
    """
    p = check_exponent(p)
    parts = [float(v) for v in parts]
    if not parts:
        return 0.0
    if any(v < 0 for v in parts):
        raise ValueError("component values must be nonnegative")
    if p <= r:
        return max(parts)
    q = p / (p - r)
    return sum(v ** q for v in parts) ** (1.0 / q)


def union_combine_min(parts, r: int, p: float) -> float:
    """Minimum value of a disjoint union; mirrors union_combine on magnitudes."""
    p = check_exponent(p)
    parts = [float(v) for v in parts]
    if not parts:
        return 0.0
    if p <= r:
        return min(parts)
    q = p / (p - r)
    return -sum(abs(v) ** q for v in parts) ** (1.0 / q)


def join_scale(lam: float, r: int, p: float, kind: str, t: int = 1) -> float:
    """Factor applied to a graph's maximum value by the star-like joins.

    r is the rank of the JOINED graph.  The joined minimum is the negated
    scaled maximum for all three kinds.
    """
    p, t = check_exponent(p), _join_order(kind, t)
    if kind in ("k1", "t-k1"):
        factor = r ** (1.0 - r / p) * (r - 1) ** ((r - 1) / p)
        if kind == "t-k1":
            factor *= t ** (1.0 - 1.0 / p)
        return factor * lam
    if t >= r:
        raise ValueError(f"core join needs t < r, got t={t}, r={r}")
    factor = (math.factorial(r) * (r - t) ** ((r - t) / p)
              / (r ** (r / p) * math.factorial(r - t)))
    return factor * lam


def regular_value(G, p: float) -> float | None:
    """r!|G|/n^(r/p) when it is provably the maximum value, else None.

    Applies for p >= r with equal vertex degrees, or any p >= 1 when all
    k-set degrees coincide for some k >= 2.  Vertex regularity alone does
    not pin the value for 1 < p < r.
    """
    from .combinatorics import is_k_set_regular

    p = check_exponent(p)
    n, r = G.n_vertices, G.rank
    if n == 0 or G.num_edges == 0:
        return None
    value = math.factorial(r) * G.size() / n ** (r / p)
    deg = G.degrees()
    if p >= r and deg.max() - deg.min() <= 1e-12 * max(1.0, deg.max()):
        return value
    for k in range(2, r):
        if is_k_set_regular(G, k):
            return value
    return None
