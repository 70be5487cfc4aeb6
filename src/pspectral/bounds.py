"""Checkable inequality reports for the extremal values: order/size bounds,
structural bounds gated on verified predicates, subadditivity and
perturbation checks, complement bracketing, and eigenvector entry audits.

Every inequality becomes a BoundReport; a report only claims applicability
after its precondition has been established.  Slack is measured against a
supplied solver value, and a negative slack beyond twice the solver
tolerance means a genuine violation (a bug), never an expected state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import combinatorics as comb
from .hypergraph import WeightedHypergraph, add, complement
from .polyform import check_exponent


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance.

    side "upper" bounds the quantity from above, "lower" from below; slack
    is bound minus value for uppers and value minus bound for lowers, and is
    None when no computed value was supplied.
    """

    name: str
    side: str
    bound: float
    applies: bool
    citation: str
    slack: float | None = None

    def with_value(self, value: float | None) -> "BoundReport":
        if value is None or not self.applies:
            return self
        slack = self.bound - value if self.side == "upper" else value - self.bound
        return BoundReport(self.name, self.side, self.bound, self.applies,
                           self.citation, slack)


def _report(name, side, bound, applies, citation, value=None):
    return BoundReport(name, side, float(bound), applies, citation).with_value(value)


# ---------------------------------------------------------------------------
# order/size bounds for the maximum
# ---------------------------------------------------------------------------

def bound_suite_max(G: WeightedHypergraph, p: float,
                    lam: float | None = None) -> list[BoundReport]:
    """Size and order bounds on the maximum value, with applicability flags."""
    p = check_exponent(p)
    n, r = G.n_vertices, G.rank
    size = G.size()
    rfact = math.factorial(r)
    out = []
    lower = rfact * size / n ** (r / p) if n else 0.0
    out.append(_report("size-lower", "lower", lower, n > 0,
                       "uniform test vector: r!|G| / n^(r/p)", lam))
    order_up = G.max_weight() * math.perm(n, r) / n ** (r / p) if n else 0.0
    out.append(_report("order-upper", "upper", order_up, n > 0,
                       "max weight times (n)_r / n^(r/p); tight for complete graphs",
                       lam))
    if p > 1.0 and n > 0:
        q = p / (p - 1.0)
        norm_q = rfact * float(np.sum(np.array(list(G.edge_weights.values())) ** q)
                               ** (1.0 / q)) if G.num_edges else 0.0
        bound = (math.perm(n, r) / n ** r) ** (1.0 / p) * norm_q
        out.append(_report("norm-upper", "upper", bound, True,
                           "((n)_r/n^r)^(1/p) times the l^(p/(p-1)) norm of r!G", lam))
        out.append(_report("size-upper", "upper", rfact * size ** (1.0 - 1.0 / p),
                           G.is_unweighted(),
                           "(r!|G|)^(1-1/p) for unweighted graphs", lam))
    else:
        out.append(_report("norm-upper", "upper", order_up, False,
                           "needs p > 1; the order-upper bound covers p = 1", lam))
        out.append(_report("size-upper", "upper", 0.0, False,
                           "needs p > 1", lam))
    return out


# ---------------------------------------------------------------------------
# structure-gated bounds for the maximum
# ---------------------------------------------------------------------------

def structural_bounds(G: WeightedHypergraph, p: float,
                      lam: float | None = None) -> list[BoundReport]:
    """Bounds whose preconditions (partiteness, chromatic number, linearity,
    set degrees) are verified before emission; oversized searches flag the
    bound inapplicable rather than guessing."""
    p = check_exponent(p)
    n, r = G.n_vertices, G.rank
    size = G.size()
    rfact = math.factorial(r)
    out = []
    unweighted = G.is_unweighted()

    try:
        kappa = comb.partiteness_number(G)
    except ValueError:
        kappa = None
    if kappa is not None and unweighted and G.num_edges:
        if kappa == r:
            out.append(_report("partite-upper", "upper",
                               (rfact / r ** (r / p)) * size ** (1.0 - 1.0 / p), True,
                               "(r!/r^(r/p)) |G|^(1-1/p) for r-partite graphs; "
                               "equality iff complete r-partite (p > 1)", lam))
        else:
            factor = math.perm(kappa, r) / kappa ** r
            out.append(_report("partite-upper", "upper",
                               factor ** (1.0 / p) * (rfact * size) ** (1.0 - 1.0 / p),
                               True,
                               f"(({kappa})_r/{kappa}^r)^(1/p) (r!|G|)^(1-1/p) "
                               f"for {kappa}-partite graphs", lam))
    else:
        out.append(_report("partite-upper", "upper", 0.0, False,
                           "partiteness not established", lam))

    try:
        chi = comb.chromatic_number_exact(G) if unweighted else None
    except ValueError:
        chi = None
    if chi is not None and chi >= 1 and G.num_edges:
        factor = 1.0 - chi ** (1 - r)
        out.append(_report("chromatic-size-upper", "upper",
                           factor ** (1.0 / p) * (rfact * size) ** (1.0 - 1.0 / p), True,
                           f"(1 - chi^(1-r))^(1/p) (r!|G|)^(1-1/p) with chi={chi}", lam))
        out.append(_report("chromatic-order-upper", "upper",
                           factor * n ** (r - r / p), True,
                           f"(1 - chi^(1-r)) n^(r-r/p) with chi={chi}", lam))

    if unweighted and r >= 3 and G.num_edges:
        for k in range(1, r - 1):
            if comb.is_k_linear(G, k):
                p_star = r / (k + 1)
                bound = rfact * math.comb(n, k + 1) / (math.comb(r, k + 1) * n ** (k + 1))
                out.append(_report("linear-upper", "upper", bound,
                                   p <= p_star + 1e-12,
                                   f"{k}-linear graphs at p <= r/(k+1); equality iff "
                                   f"Steiner ({k + 1},{r},{n})-system at p = r/(k+1)",
                                   lam))
                break

    if G.num_edges:
        for k in range(2, r):
            if p >= r / k:
                prof = comb.degree_profile(G, k=k, with_beta=False)
                dk = max(d for _, d in prof.set_degrees)
                base = rfact * size / n ** (r / p)
                ratio = math.perm(n, k) * dk / (math.perm(r, k) * size)
                out.append(_report(f"set-degree-upper-{k}", "upper",
                                   base * ratio ** (r / (k * p)), True,
                                   f"size lower bound times (n)_k Delta_k / ((r)_k |G|) "
                                   f"to the r/(kp), k={k}", lam))

    Delta = G.max_degree()
    if G.num_edges:
        if p >= r:
            out.append(_report("degree-upper", "upper",
                               math.factorial(r - 1) * Delta / n ** (r / p - 1.0), True,
                               "(r-1)! Delta / n^(r/p - 1) for p >= r; equality iff a "
                               "Delta-regular component at p = r", lam))
        elif p > 1.0 and unweighted:
            out.append(_report("degree-upper", "upper",
                               math.factorial(r - 1)
                               * Delta ** ((1.0 - 1.0 / p) / (1.0 - 1.0 / r)), True,
                               "(r-1)! Delta^((1-1/p)/(1-1/r)) for 1 < p < r (strict)",
                               lam))
        if unweighted:
            out.append(_report("degree-lower", "lower",
                               (rfact / r ** (r / p)) * Delta ** (1.0 - (r - 1) / p), True,
                               "(r!/r^(r/p)) Delta^(1-(r-1)/p); equality for the "
                               "Delta-edge star sharing one vertex", lam))
    return out


# ---------------------------------------------------------------------------
# lower bounds for the minimum
# ---------------------------------------------------------------------------

def bound_suite_min(G: WeightedHypergraph, p: float, lam_min: float | None = None,
                    lam_max: float | None = None) -> list[BoundReport]:
    """The three lower bounds on the minimum value."""
    p = check_exponent(p)
    n, r = G.n_vertices, G.rank
    rfact = math.factorial(r)
    even_unweighted = (r % 2 == 0) and G.is_unweighted()
    out = [
        _report("min-size-lower", "lower",
                -(rfact * G.size()) ** (1.0 - 1.0 / p) / 2.0 ** (1.0 / p),
                even_unweighted,
                "-(r!|G|)^(1-1/p)/2^(1/p) for even rank; tight for the 4-cycle",
                lam_min),
        _report("min-order-lower", "lower",
                -(n ** (r - r / p)) / 2.0 if n else 0.0, even_unweighted,
                "-n^(r-r/p)/2 for even rank", lam_min),
    ]
    if lam_max is not None:
        out.append(_report("min-negated-max", "lower", -lam_max, True,
                           "the minimum is at least the negated maximum", lam_min))
    return out


# ---------------------------------------------------------------------------
# pairwise checks
# ---------------------------------------------------------------------------

def _solve_pair(G, p, opts):
    from .solver import extremes

    top, bot = extremes(G, p, opts)
    return top.value, bot.value


def weyl_check(G1: WeightedHypergraph, G2: WeightedHypergraph, p: float,
               opts=None) -> list[BoundReport]:
    """Subadditivity of the maximum under weighted sums, and the minimum's sandwich."""
    p = check_exponent(p)
    if G1.rank != G2.rank or G1.n_vertices != G2.n_vertices:
        raise ValueError("the check needs equal rank and vertex set")
    max1, min1 = _solve_pair(G1, p, opts)
    max2, min2 = _solve_pair(G2, p, opts)
    max_sum, min_sum = _solve_pair(add(G1, G2), p, opts)
    return [
        _report("sum-upper", "upper", max1 + max2, True,
                "max of a weighted sum is at most the sum of maxima", max_sum),
        _report("min-sum-lower", "lower", min1 + min2, True,
                "min of a weighted sum is at least the sum of minima", min_sum),
        _report("min-sum-upper", "upper", max1 + min2, True,
                "min of a weighted sum is at most max(G1) + min(G2)", min_sum),
    ]


def perturbation_check(G1: WeightedHypergraph, G2: WeightedHypergraph, p: float,
                       opts=None) -> list[BoundReport]:
    """Edit-distance stability: changing k edges moves both extremal values
    by at most (r!k)^(1-1/p)."""
    p = check_exponent(p)
    if G1.rank != G2.rank or G1.n_vertices != G2.n_vertices:
        raise ValueError("the check needs equal rank and order")
    if not (G1.is_unweighted() and G2.is_unweighted()):
        raise ValueError("the edit-distance bound is for unweighted graphs")
    k = len(set(G1.edges()) ^ set(G2.edges()))
    bound = (math.factorial(G1.rank) * k) ** (1.0 - 1.0 / p)
    max1, min1 = _solve_pair(G1, p, opts)
    max2, min2 = _solve_pair(G2, p, opts)
    return [
        _report("perturb-max", "upper", bound, True,
                f"|max difference| <= (r!k)^(1-1/p), k={k} edited edges",
                abs(max1 - max2)),
        _report("perturb-min", "upper", bound, True,
                f"|min difference| <= (r!k)^(1-1/p), k={k} edited edges",
                abs(min1 - min2)),
    ]


def nordhaus_check(G: WeightedHypergraph, p: float, opts=None) -> list[BoundReport]:
    """Bracket for max(G) + max(complement): at least (n)_r/n^(r/p), at most
    2^(1/p) (n)_r^(1-1/p)."""
    from .solver import lambda_max

    p = check_exponent(p)
    if not G.is_unweighted():
        raise ValueError("the complement bracket is for unweighted graphs")
    total = lambda_max(G, p, opts).value + lambda_max(complement(G), p, opts).value
    n, r = G.n_vertices, G.rank
    return [
        _report("complement-sum-lower", "lower", math.perm(n, r) / n ** (r / p) if n else 0.0,
                n > 0, "sum over G and its complement is at least (n)_r/n^(r/p); "
                "equality only for regular graphs", total),
        _report("complement-sum-upper", "upper",
                2.0 ** (1.0 / p) * math.perm(n, r) ** (1.0 - 1.0 / p), n > 0,
                "sum over G and its complement is at most 2^(1/p) (n)_r^(1-1/p)", total),
    ]


# ---------------------------------------------------------------------------
# eigenvector entry audits
# ---------------------------------------------------------------------------

def _greedy_star_like_set(G: WeightedHypergraph, weight: np.ndarray) -> list[int]:
    """Greedy vertex set meeting every edge at most once, heaviest first."""
    chosen: list[int] = []
    edges = [set(e) for e in G.edges()]
    for v in sorted(range(G.n_vertices), key=lambda u: (-weight[u], u)):
        if all(len(e & set(chosen + [v])) <= 1 for e in edges):
            chosen.append(v)
    return chosen


def entry_bounds(G: WeightedHypergraph, p: float, result) -> list[BoundReport]:
    """Audit the entry claims against an actual maximizer.

    Checks the 1/r cap per entry, the 1/r cap over star-like sets, the
    degree cap per entry (p > 1), and the minimum-entry spread inequality
    for 1 <= p <= r.
    """
    p = check_exponent(p)
    n, r = G.n_vertices, G.rank
    x = np.abs(np.asarray(result.vector.coords, dtype=np.float64))
    xp = x ** p
    lam = result.value
    out = [
        _report("entry-max", "upper", 1.0 / r, n > 0,
                "every |x_k|^p is at most 1/r; equality on single-vertex stars",
                float(xp.max()) if n else 0.0),
    ]
    U = _greedy_star_like_set(G, xp)
    out.append(_report("entry-star-set", "upper", 1.0 / r, bool(U),
                       f"sum of |x_k|^p over the star-like set {U} is at most 1/r",
                       float(xp[U].sum()) if U else 0.0))
    if p > 1.0 and lam > 0:
        deg = G.degrees()
        caps = math.factorial(r - 1) * deg / lam ** (p / (p - 1.0))
        worst = int(np.argmin(caps - xp))
        out.append(_report("entry-degree", "upper", float(caps[worst]), True,
                           "(r-1)! d(k) / max^(p/(p-1)) caps |x_k|^p; "
                           f"worst vertex {worst}", float(xp[worst])))
    if 1.0 <= p <= r and n >= 2 and G.num_edges:
        sigma = float(xp.min())
        delta = float(G.degrees().min())
        lhs = ((lam * n ** (r / p - 1.0) / math.factorial(r - 1)) ** p
               - delta ** p) * sigma ** (r - 1)
        rhs = (math.comb(n - 1, r - 1) * delta ** (p - 1.0)
               * ((1.0 - sigma) ** (r - 1) / (n - 1) ** (r - 1) - sigma ** (r - 1)))
        out.append(_report("entry-min-spread", "upper", rhs, True,
                           "spread inequality linking the smallest |x_k|^p, the "
                           "minimum degree, and the maximum value", lhs))
    return out
