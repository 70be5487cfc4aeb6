"""Executable regression fixtures pinning down solver semantics on the
classic trap cases: spurious stationary pairs, maximizers with zero entries,
non-uniform optima on regular cycles, zero-value sparse solutions, and
mixed-sign maximizers from even transversals.

Each fixture is exportable as a JSON graph file for reuse by other
implementations, and verify_fixture turns its claim into a pass/fail check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .combinatorics import even_transversal
from .hypergraph import WeightedHypergraph, cycle, from_edge_list, single_edge, to_json_dict
from .polyform import evaluate
from .solver import SolveOptions, eigen_residual, lambda_max, solve_restarts


@dataclass(frozen=True)
class Fixture:
    """A graph plus exponent with a pinned value and/or qualitative claim."""

    name: str
    graph: WeightedHypergraph
    p: float
    expected: float | None
    claim: str


def two_edges_sharing(r: int, k: int) -> WeightedHypergraph:
    """Two rank-r edges with exactly k common vertices."""
    if not 1 <= k <= r - 1:
        raise ValueError(f"shared count must satisfy 1 <= k <= r-1, got k={k}")
    shared = tuple(range(k))
    e1 = shared + tuple(range(k, r))
    e2 = shared + tuple(range(r, 2 * r - k))
    return from_edge_list(r, 2 * r - k, [e1, e2])


def spurious_pair(r: int) -> tuple[WeightedHypergraph, float, np.ndarray]:
    """Two r-edges sharing r-2 vertices with a stationary pair below the max.

    The value (r-1)! with the vector supported uniformly on one edge
    satisfies the p = r stationarity system, yet the true maximum exceeds it.
    """
    G = two_edges_sharing(r, r - 2)
    x = np.zeros(G.n_vertices)
    x[list(G.edges()[0])] = r ** (-1.0 / r)
    return G, float(math.factorial(r - 1)), x


def fixture_catalog() -> list[Fixture]:
    bad = two_edges_sharing(3, 1)
    return [
        Fixture("two-triples-share-vertex-p2", bad, 2.0, 2.0 / math.sqrt(3.0),
                "value 2/sqrt(3); at least two distinct maximizers at equal value"),
        Fixture("two-triples-share-vertex-p1.5", bad, 1.5, 6.0 * 3.0 ** (-2.0),
                "value 6/9; the maximizer is supported on one edge (a zero entry)"),
        Fixture("spurious-stationary-r3", two_edges_sharing(3, 1), 3.0, None,
                "((r-1)!, edge-supported vector) is stationary at p = r but the "
                "solved maximum strictly exceeds (r-1)!"),
        Fixture("spurious-stationary-r4", two_edges_sharing(4, 2), 4.0, None,
                "((r-1)!, edge-supported vector) is stationary at p = r but the "
                "solved maximum strictly exceeds (r-1)!"),
        Fixture("cycle-uniform-gap", cycle(3, 12), 2.0, None,
                "the uniform vector is stationary on the 12-cycle at p = 2 but the "
                "solved maximum beats its value by at least 0.01"),
        Fixture("zero-value-sparse-support", single_edge(3), 3.0, None,
                "any vector supported on at most r-2 vertices pairs with value 0 "
                "at zero residual"),
        Fixture("even-transversal-mixed-signs", single_edge(3), 3.0, None,
                "a connected graph with a proper even transversal has a mixed-sign "
                "maximizer for p > r-1"),
    ]


def verify_fixture(fx: Fixture, opts: SolveOptions | None = None) -> dict:
    """Run one fixture's check; returns {'ok': bool, ...diagnostics}."""
    opts = opts or SolveOptions(tol=1e-11, restarts=24, seed=7)
    name = fx.name
    if name == "two-triples-share-vertex-p2":
        runs = solve_restarts(fx.graph, fx.p, "max", opts)
        best = max(lam for lam, _, _ in runs)
        ok_value = abs(best - fx.expected) <= 1e-5
        # a restart that stopped at an earlier one's end point is no maximizer
        winners = [x for lam, x, res in runs if lam >= best - 1e-7 and res <= opts.tol]
        reps: list[np.ndarray] = []
        for x in winners:
            if all(np.max(np.abs(x - ref)) > 1e-3 for ref in reps):
                reps.append(x)
        return {"ok": ok_value and len(reps) >= 2, "value": best,
                "distinct_maximizers": len(reps)}
    if name == "two-triples-share-vertex-p1.5":
        res = lambda_max(fx.graph, fx.p, opts)
        min_entry = float(np.min(np.abs(res.vector.coords)))
        return {"ok": abs(res.value - fx.expected) <= 1e-5 and min_entry <= 1e-6,
                "value": res.value, "min_entry": min_entry}
    if name.startswith("spurious-stationary"):
        r = fx.graph.rank
        G, lam0, x0 = spurious_pair(r)
        res0 = eigen_residual(G, float(r), lam0, x0)
        top = lambda_max(G, float(r), opts)
        return {"ok": res0 <= 1e-12 and top.value >= lam0 + 0.05,
                "stationary_residual": res0, "spurious": lam0, "solved": top.value}
    if name == "cycle-uniform-gap":
        G, p = fx.graph, fx.p
        n, r = G.n_vertices, G.rank
        uniform_value = math.factorial(r) * n ** (1.0 - r / p)
        x = np.full(n, n ** (-1.0 / p))
        res0 = eigen_residual(G, p, uniform_value, x)
        top = lambda_max(G, p, opts)
        return {"ok": res0 <= 1e-12 and top.value >= uniform_value + 0.01,
                "uniform_value": uniform_value, "solved": top.value,
                "stationary_residual": res0}
    if name == "zero-value-sparse-support":
        G = fx.graph
        x = np.zeros(G.n_vertices)
        x[0] = 1.0
        res0 = eigen_residual(G, fx.p, 0.0, x)
        return {"ok": res0 == 0.0, "stationary_residual": res0}
    if name == "even-transversal-mixed-signs":
        G, p = fx.graph, fx.p
        U = even_transversal(G)
        top = lambda_max(G, p, opts)
        y = top.vector.coords.copy()
        y[list(U)] = -y[list(U)]
        value = evaluate(G, y)
        mixed = bool(np.any(y > 0) and np.any(y < 0))
        return {"ok": U is not None and mixed
                       and abs(value - top.value) <= 1e-10 * max(1.0, abs(top.value)),
                "transversal": sorted(U) if U else None, "flipped_value": value,
                "solved": top.value}
    raise ValueError(f"unknown fixture {name!r}")


def export_catalog(directory: str | os.PathLike) -> list[str]:
    """Write each fixture graph as JSON under the directory; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    index = []
    for fx in fixture_catalog():
        path = os.path.join(directory, f"{fx.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(to_json_dict(fx.graph), fh, sort_keys=True)
            fh.write("\n")
        index.append({"name": fx.name, "file": os.path.basename(path),
                      "p": fx.p, "expected": fx.expected, "claim": fx.claim})
        paths.append(path)
    with open(os.path.join(directory, "index.json"), "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths
