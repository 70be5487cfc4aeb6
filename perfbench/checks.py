"""Correctness checks on operation results, run outside the timed region.

Each check returns None when the result passes and a one-line reason when it
fails.  Values are recomputed here from the graph's edge list with plain
numpy and math.fsum, so a check does not trust the kernel it is checking.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

VALUE_TOL = 1e-9        # reported value against the polynomial at the vector
RESIDUAL_TOL = 1e-8     # stationarity defect of a converged result
PATTERN_TOL = 1e-9      # a -1/0/+1 pattern may not beat the reported value
ORACLE_GAP = 1e-3       # acceptance criterion 5
RATIO_RANGE = (0.9, 1.1)  # acceptance criterion 9
# reasons that start with this mark a valid value that is not the extremum
SUBOPTIMAL = "suboptimal: "


def _edges(G):
    items = list(G.edge_weights.items())
    idx = np.array([e for e, _ in items], dtype=np.int64).reshape(len(items), G.rank)
    w = np.array([w for _, w in items], dtype=np.float64)
    return idx, w


def poly(G, x) -> float:
    idx, w = _edges(G)
    terms = w * np.prod(np.asarray(x, dtype=np.float64)[idx], axis=1)
    return math.factorial(G.rank) * math.fsum(terms.tolist())


def poly_grad(G, x) -> np.ndarray:
    idx, w = _edges(G)
    x = np.asarray(x, dtype=np.float64)
    parts = [[] for _ in range(G.n_vertices)]
    for e, we in zip(idx.tolist(), w.tolist()):
        for j, v in enumerate(e):
            parts[v].append(we * math.prod(x[u] for u in e[:j] + e[j + 1:]))
    return math.factorial(G.rank) * np.array([math.fsum(c) for c in parts])


def residual(G, p, lam, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    lhs = lam * np.sign(x) * np.abs(x) ** (p - 1.0)
    return float(np.max(np.abs(lhs - poly_grad(G, x) / G.rank)))


def sign_patterns(n: int, p: float) -> np.ndarray:
    pats = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
    pats = pats[np.any(pats != 0.0, axis=1)]
    return pats / (np.sum(np.abs(pats) ** p, axis=1) ** (1.0 / p))[:, None]


def _pattern_values(G, p) -> np.ndarray:
    idx, w = _edges(G)
    X = sign_patterns(G.n_vertices, p)
    return math.factorial(G.rank) * (np.prod(X[:, idx], axis=2) @ w)


def solve(G, res, with_patterns: bool) -> str | None:
    """Checks on one EigenResult: value, certificate, sign patterns."""
    if G.num_edges == 0:
        return None
    x = res.vector.coords
    scale = max(1.0, abs(res.value))
    got = poly(G, x)
    if abs(got - res.value) > VALUE_TOL * scale:
        return f"value {res.value!r} but polynomial at the vector is {got!r}"
    if res.status == "converged" and res.p > 1.0:
        defect = residual(G, res.p, res.value, x)
        if defect > RESIDUAL_TOL:
            return f"converged with eigen residual {defect:.3e}"
    if with_patterns:
        vals = _pattern_values(G, res.p)
        if res.target == "max" and vals.max() > res.value + PATTERN_TOL * scale:
            return f"{SUBOPTIMAL}a sign pattern reaches {vals.max()!r} above the maximum {res.value!r}"
        if res.target == "min" and vals.min() < res.value - PATTERN_TOL * scale:
            return f"{SUBOPTIMAL}a sign pattern reaches {vals.min()!r} below the minimum {res.value!r}"
    return None


def below_oracle(value: float, oracle: float) -> str | None:
    """A minimum may not lie above the sampling oracle's upper bound."""
    if value > oracle + PATTERN_TOL:
        return f"{SUBOPTIMAL}minimum {value!r} lies above the oracle's {oracle!r}"
    return None


def gnp_ratio(value: float, r: int, n: int, prob: float, p: float) -> str | None:
    ratio = value / (prob * n ** (r - r / p))
    lo, hi = RATIO_RANGE
    return None if lo <= ratio <= hi else f"criterion-9 ratio {ratio:.4f} outside [{lo}, {hi}]"


def curve(G, rows) -> str | None:
    """h and f nonincreasing in p (criterion 7a's slack); lambda_min = -lambda_max at odd rank."""
    for a, b in zip(rows, rows[1:]):
        if b.h > a.h + 1e-6:
            return f"h rises from {a.h!r} at p={a.p} to {b.h!r} at p={b.p}"
        if b.f > a.f + 1e-7:
            return f"f rises from {a.f!r} at p={a.p} to {b.f!r} at p={b.p}"
    if G.rank % 2 == 1:
        for row in rows:
            if abs(row.lam_min + row.lam_max) > VALUE_TOL * max(1.0, abs(row.lam_max)):
                return f"odd rank but lambda_min {row.lam_min!r} != -{row.lam_max!r} at p={row.p}"
    return None


def _cli_json(out) -> tuple[dict | None, str | None]:
    code, text = out
    if code == 1:
        return None, "exit code 1"
    try:
        return json.loads(text), None
    except json.JSONDecodeError:
        return None, f"exit code {code} with no JSON report"


def bounds_report(out, tol: float) -> str | None:
    report, err = _cli_json(out)
    if err:
        return err
    for b in report["results"]["bounds"]:
        if b["applies"] and b["slack"] is not None and b["slack"] < -2 * tol:
            return f"bound {b['name']} has slack {b['slack']!r}"
    return None


def oracle_gap(out, bounds_out, target: str) -> str | None:
    """The oracle agrees with the solved value of the same graph and p to 1e-3."""
    report, err = _cli_json(out)
    if err:
        return err
    solved, err = _cli_json(bounds_out)
    if err:
        return f"no solved value to compare with: {err}"
    value = solved["results"]["lambda" if target == "max" else "lambda_min"]
    gap = abs(report["results"]["value"] - value)
    return None if gap <= ORACLE_GAP else f"solver/oracle gap {gap:.3e}"


def property_report(out, G, prop: str) -> str | None:
    report, err = _cli_json(out)
    if err:
        return err
    res = report["results"]
    if prop == "odd-transversal" and res["value"]:
        t = set(res["witness"])
        if any(len(t & set(e)) % 2 == 0 for e in G.edges()):
            return f"witness {sorted(t)} misses an edge's odd parity"
    if prop == "equivalence-classes":
        verts = sorted(v for c in res["classes"] for v in c)
        if verts != list(range(G.n_vertices)):
            return "classes do not partition the vertex set"
    return None
