"""The degree-r edge polynomial of a weighted hypergraph, its gradient and
its Hessian.

For a rank-r graph the polynomial is r! * sum over edges of weight times the
product of the edge's coordinates.  The value is summed exactly (math.fsum),
since it is the reported number (the solvers' iterations take theirs from the
gradient by the Euler identity x . grad / r); the gradient adds its
leave-one-out products per vertex, and the Hessian its leave-two-out products
per vertex pair, with np.bincount in the fixed edge order: reproducible bit
for bit, with an error of a few ulps of the largest component.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .hypergraph import WeightedHypergraph

_GATHER_BLOCK = 1 << 20     # edge coordinates gathered at once by evaluate_many


def check_exponent(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"sphere exponent must be a finite real >= 1, got {p}")
    return p


def lp_norm(x: np.ndarray, p: float) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    # np.add.reduce is np.sum without its dispatch layer: the same sum, bit for bit
    return float(np.add.reduce(np.abs(x) ** p, axis=None) ** (1.0 / p))


def normalize_lp(x: np.ndarray, p: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    nrm = lp_norm(x, p)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / nrm


@dataclass(frozen=True)
class PointOnSphere:
    """A coordinate vector together with the exponent of its unit sphere."""

    coords: np.ndarray
    p: float
    normalized: bool = field(default=True)

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=np.float64))
        check_exponent(self.p)
        if self.normalized and self.coords.size:
            defect = abs(lp_norm(self.coords, self.p) - 1.0)
            if not defect <= 1e-12:     # a NaN defect fails too
                raise ValueError(f"vector is off the unit sphere by {defect:.3e}")

    @classmethod
    def project(cls, coords: np.ndarray, p: float) -> "PointOnSphere":
        return cls(normalize_lp(coords, p), p)


def _check_length(G: WeightedHypergraph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (G.n_vertices,):
        raise ValueError(f"vector has shape {x.shape}, expected ({G.n_vertices},)")
    return x


def evaluate(G: WeightedHypergraph, x: np.ndarray) -> float:
    """Value of the edge polynomial at x, including the r! coefficient."""
    x = _check_length(G, x)
    if G.num_edges == 0:
        return 0.0
    idx, w = G.arrays()
    Y = x[idx.T]                        # (r, m), as in _loo_gradient
    terms = Y[0]
    for row in Y[1:]:
        terms *= row
    terms *= w
    return math.factorial(G.rank) * math.fsum(terms.tolist())


def _loo_gradient(idx: np.ndarray, w: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Gradient of r! * sum_e w_e prod_{k in e} y_k from raw edge arrays.

    Component v is r! times the sum, over edges e through v, of w_e times the
    product of y over e minus v.  Weights may be signed.
    """
    m, r = idx.shape
    if m == 0:
        return np.zeros(n)
    Y = y[idx.T]                        # (r, m): one contiguous row per edge slot
    loo = np.empty((m, r))
    cols = loo.T
    # leave-one-out products via prefix/suffix scans along each edge
    cols[0] = w
    for j in range(1, r):
        np.multiply(cols[j - 1], Y[j - 1], out=cols[j])
    suf = Y[r - 1]                      # Y is a fresh gather: scan its last row in place
    for j in range(r - 2, -1, -1):
        cols[j] *= suf
        if j:
            suf *= Y[j]
    return math.factorial(r) * np.bincount(idx.ravel(), weights=loo.ravel(), minlength=n)


def gradient(G: WeightedHypergraph, x: np.ndarray) -> np.ndarray:
    """Gradient of the edge polynomial; component k sums over edges through k."""
    x = _check_length(G, x)
    idx, w = G.arrays()
    return _loo_gradient(idx, w, x, G.n_vertices)


def _pair_bins(G: WeightedHypergraph) -> list[np.ndarray]:
    """The Hessian bin i*n + j of every edge's slot pair (a, b), a < b: one
    array per pair, in the order `hessian` adds them.  A caller that takes
    several Hessians of one graph builds them once and passes them in."""
    idx, _ = G.arrays()
    n = G.n_vertices
    pairs = itertools.combinations(range(idx.shape[1]), 2)
    return [idx[:, a] * n + idx[:, b] for a, b in pairs]


def hessian(G: WeightedHypergraph, x: np.ndarray, bins=None) -> np.ndarray:
    """Hessian of the edge polynomial: H_ij = r! * sum over edges e through i
    and j of w_e times the product of x over e minus {i, j}; zero diagonal.

    The leave-two-out products of each slot pair are added with np.bincount
    over i*n + j in the fixed edge order, like the gradient, so the result is
    reproducible bit for bit; adding the transpose makes it exactly symmetric.
    `bins` is `_pair_bins(G)`, built here when not given; the result is the
    same bit for bit either way.
    """
    x = _check_length(G, x)
    n = G.n_vertices
    idx, w = G.arrays()
    r = idx.shape[1]
    if bins is None:
        bins = _pair_bins(G)
    half = np.zeros(n * n)
    Y = x[idx.T]
    for (a, b), key in zip(itertools.combinations(range(r), 2), bins):
        prod = w.copy()
        for k in range(r):
            if k != a and k != b:
                prod *= Y[k]
        half += np.bincount(key, weights=prod, minlength=n * n)
    half = half.reshape(n, n)
    return math.factorial(r) * (half + half.T)


def evaluate_many(G: WeightedHypergraph, X: np.ndarray) -> np.ndarray:
    """Polynomial values for a batch of row vectors (plain numpy accumulation).

    The sampling oracle scores its samples and every step of its polish with
    this function alone, so it shares no accumulation code with evaluate()
    (math.fsum) or with the solvers' gradient (np.bincount).  Rows are
    gathered in blocks of at most _GATHER_BLOCK edge coordinates, so memory
    stays bounded however many rows and edges there are.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != G.n_vertices:
        raise ValueError(f"batch has shape {X.shape}, expected (*, {G.n_vertices})")
    if G.num_edges == 0:
        return np.zeros(X.shape[0])
    idx, w = G.arrays()
    rows = max(1, _GATHER_BLOCK // idx.size)
    out = np.empty(X.shape[0])
    for s in range(0, X.shape[0], rows):
        out[s:s + rows] = np.prod(X[s:s + rows, idx], axis=2) @ w
    return math.factorial(G.rank) * out
