"""Weighted uniform hypergraph data model, standard families, operations, and file formats.

Vertices are 0-based contiguous integers.  Edges are sorted r-tuples of
distinct vertex ids mapped to strictly positive weights; storing weight zero
removes the edge, so the stored support always equals the edge set.  Graphs
are immutable values after construction and safe to share between threads.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Edge = tuple[int, ...]

JOIN_KINDS = ("k1", "t-k1", "k-t-t")


def _as_int(v, what: str) -> int:
    """v as an int; floats, strings and other non-integers are refused, not cut."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {v!r}") from None


def _normalize_edge(verts: Sequence[int], rank: int, n: int) -> Edge:
    if type(verts) is tuple and set(map(type, verts)) == {int} and verts == tuple(sorted(verts)):
        edge = verts  # already canonical: share the caller's tuple
    else:
        try:
            edge = tuple(sorted(map(operator.index, verts)))
        except TypeError:
            raise ValueError(f"edge {verts!r} must list integer vertex ids") from None
    if len(edge) != rank:
        raise ValueError(f"edge {verts!r} has {len(edge)} vertices, rank is {rank}")
    if len(set(edge)) != rank:
        raise ValueError(f"edge {verts!r} has a repeated vertex")
    if edge and (edge[0] < 0 or edge[-1] >= n):
        raise ValueError(f"edge {verts!r} has a vertex outside [0, {n})")
    return edge


class WeightedHypergraph:
    """Immutable rank-r hypergraph on n vertices with positive edge weights.

    The edges are kept as one sorted tuple and the weights as a parallel
    tuple: two pointers per edge, where a dict takes about six.  `weight`
    bisects the sorted edges, and `edge_weights` builds its dict per call.
    `_maxima` is the solver's record of the maxima solved on this graph
    (`solver._record_max`).
    """

    __slots__ = ("_rank", "_n", "_edges", "_weights", "_arrays", "_hash", "_maxima")

    def __init__(self, rank: int, n_vertices: int,
                 edges: Mapping[Sequence[int], float] | Iterable[tuple[Sequence[int], float]] = ()):
        rank = _as_int(rank, "rank")
        n_vertices = _as_int(n_vertices, "vertex count")
        if rank < 2:
            raise ValueError(f"rank must be at least 2, got {rank}")
        if n_vertices < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n_vertices}")
        items = edges.items() if isinstance(edges, Mapping) else edges
        store: dict[Edge, float] = {}
        for verts, w in items:
            edge = _normalize_edge(verts, rank, n_vertices)
            # plain floats skip the slower abstract-class check
            if type(w) is not float and (isinstance(w, bool) or not isinstance(w, numbers.Real)):
                raise ValueError(f"edge {edge} has weight {w!r}, not a real number")
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"edge {edge} has non-finite weight {w}")
            if w < 0.0:
                raise ValueError(f"edge {edge} has negative weight {w}")
            if edge in store:
                raise ValueError(f"duplicate edge {edge}")
            if w == 0.0:
                continue  # zero weight means absent edge
            store[edge] = w
        # on the unit l^p sphere every coordinate is at most 1, so the value
        # and every gradient and Hessian entry are bounded by r! * sum(w), and
        # the solvers' x . grad = r * value and H x = (r-1) grad by r * r! *
        # sum(w); float products overflow to inf rather than raise
        total = sum(store.values())
        if not math.isfinite(math.prod(range(2, rank + 1), start=rank * total)):
            raise ValueError(f"edge weights sum to {total:.6g}, and {rank} * {rank}! "
                             f"times that is not finite")
        self._rank = rank
        self._n = n_vertices
        self._edges = tuple(sorted(store))
        self._weights = tuple(store[e] for e in self._edges)
        self._arrays = None
        self._hash = None
        self._maxima = ()

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def edge_weights(self) -> Mapping[Edge, float]:
        return MappingProxyType(dict(zip(self._edges, self._weights)))

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def weight(self, verts: Sequence[int]) -> float:
        """Weight of an edge, 0.0 when absent."""
        edge = tuple(sorted(int(v) for v in verts))
        i = bisect.bisect_left(self._edges, edge)
        return self._weights[i] if i < len(self._edges) and self._edges[i] == edge else 0.0

    def size(self) -> float:
        """Total edge weight."""
        return math.fsum(self._weights)

    def is_unweighted(self) -> bool:
        return all(w == 1.0 for w in self._weights)

    def max_weight(self) -> float:
        return max(self._weights, default=0.0)

    def degrees(self) -> np.ndarray:
        """Weighted vertex degrees d(u)."""
        idx, w = self.arrays()
        # bincount adds in the order of idx.ravel(): edge by edge, as a loop would
        d = np.bincount(idx.ravel(), weights=np.repeat(w, self._rank), minlength=self._n)
        return d.astype(np.float64, copy=False)     # an empty bincount is integer

    def max_degree(self) -> float:
        d = self.degrees()
        return float(d.max()) if d.size else 0.0

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge index matrix (m, r) and weight vector (m,), cached."""
        if self._arrays is None:
            if self._edges:
                idx = np.array(self._edges, dtype=np.int64)
                w = np.array(self._weights, dtype=np.float64)
            else:
                idx = np.zeros((0, self._rank), dtype=np.int64)
                w = np.zeros(0, dtype=np.float64)
            self._arrays = (idx, w)
        return self._arrays

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedHypergraph):
            return NotImplemented
        return ((self._rank, self._n, self._edges, self._weights)
                == (other._rank, other._n, other._edges, other._weights))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._rank, self._n, self._edges, self._weights))
        return self._hash

    def __repr__(self) -> str:
        return (f"WeightedHypergraph(rank={self._rank}, n={self._n}, "
                f"edges={self.num_edges}, size={self.size():g})")


def from_edge_list(rank: int, n_vertices: int,
                   edges: Iterable[Sequence[int]]) -> WeightedHypergraph:
    """Unweighted constructor: every listed edge gets weight 1."""
    return WeightedHypergraph(rank, n_vertices, ((e, 1.0) for e in edges))


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """Named graph family with its integer parameters.

    family is one of: complete, complete-multipartite, turan, cycle,
    beta-star, t-star, single-edge.
    """

    family: str
    r: int | None = None
    n: int | None = None
    k: int | None = None
    t: int | None = None
    parts: tuple[int, ...] | None = None


def complete(r: int, n: int) -> WeightedHypergraph:
    """Complete r-graph on n vertices; needs n >= r."""
    if n < r:
        raise ValueError(f"complete graph needs n >= r, got n={n}, r={r}")
    return from_edge_list(r, n, itertools.combinations(range(n), r))


def single_edge(r: int) -> WeightedHypergraph:
    """The r-graph of order r consisting of one edge."""
    return from_edge_list(r, r, [tuple(range(r))])


def cycle(r: int, n: int) -> WeightedHypergraph:
    """Tight r-cycle on Z/nZ: edges are the n runs of r consecutive vertices."""
    if n <= r:
        raise ValueError(f"cycle needs n > r, got n={n}, r={r}")
    edges = [tuple(sorted((i + j) % n for j in range(r))) for i in range(n)]
    return from_edge_list(r, n, edges)


def beta_star(r: int, k: int) -> WeightedHypergraph:
    """k edges of rank r pairwise sharing exactly the center vertex 0."""
    if k < 1:
        raise ValueError(f"beta-star needs k >= 1, got k={k}")
    if r < 2:
        raise ValueError(f"beta-star needs r >= 2, got r={r}")
    n = (r - 1) * k + 1
    edges = [(0,) + tuple(range(1 + (r - 1) * i, 1 + (r - 1) * (i + 1))) for i in range(k)]
    return from_edge_list(r, n, edges)


def t_star(r: int, t: int, n: int) -> WeightedHypergraph:
    """Complete t-star: every (r-t)-subset of {t,..,n-1} joined with the core {0,..,t-1}."""
    if not (r > t >= 1):
        raise ValueError(f"t-star needs r > t >= 1, got r={r}, t={t}")
    if n < r:
        raise ValueError(f"t-star needs n >= r, got n={n}, r={r}")
    core = tuple(range(t))
    edges = [core + rest for rest in itertools.combinations(range(t, n), r - t)]
    return from_edge_list(r, n, edges)


def complete_multipartite(r: int, parts: Sequence[int]) -> WeightedHypergraph:
    """Complete r-partite-style graph: an edge takes one vertex from each of r distinct parts."""
    parts = tuple(_as_int(s, "part size") for s in parts)
    if len(parts) < r:
        raise ValueError(f"complete-multipartite needs at least r={r} parts, got {len(parts)}")
    if any(s <= 0 for s in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    offsets = np.concatenate([[0], np.cumsum(parts)])
    n = int(offsets[-1])
    edges = []
    for chosen in itertools.combinations(range(len(parts)), r):
        ranges = [range(offsets[i], offsets[i] + parts[i]) for i in chosen]
        edges.extend(itertools.product(*ranges))
    return from_edge_list(r, n, edges)


def turan(n: int, k: int) -> WeightedHypergraph:
    """Complete k-partite 2-graph of order n with balanced part sizes."""
    if k < 2:
        raise ValueError(f"turan graph needs k >= 2, got k={k}")
    if n < k:
        raise ValueError(f"turan graph needs n >= k, got n={n}, k={k}")
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    return complete_multipartite(2, sizes)


def construct(spec: FamilySpec) -> WeightedHypergraph:
    """Build the unweighted graph described by a FamilySpec."""
    families = {
        "complete": (complete, ("r", "n")),
        "single-edge": (single_edge, ("r",)),
        "cycle": (cycle, ("r", "n")),
        "beta-star": (beta_star, ("r", "k")),
        "t-star": (t_star, ("r", "t", "n")),
        "complete-multipartite": (complete_multipartite, ("r", "parts")),
        "turan": (turan, ("n", "k")),
    }
    if spec.family not in families:
        raise ValueError(f"unknown family {spec.family!r}")
    build, names = families[spec.family]
    missing = [name for name in names if getattr(spec, name) is None]
    if missing:
        raise ValueError(f"family {spec.family!r} is missing parameter"
                         f"{'s' if len(missing) > 1 else ''} "
                         + ", ".join(repr(name) for name in missing))
    return build(*(getattr(spec, name) for name in names))


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def blow_up(G: WeightedHypergraph, mult: Sequence[int]) -> WeightedHypergraph:
    """Replace vertex v by mult[v] clones and each edge by the complete r-partite
    graph across its clone classes, keeping edge weights."""
    mult = [_as_int(c, "multiplicity") for c in mult]
    if len(mult) != G.n_vertices:
        raise ValueError(f"multiplicity list has length {len(mult)}, expected {G.n_vertices}")
    if any(c < 1 for c in mult):
        raise ValueError("multiplicities must be positive integers")
    offsets = [0]
    for c in mult:
        offsets.append(offsets[-1] + c)
    edges = {}
    for edge, w in G.edge_weights.items():
        classes = [range(offsets[v], offsets[v] + mult[v]) for v in edge]
        for combo in itertools.product(*classes):
            edges[tuple(sorted(combo))] = w
    return WeightedHypergraph(G.rank, offsets[-1], edges)


def disjoint_union(G: WeightedHypergraph, H: WeightedHypergraph) -> WeightedHypergraph:
    """Vertex-disjoint union; H's vertex ids are shifted by n(G)."""
    if G.rank != H.rank:
        raise ValueError(f"rank mismatch: {G.rank} vs {H.rank}")
    shift = G.n_vertices
    edges = dict(G.edge_weights)
    for edge, w in H.edge_weights.items():
        edges[tuple(v + shift for v in edge)] = w
    return WeightedHypergraph(G.rank, G.n_vertices + H.n_vertices, edges)


def complement(G: WeightedHypergraph) -> WeightedHypergraph:
    """Complement within the complete r-graph; defined for unweighted graphs only."""
    if not G.is_unweighted():
        raise ValueError("complement is undefined for weighted graphs")
    support = set(G.edges())
    edges = [e for e in itertools.combinations(range(G.n_vertices), G.rank) if e not in support]
    return from_edge_list(G.rank, G.n_vertices, edges)


def add(G: WeightedHypergraph, H: WeightedHypergraph) -> WeightedHypergraph:
    """Weighted sum on a common vertex set: weights add edgewise."""
    if G.rank != H.rank or G.n_vertices != H.n_vertices:
        raise ValueError("weighted sum needs equal rank and vertex set")
    edges = dict(G.edge_weights)
    for e, w in H.edge_weights.items():
        edges[e] = edges.get(e, 0.0) + w
    return WeightedHypergraph(G.rank, G.n_vertices, edges)


def scale(G: WeightedHypergraph, c: float) -> WeightedHypergraph:
    """Multiply every edge weight by c > 0."""
    if c <= 0:
        raise ValueError(f"scale factor must be positive, got {c}")
    return WeightedHypergraph(G.rank, G.n_vertices,
                              {e: c * w for e, w in G.edge_weights.items()})


def _join_order(kind: str, t: int) -> int:
    """The number t of new vertices a join of this kind adds: 1 for "k1"."""
    if kind not in JOIN_KINDS:
        raise ValueError(f"unknown join kind {kind!r}; expected one of {JOIN_KINDS}")
    if kind == "k1":
        t = 1
    if t < 1:
        raise ValueError(f"join needs t >= 1, got t={t}")
    return t


def join_family(G: WeightedHypergraph, kind: str, t: int = 1) -> WeightedHypergraph:
    """Star-like joins.  New vertices are appended after G's.

    kind "k1":    rank r+1; one new vertex added to every edge.
    kind "t-k1":  rank r+1; t new vertices, each old edge extended by each one.
    kind "k-t-t": rank r+t; a fixed core of t new vertices added to every edge.
    """
    t, n = _join_order(kind, t), G.n_vertices
    edges = {}
    if kind in ("k1", "t-k1"):
        for v in range(n, n + t):
            for e, w in G.edge_weights.items():
                edges[tuple(sorted(e + (v,)))] = w
        return WeightedHypergraph(G.rank + 1, n + t, edges)
    core = tuple(range(n, n + t))
    for e, w in G.edge_weights.items():
        edges[tuple(sorted(e + core))] = w
    return WeightedHypergraph(G.rank + t, n + t, edges)


def induced_subgraph(G: WeightedHypergraph, vertices: Iterable[int]
                     ) -> tuple[WeightedHypergraph, dict[int, int]]:
    """Induced subgraph on a vertex set, relabeled to 0..|U|-1 preserving order.

    Returns the subgraph together with the old-id -> new-id map.
    """
    U = sorted({_as_int(v, "vertex id") for v in vertices})
    if U and (U[0] < 0 or U[-1] >= G.n_vertices):
        raise ValueError(f"vertex set {U} not contained in [0, {G.n_vertices})")
    relabel = {v: i for i, v in enumerate(U)}
    keep = set(U)
    edges = {tuple(relabel[v] for v in e): w
             for e, w in G.edge_weights.items() if keep.issuperset(e)}
    return WeightedHypergraph(G.rank, len(U), edges), relabel


def random_gnp(r: int, n: int, prob: float, seed: int) -> WeightedHypergraph:
    """Binomial random r-graph: each r-set kept independently with probability prob.

    Identical (r, n, prob, seed) always produce the identical graph.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {prob}")
    if n < r:
        raise ValueError(f"random graph needs n >= r, got n={n}, r={r}")
    rng = np.random.default_rng(seed)
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < prob]
    return from_edge_list(r, n, edges)


def k_section(G: WeightedHypergraph, k: int) -> WeightedHypergraph:
    """Unweighted k-graph whose edges are all k-subsets of edges of G."""
    if not 2 <= k < G.rank:
        raise ValueError(f"k-section needs 2 <= k < r, got k={k}, r={G.rank}")
    edges = set()
    for e in G.edges():
        edges.update(itertools.combinations(e, k))
    return from_edge_list(k, G.n_vertices, sorted(edges))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_dict(G: WeightedHypergraph) -> dict:
    return {
        "rank": G.rank,
        "vertices": G.n_vertices,
        "edges": [{"verts": list(e), "w": w} for e, w in G.edge_weights.items()],
    }


def to_json(G: WeightedHypergraph) -> str:
    return json.dumps(to_json_dict(G), sort_keys=True)


def from_json(text: str | bytes) -> WeightedHypergraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON graph: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("malformed JSON graph: top level must be an object")
    for field in ("rank", "vertices"):
        if field not in obj:
            raise ValueError(f"malformed JSON graph: missing field {field!r}")
    edges = []
    for i, rec in enumerate(obj.get("edges", [])):
        if not isinstance(rec, dict) or "verts" not in rec:
            raise ValueError(f"malformed JSON graph: edge #{i} missing 'verts'")
        edges.append((rec["verts"], rec.get("w", 1.0)))
    try:
        return WeightedHypergraph(obj["rank"], obj["vertices"], edges)
    except ValueError as exc:
        raise ValueError(f"invalid JSON graph: {exc}") from None


def to_text(G: WeightedHypergraph) -> str:
    lines = [f"{G.rank} {G.n_vertices} {G.num_edges}"]
    for e, w in G.edge_weights.items():
        lines.append(" ".join(str(v) for v in e) + f" {w!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> WeightedHypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty text graph: missing 'r n m' header")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"line 1: header must be 'r n m', got {lines[0]!r}")
    try:
        r, n, m = (int(x) for x in head)
    except ValueError:
        raise ValueError(f"line 1: header fields must be integers, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header announces {m} edges but {len(lines) - 1} edge lines follow")
    edges = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) == r:
            verts, w = fields, 1.0
        elif len(fields) == r + 1:
            verts = fields[:r]
            try:
                w = float(fields[r])
            except ValueError:
                raise ValueError(f"line {ln_no}: bad weight field {fields[r]!r}") from None
        else:
            raise ValueError(f"line {ln_no}: expected {r} vertex ids and optional weight")
        try:
            verts = [int(v) for v in verts]
        except ValueError:
            raise ValueError(f"line {ln_no}: vertex ids must be integers") from None
        edges.append((verts, w))
    try:
        return WeightedHypergraph(r, n, edges)
    except ValueError as exc:
        raise ValueError(f"invalid text graph: {exc}") from None


def parse(data: str | bytes) -> WeightedHypergraph:
    """Parse either supported format, sniffing JSON by its leading brace."""
    text = data.decode() if isinstance(data, bytes) else data
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_text(text)


def read_file(path) -> WeightedHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write_file(G: WeightedHypergraph, path, fmt: str = "json") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(G) + "\n" if fmt == "json" else to_text(G))
