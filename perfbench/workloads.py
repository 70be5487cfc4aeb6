"""The benchmark's three workloads: seeded inputs, timed operations, checks.

A workload is built once (that is the set-up) and then hands out one list of
operations per pass.  Every pass after the first works on fresh copies of the
graphs, so no pass reuses a per-graph cache that an earlier pass filled.  An
operation receives the results of the operations before it in the same pass
(the warm start of small-pool's q solve needs the p vector); its check runs
after the timed region and returns None or the reason it failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pspectral as ps
from pspectral import cli

import checks

# acceptance criterion 7's options and generator seed
POOL = ps.SolveOptions(tol=1e-9, restarts=4, seed=2024, parallel=False)
POOL_STREAM_SEED = 777
POOL_DRAWS = 40
# Baseline example 1: the even-rank minimum that stops short of tol 1e-10
EXAMPLE1 = ps.SolveOptions(tol=1e-10, restarts=8, seed=2024, parallel=False)
# Baseline example 2: three of four restarts reach max_iter
EXAMPLE2_EDGES = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
                  (3, 4), (3, 5), (4, 5)]
EXAMPLE2_P = 1.118
ORACLE_SAMPLES = 10_000
# acceptance criterion 5's options for the audit's solves
SUITE_ARGS = ["--tol", "1e-9", "--restarts", "6", "--seed", "2024"]
SUITE_TOL = 1e-9


@dataclass
class Op:
    name: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], str | None]


def fresh(G: ps.WeightedHypergraph) -> ps.WeightedHypergraph:
    """An equal graph with empty caches, its edge arrays built as in set-up."""
    H = ps.WeightedHypergraph(G.rank, G.n_vertices, G.edge_weights)
    H.arrays()
    return H


def _solve_check(G, sign_patterns):
    return lambda res, done: checks.solve(G, res, sign_patterns)


# ---------------------------------------------------------------------------
# small-pool
# ---------------------------------------------------------------------------

def criterion7_draws(count: int) -> list[tuple[int, int, list, float, float]]:
    """The first `count` graphs of acceptance criterion 7's generator.

    The random calls replay the criterion's fixture exactly, including the
    edge-split mask it draws after each graph, so draw k here is case k there.
    """
    rng = np.random.default_rng(POOL_STREAM_SEED)
    draws = []
    while len(draws) < count:
        r = int(rng.integers(2, 5))
        n = int(rng.integers(max(3, r), 7))
        edges = [e for e in itertools.combinations(range(n), r)
                 if rng.random() < rng.uniform(0.35, 0.85)]
        if not edges:
            continue
        p = float(np.round(rng.uniform(r - 1 + 0.1, r + 2.3), 3))
        q = float(np.round(p + rng.uniform(0.15, 1.2), 3))
        rng.random(len(edges))
        draws.append((r, n, edges, p, q))
    return draws


class SmallPool:
    """Criterion 7's small graphs plus the two even-rank minimum examples.

    The graphs are the pinned criterion-7 stream, not drawn from the run seed:
    whether a draw crawls to max_iter decides most of a pass's time (2 s to
    30 s per 40 seeded draws), so seeded graphs would measure the draw rather
    than the code.  The run seed orders the operations of each pass.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.draws = []
        for r, n, edges, p, q in criterion7_draws(POOL_DRAWS):
            G = ps.from_edge_list(r, n, edges)
            G.arrays()
            self.draws.append((G, p, q))
        self.example1 = ps.cycle(4, 12)
        self.example1.arrays()
        self.example2 = ps.from_edge_list(2, 6, EXAMPLE2_EDGES)
        self.example2.arrays()
        self._oracle = None

    def example2_oracle(self) -> float:
        if self._oracle is None:
            self._oracle = ps.brute_force_lambda(self.example2, EXAMPLE2_P, "min",
                                                 ORACLE_SAMPLES, seed=17)
        return self._oracle

    def ops(self, k: int) -> list[Op]:
        cp = (lambda G: G) if k == 0 else fresh
        units = []
        for i, (G, p, q) in enumerate(self.draws):
            G = cp(G)
            tag = f"draw{i:02d}"
            units.append([
                Op(f"{tag}.max_p", lambda d, G=G, p=p: ps.lambda_max(G, p, POOL),
                   _solve_check(G, True)),
                Op(f"{tag}.max_q",
                   lambda d, G=G, q=q, t=tag: ps.lambda_max(
                       G, q, POOL, initial_vectors=[d[f"{t}.max_p"].vector.coords]),
                   _solve_check(G, True)),
                Op(f"{tag}.min_p", lambda d, G=G, p=p: ps.lambda_min(G, p, POOL),
                   _solve_check(G, True)),
            ])
        E1, E2 = cp(self.example1), cp(self.example2)
        units.append([Op("example1.min", lambda d: ps.lambda_min(E1, 2.0, EXAMPLE1),
                         _solve_check(E1, False))])

        def check_example2(res, done):
            return checks.solve(E2, res, True) or checks.below_oracle(
                res.value, self.example2_oracle())

        units.append([Op("example2.min", lambda d: ps.lambda_min(E2, EXAMPLE2_P, POOL),
                         check_example2)])
        order = np.random.default_rng([self.seed, k]).permutation(len(units))
        return [op for u in order for op in units[u]]


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

DENSE = POOL
DENSE_CURVE = (2.0, 3.0, 4.0)


class Dense:
    """Criterion-9 scale graphs: m near 2,941 at rank 3 and 5,600 at rank 4.

    The rank-3 graph is one of criterion 9's five (seeds 1 to 5), because the
    [0.9, 1.1] ratio band is that criterion's claim about those graphs, not a
    property of every draw: the graph a SeedSequence gave for run seed 5 has
    2,856 edges, 2.4 sd below the mean, and ratio 0.8964 at 4, 16 and 32
    restarts alike.
    """

    def __init__(self, seed: int):
        s4 = int(np.random.SeedSequence(seed).generate_state(1)[0])
        self.G3 = ps.random_gnp(3, 40, 0.3, 1 + seed % 5)
        self.G4 = ps.random_gnp(4, 25, 0.45, s4)
        self.G3.arrays()
        self.G4.arrays()

    def ops(self, k: int) -> list[Op]:
        G3, G4 = (self.G3, self.G4) if k == 0 else (fresh(self.G3), fresh(self.G4))
        ops = []
        for p in (2.0, 3.0, 4.0):
            check = _solve_check(G3, False)
            if p == 2.0:
                check = lambda res, done, G=G3: (checks.solve(G, res, False)
                                                 or checks.gnp_ratio(res.value, 3, 40, 0.3, 2.0))
            ops.append(Op(f"r3.max_p{p:g}", lambda d, p=p: ps.lambda_max(G3, p, DENSE), check))
        ops.append(Op("r3.curve", lambda d: ps.lambda_curve(G3, DENSE_CURVE, DENSE),
                      lambda rows, done: checks.curve(G3, rows)))
        for p in (2.0, 4.0):
            ops.append(Op(f"r4.max_p{p:g}", lambda d, p=p: ps.lambda_max(G4, p, DENSE),
                          _solve_check(G4, False)))
        ops.append(Op("r4.min_p4", lambda d: ps.lambda_min(G4, 4.0, DENSE),
                      _solve_check(G4, False)))
        return ops


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def criterion5_graphs() -> list[tuple[str, ps.WeightedHypergraph]]:
    """Acceptance criterion 5's graphs (all with n <= 4)."""
    path = lambda n: ps.from_edge_list(2, n, [(i, i + 1) for i in range(n - 1)])
    return [
        ("single-edge-2", ps.single_edge(2)),
        ("path-3", path(3)),
        ("complete-2-3", ps.complete(2, 3)),
        ("path-4", path(4)),
        ("cycle-2-4", ps.cycle(2, 4)),
        ("complete-2-4", ps.complete(2, 4)),
        ("matching-2-4", ps.from_edge_list(2, 4, [(0, 1), (2, 3)])),
        ("star-2-4", ps.from_edge_list(2, 4, [(0, 1), (0, 2), (0, 3)])),
        ("single-edge-3", ps.single_edge(3)),
        ("complete-3-4", ps.complete(3, 4)),
        ("single-edge-4", ps.single_edge(4)),
    ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process `pspectral` invocation: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Audit:
    """`pspectral` called in-process as a user auditing graph files would.

    Each pass runs `bounds --json` on every fixture file and on criterion 5's
    graphs at p in {1, 2, r, r+1}, both structure checks on every file, and
    `verify_fixture` over the catalog.  The sampling oracle costs 0.2 s to
    1.4 s per call, so a pass runs it once per criterion-5 graph, at a
    (p, target) pair fixed per graph that alternates the targets; the run seed
    is the oracle's sampling seed.  Every pass runs the same operations.
    """

    def __init__(self, seed: int, root: str, scratch: str):
        self.seed = seed
        self.files = []
        fixture_dir = os.path.join(root, "fixtures")
        with open(os.path.join(fixture_dir, "index.json"), encoding="utf-8") as fh:
            for entry in json.load(fh):
                self.files.append((entry["name"], os.path.join(fixture_dir, entry["file"]),
                                   [float(entry["p"])]))
        self.tiny = []
        for name, G in criterion5_graphs():
            path = os.path.join(scratch, f"{name}.json")
            ps.write_file(G, path)
            r = G.rank
            ps_ = sorted({1.0, 2.0, float(r), r + 1.0})
            self.files.append((name, path, ps_))
            self.tiny.append((name, path, ps_))
        self.catalog = ps.fixture_catalog()
        for fx in self.catalog:
            fx.graph.arrays()
        self.oracle_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])

    def ops(self, k: int) -> list[Op]:
        ops = []
        for name, path, plist in self.files:
            for p in plist:
                ops.append(Op(f"bounds.{name}.p{p:g}",
                              lambda d, path=path, p=p: run_cli(
                                  ["bounds", "--input", path, "--p", f"{p!r}", "--json"]
                                  + SUITE_ARGS),
                              lambda out, done: checks.bounds_report(out, SUITE_TOL)))
        for i, (name, path, plist) in enumerate(self.tiny):
            j = i % (2 * len(plist))
            p, target = plist[j // 2], ("max", "min")[j % 2]
            key = f"bounds.{name}.p{p:g}"
            ops.append(Op(f"oracle.{name}.p{p:g}.{target}",
                          lambda d, path=path, p=p, target=target: run_cli(
                              ["oracle", "--input", path, "--p", f"{p!r}", "--target",
                               target, "--samples", str(ORACLE_SAMPLES),
                               "--seed", str(self.oracle_seed), "--json"]),
                          lambda out, done, key=key, target=target: checks.oracle_gap(
                              out, done.get(key), target)))
        for name, path, _ in self.files:
            for prop in ("odd-transversal", "equivalence-classes"):
                ops.append(Op(f"check.{name}.{prop}",
                              lambda d, path=path, prop=prop: run_cli(
                                  ["check", "--input", path, "--property", prop, "--json"]),
                              lambda out, done, path=path, prop=prop: checks.property_report(
                                  out, ps.read_file(path), prop)))
        catalog = self.catalog if k == 0 else ps.fixture_catalog()
        if k:
            for fx in catalog:
                fx.graph.arrays()
        for fx in catalog:
            ops.append(Op(f"verify.{fx.name}", lambda d, fx=fx: ps.verify_fixture(fx),
                          lambda out, done: None if out.get("ok") else f"not ok: {out}"))
        return ops


def build(name: str, seed: int, root: str, scratch: str):
    if name == "small-pool":
        return SmallPool(seed)
    if name == "dense":
        return Dense(seed)
    return Audit(seed, root, scratch)
