"""Command-line front end: compute, bounds, check, curve, oracle, construct,
random.

Every command takes one path through `main`.  Its handler `cmd_<command>`
loads the input, calls the library and returns (input digest, results, human
lines, exit code).  `main` alone turns a ValueError, from the input, a flag
or the library, into one `error: <message>` line on stderr and exit 1; it
also times the handler and writes the report.

Human output is line-oriented and ends with `elapsed`, the handler's time:
reading the input plus the solve (for construct, building and writing the
graph).  curve writes its CSV alone on stdout and `# elapsed` on stderr.
--json emits a deterministic machine-readable report (sorted keys, no timing
field), so identical invocations with the same seed are byte-identical.
Exit codes: 0 converged/true, 1 usage or parse error, 2 best-effort or a
false predicate.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from . import combinatorics as comb
from . import hypergraph as hg
from .bounds import bound_suite_max, bound_suite_min, structural_bounds
from .solver import (SolveOptions, brute_force_lambda, extremes, lambda_curve, lambda_max,
                     lambda_min)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BEST_EFFORT = 2

FAMILIES = ("complete", "multipartite", "turan", "cycle", "beta-star",
            "t-star", "single-edge")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):       # the subparsers are built by this class too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sp, p=True, seed=True, solve=True):
    """--input, --json; --p, --seed as asked; --tol, --restarts with `solve`."""
    sp.add_argument("--input", required=True, help="graph file (JSON or text format)")
    if p:
        sp.add_argument("--p", type=float, default=None, help="sphere exponent, at least 1")
    if seed:
        sp.add_argument("--seed", type=int, default=0)
    if solve:
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _load(args):
    """The graph in --input and the sha256 of its bytes."""
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    return hg.parse(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()


def _opts(args, default_restarts=32) -> SolveOptions:
    restarts = args.restarts if args.restarts is not None else default_restarts
    return SolveOptions(tol=args.tol, restarts=restarts, seed=args.seed)


def _answer(value, witness=None, **extra) -> dict:
    """A check's results: its truth value, the sorted witness or None, and extras."""
    return {"value": value, "witness": None if witness is None else sorted(witness), **extra}


def _found(t) -> dict:
    return _answer(t is not None, t)


# property -> (needs --k, (G, k) -> results)
_CHECKS = {
    "connected": (False, lambda G, k: _answer(comb.is_connected(G))),
    "k-tight": (True, lambda G, k: _answer(*comb.is_k_tight(G, k))),
    "odd-transversal": (False, lambda G, k: _found(comb.odd_transversal(G))),
    "even-transversal": (False, lambda G, k: _found(comb.even_transversal(G))),
    "k-linear": (True, lambda G, k: _answer(comb.is_k_linear(G, k))),
    "k-set-regular": (True, lambda G, k: _answer(comb.is_k_set_regular(G, k))),
    "steiner": (True, lambda G, k: _answer(comb.is_steiner(G, k))),
    "equivalence-classes": (False, lambda G, k: _answer(
        True, classes=[list(c) for c in comb.equivalence_classes(G)])),
    "chromatic": (False, lambda G, k: _answer(
        True, chromatic_number=comb.chromatic_number_exact(G))),
}
PROPERTIES = tuple(_CHECKS)


# ---------------------------------------------------------------------------
# subcommands: each returns (input digest, results, human lines, exit code)
# ---------------------------------------------------------------------------

def cmd_compute(args):
    G, digest = _load(args)
    p = args.p if args.p is not None else 2.0
    opts = _opts(args)
    res = lambda_min(G, p, opts) if args.target == "min" else lambda_max(G, p, opts)
    label = "lambda_min" if args.target == "min" else "lambda"
    lines = [f"{label} = {res.value:.7f}",
             f"residual = {res.residual:.3e}",
             f"status = {res.status}",
             f"iterations = {res.iterations}",
             f"restarts = {res.restarts_used}"]
    results = {
        "value": res.value,
        "residual": None if np.isnan(res.residual) else res.residual,
        "gap": res.gap if np.isfinite(res.gap) else None,
        "status": res.status,
        "iterations": res.iterations,
        "restarts": res.restarts_used,
    }
    if args.vector:
        results["vector"] = [f"{v:.12g}" for v in res.vector.coords]
        lines.append("vector = " + " ".join(results["vector"]))
    return digest, results, lines, EXIT_OK if res.status == "converged" else EXIT_BEST_EFFORT


def cmd_bounds(args):
    G, digest = _load(args)
    p = args.p if args.p is not None else 2.0
    opts = _opts(args)
    top, bot = extremes(G, p, opts)
    reports = (bound_suite_max(G, p, top.value)
               + structural_bounds(G, p, top.value)
               + bound_suite_min(G, p, bot.value, top.value))
    lines = [f"lambda = {top.value:.7f}   lambda_min = {bot.value:.7f}",
             f"{'name':<24}{'side':<7}{'applies':<9}{'bound':>16}{'slack':>16}"]
    rows = []
    for b in reports:
        slack = "" if b.slack is None else f"{b.slack:>16.6e}"
        lines.append(f"{b.name:<24}{b.side:<7}{str(b.applies):<9}{b.bound:>16.6f}{slack}")
        rows.append({"name": b.name, "side": b.side, "applies": b.applies,
                     "bound": b.bound, "slack": b.slack, "citation": b.citation})
    ok = all(b.slack is None or not b.applies or b.slack >= -2 * opts.tol
             for b in reports)
    return (digest, {"lambda": top.value, "lambda_min": bot.value, "bounds": rows}, lines,
            EXIT_OK if ok else EXIT_BEST_EFFORT)


def cmd_check(args):
    G, digest = _load(args)
    needs_k, check = _CHECKS[args.property]
    if needs_k and args.k is None:
        raise ValueError(f"--k is required for {args.property}")
    results = check(G, args.k)
    if "classes" in results:
        lines = ["classes = " + " ".join("{" + ",".join(map(str, c)) + "}"
                                         for c in results["classes"])]
    elif "chromatic_number" in results:
        lines = [f"chromatic_number = {results['chromatic_number']}"]
    else:
        lines = [str(results["value"]).lower()]
        if results["witness"] is not None:
            lines.append(f"witness = {results['witness']}")
    return digest, results, lines, EXIT_OK if results["value"] else EXIT_BEST_EFFORT


def cmd_curve(args):
    G, digest = _load(args)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if args.p_to < args.p_from:
        raise ValueError("--p-to must be at least --p-from")
    opts = _opts(args)
    grid = list(np.linspace(args.p_from, args.p_to, args.steps)) \
        if args.steps > 1 else [args.p_from]
    rows = lambda_curve(G, grid, opts)
    csv = ["p,lambda,lambda_min,h,f"]
    csv += [f"{r.p:.12g},{r.lam_max:.12g},{r.lam_min:.12g},{r.h:.12g},{r.f:.12g}"
            for r in rows]
    results = {"rows": [{"p": r.p, "lambda": r.lam_max, "lambda_min": r.lam_min,
                         "h": r.h, "f": r.f} for r in rows]}
    return digest, results, csv, EXIT_OK


def cmd_oracle(args):
    G, digest = _load(args)
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    p = args.p if args.p is not None else 2.0
    value = brute_force_lambda(G, p, args.target, args.samples, args.seed)
    return digest, {"value": value}, [f"oracle = {value:.7f}"], EXIT_OK


def cmd_construct(args):
    try:
        parts = tuple(int(s) for s in args.parts.split(",")) if args.parts else None
    except ValueError:
        msg = f"--parts must be comma-separated integers, got {args.parts!r}"
        raise ValueError(msg) from None
    spec = hg.FamilySpec(family="complete-multipartite"
                         if args.family == "multipartite" else args.family,
                         r=args.r, n=args.n, k=args.k, t=args.t, parts=parts)
    G = hg.construct(spec)
    try:
        hg.write_file(G, args.out, args.format)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    results = {"rank": G.rank, "vertices": G.n_vertices, "edges": G.num_edges,
               "path": args.out}
    line = f"wrote {args.out}: rank {G.rank}, {G.n_vertices} vertices, {G.num_edges} edges"
    return "none", results, [line], EXIT_OK


def cmd_random(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if not args.prob > 0:
        raise ValueError("--prob must be positive")
    q = args.q
    opts = _opts(args, default_restarts=4)
    ratios = []
    for trial in range(args.trials):
        G = hg.random_gnp(args.r, args.n, args.prob, args.seed + trial)
        value = lambda_max(G, q, opts).value
        scalef = args.prob * args.n ** (args.r - args.r / q)
        ratios.append({"trial": trial, "seed": args.seed + trial,
                       "edges": G.num_edges, "lambda": value,
                       "ratio": value / scalef})
    lines = [f"trial {r['trial']}: edges = {r['edges']}  lambda = {r['lambda']:.6f}  "
             f"ratio = {r['ratio']:.6f}" for r in ratios]
    return "none", {"trials": ratios}, lines, EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pspectral",
                 description="Extremal l^p values of weighted uniform hypergraphs: "
                             "solvers, bounds, structure checks, and oracles.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("compute", help="solve for the maximum or minimum value")
    _add_common(sp)
    sp.add_argument("--target", choices=("max", "min"), default="max")
    sp.add_argument("--vector", action="store_true", help="print the eigenvector")
    sp.add_argument("--parallel", action="store_true",
                    help="accepted for compatibility; no effect (restarts run serially)")

    sp = sub.add_parser("bounds", help="solve, then audit every applicable bound")
    _add_common(sp)

    sp = sub.add_parser("check", help="run one combinatorial predicate")
    _add_common(sp, p=False, seed=False, solve=False)
    sp.add_argument("--property", choices=PROPERTIES, required=True)
    sp.add_argument("--k", type=int, default=None)

    sp = sub.add_parser("curve", help="values along an exponent grid, CSV output")
    _add_common(sp, p=False)
    sp.add_argument("--p-from", type=float, required=True)
    sp.add_argument("--p-to", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)

    sp = sub.add_parser("oracle", help="sampling-plus-polish estimate (small graphs)")
    _add_common(sp, solve=False)
    sp.add_argument("--target", choices=("max", "min"), default="max")
    sp.add_argument("--samples", type=int, default=10_000)

    sp = sub.add_parser("construct", help="write a standard family graph to file")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--parts", type=str, default=None,
                    help="comma-separated part sizes for multipartite")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("random", help="seeded binomial-graph scaling check")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--prob", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command and write its report.  The parser is built on the
    first call and reused; the handler `cmd_<command>` is looked up in this
    module at each call, so a replaced handler runs."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        digest, results, lines, code = globals()[f"cmd_{args.cmd}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.perf_counter() - t0
    if args.json:
        # the inert --parallel flag is excluded so runs with and without it
        # produce identical reports
        echo = {k: v for k, v in vars(args).items()
                if k not in ("json", "parallel") and v is not None}
        print(json.dumps({"command": args.cmd, "args": echo, "input_digest": digest,
                          "results": results}, sort_keys=True))
        return code
    for line in lines:
        print(line)
    if args.cmd == "curve":     # the CSV stands alone on stdout
        print(f"# elapsed = {elapsed:.3f}s", file=sys.stderr)
    else:
        print(f"elapsed = {elapsed:.3f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
