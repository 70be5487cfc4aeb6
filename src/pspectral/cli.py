"""Command-line front end: compute, bounds, check, curve, oracle, construct,
random.

Human output is line-oriented; --json emits a deterministic machine-readable
report (sorted keys, no timing field), so identical invocations with the
same seed are byte-identical.  Exit codes: 0 converged/true, 1 usage or
parse error, 2 best-effort or a false predicate.
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

PROPERTIES = ("connected", "k-tight", "odd-transversal", "even-transversal",
              "k-linear", "k-set-regular", "steiner", "equivalence-classes",
              "chromatic")
FAMILIES = ("complete", "multipartite", "turan", "cycle", "beta-star",
            "t-star", "single-edge")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt_vec(coords) -> list[str]:
    return [f"{v:.12g}" for v in coords]


def _add_common(sp, sphere=True, solve=True):
    """--input, --json; --p, --seed with `sphere`; --tol, --restarts with `solve`."""
    sp.add_argument("--input", required=True, help="graph file (JSON or text format)")
    if sphere:
        sp.add_argument("--p", type=float, default=None, help="sphere exponent, at least 1")
        sp.add_argument("--seed", type=int, default=0)
    if solve:
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _load(args):
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
        return hg.parse(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except OSError as exc:
        raise SystemExit(_fail(f"cannot read {args.input}: {exc}"))
    except ValueError as exc:
        raise SystemExit(_fail(str(exc)))


def _fail(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _opts(args, default_restarts=32) -> SolveOptions:
    restarts = args.restarts if args.restarts is not None else default_restarts
    try:
        return SolveOptions(tol=args.tol, restarts=restarts, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(_fail(str(exc)))


def _emit(args, report: dict, human_lines: list[str], elapsed: float) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        print(f"elapsed = {elapsed:.3f}s")


def _report_base(args, command, digest) -> dict:
    # the inert --parallel flag is excluded so runs with and without it
    # produce identical reports
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("json", "parallel") and v is not None}
    return {"command": command, "args": echo, "input_digest": digest}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    G, digest = _load(args)
    p = args.p if args.p is not None else 2.0
    opts = _opts(args)
    t0 = time.perf_counter()
    try:
        res = lambda_min(G, p, opts) if args.target == "min" else lambda_max(G, p, opts)
    except ValueError as exc:
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0
    label = "lambda_min" if args.target == "min" else "lambda"
    lines = [f"{label} = {res.value:.7f}",
             f"residual = {res.residual:.3e}",
             f"status = {res.status}",
             f"iterations = {res.iterations}",
             f"restarts = {res.restarts_used}"]
    report = _report_base(args, "compute", digest)
    report["results"] = {
        "value": res.value,
        "residual": None if np.isnan(res.residual) else res.residual,
        "gap": res.gap if np.isfinite(res.gap) else None,
        "status": res.status,
        "iterations": res.iterations,
        "restarts": res.restarts_used,
    }
    if args.vector:
        vec = _fmt_vec(res.vector.coords)
        lines.append("vector = " + " ".join(vec))
        report["results"]["vector"] = vec
    _emit(args, report, lines, elapsed)
    return EXIT_OK if res.status == "converged" else EXIT_BEST_EFFORT


def cmd_bounds(args) -> int:
    G, digest = _load(args)
    p = args.p if args.p is not None else 2.0
    opts = _opts(args)
    t0 = time.perf_counter()
    try:
        top, bot = extremes(G, p, opts)
        reports = (bound_suite_max(G, p, top.value)
                   + structural_bounds(G, p, top.value)
                   + bound_suite_min(G, p, bot.value, top.value))
    except ValueError as exc:
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0
    lines = [f"lambda = {top.value:.7f}   lambda_min = {bot.value:.7f}",
             f"{'name':<24}{'side':<7}{'applies':<9}{'bound':>16}{'slack':>16}"]
    rows = []
    for b in reports:
        slack = "" if b.slack is None else f"{b.slack:>16.6e}"
        lines.append(f"{b.name:<24}{b.side:<7}{str(b.applies):<9}{b.bound:>16.6f}{slack}")
        rows.append({"name": b.name, "side": b.side, "applies": b.applies,
                     "bound": b.bound, "slack": b.slack, "citation": b.citation})
    report = _report_base(args, "bounds", digest)
    report["results"] = {"lambda": top.value, "lambda_min": bot.value, "bounds": rows}
    _emit(args, report, lines, elapsed)
    ok = all(b.slack is None or not b.applies or b.slack >= -2 * opts.tol
             for b in reports)
    return EXIT_OK if ok else EXIT_BEST_EFFORT


def cmd_check(args) -> int:
    G, digest = _load(args)
    prop = args.property
    k = args.k
    t0 = time.perf_counter()
    try:
        witness = None
        extra = {}
        if prop == "connected":
            value = comb.is_connected(G)
        elif prop == "k-tight":
            if k is None:
                return _fail("--k is required for k-tight")
            value, bad = comb.is_k_tight(G, k)
            witness = sorted(bad) if bad is not None else None
        elif prop == "odd-transversal":
            t = comb.odd_transversal(G)
            value = t is not None
            witness = sorted(t) if t is not None else None
        elif prop == "even-transversal":
            t = comb.even_transversal(G)
            value = t is not None
            witness = sorted(t) if t is not None else None
        elif prop == "k-linear":
            if k is None:
                return _fail("--k is required for k-linear")
            value = comb.is_k_linear(G, k)
        elif prop == "k-set-regular":
            if k is None:
                return _fail("--k is required for k-set-regular")
            value = comb.is_k_set_regular(G, k)
        elif prop == "steiner":
            if k is None:
                return _fail("--k is required for steiner")
            value = comb.is_steiner(G, k)
        elif prop == "equivalence-classes":
            classes = [list(c) for c in comb.equivalence_classes(G)]
            value = True
            extra["classes"] = classes
        elif prop == "chromatic":
            chi = comb.chromatic_number_exact(G)
            value = True
            extra["chromatic_number"] = chi
        else:
            return _fail(f"unknown property {prop!r}")
    except ValueError as exc:
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0
    if "classes" in extra:
        lines = ["classes = " + " ".join("{" + ",".join(map(str, c)) + "}"
                                         for c in extra["classes"])]
    elif "chromatic_number" in extra:
        lines = [f"chromatic_number = {extra['chromatic_number']}"]
    else:
        lines = [str(value).lower()]
        if witness is not None:
            lines.append(f"witness = {witness}")
    report = _report_base(args, "check", digest)
    report["results"] = {"value": value, "witness": witness, **extra}
    _emit(args, report, lines, elapsed)
    return EXIT_OK if value else EXIT_BEST_EFFORT


def cmd_curve(args) -> int:
    G, digest = _load(args)
    if args.steps < 1:
        return _fail("--steps must be at least 1")
    if args.p_to < args.p_from:
        return _fail("--p-to must be at least --p-from")
    opts = _opts(args)
    grid = list(np.linspace(args.p_from, args.p_to, args.steps)) \
        if args.steps > 1 else [args.p_from]
    t0 = time.perf_counter()
    try:
        rows = lambda_curve(G, grid, opts)
    except ValueError as exc:
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0
    csv = ["p,lambda,lambda_min,h,f"]
    csv += [f"{r.p:.12g},{r.lam_max:.12g},{r.lam_min:.12g},{r.h:.12g},{r.f:.12g}"
            for r in rows]
    report = _report_base(args, "curve", digest)
    report["results"] = {"rows": [{"p": r.p, "lambda": r.lam_max,
                                   "lambda_min": r.lam_min, "h": r.h, "f": r.f}
                                  for r in rows]}
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in csv:
            print(line)
        print(f"# elapsed = {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args) -> int:
    G, digest = _load(args)
    if args.samples < 1:
        return _fail("--samples must be at least 1")
    p = args.p if args.p is not None else 2.0
    t0 = time.perf_counter()
    try:
        value = brute_force_lambda(G, p, args.target, args.samples, args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0
    report = _report_base(args, "oracle", digest)
    report["results"] = {"value": value}
    _emit(args, report, [f"oracle = {value:.7f}"], elapsed)
    return EXIT_OK


def cmd_construct(args) -> int:
    try:
        parts = tuple(int(s) for s in args.parts.split(",")) if args.parts else None
    except ValueError:
        return _fail(f"--parts must be comma-separated integers, got {args.parts!r}")
    spec = hg.FamilySpec(family="complete-multipartite"
                         if args.family == "multipartite" else args.family,
                         r=args.r, n=args.n, k=args.k, t=args.t, parts=parts)
    try:
        G = hg.construct(spec)
        hg.write_file(G, args.out, args.format)
    except (ValueError, TypeError) as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}")
    report = _report_base(args, "construct", "none")
    report["results"] = {"rank": G.rank, "vertices": G.n_vertices,
                         "edges": G.num_edges, "path": args.out}
    _emit(args, report,
          [f"wrote {args.out}: rank {G.rank}, {G.n_vertices} vertices, "
           f"{G.num_edges} edges"], 0.0)
    return EXIT_OK


def cmd_random(args) -> int:
    if args.trials < 1:
        return _fail("--trials must be at least 1")
    if not args.prob > 0:
        return _fail("--prob must be positive")
    q = args.q
    opts = _opts(args, default_restarts=4)
    t0 = time.perf_counter()
    ratios = []
    try:
        for trial in range(args.trials):
            G = hg.random_gnp(args.r, args.n, args.prob, args.seed + trial)
            value = lambda_max(G, q, opts).value
            scalef = args.prob * args.n ** (args.r - args.r / q)
            ratios.append({"trial": trial, "seed": args.seed + trial,
                           "edges": G.num_edges, "lambda": value,
                           "ratio": value / scalef})
    except ValueError as exc:
        return _fail(str(exc))
    elapsed = time.perf_counter() - t0
    lines = [f"trial {r['trial']}: edges = {r['edges']}  lambda = {r['lambda']:.6f}  "
             f"ratio = {r['ratio']:.6f}" for r in ratios]
    report = _report_base(args, "random", "none")
    report["results"] = {"trials": ratios}
    _emit(args, report, lines, elapsed)
    return EXIT_OK


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
    _add_common(sp, sphere=False, solve=False)
    sp.add_argument("--property", choices=PROPERTIES, required=True)
    sp.add_argument("--k", type=int, default=None)

    sp = sub.add_parser("curve", help="values along an exponent grid, CSV output")
    _add_common(sp)
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
    """Run one command.  The parser is built on the first call and reused;
    the handler `cmd_<command>` is looked up in this module at each call, so
    a replaced handler runs."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.cmd}"](args)
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
