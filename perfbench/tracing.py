"""Spans around pspectral's public functions, recorded from outside the package.

Every public function of every `pspectral.*` module, and
`scipy.optimize.minimize`, is replaced by identity in every module namespace
that holds it, so `from .polyform import gradient` call sites are counted with
no edit to the package.  A span is (name, start, end, parent span, operation
id, auxiliary count); spans live in flat arrays in memory and are written out
when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

SETUP = -1      # operation id of spans made while the workload is built
PREPARE = -2    # ... and while a pass's fresh graphs are made

# spans that own their own self time; any other span's self time goes to the
# nearest ancestor in the same module (cli.cmd_bounds -> cli.main)
OWNERS = {"polyform.gradient", "polyform.evaluate", "polyform.evaluate_many",
          "solver.lambda_max", "solver.lambda_min", "solver.lambda_curve",
          "solver.brute_force_lambda", "combinatorics.odd_transversal",
          "combinatorics.equivalence_classes", "hypergraph.parse", "cli.main"}
SOLVES = ("solver.lambda_max", "solver.lambda_min")
HYPERGRAPH_IO = {"hypergraph.parse", "hypergraph.read_file", "hypergraph.from_json",
                 "hypergraph.from_text", "hypergraph.to_json", "hypergraph.to_json_dict",
                 "hypergraph.to_text", "hypergraph.write_file"}

UNITS = {
    "polyform.gradient.calls": "count", "polyform.gradient.incidences": "count",
    "polyform.gradient.self_s": "s", "polyform.gradient.ns_per_incidence": "ns",
    "polyform.evaluate.calls": "count", "polyform.evaluate.self_s": "s",
    "polyform.evaluate_many.rows": "count", "polyform.evaluate_many.self_s": "s",
    "solver.lambda_max.calls": "count", "solver.lambda_max.self_s": "s",
    "solver.lambda_min.calls": "count", "solver.lambda_min.self_s": "s",
    "solver.iterations": "count", "solver.max_iter_hits": "count",
    "solver.gradient_per_solve": "count", "solver.curve.lambda_max_per_point": "count",
    "solver.brute_force_lambda.self_s": "s", "solver.best_effort_frac": "ratio",
    "scipy.minimize.calls": "count", "scipy.minimize.self_s": "s",
    "combinatorics.odd_transversal.calls": "count",
    "combinatorics.odd_transversal.self_s": "s",
    "combinatorics.equivalence_classes.calls": "count",
    "combinatorics.equivalence_classes.self_s": "s",
    "bounds.self_s": "s", "cli.main.self_s": "s", "hypergraph.parse.self_s": "s",
    "hypergraph.build_s": "s", "trace.overhead_frac": "ratio", "trace.spans": "count",
}


def package_modules():
    import pspectral
    return [pspectral] + [importlib.import_module(f"pspectral.{m.name}")
                          for m in pkgutil.iter_modules(pspectral.__path__)]


def _is_public_function(value) -> bool:
    plain = inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper)
    return (plain and getattr(value, "__module__", "").startswith("pspectral.")
            and not value.__name__.startswith("_"))


class Tracer:
    def __init__(self):
        import pspectral
        import scipy.optimize

        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("i")
        self.solve_results: list[tuple[int, int, str, int]] = []
        self.op_id = SETUP
        self._stack = [-1]
        self._max_iter = pspectral.SolveOptions().max_iter
        self._modules = package_modules()
        originals = {}
        for mod in self._modules:
            for value in vars(mod).values():
                if _is_public_function(value):
                    label = value.__module__.rsplit(".", 1)[1]
                    originals[id(value)] = (value, f"{label}.{value.__name__}")
        self._patches = []
        for mod in self._modules:
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    fn, label = originals[id(value)]
                    self._patches.append((mod, attr, fn, self._wrap(label, fn)))
        minimize = scipy.optimize.minimize
        self._patches.append((scipy.optimize, "minimize", minimize,
                              self._wrap("scipy.minimize", minimize)))

    def install(self):
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def _aux_hook(self, label):
        if label == "polyform.gradient":
            return lambda i, args, kwargs, out: args[0].num_edges * args[0].rank
        if label == "polyform.evaluate_many":
            return lambda i, args, kwargs, out: len(args[1])
        if label == "solver.lambda_curve":
            return lambda i, args, kwargs, out: len(args[1])
        if label in SOLVES:
            def record(i, args, kwargs, out):
                opts = args[2] if len(args) > 2 else kwargs.get("opts")
                cap = opts.max_iter if opts is not None else self._max_iter
                self.solve_results.append((i, out.iterations, out.status, cap))
                return out.iterations
            return record
        return None

    def _wrap(self, label, fn):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        hook = self._aux_hook(label)
        name, parent, op, start, end, aux = (self.name, self.parent, self.op,
                                             self.start, self.end, self.aux)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            aux.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                aux[i] = hook(i, args, kwargs, out)
            return out
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the span arrays; call only once the tracer is uninstalled."""
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "aux": np.frombuffer(self.aux, dtype=np.int32)}

    def save(self, path: str, op_names: list[str]):
        np.savez(path, names=np.array(self.names), op_names=np.array(op_names),
                 **self.arrays())


def per_layer(tr: Tracer, traced_wall: float, plain_wall: float) -> dict[str, float]:
    """The per-layer metrics of the traced pass (operation ids >= 0)."""
    a = tr.arrays()
    names = tr.names
    ids = {x: i for i, x in enumerate(names)}
    nid, parent, aux, n = a["name"], a["parent"], a["aux"], len(a["name"])
    modules = sorted({x.split(".", 1)[0] for x in names})
    module_of = np.array([modules.index(x.split(".", 1)[0]) for x in names] or [0])
    module = module_of[nid]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    is_owner = np.array([x in OWNERS for x in names] or [False])
    owner = np.arange(n)
    inherit = np.zeros(n, dtype=bool)
    inherit[has_parent] = ~is_owner[nid[has_parent]] \
        & (module[parent[has_parent]] == module[has_parent])
    for i in np.nonzero(inherit)[0].tolist():
        owner[i] = owner[parent[i]]
    timed = a["op"] >= 0
    owned_by = nid[owner]

    def of(x):
        return timed & (nid == ids.get(x, -1))

    def calls(x):
        return int(np.count_nonzero(of(x)))

    def self_s(x):
        return float(self_t[timed & (owned_by == ids.get(x, -1))].sum())

    def in_module(m):
        return module == (modules.index(m) if m in modules else -1)

    def ancestors(i):
        j = parent[i]
        while j >= 0:
            yield names[nid[j]]
            j = parent[j]

    solves = [(i, it, status, cap) for i, it, status, cap in tr.solve_results if timed[i]]
    top = [s for s in solves if not any(x in SOLVES for x in ancestors(s[0]))]
    curve_points = int(aux[of("solver.lambda_curve")].sum())
    curve_max = sum(1 for i, *_ in solves if names[nid[i]] == "solver.lambda_max"
                    and "solver.lambda_curve" in ancestors(i))
    grad_calls = calls("polyform.gradient")
    incidences = int(aux[of("polyform.gradient")].sum())
    grad_self = self_s("polyform.gradient")
    outer = ~has_parent
    outer[has_parent] = ~in_module("hypergraph")[parent[has_parent]]
    io = np.array([x in HYPERGRAPH_IO for x in names] or [False])[nid]
    build = (a["op"] == SETUP) & in_module("hypergraph") & outer & ~io
    ratio = lambda num, den: num / den if den else 0.0
    return {
        "polyform.gradient.calls": grad_calls,
        "polyform.gradient.incidences": incidences,
        "polyform.gradient.self_s": grad_self,
        "polyform.gradient.ns_per_incidence": ratio(grad_self * 1e9, incidences),
        "polyform.evaluate.calls": calls("polyform.evaluate"),
        "polyform.evaluate.self_s": self_s("polyform.evaluate"),
        "polyform.evaluate_many.rows": int(aux[of("polyform.evaluate_many")].sum()),
        "polyform.evaluate_many.self_s": self_s("polyform.evaluate_many"),
        "solver.lambda_max.calls": calls("solver.lambda_max"),
        "solver.lambda_max.self_s": self_s("solver.lambda_max"),
        "solver.lambda_min.calls": calls("solver.lambda_min"),
        "solver.lambda_min.self_s": self_s("solver.lambda_min"),
        "solver.iterations": sum(it for _, it, _, _ in solves),
        "solver.max_iter_hits": sum(1 for _, it, _, cap in solves if it >= cap),
        "solver.gradient_per_solve": ratio(grad_calls, len(top)),
        "solver.curve.lambda_max_per_point": ratio(curve_max, curve_points),
        "solver.brute_force_lambda.self_s": self_s("solver.brute_force_lambda"),
        "solver.best_effort_frac": ratio(sum(1 for s in top if s[2] == "best-effort"), len(top)),
        "scipy.minimize.calls": calls("scipy.minimize"),
        "scipy.minimize.self_s": float(self_t[of("scipy.minimize")].sum()),
        "combinatorics.odd_transversal.calls": calls("combinatorics.odd_transversal"),
        "combinatorics.odd_transversal.self_s": self_s("combinatorics.odd_transversal"),
        "combinatorics.equivalence_classes.calls": calls("combinatorics.equivalence_classes"),
        "combinatorics.equivalence_classes.self_s": self_s("combinatorics.equivalence_classes"),
        "bounds.self_s": float(self_t[timed & in_module("bounds")].sum()),
        "cli.main.self_s": self_s("cli.main"),
        "hypergraph.parse.self_s": self_s("hypergraph.parse"),
        "hypergraph.build_s": float(dur[build].sum()),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "trace.spans": int(np.count_nonzero(timed)),
    }
