"""Multi-start solvers for the extremal values of the edge polynomial on the
l^p unit sphere, with certified stationarity residuals, a sampling oracle,
and Collatz-Wielandt style envelopes.

Algorithm map
  2-graphs at p = 1 and 2 (`_closed_form`): the value is x^T A x for the
    weighted adjacency matrix A, and the extremum is exact, with no restart.
    At p = 2 the extremes are the top and bottom eigenpairs of A
    (`np.linalg.eigh`).  At p = 1 the minimum is -w_max/2, at +-1/2 on the
    heaviest edge, and the maximum is the Lagrangian, found on a clique
    (`_lagrangian`).  The flipped minimum below comes first; the restarts
    take over above `_DENSE_MAX_N` vertices, and for the p = 1 maximum above
    `combinatorics.CLIQUE_BUDGET` cliques.
  Otherwise one builder (`_starts`) makes the starts of either target, and
  every one runs through `_sphere_loop`; only its step depends on p and the
  target.
  p = 1: the l^1 sphere is a simplex in each sign orthant, and the step
    (`_simplex_step`) is projected gradient on the simplex of the iterate's
    orthant; Newton on the KKT system of the face it ends on polishes the
    value-tied candidates.  The maximum starts in the nonnegative orthant,
    the even-rank minimum in every orthant up to global sign for n <= 6 and
    in random ones beyond.  No residual is defined at p = 1.
  target max, p > 1: `_sphere_loop` on the nonnegative part of the sphere,
    stepping by the shifted fixed-point map (SS-HOPM)
    x <- normalize((grad/r + shift * x^(p-1))^(1/(p-1))), from the uniform
    point, warm vectors, per-edge indicators and random simplex points.  The
    shift scales with the value, max(r-p, 1)/(p-1) * lam: a positive
    stationary point is the Perron vector of a pencil whose other modes the
    map then contracts.  A step whose value would fall is redone with the
    worst-case shift (r-1)! * max degree / min(1, p-1), which ascends.
    At p >= r, with y = x^p, the value is a concave function of y on the
    simplex, so a candidate's Frank-Wolfe gap (`_concavity_gap`) bounds how
    far the optimum lies above it; the restarts stop at the first candidate
    that meets tol with a gap of at most tol * max(1, lam).
  target min, flipped (`_flip_set`): P(-x) = -P(x) at odd rank, and at even
    rank flipping signs on an odd transversal T negates every edge product,
    so the minimum is -x, or x flipped on T, for the maximizer x at every p,
    its value is minus the maximum's, and no minimum restart runs.  x is the
    caller's (`extremes`), else that of a recorded or a new `lambda_max` with
    the same arguments.
  target min, even rank, otherwise: `_sphere_loop` on the full sphere, from
    sign-randomized restarts plus the best -1/0/+1 sign pattern for n <= 6,
    stepping in the coordinate Newton solves in.  At 1 < p < 2 that is the
    dual point sign(x)|x|^(p-1), and the step is the shifted map applied to
    -P (`_fixed_point_step` with sense -1), shift max(r-p, 1)/(p-1) * |lam|,
    with an Armijo step as its last resort: near p = 1 the minimizer has
    tiny entries, and descent in x crawled thousands of iterations toward
    them.  At p >= 2 it is x itself, stepped by projected gradient descent.
  `_sphere_loop` runs its step in chunks of 20, 40, ... (at most 5000)
    iterations.  At p > 1 both steps cost one gradient per iterate or trial
    (two on a fixed-point fallback), its value taken by the Euler identity
    x . grad / r; the simplex step costs one gradient per iterate and takes
    each value from the edge products.  Once an iterate's relative residual
    is at most 1e-2 (or after 500 iterations, or when the value has stopped
    moving) Newton on the stationarity system polishes it, at the first such
    iterate of each chunk and at the chunk's end, in the dual point
    u = sign(x)|x|^(p-1) for p < 2.
    Each Newton step is an LU solve of the square (n+1)-system, with a
    least-squares (SVD) solve as the fallback when LU finds it singular or
    its step is not finite; on the p = 1 face every step is the
    least-squares one.  At p > 1 a step costs one Hessian, its gradient read
    off it by Euler's identity H x = (r-1) grad, and the polish's residual
    and second-order test reuse the last step's Hessian and gradient; the
    p = 1 face takes a gradient and a Hessian per step.
    A Newton point ends the restart when it meets tol, is no worse than the
    iterate and the tangent Lagrangian Hessian has the sign of the target; on
    a saddle a step along the most-wrong curvature resumes the iteration.
    A positive Newton point of the maximum at p >= r needs no such test.
  The backtracking searches, `_armijo_step`, `_simplex_step` and
    `_newton_polish`'s saddle escape, halve their step at most
    `_MAX_HALVINGS` (10) times; a search that finds no progress within that
    budget takes no step, as at a stationary point.
  Multi-level single linkage (Rinnooy Kan & Timmer, Math. Programming 39,
    1987) during the search: each restart knows the end points of the
    solve's earlier restarts that met tol, and at every iteration whose
    iterate lies within `_DUPLICATE_RADIUS` (0.1, max-norm; up to global
    sign for the even-rank minimum) of one whose value is at least as good
    (within tol * max(1, |lam|)) it stops as a duplicate, with no Newton
    polish.  A duplicate never wins, and is not refined at p = 1.

For 1 < p < r several distinct positive stationary points may exist, so the
best-of-restarts value is reported with status "best-effort".  "converged"
needs tol met and, at p >= r, a winner's gap of at most tol * max(1, lam)
(an edgeless graph is trivially "converged").  A closed form is "converged"
and exact.  Elsewhere at p = 1 "converged" means only that the simplex
iteration met tol, no global certificate: a clique's uniform weighting is a
local maximum (Motzkin & Straus) that can win.  A flipped minimum takes its
maximum's status.

Restarts run one after another, each stopped by the end points of those
before it, so a restart's outcome depends on the restarts that ran before it;
`restarts_used` counts them all, duplicates included.  Among the candidates
that are not duplicates and lie within tol of the best value, those that met
tol if any did, the best value wins, exact ties going to the
lexicographically smallest vector, so a solve is bit-reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .combinatorics import _cliques, odd_transversal
from .hypergraph import WeightedHypergraph, _as_int
from .polyform import (PointOnSphere, _pair_bins, check_exponent, evaluate,
                       evaluate_many, gradient, hessian, lp_norm, normalize_lp)

_STABLE_ITERS = 10
# step halvings per backtracking search (`_armijo_step`, `_simplex_step`): no
# successful search in the tests needs more than 6, and a converged restart
# proves itself by a search that fails every trial
_MAX_HALVINGS = 10
_MAX_EDGE_STARTS = 8
_RECORDED_MAXIMA = 8    # maxima kept per graph for the flipped minimum
_PATTERN_MAX_N = 6      # all 3^n sign patterns, or 2^(n-1) at p = 1, are tried
# _sphere_loop's Newton polish (see its docstring); tried earlier than the
# gate, Newton can settle on a worse local minimum than the descent reaches
_FIRST_CHUNK = 20
_MAX_CHUNK = 5000
_NEWTON_GATE = 1e-2
_NEWTON_AFTER = 500
_NEWTON_STEPS = 50
_NEWTON_MAX_STEP = 0.5
# a restart ends as a duplicate once its iterate lies within this max-norm
# distance of an earlier restart's end point that met tol and is no worse
_DUPLICATE_RADIUS = 0.1
# `_closed_form` builds a 2-graph's dense adjacency matrix up to this many
# vertices; above it the p = 2 extremes and the p = 1 maximum run restarts.
# 1000 is the largest n timed against the restarts: at p = 2 there one eigh
# took 0.12-0.21 s, the restarts 0.18-0.30 s for the maximum and 15-23 s for
# the minimum (random 2-graphs of density 4/n and 0.3, 2-core x86-64)
_DENSE_MAX_N = 1000
# brute_force_lambda's compass-search polish (see its docstring)
_POLISH_ROWS = 100
_POLISH_STEP = 0.25
_POLISH_MIN_STEP = 1e-9
_POLISH_ITERS = 200
_POLISH_GAIN_ULPS = 4


@dataclass(frozen=True)
class SolveOptions:
    """Knobs shared by every solve; defaults favor accuracy over speed.

    `parallel` is accepted for compatibility and has no effect: restarts
    always run serially, since a thread pool gave no speedup on these
    GIL-bound loops.
    """

    tol: float = 1e-10
    max_iter: int = 100_000
    restarts: int = 32
    seed: int = 0
    parallel: bool = False        # no effect

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")
        if _as_int(self.restarts, "restarts") < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if _as_int(self.max_iter, "iteration cap") < 1:
            raise ValueError(f"iteration cap must be positive, got {self.max_iter}")
        if _as_int(self.seed, "seed") < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class EigenResult:
    """Solver output: extremal value, unit vector, stationarity defect, diagnostics.

    A closed form (`_closed_form`) runs no restart: it reports 0 iterations,
    0 restarts and gap NaN.  A flipped minimum (`_flip_set`) counts the flip
    as its one restart and reports its maximum's iterations, so one flipped
    from a closed form reports 0 iterations and 1 restart.
    """

    value: float
    vector: PointOnSphere
    residual: float               # NaN at p = 1, where no defect is defined
    iterations: int               # the winning restart's
    restarts_used: int            # the restarts that ran, duplicates included
    status: str                   # "converged" | "best-effort"
    p: float
    target: str                   # "max" | "min"
    gap: float = math.nan         # Frank-Wolfe gap of the maximum at p >= r, else NaN


@dataclass(frozen=True)
class CurvePoint:
    # h is lam_max * n^(r/p): nonincreasing in p with limit r!|G|.  (With the
    # n-factor inverted the quantity is not monotone; the 4-cycle gives
    # 2^(3-8/p), strictly increasing.)
    p: float
    lam_max: float
    lam_min: float
    h: float                      # lam_max * n^(r/p)
    f: float                      # (lam_max / (r! |G|))^p


def _signed_power(x: np.ndarray, q: float) -> np.ndarray:
    return np.sign(x) * np.abs(x) ** q


def eigen_residual(G: WeightedHypergraph, p: float, lam: float, x: np.ndarray) -> float:
    """Max-norm defect of the stationarity system lam*x_k|x_k|^(p-2) = grad_k/r.

    Zero exactly when (lam, x) solves the system.  Undefined at p = 1.
    """
    p = check_exponent(p)
    if p == 1.0:
        raise ValueError("stationarity residual is undefined at p = 1")
    x = np.asarray(x, dtype=np.float64)
    # written so that a NaN entry fails the test
    if not abs(lp_norm(x, p) - 1.0) <= 1e-9:
        raise ValueError("residual requires a unit vector in the l^p norm")
    return _residual_from_grad(G.rank, p, lam, x, gradient(G, x))


def _residual_from_grad(rank: int, p: float, lam: float, x, g) -> float:
    return float(np.maximum.reduce(np.abs(lam * _signed_power(x, p - 1.0) - g / rank)))


def default_shift(G: WeightedHypergraph) -> float:
    """(r-1)! times the maximum weighted degree: the cap of the fixed-point
    map's value-scaled shift and, divided by min(1, p-1), its worst-case
    fallback, with which each step ascends.  (With nonnegative weights the
    map is isotone for any shift >= 0; what this shift buys is ascent.)"""
    return math.factorial(G.rank - 1) * G.max_degree()


# ---------------------------------------------------------------------------
# single-start iterations
# ---------------------------------------------------------------------------

def _settle(lam, lam_prev, res, tol, stable, stalled) -> tuple[int, int]:
    """Advance the stopping counters after an iteration with value lam.

    `stable` counts iterations whose value moved by at most tol (relative)
    with residual at most tol; `stalled` counts consecutive iterations whose
    value moved by at most tol/100.  A larger move resets both.
    """
    if lam_prev is None or abs(lam - lam_prev) > tol * max(1.0, abs(lam)):
        return 0, 0
    if res <= tol:
        stable += 1
    if abs(lam - lam_prev) <= 0.01 * tol * max(1.0, abs(lam)):
        return stable, stalled + 1
    return stable, 0


@dataclass
class _Cand:
    x: np.ndarray
    lam: float
    res: float
    iters: int
    tol_met: bool
    gap: float = math.nan
    dup: bool = False             # stopped near an earlier restart's end point
    g: np.ndarray | None = None   # the gradient at x, where the restart took one


def _armijo_step(G, p, x, lam, g, eta):
    """One retracted step down the projected gradient, halving eta until the
    value, by the Euler identity at the trial's gradient, decreases; returns
    (x, lam, eta, g), or None when no step within `_MAX_HALVINGS` halvings
    decreases it."""
    normal = _signed_power(x, p - 1.0)
    nn = float(normal @ normal)
    d = g - (float(g @ normal) / nn) * normal if nn > 0 else g
    if eta is None:
        eta = 1.0 / max(1.0, float(np.abs(d).max()))
    for k in range(_MAX_HALVINGS):
        trial = x - eta * d
        nrm = lp_norm(trial, p)
        if nrm > 0.0:
            trial = trial / nrm
            g_t = gradient(G, trial)
            lam_t = float(trial @ g_t) / G.rank
            # require progress above the float-noise floor, else the
            # iteration churns at a stationary point
            if lam - lam_t > 1e-14 * max(1.0, abs(lam)):
                return trial, lam_t, 1.5 * eta if k == 0 else eta, g_t
        eta *= 0.5
    return None


def _shifted_image(G, p, x, g, rho, sense):
    """The image of x under the map with shift rho for the extremum `sense`,
    its Euler value and its gradient; None when the map is undefined (the
    maximum's s has no positive entry, the minimum's is zero)."""
    s = (g if sense > 0 else -g) / G.rank + rho * _signed_power(x, p - 1.0)
    top = np.maximum.reduce(s if sense > 0 else np.abs(s))
    if top <= 0.0:
        return None
    y = normalize_lp(_signed_power(s / top, 1.0 / (p - 1.0)), p)
    g_y = gradient(G, y)
    return y, float(y @ g_y) / G.rank, g_y


def _fixed_point_step(cap, sense=1.0):
    """The shifted fixed-point map (SS-HOPM: Kolda & Mayo, SIMAX 32, 2011) as
    a step of `_sphere_loop` toward the extremum `sense`, with a shift that
    scales with the value: s = sense*grad/r + rho*sign(x)|x|^(p-1),
    x <- normalize(sign(s)|s|^(1/(p-1))).

    At a positive stationary point x, Euler's identity makes x the Perron
    vector of the pencil (H/r, (p-1) diag(x^(p-2))) with root (r-1)lam/(p-1),
    so every other mode mu has |mu| <= (r-1)lam/(p-1) (and mu <= lam at a
    local maximum), and the map contracts it by (mu + rho)/(lam + rho),
    inside (-1, 1) once rho >= (r-p)lam/(2(p-1)).  The step therefore shifts by
    rho = min(cap, max(r-p, 1)/(p-1) * |lam|), `cap` being `default_shift`,
    and keeps the image when its value, by the Euler identity at its
    gradient, moves against `sense` by at most 1e-14 relative.  Otherwise it
    steps once more with the worst-case shift cap/min(1, p-1): below p = 2
    the curvature (p-1)x^(p-2) of the shift term shrinks with p - 1, and
    `cap` alone let rank-2 steps at p = 1.1 go downhill.
    The minimum (sense -1) is the maximum of -P over the whole sphere, its
    map a step in the dual point sign(x)|x|^(p-1), where Newton works too;
    when the worst-case image also rises, it takes `_armijo_step` instead.
    Returns (x, lam, eta, g) at the new point, or None when the map is
    undefined (the maximum) or no step lowers the value (the minimum).
    """
    def step(G, p, x, lam, g, eta):
        def off(moved):
            return moved is None or sense * (lam - moved[1]) > 1e-14 * max(1.0, abs(lam))
        worst = cap / min(1.0, p - 1.0)
        rho = min(cap, max(G.rank - p, 1.0) / (p - 1.0) * abs(lam))
        moved = _shifted_image(G, p, x, g, rho, sense) if rho < worst else None
        if off(moved):
            moved = _shifted_image(G, p, x, g, worst, sense)
        if sense < 0 and off(moved):
            return _armijo_step(G, p, x, lam, g, eta)
        if moved is None:
            return None
        y, lam_y, g_y = moved
        return y, lam_y, eta, g_y
    return step


def _sphere_loop(G, p, x0, tol, max_iter, sense, step, known=()) -> _Cand:
    """One restart of either extremum: the first-order `step` run in chunks
    of 20, 40, 80, ... (at most 5000) iterations and polished by
    `_newton_polish` once the relative residual is at most 1e-2 or the
    restart has run 500 iterations: at the first such iteration of each
    chunk, at the chunk's end, and when the step stops short of tol.  A
    restart whose value has not moved for 50 iterations gets one last try
    whatever its residual: a vertex near 1e-28 in x (0.04 in the dual point)
    can keep the residual just above the gate while the value is flat.  A
    polished point that meets tol ends the restart; a step off a saddle
    resumes the iteration; a failed try waits for the next chunk.  The
    maximum (sense +1) stays on the nonnegative part of the sphere.
    At p = 1 the restart starts on the simplex of x0's sign orthant and
    counts every residual as 0, so it ends after 10 stable values or a step
    that finds no progress, and Newton never runs.

    `known` holds the candidates of the solve's earlier restarts that met
    tol.  At every iteration whose iterate lies within `_DUPLICATE_RADIUS`
    (max-norm; up to global sign for the minimum, which runs at even rank
    only) of one whose value is at least as good, within tol * max(1, |lam|),
    the restart ends as a duplicate (`dup`, never `tol_met`), unpolished.

    `step(G, p, x, lam, g, eta)` returns (x, lam, eta, g) at the new point,
    lam from the Euler identity x . grad / r at p > 1 and from the edge
    products at p = 1 (g may be None: the loop then takes it; eta is the
    step's own state, None as a restart starts), or None when it makes no
    progress.  The value reported is `evaluate` at the last x, and at p = 1
    the step's own value, with residual NaN.
    """
    x = np.asarray(x0, dtype=np.float64)
    eta = g = lam = lam_prev = None
    if p == 1.0:
        x = np.where(np.signbit(x), -1.0, 1.0) * _project_simplex(np.abs(x))
        lam = _simplex_value(*G.arrays(), x)
    else:
        x = normalize_lp(np.maximum(x, 0.0) if sense > 0 else x, p)
    if known:
        ends = np.array([c.x for c in known])
        goods = np.array([sense * c.lam for c in known])
        if sense < 0:       # even rank: P(-x) = P(x)
            ends, goods = np.vstack([ends, -ends]), np.concatenate([goods, goods])
    stable = stalled = 0
    met = dup = False
    armed = True
    chunk = check_at = _FIRST_CHUNK
    for it in range(1, max_iter + 1):
        if g is None:
            g = gradient(G, x)
        if lam is None:
            lam = float(x @ g) / G.rank
        res = 0.0 if p == 1.0 else _residual_from_grad(G.rank, p, lam, x, g)
        if known:
            near = np.maximum.reduce(np.abs(ends - x), axis=1) <= _DUPLICATE_RADIUS
            if near.any() and (goods[near] >= sense * lam - tol * max(1.0, abs(lam))).any():
                dup = True
                break
        stable, stalled = _settle(lam, lam_prev, res, tol, stable, stalled)
        if stable >= _STABLE_ITERS:
            met = True
            break
        stuck = stalled >= 5 * _STABLE_ITERS
        moved = None if stuck else step(G, p, x, lam, g, eta)
        polish = res > tol and (res <= _NEWTON_GATE * max(1.0, abs(lam))
                                or it >= _NEWTON_AFTER or stuck) and (
            armed or moved is None or it == check_at or it == max_iter)
        # a try at a chunk's end is the next chunk's try
        armed = not polish and (armed or it == check_at)
        if it == check_at:
            chunk = min(2 * chunk, _MAX_CHUNK)
            check_at += chunk
        if polish:
            polished = _newton_polish(G, p, x, lam, tol, sense)
            if polished is not None:
                x, lam, res_y, met, g = polished
                if met:
                    return _Cand(x, lam, res_y, it, True, g=g)
                eta, g, lam_prev, stable, stalled = None, None, None, 0, 0
                continue
        if moved is None:
            met = res <= tol
            break
        lam_prev = lam
        x, lam, eta, g = moved
    else:
        res = None      # max_iter ran out: the last step's residual is not known
    if p == 1.0:
        return _Cand(x, lam, math.nan, it, met, dup=dup)
    value = evaluate(G, x)
    if res is None:
        res = _residual_from_grad(G.rank, p, value, x, g)
    return _Cand(x, value, res, it, met, dup=dup, g=g)


def _newton_polish(G, p, x, lam, tol, sense):
    """Newton from the iterate (x, lam) of `_sphere_loop`.

    Returns (y, value, residual, True, grad) when Newton reaches a point y
    that meets tol, is no worse than x (up to 1e-12 relative) and passes the
    second-order test (but for a positive maximizer at p >= r), grad being
    the gradient at y; (y, value, nan, False, None) when Newton lands on a
    saddle and a backtracked step along its most-wrong curvature improves on
    both the saddle and x, so that the loop resumes from y; None otherwise,
    so that it resumes from x.  For the maximum every point stays
    nonnegative.
    The residual and the second-order test take the gradient and the
    Hessian of Newton's converged step, rescaled to y; only a point that was
    clamped, or reached when Newton used up its steps, takes a new gradient
    and, for the test, a new Hessian.
    """
    nonneg = sense > 0
    with np.errstate(all="ignore"):
        y, H, g = _newton_stationary(G, p, x, lam, tol)
    if nonneg and y is not None and (y < 0.0).any():
        y = np.maximum(y, 0.0)      # roundoff below a zero entry, to -1e-28 at p < 2
        y = y / lp_norm(y, p) if y.any() else None
        H = None
    if y is None:
        return None
    if H is None:
        g = gradient(G, y)
    lam_y = evaluate(G, y)
    res_y = _residual_from_grad(G.rank, p, lam_y, y, g)
    if res_y > tol or sense * (lam_y - lam) < -1e-12 * max(1.0, abs(lam)):
        return None
    # at p >= r the value is concave in x^p on the simplex (as in
    # `_concavity_gap`): a positive stationary point is the global maximum
    if sense > 0 and p >= G.rank and (y > 0.0).all():
        return y, lam_y, res_y, True, g
    curv, v, z = _wrong_curvature(G, p, y, lam_y, sense, H)
    if curv >= 0.0:
        return y, lam_y, res_y, True, g
    a = _z_exponent(p)
    ref = lam_y if sense * (lam_y - lam) > 0 else lam
    t = 1.0
    with np.errstate(all="ignore"):
        for _ in range(_MAX_HALVINGS):
            best = None
            for s in (t, -t):
                trial = _signed_power(z + s * v, a)
                if nonneg:
                    trial = np.maximum(trial, 0.0)
                nrm = lp_norm(trial, p)
                if not 0.0 < nrm < math.inf:
                    continue
                trial = trial / nrm
                lam_t = evaluate(G, trial)
                if sense * (lam_t - ref) > 1e-14 * max(1.0, abs(ref)) and (
                        best is None or sense * (lam_t - best[1]) > 0):
                    best = (trial, lam_t)
            if best is not None:
                return best[0], best[1], math.nan, False, None
            t *= 0.5
    return None


def _z_exponent(p: float) -> float:
    """a in x = sign(z)|z|^a: z = x for p = 1 and p >= 2, the dual point for
    1 < p < 2."""
    return 1.0 if p == 1.0 else max(1.0, 1.0 / (p - 1.0))


def _newton_stationary(G, p, x, lam, tol):
    """Newton on lam*sign(x)|x|^(p-1) = grad/r, sum |x|^p = 1, from (x, lam).

    The unknowns are lam and z with x = sign(z)|z|^a, a = `_z_exponent(p)`:
    z = x for p >= 2, and for p < 2 z is the dual point u = sign(x)|x|^(p-1),
    in which the system stays well-conditioned as coordinates shrink and a
    coordinate can cross zero.  Steps are capped at 0.5 in each coordinate of
    z but not damped by the defect: near a soft minimum (curvature 1e-4 of
    the largest) a defect line search takes tiny steps for as long as the
    descent itself, and the caller's acceptance test guards the result.
    For p > 1 the system is square in all n coordinates and lam, and each
    step is an LU solve (`np.linalg.solve`); `np.linalg.lstsq` (an SVD, about
    ten times dearer at n = 40) takes over only when the LU solve finds the
    matrix singular or returns a step that is not finite.
    At p > 1 each step takes one Hessian H, its slot-pair bins built once
    per call (`polyform._pair_bins`), and reads the gradient off it by
    Euler's identity H x = (r-1) grad, as H (x/(r-1)): x is scaled before the
    product, so no partial sum exceeds r! * sum(w) on the unit sphere.
    At p = 1 (z = x) it is the KKT system of the face of the l^1 sphere that
    x lies on, in lam and the support S of x only; a step that would zero or
    flip a coordinate of S stops there and drops it, so x stays on the face.
    That system is singular where the face holds a flat set of optima, so
    every step there is the minimum-norm `lstsq` step.  The face takes its
    gradient from `gradient` and its Hessian only after the defect test: read
    off H there, the gradient moved p = 1 solves, among them a maximizer on
    a flat face of maximizers (`cycle(3,7)`).
    Returns (y, H, grad): y the point reached, scaled onto the unit sphere by
    its norm nrm; at p > 1, when the defect met 1e-3 * tol, H and grad are
    those of the last step rescaled to y (by nrm^-(r-2) and nrm^-(r-1)), else
    None.  Returns (None, None, None) when a step is not finite.  Call under
    np.errstate: a long step may overflow.
    """
    r = G.rank
    a = _z_exponent(p)
    c, q = a * (p - 1.0), a * p     # sign(x)|x|^(p-1) = sign(z)|z|^c, |x|^p = |z|^q
    dual = a != 1.0
    # at a = 1 z is x; x + 0.0 copies it and turns -0.0 into +0.0, as
    # sign(x)|x| does, so z never holds -0.0 and x(z) is z itself
    z, mu = _signed_power(x, 1.0 / a) if dual else x + 0.0, lam
    face = p == 1.0
    S = np.flatnonzero(x) if face else slice(None)
    sgn = np.sign(x)
    F_buf = np.empty(x.size + 1)
    J_buf = np.empty((x.size + 1, x.size + 1))
    diag = np.arange(x.size)
    bins = None if face else _pair_bins(G)
    H = None
    for _ in range(_NEWTON_STEPS):
        xz = _signed_power(z, a) if dual else z
        zS = z[S]
        k = zS.size
        F, J = F_buf[:k + 1], J_buf[:k + 1, :k + 1]
        zc = _signed_power(zS, c)
        if face:
            g = gradient(G, xz)
        else:
            H = hessian(G, xz, bins)
            g = H @ (xz / (r - 1))
        np.subtract(mu * zc, g[S] / r, out=F[:k])
        F[k] = np.add.reduce(np.abs(zS) ** q) - 1.0
        if not np.isfinite(F).all():
            return None, None, None
        if np.maximum.reduce(np.abs(F)) <= 1e-3 * tol:
            break
        az = np.abs(zS)
        if face:
            H = hessian(G, xz)[np.ix_(S, S)]
        # at a = 1, dx/dz is 1 and q - 1 is c exactly
        np.multiply(H, -a / r * az ** (a - 1.0) if dual else -a / r, out=J[:k, :k])
        J[diag[:k], diag[:k]] += mu * c * az ** (c - 1.0)
        J[:k, k] = zc
        J[k, :k] = q * (_signed_power(zS, q - 1.0) if dual else zc)
        J[k, k] = 0.0
        if not np.isfinite(J).all():
            return None, None, None
        try:
            step = None if face else np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.isfinite(step).all():
            step = np.linalg.lstsq(J, -F, rcond=None)[0]
        big = np.abs(step[:k]).max()
        if big > _NEWTON_MAX_STEP:
            step *= _NEWTON_MAX_STEP / big
        if face:
            # stop where the first coordinate of S reaches zero
            t = np.where(sgn[S] * step[:k] < 0.0, zS / -step[:k], np.inf)
            j = int(np.argmin(t))
            if t[j] < 1.0:
                step *= t[j]
                step[j] = -zS[j]
        z[S], mu = zS + step[:k], mu + step[k]
        if face:
            z[sgn * z <= 0.0] = 0.0
            S = np.flatnonzero(z)
    else:
        H = None        # the steps ran out: H and g are not those of the point reached
    xz = _signed_power(z, a) if dual else z
    nrm = lp_norm(xz, p)
    if not 0.0 < nrm < math.inf:
        return None, None, None
    if face or H is None:
        return xz / nrm, None, None
    H /= nrm ** (r - 2)
    g /= nrm ** (r - 1)
    return xz / nrm, H, g


def _wrong_curvature(G, p, x, lam, sense, H=None):
    """The second-order test at a stationary unit vector x with value lam,
    on the Hessian H at x (taken here when None; overwritten).

    The Lagrangian Hessian H - r*lam*(p-1)*diag(|x|^(p-2)), projected onto
    the tangent space {v : sign(x)|x|^(p-1) . v = 0}, must be semidefinite
    with the sign of `sense`.  It is tested in the z of _newton_stationary,
    as D L D with D = diag(dx/dz): congruent to it on the support, and
    bounded where |x|^(p-2) is not.  Returns (curvature, v, z): curvature is
    the most-wrong eigenvalue, negative when the test fails beyond roundoff,
    and v its unit eigenvector in z.
    """
    a = _z_exponent(p)
    # at a = 1 z is x (x + 0.0 turns -0.0 into +0.0, as sign(x)|x| does), D is I
    z = _signed_power(x, 1.0 / a) if a != 1.0 else x + 0.0
    az = np.abs(z)
    L = hessian(G, x) if H is None else H
    if a != 1.0:
        d = a * az ** (a - 1.0)
        L *= np.outer(d, d)
    L[np.diag_indices_from(L)] -= G.rank * lam * (p - 1.0) * a * a * az ** (a * p - 2.0)
    nu = _signed_power(z, a * p - 1.0)
    nu /= np.linalg.norm(nu)
    # the projection (I - nu nu^T) L (I - nu nu^T) as rank-one updates of L
    w = L @ nu
    L -= np.outer(nu, w)
    L -= np.outer(w, nu)
    L += (nu @ w) * np.outer(nu, nu)
    S = -sense * L
    evals, evecs = np.linalg.eigh(S)
    slack = 1e-7 * max(1.0, float(np.abs(S).max()))
    return float(evals[0]) + slack, evecs[:, 0], z


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    mask = u - css / ks > 0
    rho = int(np.nonzero(mask)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def _simplex_value(idx, w, y) -> float:
    """r! * sum_e w_e prod_{k in e} y_k from raw edge arrays; weights may be signed."""
    return math.factorial(idx.shape[1]) * float(np.prod(y[idx], axis=1) @ w)


def _simplex_step(sense):
    """Projected gradient toward the extremum `sense` on the simplex of x's
    sign orthant s (a -0.0 entry counts as -), as a step of `_sphere_loop`:
    x <- s * proj(s*x + sense*eta*s*grad), eta halved until the value
    r! sum_e w_e prod_{k in e} x_k moves toward `sense`.  The factors +-1 are
    exact, so this is the simplex method on the weights w_e prod_{k in e} s_k
    bit for bit.  No step leaves the orthant: s is read at a restart's first
    step (state None) and kept in the state (eta, s).  Returns (x, lam,
    state, None), or None when no step within `_MAX_HALVINGS` halvings moves
    the value."""
    def step(G, p, x, lam, g, state):
        idx, w = G.arrays()
        if state is None:
            neg = np.signbit(x)
            state = (1.0 / max(1.0, float(np.abs(g).max())),
                     np.where(neg, -1.0, 1.0) if neg.any() else None)  # None: all +1
        eta, s = state
        if s is not None:
            x, g = s * x, s * g
        for k in range(_MAX_HALVINGS):
            trial = _project_simplex(x + sense * eta * g)
            if s is not None:
                trial = s * trial
            lam_t = _simplex_value(idx, w, trial)
            if sense * (lam_t - lam) > 1e-14 * max(1.0, abs(lam)):
                return trial, lam_t, (1.5 * eta if k == 0 else eta, s), None
            eta *= 0.5
        return None
    return step


# ---------------------------------------------------------------------------
# restart orchestration
# ---------------------------------------------------------------------------

def _refine_tied_simplex(G, cands, sense, tol):
    """Replace every value-tied p = 1 candidate by the Newton point on its
    face (`_newton_stationary`) when that is no worse (1e-12 relative): the
    first-order method leaves entry errors near the root of the tolerance.
    Duplicates (`_Cand.dup`) are left as they are."""
    best = max(sense * c.lam for c in cands if not c.dup)
    out = []
    for c in cands:
        if not c.dup and sense * c.lam >= best - tol:
            with np.errstate(all="ignore"):
                y = _newton_stationary(G, 1.0, c.x, c.lam, tol)[0]
            if y is not None:
                lam_y = evaluate(G, y)
                if sense * (lam_y - c.lam) >= -1e-12 * max(1.0, abs(c.lam)):
                    out.append(_Cand(y, lam_y, math.nan, c.iters, True))
                    continue
        out.append(c)
    return out


def _sign_patterns(n: int, p: float) -> np.ndarray:
    """Every nonzero -1/0/+1 vector of length n, scaled onto the l^p sphere."""
    pats = np.indices((3,) * n).reshape(n, -1).T - 1.0
    pats = pats[np.any(pats != 0.0, axis=1)]
    return pats / (np.sum(np.abs(pats) ** p, axis=1) ** (1.0 / p))[:, None]


def _starts(G, p, opts, extra, sense):
    """The start vectors of the maximum (sense 1) or the minimum (sense -1).

    Either target: the warm vectors, an anchor, one start per edge (its
    indicator, with the first entry negated for the minimum) and random
    simplex points, sign-randomized for the minimum.  The anchor is the
    uniform point, first, for the maximum, and the best -1/0/+1 sign pattern
    (n <= 6), after the warm vectors, for the minimum.  Edge starts leave
    random ones a third of `opts.restarts`.

    The minimum at p = 1: the warm vectors, then each sign orthant (all up to
    global sign for n <= 6, else random ones and one negated entry per edge)
    times the uniform point and one random simplex point.  A zero entry
    counts as +.
    """
    n = G.n_vertices

    def simplex_points(rng, count):
        ys = [rng.exponential(1.0, n) for _ in range(count)]
        return [y / y.sum() if y.sum() > 0 else np.full(n, 1.0 / n) for y in ys]

    warm = [normalize_lp(np.abs(v) if sense > 0 else v, p) for v in extra if lp_norm(v, p) > 0]
    if sense < 0 and p == 1.0:
        if n <= _PATTERN_MAX_N:
            orthants = {(1, *s) for s in itertools.product((1, -1), repeat=n - 1)}
        else:
            rng = np.random.default_rng(np.random.SeedSequence([opts.seed, 2]))
            orthants = {tuple(int(s) for s in rng.integers(0, 2, n) * 2 - 1)
                        for _ in range(max(opts.restarts, 4))}
            orthants |= {tuple(-1 if k == e[0] else 1 for k in range(n))
                         for e in G.edges()[:_MAX_EDGE_STARTS]}
        rng = np.random.default_rng(np.random.SeedSequence([opts.seed, 3]))
        starts = [v + 0.0 for v in warm]        # + 0.0 clears the sign of a zero
        for s in sorted(orthants):
            starts += [np.array(s, dtype=np.float64) * y
                       for y in (np.full(n, 1.0 / n), *simplex_points(rng, 1))]
        return starts
    if sense > 0:
        starts, stream, keep = [np.full(n, n ** (-1.0 / p)), *warm], opts.seed, 1 + len(warm)
    else:
        starts, stream = warm, [opts.seed, 1]
        if n <= _PATTERN_MAX_N:
            pats = _sign_patterns(n, p)
            starts.append(pats[int(np.argmin(evaluate_many(G, pats)))])
        keep = len(starts) + 1
    room = opts.restarts - len(starts) - max(1, opts.restarts // 3)
    for e in G.edges()[:max(min(_MAX_EDGE_STARTS, room), 0)]:
        x = np.zeros(n)
        x[list(e)] = 1.0
        x[e[0]] = sense
        starts.append(normalize_lp(x, p))
    rng = np.random.default_rng(np.random.SeedSequence(stream))
    ys = [y ** (1.0 / p) for y in simplex_points(rng, max(opts.restarts - len(starts), 1))]
    if sense < 0:
        ys = [(rng.integers(0, 2, n) * 2 - 1) * y for y in ys]
    return (starts + ys)[:max(opts.restarts, keep)]


def _pick(cands: list[_Cand], sense: float, tol: float) -> _Cand:
    """The winner among the candidates that are not duplicates: of those
    within tol of the best value, the ones that met tol if any did, then the
    best value, exact ties going to the lexicographically smallest vector."""
    cands = [c for c in cands if not c.dup]
    best = max(sense * c.lam for c in cands)
    pool = [c for c in cands if sense * c.lam >= best - tol]
    if any(c.tol_met for c in pool):
        pool = [c for c in pool if c.tol_met]
    return min(pool, key=lambda c: (-sense * c.lam, tuple(c.x.tolist())))


def _concavity_gap(G, p, x, lam, g) -> float:
    """Frank-Wolfe gap (Jaggi, ICML 2013) of a nonnegative unit x with value
    lam at p >= r, where the value is concave in y = x^p on the simplex: the
    maximum is at most lam + (r/p)(hi - lam), hi = max_k grad_k/(r x_k^(p-1)).
    The value is not differentiable where a vertex of positive degree has
    x_k = 0, and the gap is +inf there (on two disjoint edges at p = 3 a point
    on one edge is stationary at 2^(1/3), below the maximum 2^(2/3)).
    `g` is the gradient at x."""
    live = G.degrees() > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = g[live] / (G.rank * x[live] ** (p - 1.0))
    if not np.all(np.isfinite(quot)):
        return math.inf
    return G.rank / p * (float(quot.max()) - lam)


def _candidates(G, p, opts, target, extra, top=None) -> list[_Cand]:
    """The candidates of the restarts that ran for `target`.

    With a flip (`_flip_set`) the minimum is one candidate: the maximizer
    with signs flipped on it, with the negated maximum as its value (each
    edge term changes sign exactly) and the maximum's status.  `top` is the
    caller's solved maximum, if any; otherwise the maximum that `lambda_max`
    recorded on G for these arguments, or else one solved here from the warm
    vectors.  The maximum at p >= r stops at its first candidate that
    meets tol with a concavity gap of at most tol * max(1, lam).
    """
    flip = _flip_set(G) if target == "min" else None
    if flip is not None:
        if top is None:
            top = (_recorded_max(G, _max_key(p, opts, extra))
                   or lambda_max(G, p, opts, initial_vectors=extra))
        x = top.vector.coords.copy()
        x[list(flip)] = -x[list(flip)]
        if G.rank % 2:
            x += 0.0            # -x + 0.0: a zero stays +0.0
        return [_Cand(x, -top.value, top.residual, top.iterations,
                      top.status == "converged")]
    sense = 1.0 if target == "max" else -1.0
    # the minimum's first-order step moves the coordinate Newton solves in
    if p == 1.0:
        step = _simplex_step(sense)
    elif sense > 0 or _z_exponent(p) > 1.0:
        step = _fixed_point_step(default_shift(G), sense)
    else:
        step = _armijo_step
    cands = []
    for x0 in _starts(G, p, opts, extra, sense):
        known = [c for c in cands if c.tol_met]
        c = _sphere_loop(G, p, x0, opts.tol, opts.max_iter, sense, step, known)
        cands.append(c)
        if sense > 0 and p >= G.rank and not c.dup:
            c.gap = _concavity_gap(G, p, c.x, c.lam, c.g)
            if c.tol_met and c.gap <= opts.tol * max(1.0, c.lam):
                break
    if p == 1.0:
        cands = _refine_tied_simplex(G, cands, sense, opts.tol)
    return cands


def _closed_form(G, p, target):
    """The exact extremizer of a 2-graph at p = 1 or 2, or None where there
    is none to take: another rank or p, a minimum that the flip makes
    (`_flip_set`), n above `_DENSE_MAX_N`, or more cliques than
    `combinatorics.CLIQUE_BUDGET` for the p = 1 maximum.

    The value is x^T A x for the weighted adjacency matrix A >= 0.
    p = 2: the top eigenvector v of A (`np.linalg.eigh`), as |v|, which is
      one too, since |v|^T A |v| >= v^T A v; the minimum takes the bottom
      one.
    p = 1, minimum: +-1/2 on the heaviest edge, at -w_max/2.  On the l^1
      sphere, with x = u - v split by sign, x^T A x >= -2 u^T A v
      >= -2 w_max sum(u) sum(v) >= -w_max/2.
    p = 1, maximum: the Lagrangian (Motzkin & Straus, Canad. J. Math. 17,
      1965), `_lagrangian`.
    """
    if G.rank != 2 or p not in (1.0, 2.0):
        return None
    if target == "min" and _flip_set(G) is not None:
        return None
    n = G.n_vertices
    idx, w = G.arrays()
    if p == 1.0 and target == "min":
        x = np.zeros(n)
        x[idx[int(np.argmax(w))]] = (0.5, -0.5)
        return x
    if n > _DENSE_MAX_N:
        return None
    A = np.zeros((n, n))
    A[idx[:, 0], idx[:, 1]] = w
    A[idx[:, 1], idx[:, 0]] = w
    if p == 1.0:
        return _lagrangian(A, idx)
    v = np.linalg.eigh(A)[1][:, -1 if target == "max" else 0]
    return np.abs(v) if target == "max" else v


def _lagrangian(A, edges):
    """A maximizer of x^T A x on the simplex, or None past the clique budget.

    Some maximizer is supported on a clique S (Frankl & Rodl, Combinatorica
    4, 1984: weight moves along a non-edge without loss), and one of least
    support is stationary inside the face of S, where A_S y = 1 and
    x = y / sum(y), with value 1 / sum(y).  So every clique whose y is
    positive gives a candidate, and the best is the maximum.  A singular A_S
    is skipped: a null vector d has sum(d) = 0 unless the value is 0, and
    moving along it reaches a sub-clique at the same value.
    """
    cliques = _cliques(A.shape[0], edges.tolist())
    if cliques is None:
        return None
    by_size: dict[int, list] = {}
    for S in cliques:
        by_size.setdefault(len(S), []).append(S)
    best, x = -math.inf, np.zeros(A.shape[0])
    for group in by_size.values():
        S = np.array(group)
        faces = A[S[:, :, None], S[:, None, :]]
        ones = np.ones((*S.shape, 1))
        try:
            Y = np.linalg.solve(faces, ones)[..., 0]
        except np.linalg.LinAlgError:     # a singular face: solve the rest one by one
            Y = np.full(S.shape, np.nan)
            for i, F in enumerate(faces):
                try:
                    Y[i] = np.linalg.solve(F, ones[i])[:, 0]
                except np.linalg.LinAlgError:
                    pass
        total = Y.sum(axis=1)
        ok = np.all(Y > 0.0, axis=1)
        vals = np.full(len(S), -math.inf)
        vals[ok] = 1.0 / total[ok]
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = vals[j]
            x[:] = 0.0
            x[S[j]] = Y[j] / total[j]
    return x


def _flip_set(G):
    """The vertices whose sign flip negates every edge product (all at odd rank), or None."""
    return range(G.n_vertices) if G.rank % 2 else odd_transversal(G)


def _warm_vectors(G, vecs) -> list[np.ndarray]:
    """The warm vectors as float arrays; a vector not of shape (n,) or with a
    non-finite entry is refused.  A zero vector passes and starts nothing."""
    out = []
    for i, v in enumerate(vecs):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (G.n_vertices,):
            raise ValueError(f"warm vector {i} has shape {v.shape}, "
                             f"expected ({G.n_vertices},)")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"warm vector {i} has a non-finite entry")
        out.append(v)
    return out


def _solve(G, p, opts, target, extra, top=None) -> EigenResult:
    """The exact extremum of a 2-graph at p = 1 or 2 where `_closed_form`
    gives one, else the best candidate of `target` for a checked p (see
    `_candidates`).

    A closed form is "converged", with no iteration and no restart.  A
    candidate is "converged" when it met tol and, for the maximum, p = 1 or
    its concavity gap is at most tol * max(1, lam) (the gap is NaN at
    1 < p < r); for the minimum, when it is the flipped maximizer.
    """
    extra = _warm_vectors(G, extra)
    if G.n_vertices == 0 or G.num_edges == 0:
        vec = PointOnSphere(np.zeros(G.n_vertices), p, normalized=False)
        return EigenResult(0.0, vec, 0.0, 0, 0, "converged", p, target)
    x = _closed_form(G, p, target)
    if x is not None:
        x = normalize_lp(x, p)      # eigh's unit vectors are off by a few ulps
        lam = evaluate(G, x)
        res = math.nan if p == 1.0 else _residual_from_grad(2, p, lam, x, gradient(G, x))
        return EigenResult(lam, PointOnSphere(x, p, normalized=False), res, 0, 0,
                           "converged", p, target)
    cands = _candidates(G, p, opts, target, extra, top)
    win = _pick(cands, 1.0 if target == "max" else -1.0, opts.tol)
    converged = (_flip_set(G) is not None if target == "min"
                 else p == 1.0 or win.gap <= opts.tol * max(1.0, win.lam))
    status = "converged" if (win.tol_met and converged) else "best-effort"
    return EigenResult(win.lam, PointOnSphere(win.x, p, normalized=False),
                       win.res, win.iters, len(cands), status, p, target, win.gap)


def solve_restarts(G: WeightedHypergraph, p: float, target: str = "max",
                   opts: SolveOptions | None = None,
                   initial_vectors=()) -> list[tuple[float, np.ndarray, float]]:
    """The outcome (value, vector, residual) of every restart that ran, for
    diagnostics: the maximum at p >= r stops at its first certified restart,
    and a minimum with a flip (`_flip_set`) is the flipped maximizer alone.
    A restart that stopped as a duplicate of an earlier one's end point
    reports the point it stopped at, with its value and residual there; the
    residual is then usually above tol."""
    if target not in ("max", "min"):
        raise ValueError(f"target must be 'max' or 'min', got {target!r}")
    cands = _candidates(G, check_exponent(p), opts or SolveOptions(), target,
                        _warm_vectors(G, initial_vectors))
    return [(c.lam, c.x, c.res) for c in cands]


def _max_key(p, opts, warm) -> tuple:
    """Every input of a maximum solve on a given graph."""
    vecs = [np.asarray(v, dtype=np.float64) for v in warm]
    return (p, opts, *(v.shape for v in vecs), *(v.tobytes() for v in vecs))


def _record_max(G, key, res) -> None:
    """Record the maximum `res` on G under `key`, with a private copy of its
    vector (the one field a caller can write into), keeping the latest
    `_RECORDED_MAXIMA`.  G is immutable and the key holds every other input,
    so a record is what a new solve would return.  The tuple is replaced,
    never changed: a thread reads a whole one, and racing writers only drop
    an entry."""
    entries = [e for e in G._maxima if e[0] != key]
    entries.append((key, res, res.vector.coords.tobytes()))
    G._maxima = tuple(entries[-_RECORDED_MAXIMA:])


def _recorded_max(G, key) -> EigenResult | None:
    """The maximum recorded on G under `key`, with a fresh vector, or None."""
    for k, res, coords in G._maxima:
        if k == key:
            vec = PointOnSphere(np.frombuffer(coords).copy(), res.p, normalized=False)
            return replace(res, vector=vec)
    return None


def lambda_max(G: WeightedHypergraph, p: float, opts: SolveOptions | None = None,
               initial_vectors=()) -> EigenResult:
    """Best maximizer of the edge polynomial over the unit l^p sphere.

    Every call solves, and records its result on G for a later `lambda_min`
    with the same arguments at odd rank or on a graph with an odd transversal.
    """
    p, opts, warm = check_exponent(p), opts or SolveOptions(), list(initial_vectors)
    res = _solve(G, p, opts, "max", warm)
    if G.num_edges:     # an edgeless graph's minimum never looks
        _record_max(G, _max_key(p, opts, warm), res)
    return res


def lambda_min(G: WeightedHypergraph, p: float, opts: SolveOptions | None = None,
               initial_vectors=()) -> EigenResult:
    """Best minimizer of the edge polynomial over the unit l^p sphere.

    At odd rank the minimum is the negated maximum, attained at minus the
    maximizer, and with an odd transversal of the support it is the maximizer
    with signs flipped on it; either takes the maximum's status.  Otherwise
    even rank runs sign-randomized restarts of the shifted map on -P in the
    dual point at 1 < p < 2, and of projected gradient descent at p >= 2.
    """
    return _solve(G, check_exponent(p), opts or SolveOptions(), "min", initial_vectors)


def extremes(G: WeightedHypergraph, p: float, opts: SolveOptions | None = None,
             warm_max=(), warm_min=()) -> tuple[EigenResult, EigenResult]:
    """(lambda_max, lambda_min) with the maximum solved once: the minimum
    reuses it wherever it is the flipped maximizer (odd rank, or an odd
    transversal).  `warm_max` and `warm_min` are the warm vectors of each solve."""
    top = lambda_max(G, p, opts, initial_vectors=warm_max)
    return top, _solve(G, top.p, opts or SolveOptions(), "min", warm_min, top)


# ---------------------------------------------------------------------------
# sampling oracle
# ---------------------------------------------------------------------------

def brute_force_lambda(G: WeightedHypergraph, p: float, target: str = "max",
                       samples: int = 10_000, seed: int = 0) -> float:
    """Independent sampling-plus-polish estimate of the extremal value.

    Draws `samples` sign-symmetric points on the l^p sphere and adds every
    -1/0/+1 pattern for n <= 8; the best _POLISH_ROWS of them are then
    polished together by a compass search (Kolda, Lewis & Torczon, SIAM
    Review 45, 2003).  Each iteration moves every live row by +-step along
    each coordinate, projects the 2n trial points back onto the sphere and
    scores all of them with one evaluate_many call; a row moves to its best
    trial when that gains more than a few ulps, and otherwise halves its
    step, until the step falls below _POLISH_MIN_STEP or _POLISH_ITERS runs
    out.  Every value is attained at a point on the sphere, so the result is
    a one-sided certificate: a lower bound for the maximum, an upper bound
    for the minimum.
    """
    p = check_exponent(p)
    if target not in ("max", "min"):
        raise ValueError(f"target must be 'max' or 'min', got {target!r}")
    if _as_int(seed, "seed") < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    n = G.n_vertices
    if n == 0 or G.num_edges == 0:
        return 0.0
    sense = 1.0 if target == "max" else -1.0
    rng = np.random.default_rng(seed)
    S = max(int(samples), 100)
    mags = rng.gamma(1.0 / p, 1.0, size=(S, n)) ** (1.0 / p)
    signs = rng.integers(0, 2, size=(S, n)) * 2.0 - 1.0
    X = mags * signs
    norms = np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)
    X /= norms[:, None]
    if n <= 8:
        X = np.vstack([X, _sign_patterns(n, p)])
    vals = sense * evaluate_many(G, X)
    keep = _top_rows(vals, _POLISH_ROWS)
    return sense * float(_compass_polish(G, p, sense, X[keep], vals[keep]).max())


def _top_rows(vals, k):
    """The indices of the k largest of the values (none NaN), largest first
    and ties in index order: `np.argsort(-vals, kind="stable")[:k]`, with a
    partition and a stable sort of only the values at or above the k-th."""
    kth = max(vals.size - k, 0)
    cut = np.partition(vals, kth)[kth]
    top = np.flatnonzero(vals >= cut)
    return top[np.argsort(-vals[top], kind="stable")[:k]]


def _compass_polish(G, p, sense, Z, f):
    """Compass search maximizing sense * P from every row of Z (on the l^p
    sphere, with values f) at once; returns each row's final value."""
    n = Z.shape[1]
    Z, f = Z.copy(), f.copy()
    moves = np.vstack([np.eye(n), -np.eye(n)])                  # (2n, n)
    step = np.full(len(f), _POLISH_STEP)
    for _ in range(_POLISH_ITERS):
        live = np.flatnonzero(step >= _POLISH_MIN_STEP)
        if live.size == 0:
            break
        # every row has unit norm and every step is below 1: no trial is 0
        T = Z[live, None, :] + step[live, None, None] * moves  # (k, 2n, n)
        T /= (np.sum(np.abs(T) ** p, axis=2) ** (1.0 / p))[:, :, None]
        tv = sense * evaluate_many(G, T.reshape(-1, n)).reshape(live.size, 2 * n)
        j = np.argmax(tv, axis=1)
        gain = tv[np.arange(live.size), j] - f[live]
        move = gain > _POLISH_GAIN_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(f[live]))
        rows = live[move]
        Z[rows] = T[move, j[move]]
        f[rows] = tv[move, j[move]]
        step[live[~move]] *= 0.5
    return f


# ---------------------------------------------------------------------------
# envelopes, curves, modulus check
# ---------------------------------------------------------------------------

def collatz_wielandt(G: WeightedHypergraph, p: float, x: np.ndarray) -> tuple[float, float]:
    """Envelope (min_k, max_k) of grad_k/(r * x_k^(p-1)) for a positive unit vector.

    The lower end never exceeds the maximum value; the upper end bounds it
    from above for connected graphs when p >= r.
    """
    p = check_exponent(p)
    if p == 1.0:
        raise ValueError("the envelope requires p > 1")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (G.n_vertices,):
        raise ValueError(f"vector has shape {x.shape}, expected ({G.n_vertices},)")
    # written so that a NaN entry fails each test
    if not np.all(x > 0.0):
        raise ValueError("the envelope requires a strictly positive vector")
    if not abs(lp_norm(x, p) - 1.0) <= 1e-9:
        raise ValueError("the envelope requires a unit vector in the l^p norm")
    quot = gradient(G, x) / G.rank * x ** (1.0 - p)
    return float(quot.min()), float(quot.max())


def lambda_curve(G: WeightedHypergraph, p_grid, opts: SolveOptions | None = None
                 ) -> list[CurvePoint]:
    """Solve along an ascending grid of exponents with warm starts."""
    grid = [check_exponent(q) for q in p_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("exponent grid must be strictly ascending")
    opts = opts or SolveOptions()
    n, r = G.n_vertices, G.rank
    size = G.size()
    rows: list[CurvePoint] = []
    warm_max: list[np.ndarray] = []
    warm_min: list[np.ndarray] = []
    for q in grid:
        top, bot = extremes(G, q, opts, warm_max, warm_min)
        warm_max = [top.vector.coords]
        warm_min = [bot.vector.coords]
        h = top.value * n ** (r / q) if n else 0.0
        f = (top.value / (math.factorial(r) * size)) ** q if size > 0 else 0.0
        rows.append(CurvePoint(q, top.value, bot.value, h, f))
    return rows


def algebraic_modulus_check(G: WeightedHypergraph, lam: float, x: np.ndarray,
                            opts: SolveOptions | None = None) -> bool:
    """True when |lam| is at most the solved maximum at p = r, plus 1e-6.

    The pair (lam, x) must satisfy the p = r stationarity system to within
    1e-6; any such modulus is dominated by the maximum value.
    """
    res = eigen_residual(G, float(G.rank), lam, x)
    if res > 1e-6:
        raise ValueError(f"(lam, x) is not an approximate stationary pair "
                         f"(residual {res:.3e} > 1e-06)")
    top = lambda_max(G, float(G.rank), opts)
    return abs(lam) <= top.value + 1e-6
