"""Generic optimization utilities over products of probability simplices.

The maximizers in this package are nonconvex, so every search here is a
certified-lower-bound search: each candidate is evaluated exactly and the
best value seen is returned. Determinism: all randomness flows from
(seed, restart_index) via numpy SeedSequence spawn keys, and the reduction
over restarts is ordered by restart index, so doubling the restart budget
keeps the original restarts' trajectories bit-identical (value can only go
up).

Objective contract: ``fun(x) -> (value, grad)``, where ``grad`` is a
zero-argument callable returning the gradient at x. The ascent is
value-first: it calls ``grad`` only for a restart's start point and for
each step it accepts, never for a rejected line-search trial.

Every search entry point takes its budget as a required ``SearchConfig``
from its caller; none has a default budget.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "SearchConfig",
    "SearchResult",
    "ScalarMinResult",
    "project_simplex",
    "project_blocks",
    "simplex_grid",
    "simplex_grid_size",
    "ascend",
    "maximize",
    "golden_section_min",
]

# the objective contract of the module docstring
Objective = Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden_section_min: a subgradient this small stops at its point, and sign
# bisection hands over to golden section at this bracket width
SUBGRAD_TOL = 1e-6
BISECT_UNTIL = 0.25

# step-size control of the projected ascent in _run_restart
STEP_INIT = 0.5
STEP_SHRINK = 0.5
STEP_GROW = 1.6
STEP_MAX = 64.0
MIN_STEP = 1e-12
IMPROVE_TOL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs shared by all searches."""

    restarts: int = 64
    max_iters: int = 200
    patience: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError(
                f"restarts and max_iters must be at least 1, "
                f"got {self.restarts} and {self.max_iters}"
            )

    def with_(self, **kw) -> "SearchConfig":
        return replace(self, **kw)


@dataclass
class SearchResult:
    value: float
    point: np.ndarray
    restart_index: int
    converged: bool
    restart_values: list = field(default_factory=list)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex.

    Sort-based algorithm: find the largest k with u_k - (cumsum-1)/k > 0,
    shift by that threshold and clamp at zero.
    """
    v = np.asarray(v, dtype=float).ravel()
    n = v.size
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, n + 1)
    cond = u - css / ks > 0.0
    k = int(ks[cond][-1])
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


def block_slices(block_sizes: Sequence[int]) -> list[slice]:
    out, start = [], 0
    for b in block_sizes:
        out.append(slice(start, start + b))
        start += b
    return out


def project_blocks(v: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    out = np.empty_like(np.asarray(v, dtype=float))
    for sl in block_slices(block_sizes):
        out[sl] = project_simplex(v[sl])
    return out


def simplex_grid(dim: int, resolution: int) -> Iterator[np.ndarray]:
    """All points of the dim-simplex with coordinates k/resolution.

    Yields C(resolution + dim - 1, dim - 1) points in lexicographic order.
    """
    if dim < 1 or resolution < 1:
        raise ValueError("dim and resolution must be positive")

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for comp in rec([], resolution, dim):
        yield np.asarray(comp, dtype=float) / resolution


def simplex_grid_size(dim: int, resolution: int) -> int:
    return math.comb(resolution + dim - 1, dim - 1)


def _init_point(
    kind: int,
    rng: np.random.Generator,
    block_sizes: Sequence[int],
) -> np.ndarray:
    parts = []
    for b in block_sizes:
        if kind == 0:
            parts.append(rng.dirichlet(np.ones(b)))
        else:
            parts.append(rng.dirichlet(np.full(b, 0.1)))
    return np.concatenate(parts)


def _run_restart(
    fun: Objective,
    x0: np.ndarray,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
) -> tuple[float, np.ndarray, int, bool]:
    x = project_blocks(x0, block_sizes)
    v, grad = fun(x)
    if not np.isfinite(v):
        logging.getLogger(__name__).warning("restart aborted: non-finite objective")
        return -np.inf, x, 0, False
    g = grad()
    best_v, best_x = v, x
    step = STEP_INIT
    stall = 0
    it = 0
    converged = False
    for it in range(1, cfg.max_iters + 1):
        moved = False
        while step >= MIN_STEP:
            xn = project_blocks(x + step * g, block_sizes)
            if float(np.abs(xn - x).max()) < 1e-15:
                break
            vn, grad = fun(xn)
            if vn > v + 1e-15:
                moved = True
                break
            step *= STEP_SHRINK
        if not moved:
            converged = True
            break
        gain = vn - v
        x, v, g = xn, vn, grad()
        if v > best_v:
            best_v, best_x = v, x
        step = min(step * STEP_GROW, STEP_MAX)
        if gain < IMPROVE_TOL:
            stall += 1
            if stall >= cfg.patience:
                converged = True
                break
        else:
            stall = 0
    return best_v, best_x, it, converged


def ascend(
    fun: Objective,
    x0: np.ndarray,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
) -> tuple[float, np.ndarray, int, bool]:
    """Single projected-gradient ascent run from one start.

    fun follows the module's objective contract, ``fun(x) -> (value,
    grad)``. Returns (best_value, best_point, iterations, converged).
    """
    return _run_restart(fun, np.asarray(x0, dtype=float), block_sizes, cfg)


def maximize(
    fun: Objective,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
    seeds: Sequence[np.ndarray] = (),
) -> SearchResult:
    """Multi-start projected gradient ascent over a product of simplices.

    fun maps a flat concatenated point to (value, grad), where grad() is
    the gradient there, run only at accepted points. Restart i
    draws its start from kind i%4: Dirichlet(1), Dirichlet(1),
    Dirichlet(0.1), or the caller's structured seeds cycled in order.
    Every provided seed is guaranteed a restart even when restarts < 4*len.
    """
    seeds = [np.asarray(s, dtype=float).ravel() for s in seeds]
    total = sum(block_sizes)
    for s in seeds:
        if s.size != total:
            raise ValueError(f"seed has size {s.size}, expected {total}")

    plan: list[np.ndarray | None] = []
    seed_slot = 0
    for i in range(cfg.restarts):
        if seeds and i % 4 == 3:
            plan.append(seeds[seed_slot % len(seeds)])
            seed_slot += 1
        else:
            plan.append(None)
    # missing seeds get appended restarts so structured starts always run
    while seed_slot < len(seeds):
        plan.append(seeds[seed_slot])
        seed_slot += 1

    def start_for(i: int) -> np.ndarray:
        if plan[i] is not None:
            return plan[i]
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
        kind = 1 if i % 4 == 2 else 0
        return _init_point(kind, rng, block_sizes)

    results = [_run_restart(fun, start_for(i), block_sizes, cfg) for i in range(len(plan))]

    best_i = 0
    for i in range(1, len(results)):
        if results[i][0] > results[best_i][0]:
            best_i = i
    v, x, _, _ = results[best_i]
    return SearchResult(
        value=v,
        point=x,
        restart_index=best_i,
        converged=any(r[3] for r in results),
        restart_values=[r[0] for r in results],
    )


@dataclass
class ScalarMinResult:
    x: float
    value: float
    payload: object
    evaluations: int
    bracket_width: float


def golden_section_min(
    f: Callable[[float], tuple[float, float, object]], tol: float
) -> ScalarMinResult:
    """Minimize a convex scalar function on [0, 1] to a bracket of width tol.

    f(x) returns (value, subgradient, payload). The bracket is first
    shrunk by sign bisection on the subgradient (a subgradient of a convex
    function points away from the minimizer) down to width
    ``BISECT_UNTIL``, stopping at a point whose subgradient is below
    ``SUBGRAD_TOL``; golden section handles the rest, which tolerates the
    mild non-convexity of values produced by inner numerical
    maximizations. Returns the best evaluation seen and its payload.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    a, b = 0.0, 1.0
    evals = 0
    best = (math.inf, None, None)  # value, x, payload

    def ev(x: float) -> tuple[float, float]:
        nonlocal evals, best
        value, sub, payload = f(x)
        value = float(value)
        evals += 1
        if value < best[0]:
            best = (value, x, payload)
        return value, float(sub)

    # subgradient sign bisection on the midpoint
    while b - a > max(BISECT_UNTIL, tol):
        mid = 0.5 * (a + b)
        _, sub = ev(mid)
        if abs(sub) < SUBGRAD_TOL:
            a, b = mid, mid
            break
        if sub > 0.0:
            b = mid
        else:
            a = mid

    if b - a > tol:
        x1 = b - INV_PHI * (b - a)
        x2 = a + INV_PHI * (b - a)
        f1, _ = ev(x1)
        f2, _ = ev(x2)
        while b - a > tol:
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - INV_PHI * (b - a)
                f1, _ = ev(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + INV_PHI * (b - a)
                f2, _ = ev(x2)

    return ScalarMinResult(
        x=best[1],
        value=best[0],
        payload=best[2],
        evaluations=evals,
        bracket_width=b - a,
    )
