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

Projection: every ascent step is projected onto the product of simplices
by ``project_blocks``, which the ascent looks up in this module on every
call. It has three paths, all bit-identical to a per-block sort
projection: one block is ``project_simplex``; equal blocks are one sort
along the last axis of a (blocks, size) view; unequal blocks are
projected one at a time. Equal blocks are the fixed-input objectives (one
block per input symbol) and a region search whose two component
auxiliaries have one size, as on the worked product (2 x 512 for
``product_outer``, 2 x 128 for ``semi_deterministic``).
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
        # numpy's SeedSequence takes only nonnegative entropy
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def with_(self, **kw) -> "SearchConfig":
        return replace(self, **kw)


@dataclass
class SearchResult:
    value: float
    point: np.ndarray
    restart_index: int
    converged: bool
    restart_values: list = field(default_factory=list)


def _unprojectable(block: int) -> ValueError:
    return ValueError(
        f"block {block} cannot be projected onto the simplex: an entry is not "
        "finite, or the entries are too large for double precision"
    )


def _project_vector(v: np.ndarray, block: int) -> np.ndarray:
    """``project_simplex`` of a flat float vector, naming it ``block`` if it
    fails."""
    u = np.sort(v)[::-1]
    # q_k = (u_1 + ... + u_k - 1) / k, the threshold if k entries stay positive
    q = np.cumsum(u)
    q -= 1.0
    q /= np.arange(1.0, v.size + 1)
    cond = u > q
    k = v.size - int(cond[::-1].argmax())
    # an inf or nan entry leaves cond all false or the last sum not finite
    if not (cond[k - 1] and math.isfinite(q[-1])):
        raise _unprojectable(block)
    out = v - q[k - 1]
    np.maximum(out, 0.0, out=out)
    return out


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex.

    Sort-based algorithm (L. Condat, "Fast projection onto the simplex and
    the l1 ball", Math. Prog. 2016): with u the entries in decreasing order,
    take the last k with u_k > (u_1 + ... + u_k - 1) / k, shift v by that
    threshold and clamp at zero. Raises ValueError (naming block 0) when an
    entry is not finite.
    """
    return _project_vector(np.asarray(v, dtype=float).ravel(), 0)


def _project_rows(rows: np.ndarray) -> np.ndarray:
    """``project_simplex`` of every row of a (blocks, size) array at once,
    bit for bit: the same steps along the last axis, one sort for all rows."""
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    q = np.cumsum(u, axis=1)
    q -= 1.0
    q /= np.arange(1.0, n + 1)
    cond = u > q
    index = (np.arange(len(rows)), n - 1 - cond[:, ::-1].argmax(axis=1))
    ok = cond[index] & np.isfinite(q[:, -1])
    if not ok.all():
        raise _unprojectable(int(ok.argmin()))
    out = rows - q[index][:, None]
    np.maximum(out, 0.0, out=out)
    return out


def project_blocks(v: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Euclidean projection of v onto the product of simplices whose sizes
    are ``block_sizes``, in order.

    Three paths, each bit-identical to ``project_simplex`` on every block:
    one block is ``project_simplex`` itself; equal blocks are one sort along
    the last axis of a (blocks, size) view; unequal blocks are projected one
    at a time. Raises ValueError naming the first block with an entry that
    is not finite.
    """
    v = np.asarray(v, dtype=float).ravel()
    if len(block_sizes) == 1:
        return project_simplex(v)
    size = block_sizes[0]
    if all(b == size for b in block_sizes):
        return _project_rows(v.reshape(len(block_sizes), size)).ravel()
    out = np.empty_like(v)
    start = 0
    for i, b in enumerate(block_sizes):
        out[start : start + b] = _project_vector(v[start : start + b], i)
        start += b
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
