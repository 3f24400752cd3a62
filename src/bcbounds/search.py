"""Generic optimization utilities over products of probability simplices.

The maximizers in this package are nonconvex, so every search here is a
certified-lower-bound search: each candidate is evaluated exactly and the
best value seen is returned. Determinism: all randomness flows from
(seed, restart_index) via numpy SeedSequence spawn keys, and the reduction
over restarts is ordered by restart index, so doubling the restart budget
keeps the original restarts' trajectories bit-identical (value can only go
up).

Objective contract: ``fun(X) -> (values, grad)`` for a batch X of shape
(B, n), one point per row. ``values`` holds the B objective values and
``grad(rows)`` returns the gradients at the points ``X[rows]``, one per
row, computed only when called. It is the one call form of the
evaluation layer: ``InfoFunctional.value_and_grad`` takes a batch of
tensors and weight rows and returns the same pair, and an objective
reshapes points and gradients around one such call (or one ``evaluate``
per component table of a region's support), however many rows the batch
has.

The ascent is lockstep and value-first. ``maximize`` steps consecutive
restarts together (at most ``LOCKSTEP_FLOATS`` floats of points at a
time): each round projects every live restart's trial point in one
``project_blocks`` call and scores them in one objective call, then each
restart accepts its step or shrinks it by its own rule, and the gradients
of the accepted rows come from one ``grad`` call. Gradients run only at a
restart's start point and at the steps it accepts, never at a rejected
trial. A restart's arithmetic does not depend on which restarts share its
rounds, so every result is bit-identical to running the restarts one at a
time, whatever ``LOCKSTEP_FLOATS`` is; ``ascend`` is the same engine with
one start. A group shrinks as its restarts finish, so an objective sees
every batch size up to the group's, round after round (16 points down to
1 in a ``product_outer`` support search); each size costs one stacked
evaluation, with no Python loop over the points.

Every search entry point takes its budget as a required ``SearchConfig``
from its caller; none has a default budget.

Projection: every ascent step is projected onto the product of simplices
by ``project_blocks``, which the ascent looks up in this module on every
round. It takes one point or a batch of them and has three paths, all
bit-identical to a per-block sort projection: one point of one block is
``project_simplex``; other equal blocks are one sort along the last axis
of a (points x blocks, size) view; unequal blocks are projected one block
column at a time. Equal blocks are the joint objectives (one block), the
fixed-input objectives (one block per input symbol) and a region search
whose two component auxiliaries have one size, as on the worked product
(2 x 512 for ``product_outer``, 2 x 128 for ``semi_deterministic``).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "SearchConfig",
    "SearchResult",
    "project_simplex",
    "project_blocks",
    "simplex_grid",
    "simplex_grid_size",
    "ascend",
    "maximize",
    "Line",
    "envelope",
    "envelope_min",
    "kelley_min",
]

# the objective contract of the module docstring
Objective = Callable[[np.ndarray], tuple[np.ndarray, Callable[[Sequence[int]], np.ndarray]]]

# kelley_min stops once its best sampled lambda is this close, in bits, to
# the minimum of its lower model
KELLEY_TOL = 1e-9

# step-size control of the projected ascent in _lockstep
STEP_INIT = 0.5
STEP_SHRINK = 0.5
STEP_GROW = 1.6
STEP_MAX = 64.0
MIN_STEP = 1e-12
IMPROVE_TOL = 1e-9
# a restart converges after this many accepted steps in a row that each
# gained less than IMPROVE_TOL
PATIENCE = 4
# maximize steps at most this many floats of restart points together: an
# objective's batch buffers grow with the batch, while the per-round
# overhead that lockstep saves is already small next to the arithmetic of
# this many floats (the 16-float Marton searches of a binary-input pair
# step all their restarts together, a 1024-float product_outer support
# search 16 at a time, the 4096-float Marton and 4624-float UV searches on
# the worked product 4 and 3 at a time)
LOCKSTEP_FLOATS = 16384


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs shared by all searches."""

    restarts: int = 64
    max_iters: int = 200
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


@functools.lru_cache(maxsize=None)
def _ranks(n: int) -> np.ndarray:
    """1.0, 2.0, ..., n: the divisors of a projection's running sums, made
    once per size."""
    ranks = np.arange(1.0, n + 1)
    ranks.flags.writeable = False
    return ranks


def _project_vector(v: np.ndarray, block: int) -> np.ndarray:
    """``project_simplex`` of a flat float vector, naming it ``block`` if it
    fails."""
    u = np.sort(v)[::-1]
    # q_k = (u_1 + ... + u_k - 1) / k, the threshold if k entries stay positive
    q = np.cumsum(u)
    q -= 1.0
    q /= _ranks(v.size)
    cond = u > q
    k = v.size - int(cond[::-1].argmax())
    # an inf or nan entry leaves cond all false or the last sum not finite
    if not (cond[k - 1] and math.isfinite(q[-1])):
        raise _unprojectable(block)
    out = v - q[k - 1]
    np.maximum(out, 0.0, out=out)
    return out


def _project_rows(rows: np.ndarray, blocks: int, first: int) -> np.ndarray:
    """``project_simplex`` of every row of a (rows, size) array, bit for
    bit: the same steps along the last axis, one sort for all rows (one row
    is ``_project_vector``, which skips the row indexing). Row r is block
    ``first + r % blocks`` of its point, the block a ValueError names."""
    if len(rows) == 1:
        return _project_vector(rows[0], first)[None]
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    q = np.cumsum(u, axis=1)
    q -= 1.0
    q /= _ranks(n)
    cond = u > q
    index = (np.arange(len(rows)), n - 1 - cond[:, ::-1].argmax(axis=1))
    ok = cond[index] & np.isfinite(q[:, -1])
    if not ok.all():
        raise _unprojectable(first + int(ok.argmin()) % blocks)
    out = rows - q[index][:, None]
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


def project_blocks(v: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Euclidean projection of v onto the product of simplices whose sizes
    are ``block_sizes``, in order; a 2-D v is a batch of points, one per
    row, each projected on its own.

    Three paths, each bit-identical to ``project_simplex`` on every block:
    one point of one block is ``project_simplex`` itself; other equal
    blocks are one sort along the last axis of a (points x blocks, size)
    view; unequal blocks are projected one block column at a time. Raises
    ValueError naming, within its point, the first block with an entry
    that is not finite.
    """
    v = np.asarray(v, dtype=float)
    points = v if v.ndim == 2 else v.reshape(1, -1)
    size = block_sizes[0]
    if block_sizes.count(size) == len(block_sizes):
        blocks = len(block_sizes)
        out = _project_rows(points.reshape(-1, size), blocks, 0).reshape(points.shape)
    else:
        out = np.empty_like(points)
        start = 0
        for i, b in enumerate(block_sizes):
            out[:, start : start + b] = _project_rows(points[:, start : start + b], 1, i)
            start += b
    return out if v.ndim == 2 else out[0]


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


def _lockstep(
    fun: Objective,
    starts: np.ndarray,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
) -> list[tuple[float, np.ndarray, int, bool]]:
    """Projected ascent from every row of ``starts`` at once, one batched
    objective call per round; returns (value, point, iterations, converged)
    per start, in order.

    Each restart follows its own sequential rule, in its own step size,
    stall count and iteration count: from a trial at step size s it accepts
    the point when the value rises by more than 1e-15 (then takes the
    gradient there and grows s), and otherwise halves s and tries again
    within the same iteration. It converges when s falls below MIN_STEP,
    when the projected trial does not move the point, or after
    PATIENCE accepted steps in a row that each gained less than
    IMPROVE_TOL; it stops unconverged after ``cfg.max_iters`` iterations.
    A restart's value only rises, so its last point is its best.
    """
    x = project_blocks(starts, block_sizes)
    values, grad = fun(x)
    results: list = [None] * len(x)
    values = values.tolist()
    live = []
    for i, value in enumerate(values):
        if math.isfinite(value):
            live.append(i)
        else:
            logging.getLogger(__name__).warning("restart aborted: non-finite objective")
            results[i] = (-math.inf, x[i].copy(), 0, False)
    if not live:
        return results
    # per live restart: its point and gradient as rows, the rest as lists
    x, g = x[live], grad(live)
    v = [values[i] for i in live]
    step = [STEP_INIT] * len(live)
    stall = [0] * len(live)
    it = [1] * len(live)
    while live:
        # x + step * g, row by row
        xn = np.array(step)[:, None] * g
        xn += x
        xn = project_blocks(xn, block_sizes)
        shift = np.abs(xn - x).max(axis=1).tolist()
        # a trial that does not move its point ends the restart, converged
        done, moved = {}, []
        for j, d in enumerate(shift):
            if d < 1e-15:
                done[j] = True
            else:
                moved.append(j)
        if moved:
            trial = xn if len(moved) == len(live) else xn[moved]
            vn, grad = fun(trial)
            accepted = []
            for r, (j, value) in enumerate(zip(moved, vn.tolist())):
                if not value > v[j] + 1e-15:
                    step[j] *= STEP_SHRINK
                    if step[j] < MIN_STEP:
                        done[j] = True
                    continue
                accepted.append(r)
                gain, v[j] = value - v[j], value
                step[j] = min(step[j] * STEP_GROW, STEP_MAX)
                if gain < IMPROVE_TOL:
                    stall[j] += 1
                    if stall[j] >= PATIENCE:
                        done[j] = True
                        continue
                else:
                    stall[j] = 0
                if it[j] == cfg.max_iters:
                    done[j] = False
                else:
                    it[j] += 1
            if len(accepted) == len(live):
                x, g = trial, grad(accepted)
            elif accepted:
                rows = [moved[r] for r in accepted]
                x[rows] = trial[accepted]
                g[rows] = grad(accepted)
        if done:
            for j, converged in done.items():
                results[live[j]] = (v[j], x[j].copy(), it[j], converged)
            keep = [j for j in range(len(live)) if j not in done]
            x, g = x[keep], g[keep]
            live, v, step, stall, it = ([a[j] for j in keep] for a in (live, v, step, stall, it))
    return results


def ascend(
    fun: Objective,
    x0: np.ndarray,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
) -> tuple[float, np.ndarray, int, bool]:
    """Single projected-gradient ascent run from one start: the lockstep
    engine with one row. Returns (best_value, best_point, iterations,
    converged)."""
    return _lockstep(fun, np.asarray(x0, dtype=float).reshape(1, -1), block_sizes, cfg)[0]


def _start_points(
    block_sizes: Sequence[int], cfg: SearchConfig, seeds: Sequence[np.ndarray]
) -> Iterator[np.ndarray]:
    """The start of every restart of ``maximize``, in restart order, each
    drawn when it is asked for."""
    seeds = [np.asarray(s, dtype=float).ravel() for s in seeds]
    total = sum(block_sizes)
    for s in seeds:
        if s.size != total:
            raise ValueError(f"seed has size {s.size}, expected {total}")
    # each distinct seed once (byte for byte), in order of first appearance;
    # the keys are copies, so the table is dropped before the search starts
    unused = iter(list({s.tobytes(): s for s in seeds}.values()))

    for i in range(cfg.restarts):
        seed = next(unused, None) if i % 4 == 3 else None
        if seed is not None:
            yield seed
        else:
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(i,)))
            yield _init_point(1 if i % 4 == 2 else 0, rng, block_sizes)
    # seeds left without a slot get appended restarts
    yield from unused


def maximize(
    fun: Objective,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
    seeds: Sequence[np.ndarray] = (),
) -> SearchResult:
    """Multi-start projected gradient ascent over a product of simplices.

    fun follows the module's objective contract. Restart i draws its start
    from kind i%4: Dirichlet(1), Dirichlet(1), Dirichlet(0.1), or the
    caller's next unused seed, in order; a seed slot with none left draws
    Dirichlet(1). Each distinct seed (byte for byte) starts exactly one
    restart, appended when restarts < 4*len. Consecutive restarts step in
    lockstep, in groups of at most ``LOCKSTEP_FLOATS`` floats of points.
    """
    starts = _start_points(block_sizes, cfg, seeds)
    group = max(1, LOCKSTEP_FLOATS // sum(block_sizes))
    results = []
    while batch := list(itertools.islice(starts, group)):
        results += _lockstep(fun, np.array(batch), block_sizes, cfg)

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


@dataclass(frozen=True)
class Line:
    """The line ``value + slope*(x - lam)`` in lambda, sampled at ``lam``."""

    lam: float
    value: float
    slope: float

    def at(self, x: float) -> float:
        # at x = lam this is value bit for bit: a run that stops on its one
        # sample reports that sample exactly
        return self.value + self.slope * (x - self.lam)


def envelope(lines: Sequence[Line], x: float) -> Line | None:
    """The highest of ``lines`` at x, the first on ties (None for no lines):
    the active line of their upper envelope there."""
    return max(lines, key=lambda line: line.at(x), default=None)


def envelope_min(lines: Sequence[Line]) -> float:
    """The first minimizer over [0, 1] of the lines' upper envelope among 0,
    1 and the lines' pairwise crossings, in that order."""
    crossings = (
        (b.value - a.value + a.slope * a.lam - b.slope * b.lam) / (a.slope - b.slope)
        for a, b in itertools.combinations(lines, 2)
        if a.slope != b.slope
    )
    return min(
        (c for c in (0.0, 1.0, *crossings) if 0.0 <= c <= 1.0),
        key=lambda x: envelope(lines, x).at(x),
    )


def kelley_min(f: Callable[[float, Line | None], Line]) -> tuple[float, list[Line]]:
    """Minimize over [0, 1] a convex function known through lines below it
    (Kelley's cutting-plane method in one dimension).

    f(lam, active) samples a line below the function at lam, such as the
    weighted sum rate of one auxiliary, seeded with ``active``, the
    envelope's line at lam (None at first). The upper envelope L of all
    lines is a lower bound of the function. The first sample is at 1/2 and
    each next one at ``envelope_min``, until the least L at a sampled
    lambda is within ``KELLEY_TOL`` of min L. It terminates: every step
    either stops or samples a new lambda, and once the argmin of L is a
    sampled lambda the gap is at most 0.

    Returns (lam, lines): the sampled lambda with the least L and every line
    in sampling order. L there, ``envelope(lines, lam).at(lam)``, is at most
    min L + ``KELLEY_TOL``, so a search that falls short at some lambda
    cannot lift it above the function's minimum plus that.
    """
    lines: list[Line] = []
    x = 0.5
    while True:
        lines.append(f(x, envelope(lines, x)))
        x = envelope_min(lines)
        lam = min((line.lam for line in lines), key=lambda y: envelope(lines, y).at(y))
        if envelope(lines, lam).at(lam) - envelope(lines, x).at(x) <= KELLEY_TOL:
            return lam, lines
