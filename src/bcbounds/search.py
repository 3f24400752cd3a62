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
``grad(rows)`` returns an ascent direction at each of the points
``X[rows]``, one per row, computed only when called: the gradient, or a
positive rescaling of it per simplex block. Every objective here is an
``objectives.JointObjective``, which maps the batch to one batch of
tensors per table and makes one ``InfoFunctional.value_and_grad`` call
per table, however many rows the batch has.

The ascent is lockstep, speculative and value-first. ``maximize`` runs
its restarts as one stream, at most ``LOCKSTEP_FLOATS`` floats of points
live at a time. Each round the slots of restarts that ended take the
next starts, every live restart's trials and every new start are
projected in one ``project_blocks`` call and scored in one objective
call, each restart replays its trials by its own rule, and the
gradients of the accepted trials and the new starts come from one
``grad`` call, so gradients run only at start points and accepted steps.
A restart at step s tries s, s/2, s/4, ... one after another as each is
rejected, and a round scores the first ``depth`` of them together, so a
rejected trial among them costs no round of its own. The depth is
min(``SPECULATE_DEPTH``, ``SPECULATE_FLOATS`` // floats of the live
points), at least 1: 3 up to 341 floats, 2 up to 512 and 1 above. Halving
is exact and a restart's arithmetic does not depend on which rows share
its rounds, so every result is bit-identical to running the restarts one
at a time, one trial at a time, whatever ``LOCKSTEP_FLOATS`` and the
depth are; ``ascend`` is the same engine with one start. While starts
wait the live points take nearly ``LOCKSTEP_FLOATS`` floats, 16 times
``SPECULATE_FLOATS``, so each live restart has one trial a round and an
objective sees one batch size (16 points in a ``product_outer`` support
search; a trial that does not move its point is not scored). It sees
other sizes only at the stream's end, where few points may be live: the
8 restarts of a 16-float Marton search, all live from the first round,
score up to 24 trials a round.

Every search entry point takes its budget as a required ``SearchConfig``
from its caller; none has a default budget.

Projection: every ascent step is projected onto the product of simplices
by ``project_blocks``, which the ascent looks up in this module on every
round. It takes one point or a batch of them and projects each run of
consecutive equal blocks as one sort along the last axis of a (points,
blocks, size) view, bit-identical to a per-block sort projection. The
joint objectives are one run of one block, and a region search whose two
component auxiliaries have one size is one run of two blocks, as on the
worked product (2 x 512 for ``product_outer``, 2 x 128 for
``semi_deterministic``). A shared-input objective is one block of p(x)
when it searches the law, then its conditionals, one block per input
symbol and table: on the worked product the UV search is p(x), one
block of 16, then p(u|x) and p(v|x), 32 blocks of 17.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

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
# a lockstep round scores min(SPECULATE_DEPTH, SPECULATE_FLOATS // floats
# of the live points) trials of each live restart, at least one: 3 up to
# 341 floats, 2 up to 512 and 1 above. Where few points are live and a
# round's fixed cost outweighs its arithmetic (the 16-float Marton searches
# of a binary-input pair, 128 floats) a rejected trial then costs no round
# of its own; while starts wait the live points take nearly LOCKSTEP_FLOATS
# floats, so every search scores one trial a restart then
SPECULATE_DEPTH = 3
SPECULATE_FLOATS = 1024
# maximize steps at most this many floats of restart points together: an
# objective's batch buffers grow with the batch, while the per-round
# overhead that lockstep saves is already small next to the arithmetic of
# this many floats (the 16-float Marton searches of a binary-input pair
# step all their restarts together, at speculative depth 3, a 1024-float
# product_outer support search 16 at a time and the 560-float UV search
# on the worked product 29 at a time, so all its 10 restarts, both at
# depth 1)
LOCKSTEP_FLOATS = 16384


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs shared by all searches."""

    restarts: int = 64
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        # a float or NaN budget would pass the bounds below and then fail, or
        # never run out, inside the search
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _project_rows(rows: np.ndarray, out: np.ndarray, first: int) -> None:
    """``project_simplex`` of every row along the last axis of a (points,
    blocks, size) array into ``out`` of that shape, one sort for all rows.
    Row (p, b) is block ``first + b`` of point p, the block a ValueError
    names."""
    n = rows.shape[2]
    # sorting in out keeps the large temporaries to two: a third, freed on
    # top of the heap, makes malloc hand the memory back, and the next call
    # faults it in again
    out[...] = rows
    out.sort(axis=2)
    u = out.reshape(-1, n)[:, ::-1]
    # q_k = (u_1 + ... + u_k - 1) / k, the threshold if k entries stay positive
    q = np.cumsum(u, axis=1)
    q -= 1.0
    q /= _ranks(n)
    cond = u > q
    # the flat index of each row's last k with u_k > q_k
    at = np.arange(n - 1, q.size, n) - cond[:, ::-1].argmax(axis=1)
    # an inf or nan entry leaves cond all false or the last sum not finite
    ok = cond.ravel()[at] & np.isfinite(q[:, -1])
    if not ok.all():
        raise _unprojectable(first + int(ok.argmin()) % rows.shape[1])
    np.subtract(rows, q.ravel()[at].reshape(rows.shape[:2] + (1,)), out=out)
    np.maximum(out, 0.0, out=out)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex.

    Sort-based algorithm (L. Condat, "Fast projection onto the simplex and
    the l1 ball", Math. Prog. 2016): with u the entries in decreasing order,
    take the last k with u_k > (u_1 + ... + u_k - 1) / k, shift v by that
    threshold and clamp at zero. Raises ValueError (naming block 0) when an
    entry is not finite.
    """
    v = np.asarray(v, dtype=float).reshape(1, 1, -1)
    out = np.empty_like(v)
    _project_rows(v, out, 0)
    return out.ravel()


def project_blocks(v: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Euclidean projection of v onto the product of simplices whose sizes
    are ``block_sizes``, in order; a 2-D v is a batch of points, one per
    row, each projected on its own.

    Each run of consecutive equal blocks is one sort along the last axis of
    a (points, blocks, size) view, bit-identical to ``project_simplex`` on
    every block. Raises ValueError naming the first block of size below 1,
    when the sizes do not add up to a point's length, and naming, within
    its point, the first block with an entry that is not finite.
    """
    v = np.asarray(v, dtype=float)
    points = v if v.ndim == 2 else v.reshape(1, -1)
    small = [i for i, size in enumerate(block_sizes) if size < 1]
    if small:
        raise ValueError(f"block {small[0]} has size {block_sizes[small[0]]}, below 1")
    if sum(block_sizes) != points.shape[1]:
        raise ValueError(f"block sizes {list(block_sizes)} do not add up to {points.shape[1]}")
    out = np.empty_like(points)
    start = first = 0
    for size, run in itertools.groupby(block_sizes):
        blocks = len(list(run))
        end = start + blocks * size
        # splitting the last axis keeps both slices views
        shape = (len(points), blocks, size)
        _project_rows(points[:, start:end].reshape(shape), out[:, start:end].reshape(shape), first)
        start, first = end, first + blocks
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
    starts: Iterable[np.ndarray],
    block_sizes: Sequence[int],
    cfg: SearchConfig,
    width: int,
) -> list[tuple[float, np.ndarray, int, bool]]:
    """Projected ascent from each point of the stream ``starts``, at most
    ``width`` restarts live at a time (see the module docstring); returns
    (value, point, iterations, converged) per start, in order. A start
    whose value is not finite ends unconverged at its projected start.

    Each restart follows its own sequential rule, in its own step size,
    stall count and iteration count: from a trial at step size s it accepts
    the point when the value rises by more than 1e-15 (then takes the
    gradient there and grows s), and otherwise halves s and tries again
    within the same iteration. It converges when s falls below MIN_STEP,
    when the projected trial does not move the point, or after
    PATIENCE accepted steps in a row that each gained less than
    IMPROVE_TOL; it stops unconverged after ``cfg.max_iters`` iterations.
    A restart's value only rises, so its last point is its best.

    A round runs that rule on up to ``depth`` trials of each restart at
    once: depth is min(SPECULATE_DEPTH, SPECULATE_FLOATS // floats of the
    live points), at least 1, and the trials are at s, s/2, ..., none below
    MIN_STEP. The restart replays them in order: it converges at the first
    that does not move its point (no later one is scored), goes on from the
    first that rises, and otherwise goes on at its last trial's step,
    halved. A round of one trial per restart gathers no rows.
    """
    starts = iter(starts)
    floats = sum(block_sizes)
    results: list = []
    # per live restart: its point and gradient as rows, the rest as lists
    x = g = np.empty((0, floats))
    live, v, step, stall, it = [], [], [], [], []
    while True:
        n = len(live)
        new = list(itertools.islice(starts, width - n))
        if not live and not new:
            return results
        depth = max(1, min(SPECULATE_DEPTH, SPECULATE_FLOATS // (n * floats))) if n else 1
        # restart j's trials at s, s/2, ... in order: at most depth of them,
        # none below MIN_STEP
        steps, owner = [], []
        for j, s in enumerate(step):
            for _ in range(depth):
                steps.append(s)
                owner.append(j)
                s *= STEP_SHRINK
                if s < MIN_STEP:
                    break
        m = len(steps)
        # one trial per restart gathers no rows
        base, gk = (x, g) if m == n else (x[owner], g[owner])
        # x + step * g row by row, then the new starts, in one projection
        xn = np.array(steps)[:, None] * gk
        xn += base
        xn = project_blocks(np.concatenate([xn, new]) if new else xn, block_sizes)
        shift = np.abs(xn[:m] - base).max(axis=1).tolist()
        # a trial that does not move its point ends the restart, converged,
        # unless an earlier trial of the restart rises; either way no later
        # trial of it is scored
        done, moved = {}, []
        for t, d in enumerate(shift):
            j = owner[t]
            if j in done:
                continue
            if d < 1e-15:
                done[j] = True
            else:
                moved.append(t)
        scored = moved + list(range(m, len(xn))) if new else moved
        trial = xn if len(scored) == len(xn) else xn[scored]
        # no call when every trial stalled in place and no start waits
        vn, grad = fun(trial) if scored else (np.empty(0), None)
        vn = vn.tolist()
        # each restart replays its scored trials in order and goes on with
        # the first that rises, or else with its last one's step, halved
        accepted, at = [], []
        for j, trials in itertools.groupby(range(len(moved)), lambda r: owner[moved[r]]):
            for r in trials:
                step[j] = steps[moved[r]]
                value = vn[r]
                if value > v[j] + 1e-15:
                    break
            else:
                step[j] *= STEP_SHRINK
                if step[j] < MIN_STEP:
                    done[j] = True
                continue
            # a later trial that stalled in place does not end the restart
            done.pop(j, None)
            accepted.append(r)
            at.append(j)
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
        # a new start's value opens its restart, unless it is not finite
        opened = []
        for r in range(len(moved), len(scored)):
            if math.isfinite(vn[r]):
                opened.append(r)
                live.append(len(results))
                v.append(vn[r])
                step.append(STEP_INIT)
                stall.append(0)
                it.append(1)
                results.append(None)
            else:
                logging.getLogger(__name__).warning("restart aborted: non-finite objective")
                results.append((-math.inf, trial[r].copy(), 0, False))
        rows = accepted + opened
        # every trial moved and was accepted, and every new start opened
        if len(rows) == len(xn):
            x, g = trial, grad(rows)
        elif rows:
            grads = grad(rows)
            x[at] = trial[accepted]
            g[at] = grads[: len(accepted)]
            if opened:
                x = np.concatenate([x, trial[opened]])
                g = np.concatenate([g, grads[len(accepted) :]])
        if done:
            for j, converged in done.items():
                results[live[j]] = (v[j], x[j].copy(), it[j], converged)
            keep = [j for j in range(len(live)) if j not in done]
            x, g = x[keep], g[keep]
            live, v, step, stall, it = ([a[j] for j in keep] for a in (live, v, step, stall, it))


def ascend(
    fun: Objective,
    x0: np.ndarray,
    block_sizes: Sequence[int],
    cfg: SearchConfig,
) -> tuple[float, np.ndarray, int, bool]:
    """Single projected-gradient ascent run from one start: the lockstep
    engine with one start. Returns (best_value, best_point, iterations,
    converged)."""
    return _lockstep(fun, [np.asarray(x0, dtype=float).ravel()], block_sizes, cfg, 1)[0]


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
    restart, appended when restarts < 4*len. The restarts step in lockstep,
    at most ``LOCKSTEP_FLOATS`` floats of points live at a time, and a
    restart that ends frees its slot for the next start.
    """
    width = max(1, LOCKSTEP_FLOATS // sum(block_sizes))
    results = _lockstep(fun, _start_points(block_sizes, cfg, seeds), block_sizes, cfg, width)

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
