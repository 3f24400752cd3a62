"""Reference oracles that only the tests call.

Each one recomputes a quantity of the package by an independent route:

- ``endpoint_sr``: the lambda-curve endpoints by a search over p(w,x) only;
- ``f_envelope_oracle``: the closed-form f of the worked component by a
  linear program over an upper concave envelope (the one user of scipy);
- ``uniform_input_check``: uniform input's optimality on the worked
  component by a sweep over an input-law grid;
- ``witness_component_values``: the per-component information values
  behind the 44/15 UV witness;
- ``uv_table``: the UV rows over the whole p(u,v,x), the reference that
  ``regions._uv_side_tables`` reproduces over p(u,x) and p(v,x), and a
  large table for the evaluation tests;
- ``project_blocks_per_block``: the sort projection onto a product of
  simplices one block at a time, the reference that
  ``search.project_blocks`` reproduces bit for bit;
- ``run_restart`` and ``maximize_sequential``: the projected ascent one
  restart at a time, the reference that the lockstep engine behind
  ``search.maximize`` and ``search.ascend`` reproduces bit for bit;
- ``keep_marginals_per_tensor`` and ``lattice_grad_per_tensor``: one
  tensor's keep-marginals down a table's keep lattice, and its gradient
  back down it, in the lattice's order of sums;
- ``dense_map_per_unit``, ``dense_marginals_per_tensor``,
  ``dense_adjoint_vector`` and ``dense_grad_per_tensor``: a small table's
  dense map rebuilt one unit tensor at a time down the lattice, and one
  tensor's marginals and gradient through it, one matrix-vector product
  each;
- ``row_values_per_tensor``, ``weigh_per_tensor`` and
  ``grad_per_tensor``: an evaluation's row values (with the linear term
  of the channel's chain rule, on the input law of the path the table
  takes), weighing and adjoint pass one tensor at a time, the reference
  that the batched ``objectives.Evaluation`` and
  ``objectives.JointObjective`` reproduce bit for bit
  (``tensor_objective`` runs the latter on batches of tensors);
- ``weighing_per_call``: the weighing of one gradient call recomputed
  from the call's weight lines, the reference that a compiled
  ``objectives.Weighing`` reproduces bit for bit;
- ``dual_support_per_point``: a region's support for one point's
  right-hand sides as a minimum over the dual-feasible bases, each solved
  on its own, the reference that the stacked dual weight rows of
  ``regions._VertexSystem`` reproduce up to rounding.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from bcbounds.channel import Channel
from bcbounds.counterexample import PAIRS, _witness_components, component, component_branch_aux
from bcbounds.marton import (
    AuxiliaryJoint,
    Cardinalities,
    LambdaPointResult,
    _default_px_list,
    curve_subgradient,
    deterministic_joint,
    fit_joint,
    lambda_sr_value,
    lambda_weights,
    marton_table,
)
from bcbounds.objectives import (
    LOG2_CLIP,
    LOG2E,
    InfoFunctional,
    JointObjective,
    SharedInputObjective,
    mi_terms,
)
from bcbounds.regions import UvAuxiliary, _uv_sides, evaluate_uv_point
from bcbounds.search import (
    IMPROVE_TOL,
    MIN_STEP,
    PATIENCE,
    STEP_GROW,
    STEP_INIT,
    STEP_MAX,
    STEP_SHRINK,
    SearchConfig,
    SearchResult,
    _lockstep,
    _start_points,
    maximize,
    project_blocks,
    simplex_grid,
)


# ------------------------------------------------ lambda-curve endpoints


def _set_partitions(n: int):
    """All labelings of range(n) by cell index, as restricted growth strings."""
    a = [0] * n
    b = [0] * n
    while True:
        yield list(a)
        i = n - 1
        while i > 0 and a[i] == b[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        b[i] = max(b[i - 1], a[i])
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = b[j - 1]


def endpoint_table(c: Channel, endpoint: int) -> InfoFunctional:
    """The reduced endpoint objective over p(w,x): I(W;Z) + I(X;Y|W) at
    lambda=0, I(W;Y) + I(X;Z|W) at lambda=1."""
    if endpoint not in (0, 1):
        raise ValueError("endpoint must be 0 or 1")
    if endpoint == 0:
        terms = mi_terms("w", "z") + mi_terms("x", "y", "w")
    else:
        terms = mi_terms("w", "y") + mi_terms("x", "z", "w")
    return InfoFunctional("wx", (c.nx, c.nx), [terms], channel=c.q)


def endpoint_sr(
    c: Channel, endpoint: int, cfg: SearchConfig | None = None
) -> LambdaPointResult:
    """Reduced endpoint search: at lambda=0 the weighted sum rate equals
    max over p(w,x) of I(W;Z) + I(X;Y|W) (receivers swapped at lambda=1).

    This searches a much smaller space than the full auxiliary joint and
    serves as an independent oracle for the endpoint values.
    """
    fn = endpoint_table(c, endpoint)
    cfg = cfg or SearchConfig(restarts=32, max_iters=200)
    obj = JointObjective([fn], [1.0], None)

    # a maximizing W can be taken as a quantization of X, so for small
    # alphabets seed every deterministic partition and let ascent fix p(x)
    if c.nx <= 5:
        w_maps = [np.asarray(p) for p in _set_partitions(c.nx)]
    else:
        w_maps = [np.zeros(c.nx, dtype=int), np.arange(c.nx)]
    seeds = [
        obj.to_flat([deterministic_joint((c.nx, c.nx), px, [w_map])])
        for px in _default_px_list(c)
        for w_map in w_maps
    ]
    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    pwx = res.point.reshape(c.nx, c.nx)
    # report as a full auxiliary with U=X, V=const so downstream code can
    # evaluate it with the standard formula
    nu = c.nx
    t_full = np.zeros((nu, 1, c.nx, c.nx))
    for x in range(c.nx):
        t_full[x, 0, :, x] = pwx[:, x]
    lam = 0.0 if endpoint == 0 else 1.0
    aux = AuxiliaryJoint(t_full if endpoint == 0 else np.swapaxes(t_full, 0, 1))
    return LambdaPointResult(
        lam=lam,
        value=max(res.value, lambda_sr_value(c, lam, aux)),
        slope=curve_subgradient(c, aux),
        aux=aux,
        converged=res.converged,
    )


# ------------------------------------------------- the f-function envelope


def _hz_minus_hy(points: np.ndarray) -> np.ndarray:
    """H(Z) - H(Y) on the Z-deterministic component, vectorized over rows."""
    pz = np.stack([points[:, 0] + points[:, 1], points[:, 2] + points[:, 3]], axis=1)
    py = np.zeros((points.shape[0], 6))
    for j, (a, b) in enumerate(PAIRS):
        py[:, j] = (points[:, a] + points[:, b]) / 3.0

    def ent(rows):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(rows > 0.0, rows * np.log2(np.where(rows > 0, rows, 1.0)), 0.0)
        return -terms.sum(axis=1)

    return ent(pz) - ent(py)


def f_envelope_oracle(x: float, resolution: int = 32) -> float:
    """Independent oracle for f via an upper concave envelope.

    The best p(u|x) value equals the concave envelope of H(Z) - H(Y) over
    input laws, evaluated at the symmetric point. The envelope is computed
    as a linear program over mixtures of grid distributions: maximize the
    mixed objective subject to the mixture reproducing the target marginal.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    grid = np.array(list(simplex_grid(4, resolution)))
    g = _hz_minus_hy(grid)
    target = np.array([x / 2.0, x / 2.0, (1.0 - x) / 2.0, (1.0 - x) / 2.0])
    res = linprog(
        -g,
        A_eq=grid.T,
        b_eq=target,
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"envelope LP failed: {res.message}")
    return -float(res.fun)


# ------------------------------------------------ uniform-input optimality


def component_seed_joints(
    det: str, prof: Cardinalities, px: np.ndarray
) -> list[np.ndarray]:
    """Both branch constructions embedded into a search profile."""
    out = []
    for branch in ("steep", "flat"):
        # the branch law at input law px: each mass 1/4 at uniform input
        # times 4 px[x], exactly
        aux = component_branch_aux(det, branch)
        nu, nv, nw, _ = aux.shape
        if nu <= prof.nu and nv <= prof.nv and nw <= prof.nw:
            out.append(fit_joint(aux.joint * (4.0 * px), prof.shape(aux.shape[3])))
    return out


@dataclass
class UniformInputReport:
    det: str
    lambdas: tuple
    resolution: int
    uniform_values: dict
    max_excess: float
    argmax_px: np.ndarray
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "orientation": self.det,
            "lambdas": list(self.lambdas),
            "grid_resolution": self.resolution,
            "uniform_value_bits": {str(k): v for k, v in self.uniform_values.items()},
            "max_excess_over_uniform_bits": self.max_excess,
            "argmax_px": [float(v) for v in self.argmax_px],
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def uniform_input_check(
    det: str = "z",
    resolution: int = 16,
    lambdas: tuple = (0.0, 0.5, 1.0),
    cfg: SearchConfig | None = None,
    tolerance: float = 2e-3,
) -> UniformInputReport:
    """Grid check that uniform input maximizes the fixed-input sum rate.

    Sweeps every p(x) with coordinates in multiples of 1/resolution; at
    each grid point the fixed-input search (seeded with both branch
    constructions, which remain valid at any input law) must not beat the
    uniform-input value by more than the tolerance.
    """
    c = component(det)
    cfg = cfg or SearchConfig(restarts=1, max_iters=50)
    prof = Cardinalities.for_sum_rate(c)
    uniform = np.full(4, 0.25)
    table = marton_table(c, prof)

    def value_at(lam: float, px: np.ndarray) -> float:
        # one compiled table for the whole sweep; starts are the two branch
        # constructions plus flat conditionals, all deterministic, ascended
        # in lockstep (each bit for bit as by ``ascend`` on its own)
        fobj = SharedInputObjective([table], lambda_weights(lam)[None], px)
        starts = [fobj.to_flat([t]) for t in component_seed_joints(det, prof, px)]
        starts.append(np.full(sum(fobj.block_sizes), 1.0 / (prof.nu * prof.nv * prof.nw)))
        return max(v for v, _, _, _ in _lockstep(fobj, starts, fobj.block_sizes, cfg, len(starts)))

    uniform_values = {lam: value_at(lam, uniform) for lam in lambdas}
    max_excess = -np.inf
    argmax_px = uniform
    for px in simplex_grid(4, resolution):
        for lam in lambdas:
            excess = value_at(lam, px) - uniform_values[lam]
            if excess > max_excess:
                max_excess = excess
                argmax_px = px
    return UniformInputReport(
        det=det,
        lambdas=tuple(lambdas),
        resolution=resolution,
        uniform_values=uniform_values,
        max_excess=float(max_excess),
        argmax_px=np.asarray(argmax_px, dtype=float),
        tolerance=tolerance,
        passed=max_excess <= tolerance,
    )


# ------------------------------------------------------- the UV witness


def uv_table(c: Channel, nu: int, nv: int) -> InfoFunctional:
    """Rows over p(u,v,x): the three sum-rate branches, then I(U;Y) and I(V;Z)."""
    u_side, v_side = _uv_sides()
    rows = [u + v for u, v in zip(u_side, v_side)] + [u_side[0], v_side[0]]
    return InfoFunctional("uvx", (nu, nv, c.nx), rows, channel=c.q)


def witness_component_values() -> dict[str, float]:
    """Exact per-component information values behind the 44/15 total."""
    p1, p2 = _witness_components(0.8, 0.8)
    pt1 = evaluate_uv_point(component("y"), UvAuxiliary(p1))
    pt2 = evaluate_uv_point(component("z"), UvAuxiliary(p2))
    return {
        "iu1y1": pt1.r1_bound,
        "iv1z1": pt1.r2_bound,
        "ix1z1_given_u1": pt1.sum_y_side - pt1.r1_bound,
        "ix1y1_given_v1": pt1.sum_z_side - pt1.r2_bound,
        "iu2y2": pt2.r1_bound,
        "iv2z2": pt2.r2_bound,
        "ix2z2_given_u2": pt2.sum_y_side - pt2.r1_bound,
        "ix2y2_given_v2": pt2.sum_z_side - pt2.r2_bound,
    }


def project_blocks_per_block(v: np.ndarray, block_sizes) -> np.ndarray:
    """Sort projection of each block onto its simplex, one block at a time:
    the largest k with u_k - (cumsum - 1)/k > 0 over the decreasing entries
    u, then a shift by that threshold and a clamp at zero."""
    v = np.asarray(v, dtype=float).ravel()
    out = np.empty_like(v)
    start = 0
    for b in block_sizes:
        block = v[start : start + b]
        u = np.sort(block)[::-1]
        css = np.cumsum(u) - 1.0
        ks = np.arange(1, b + 1)
        cond = u - css / ks > 0.0
        k = int(ks[cond][-1])
        out[start : start + b] = np.maximum(block - css[k - 1] / k, 0.0)
        start += b
    return out


# ------------------------------------------ the sequential ascent reference


def pointwise(fun):
    """An objective of the search contract (a batch of points in) as a
    function of one point: ``f(x) -> (value, grad)`` with ``grad()`` the
    gradient at x."""

    def f(x):
        values, grad = fun(x[None])
        return float(values[0]), lambda: grad([0])[0]

    return f


def tensor_objective(fn, weight_rows):
    """``JointObjective([fn], weight_rows, None)`` as a function of a batch
    of fn's tensors, each read in C order: their values and ``grad(rows)``,
    the gradients in tensor shape."""
    obj = JointObjective([fn], weight_rows, None)

    def f(batch):
        values, grad = obj(np.reshape(batch, (len(batch), -1)))
        return values, lambda rows: grad(rows).reshape((len(rows),) + fn.shape)

    return f


def run_restart(fun, x0, block_sizes, cfg):
    """One restart of the projected ascent on its own; ``fun`` maps one
    point to (value, grad). Returns (best_value, best_point, iterations,
    converged)."""
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
            if stall >= PATIENCE:
                converged = True
                break
        else:
            stall = 0
    return best_v, best_x, it, converged


def maximize_sequential(fun, block_sizes, cfg, seeds=()):
    """``search.maximize`` with its restarts run one after another by
    ``run_restart``, from the same starts."""
    f = pointwise(fun)
    starts = _start_points(block_sizes, cfg, seeds)
    results = [run_restart(f, x0, block_sizes, cfg) for x0 in starts]
    best_i = 0
    for i in range(1, len(results)):
        if results[i][0] > results[best_i][0]:
            best_i = i
    return SearchResult(
        value=results[best_i][0],
        point=results[best_i][1],
        restart_index=best_i,
        converged=any(r[3] for r in results),
        restart_values=[r[0] for r in results],
    )


# ------------------------------------- the per-tensor evaluation reference


def keep_marginals_per_tensor(fn, t):
    """The keep-marginals of one tensor t down the table's keep lattice,
    largest first: each summed from its parent's array (from t for a
    root), each in its own shape."""
    kept = []
    for keep in fn._keeps:
        src = t if keep.parent is None else kept[keep.parent]
        kept.append(np.add.reduce(src, axis=keep.axes))
    return kept


def lattice_grad_per_tensor(fn, acc):
    """One tensor's gradient from the gradient ``acc[k]`` of each keep, in
    its own shape (None for none), run back down the lattice smallest
    first: each keep's into its parent's, the roots' into a gradient that
    starts at +0.0."""
    acc = list(acc)
    grad = np.zeros(fn.shape)
    for k in reversed(range(len(acc))):
        if acc[k] is None:
            continue
        keep = fn._keeps[k]
        p, g = keep.parent, acc[k].reshape(keep.expand)
        if p is None:
            grad += g
        elif acc[p] is None:
            acc[p] = np.broadcast_to(g, fn._keeps[p].kept)
        else:
            acc[p] = acc[p] + g
    return grad


def dense_map_per_unit(fn):
    """A table's dense map rebuilt one unit tensor at a time: row k holds
    the k-th unit tensor's marginals, from its keep-marginals down the
    lattice (a copy, or a product with the channel marginal), in layout
    order, then its input law when the table has a linear term."""
    size = int(np.prod(fn.shape))
    rows = []
    for k in range(size):
        unit = np.zeros(size)
        unit[k] = 1.0
        kept = keep_marginals_per_tensor(fn, unit.reshape(fn.shape))
        parts = []
        for mg in fn._marginals:
            m = kept[mg.keep].reshape(fn._keeps[mg.keep].work)
            parts.append(m if mg.q is None else m @ mg.q)
        if fn.linear is not None:
            parts.append(kept[fn._px_keep])
        rows.append(np.concatenate([p.ravel() for p in parts]))
    return np.array(rows)


def dense_marginals_per_tensor(fn, t):
    """One tensor's marginals, each in its working shape, and its input law
    (None without a linear term) through the table's dense map: one
    vector-matrix product."""
    filled = np.reshape(t, -1) @ fn._map
    ms = [filled[a:b].reshape(sh) for (a, b), sh in zip(fn._bounds, fn._shapes)]
    return ms, None if fn.linear is None else filled[fn._offsets[-1] :]


def dense_adjoint_vector(fn, dh, w):
    """What the dense map's adjoint takes for one tensor under the weight
    line ``w``: the entropy derivatives ``dh`` over the whole layout times
    minus each marginal's weight, then w.L on the input-law columns."""
    per_marginal = w @ fn.coeffs
    d = np.zeros(fn._map.shape[1])
    d[: fn._offsets[-1]] = dh * np.repeat(-per_marginal, np.diff(fn._offsets))
    if fn.linear is not None:
        d[fn._offsets[-1] :] = w @ fn.linear
    return d


def dense_grad_per_tensor(fn, dh, w):
    """One tensor's gradient under the weight line ``w`` through the dense
    map: one matrix-vector product with ``dense_adjoint_vector``."""
    return (fn._map @ dense_adjoint_vector(fn, dh, w)).reshape(fn.shape)


def row_values_per_tensor(fn, batch, entropies):
    """Row values C @ H + L @ p_X of each tensor of a batch, from its entropy
    vector and its input law (the lattice's keep-marginal of the input
    axis, or the dense map's input-law columns): one matrix-vector product
    per tensor and term, as for a single one."""
    values = np.empty((len(entropies), len(fn.coeffs)))
    for t, row, out in zip(batch, entropies, values):
        np.matmul(fn.coeffs, row, out=out)
        if fn.linear is not None:
            if fn._map is None:
                px = keep_marginals_per_tensor(fn, t)[fn._px_keep]
            else:
                px = dense_marginals_per_tensor(fn, t)[1]
            out += fn.linear @ px
    return values


def weigh_per_tensor(table_values, weight_rows):
    """Each tensor's objective value, the minimum of its weighted row values
    over ``weight_rows``, and the first minimal weight row, tensor by
    tensor."""
    values, weights = np.empty(len(table_values)), np.empty(table_values.shape)
    for r, row in enumerate(table_values):
        scores = weight_rows @ row
        k = int(scores.argmin())
        values[r], weights[r] = scores[k], weight_rows[k]
    return values, weights


def grad_per_tensor(ev, rows, weights):
    """Gradients at the tensors ``rows`` of the evaluation ``ev``, each under
    its row of ``weights``, one tensor at a time by the arithmetic of a
    single one on the path its table takes."""
    fn = ev._fn
    grads = np.zeros((len(rows),) + fn.shape)
    for grad, r, w in zip(grads, rows, weights):
        # log2(max(m, GRAD_CLIP)) from the forward pass's clipped logs, plus
        # log2 e, over the tensor's whole buffer
        dh = np.maximum(ev._logs[r], LOG2_CLIP) + LOG2E
        if fn._map is not None:
            grad[...] = dense_grad_per_tensor(fn, dh, w)
            continue
        per_marginal = w @ fn.coeffs
        acc = [None] * len(fn._keeps)
        for s in per_marginal.nonzero()[0]:
            mg, a, b = fn._marginals[s], fn._offsets[s], fn._offsets[s + 1]
            d = dh[a:b].reshape(fn._shapes[s]) * -per_marginal[s]
            if mg.q is not None:
                d = d @ mg.q.T
            d = d.reshape(fn._keeps[mg.keep].kept)
            acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
        if fn.linear is not None:
            # the linear term's gradient w.L, the same along every other axis
            k = fn._px_keep
            d = w @ fn.linear
            acc[k] = d if acc[k] is None else acc[k] + d
        grad[...] = lattice_grad_per_tensor(fn, acc)
    return grads


def weighing_per_call(fn, weights):
    """The weighing of one gradient call whose tensors take the lines of
    ``weights``, recomputed in the call: the marginal weights of every
    line in one stacked product, the marginals with weight in some line,
    their hull [lo, hi) in the flat layout, and minus the weights repeated
    over the hull, one line per tensor."""
    per_marginal = np.matmul(weights[:, None, :], fn.coeffs)[:, 0]
    used = per_marginal.any(axis=0).nonzero()[0].tolist()
    first, last = (used[0], used[-1] + 1) if used else (0, 0)
    lo, hi = int(fn._offsets[first]), int(fn._offsets[last])
    neg = np.repeat(-per_marginal[:, first:last], np.diff(fn._offsets)[first:last], axis=1)
    return used, lo, hi, neg


# --------------------------------------------- the per-point dual reference


def dual_support_per_point(normals, rhs, w, fix_r0):
    """Support of {a . R <= rhs for the rows, R0 <= fix_r0 when given,
    R >= 0} in direction ``w`` at one point, by LP duality: the minimum of
    mu . b over the nonsingular 3-subsets of the constraints whose duals mu,
    solved from A_B^T mu = w, are >= 0 up to rounding."""
    A = [list(map(float, a)) for a in normals] + [[-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]
    b = list(rhs) + [0.0] * 3
    if fix_r0 is not None:
        A.append([1.0, 0, 0])
        b.append(fix_r0)
    A, b, w = np.asarray(A), np.asarray(b), np.asarray(w, dtype=float)
    best = np.inf
    for combo in itertools.combinations(range(len(b)), 3):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        mu = np.linalg.solve(sub.T, w)
        if (mu >= -1e-12 * np.abs(w).max()).all():
            best = min(best, float(mu @ b[list(combo)]))
    return best
