"""Lambda-weighted sum rates for broadcast channels.

For a channel q(y,z|x), an auxiliary joint p(u,v,w,x) and lambda in [0,1],
the weighted sum rate is

    lambda*I(W;Y) + (1-lambda)*I(W;Z) + I(U;Y|W) + I(V;Z|W) - I(U;V|W).

Its maximum over auxiliaries upper-bounds every lambda-combination of the
inner-bound sum rate, is convex in lambda, and its minimum over lambda is
the inner-bound sum rate itself. Maximizations here are nonconvex, so all
reported maxima are certified lower bounds (exact evaluations at feasible
points). At a fixed auxiliary the weighted sum rate is a line in lambda,
below the curve, so the sum-rate driver (``search.kelley_min``) keeps every
evaluated auxiliary's line and reports the minimum over sampled lambdas of
their upper envelope, which is at most the inner-bound sum rate plus
``search.KELLEY_TOL``.

Every search and evaluation here runs one table per channel and profile,
``marton_table``, with rows I(W;Y), I(W;Z) and I(U;Y|W) + I(V;Z|W) -
I(U;V|W). Lambda is only the row weights (lambda, 1-lambda, 1), and the
curve's slope I(W;Y) - I(W;Z) is the first row minus the second.

Cardinality caps: searches default to |U| <= min(nx, ny),
|V| <= min(nx, nz), |W| <= nx, which suffice for the weighted sum rate.
Profiles are explicit and echoed into every result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channel import (
    Channel,
    capacity,
    deterministic_map,
    is_deterministic,
    make_product,
    product_tensor,
)
from .kernel import entropy_of_array  # noqa: F401  (bench/selftest.py traces this site)
from .objectives import FixedInputObjective, InfoFunctional, JointObjective, mi_terms
from .search import (
    SearchConfig,
    ascend,
    kelley_min,
    maximize,
    project_simplex,
    simplex_grid,
)

__all__ = [
    "Cardinalities",
    "AuxiliaryJoint",
    "LambdaPointResult",
    "LambdaCurve",
    "marton_table",
    "lambda_weights",
    "lambda_sr_value",
    "curve_subgradient",
    "maximize_lambda_sr_at_input",
    "lambda_sr_global",
    "build_lambda_curve",
    "marton_sum_rate",
    "check_factorization",
    "check_min_max_equality",
    "outer_auxiliary",
    "Check",
]


@dataclass(frozen=True)
class Cardinalities:
    """Auxiliary alphabet sizes (|U|, |V|, |W|) for a search."""

    nu: int
    nv: int
    nw: int

    @classmethod
    def for_sum_rate(cls, c: Channel) -> "Cardinalities":
        return cls(min(c.nx, c.ny), min(c.nx, c.nz), c.nx)

    @classmethod
    def for_region(cls, c: Channel) -> "Cardinalities":
        return cls(c.nx, c.nx, c.nx + 4)

    def shape(self, nx: int) -> tuple[int, int, int, int]:
        """Shape of a joint p(u, v, w, x) over ``nx`` inputs."""
        return (self.nu, self.nv, self.nw, nx)


def checked_joint(joint, axes: str, name: str) -> np.ndarray:
    """``joint`` as a float law with one axis per letter of ``axes``; raises
    on an entry below -1e-10 or a total off 1 by more than 1e-9, and clamps
    the remaining rounding negatives to 0."""
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != len(axes):
        raise ValueError(f"{name} must have axes ({', '.join(axes)})")
    if arr.min() < -1e-10:
        raise ValueError(f"negative entry {arr.min()} in {name}")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {arr.sum()}")
    return np.where(arr < 0.0, 0.0, arr)


def deterministic_joint(
    shape: Sequence[int], px: np.ndarray, maps: Sequence[np.ndarray | None]
) -> np.ndarray:
    """Law of the given shape with mass px[x] at the labels
    (maps[0][x], ..., x), input axis last; a map of None is label 0."""
    t = np.zeros(shape)
    t[(*(0 if m is None else m for m in maps), np.arange(shape[-1]))] = px
    return t


def fit_joint(t: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """A law ``t`` fitted to ``shape`` as a search seed: the axes ``shape``
    has at size one are summed out, the others zero-padded at their end.
    Raises if an axis would shrink."""
    t = np.asarray(t, dtype=float)
    if t.ndim == len(shape):
        for axis in np.flatnonzero(np.asarray(shape) == 1):
            t = t.sum(axis=axis, keepdims=True)
    if t.ndim != len(shape) or any(have > want for have, want in zip(t.shape, shape)):
        raise ValueError(f"cannot fit a law of shape {t.shape} to {tuple(shape)}")
    out = np.zeros(shape)
    out[tuple(map(slice, t.shape))] = t
    return out


@dataclass
class AuxiliaryJoint:
    """Joint law p(u, v, w, x) of the auxiliaries and the channel input."""

    joint: np.ndarray

    def __post_init__(self) -> None:
        self.joint = checked_joint(self.joint, "uvwx", "auxiliary joint")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.joint.shape

    def px(self) -> np.ndarray:
        return self.joint.sum(axis=(0, 1, 2))


def marton_table(c: Channel, prof: Cardinalities) -> InfoFunctional:
    """Rows I(W;Y), I(W;Z) and I(U;Y|W) + I(V;Z|W) - I(U;V|W) over p(u,v,w,x);
    the weighted sum rate at lambda weighs them by ``lambda_weights(lam)``."""
    rows = [
        mi_terms("w", "y"),
        mi_terms("w", "z"),
        mi_terms("u", "y", "w") + mi_terms("v", "z", "w") + mi_terms("u", "v", "w", -1.0),
    ]
    shape = prof.shape(c.nx)
    return InfoFunctional("uvwx", shape, rows, channel=c.q)


def lambda_weights(lam: float) -> np.ndarray:
    return np.array([lam, 1.0 - lam, 1.0])


def _table_at(c: Channel, aux: AuxiliaryJoint) -> np.ndarray:
    nu, nv, nw, nx = aux.shape
    if nx != c.nx:
        raise ValueError("auxiliary input alphabet mismatch")
    return marton_table(c, Cardinalities(nu, nv, nw)).value(aux.joint)


def lambda_sr_value(c: Channel, lam: float, aux: AuxiliaryJoint) -> float:
    """Exact weighted sum rate at one auxiliary joint."""
    return float((lambda_weights(lam)[None] @ _table_at(c, aux))[0])


def _slope(rows: np.ndarray) -> float:
    """I(W;Y) - I(W;Z) from the Marton table's row values."""
    return float(rows[0] - rows[1])


def curve_subgradient(c: Channel, aux: AuxiliaryJoint) -> float:
    """I(W;Y) - I(W;Z) at a maximizer: a subgradient of the lambda-curve."""
    return _slope(_table_at(c, aux))


def _class_index(labels: np.ndarray) -> np.ndarray:
    """Position of each x inside its label class (0, 1, ... per class)."""
    counts: dict[int, int] = {}
    out = np.zeros(len(labels), dtype=int)
    for x, lab in enumerate(labels):
        out[x] = counts.get(int(lab), 0)
        counts[int(lab)] = out[x] + 1
    return out


def structured_seed_joints(
    c: Channel, prof: Cardinalities, px_list: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Deterministic-map auxiliary joints used as search starts.

    Covers the standard reductions: private-message-only (U=X or V=X),
    common-message-only (W=X), and output-label auxiliaries when a
    receiver is deterministic (these realize the H(Y,Z) and endpoint
    collapses exactly). Maps that do not fit the profile are skipped.
    """
    ident = np.arange(c.nx)
    # identity folded into each slot's alphabet cap, exact when it fits
    iu, iv, iw = ident % prof.nu, ident % prof.nv, ident % prof.nw
    ylab = deterministic_map(c, "y") if is_deterministic(c, "y") else None
    zlab = deterministic_map(c, "z") if is_deterministic(c, "z") else None

    def fits(m: np.ndarray | None, cap: int) -> bool:
        return m is None or int(m.max()) < cap

    combos: list[tuple] = []
    if ylab is not None:
        combos += [
            (None, iv, ylab),
            (ylab, iv, None),
            (ylab, None, None),
            (iu, None, ylab),
            (ylab, None, ylab),
        ]
    if zlab is not None:
        combos += [
            (iu, None, zlab),
            (iu, zlab, None),
            (None, zlab, None),
            (None, iv, zlab),
            (None, zlab, zlab),
        ]
    combos += [
        (iu, None, None),
        (None, iv, None),
        (iu, iv, None),
        (iu, iv, iw),
        (iu, None, iw),
        (None, iv, iw),
    ]
    if ylab is not None and zlab is not None:
        combos += [(ylab, zlab, None)]
    # within-class index of x (position inside its label class): carries the
    # private information for the noisy receiver while the label rides on
    # the other slot, closing the flat endpoint of deterministic channels
    if ylab is not None:
        cidx = _class_index(ylab)
        combos += [(ylab, cidx, None), (ylab, cidx, ylab), (None, cidx, ylab)]
    if zlab is not None:
        cidx = _class_index(zlab)
        combos += [(cidx, zlab, None), (cidx, zlab, zlab), (cidx, None, zlab)]

    seen: set[bytes] = set()
    out: list[np.ndarray] = []
    shape = prof.shape(c.nx)
    for maps in combos:
        if not all(fits(m, cap) for m, cap in zip(maps, shape)):
            continue
        for px in px_list:
            t = deterministic_joint(shape, px, maps)
            key = t.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(t)
    return out


def _default_px_list(c: Channel) -> list[np.ndarray]:
    uniform = np.full(c.nx, 1.0 / c.nx)
    _, py = capacity(c, "y")
    _, pz = capacity(c, "z")
    return [uniform, py, pz]


@dataclass
class LambdaPointResult:
    """Best weighted sum rate found at one lambda, with its maximizer."""

    lam: float
    value: float
    aux: AuxiliaryJoint
    subgradient: float
    converged: bool


def maximize_lambda_sr_at_input(
    c: Channel,
    lam: float,
    px: np.ndarray,
    cfg: SearchConfig,
    profile: Cardinalities | None = None,
    extra_seeds: Sequence[np.ndarray] = (),
) -> LambdaPointResult:
    """Best weighted sum rate at a fixed input law (certified lower bound)."""
    prof = profile or Cardinalities.for_sum_rate(c)
    px = np.asarray(px, dtype=float)
    table = marton_table(c, prof)
    obj = FixedInputObjective(table, px, lambda_weights(lam)[None])
    seeds = [obj.to_flat(t) for t in structured_seed_joints(c, prof, [px])]
    seeds += [obj.to_flat(np.asarray(t, dtype=float)) for t in extra_seeds]
    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    aux = AuxiliaryJoint(obj.to_tensor(res.point))
    return LambdaPointResult(
        lam=lam,
        value=res.value,
        aux=aux,
        subgradient=_slope(table.value(aux.joint)),
        converged=res.converged,
    )


def lambda_sr_global(
    c: Channel,
    lam: float,
    cfg: SearchConfig,
    profile: Cardinalities | None = None,
    extra_seeds: Sequence[np.ndarray] = (),
) -> LambdaPointResult:
    """Global weighted sum rate: joint search over p(u,v,w,x).

    Multi-start ascent over the full joint, followed by one outer concave
    polish step on the input law: the weighted sum rate is concave in p(x),
    and at an inner maximizer the gradient of the joint objective contracted
    with the conditional is a supergradient in p(x).

    Budgets: the joint search runs ``cfg``; each fixed-input polish ascent
    (one at the found input law, then at most three at stepped input laws)
    runs ``max(40, cfg.max_iters // 2)`` iterations.
    """
    prof = profile or Cardinalities.for_sum_rate(c)
    table = marton_table(c, prof)
    weight_rows = lambda_weights(lam)[None]
    obj = JointObjective(table, weight_rows)
    seeds = [obj.to_flat(t) for t in structured_seed_joints(c, prof, _default_px_list(c))]
    seeds += [obj.to_flat(np.asarray(t, dtype=float)) for t in extra_seeds]
    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    best_v, best_t = res.value, obj.to_tensor(res.point)

    inner_cfg = cfg.with_(max_iters=max(40, cfg.max_iters // 2))
    px = best_t.sum(axis=(0, 1, 2))
    fobj = FixedInputObjective(table, px, weight_rows)
    v0, x0, _, _ = ascend(fobj, fobj.to_flat(best_t), fobj.block_sizes, inner_cfg)
    t0 = fobj.to_tensor(x0)
    if v0 > best_v:
        best_v, best_t = v0, t0
    grad = table.value_and_grad(t0[None], weight_rows)[1]([0])[0]
    cond_only = np.where(px > 0, t0 / np.where(px > 0, px, 1.0), 0.0)
    super_px = np.einsum("uvwx,uvwx->x", cond_only, grad)
    for step in (1.0, 0.2, 0.05):
        px_new = project_simplex(px + step * super_px)
        fobj2 = FixedInputObjective(table, px_new, weight_rows)
        v1, x1, _, _ = ascend(fobj2, fobj2.to_flat(t0), fobj2.block_sizes, inner_cfg)
        if v1 > best_v + 1e-12:
            best_v, best_t = v1, fobj2.to_tensor(x1)
            break

    aux = AuxiliaryJoint(best_t)
    return LambdaPointResult(
        lam=lam,
        value=best_v,
        aux=aux,
        subgradient=_slope(table.value(aux.joint)),
        converged=res.converged,
    )


@dataclass
class LambdaCurve:
    """Sampled lambda-curve with one check: no sample's line (its value plus
    its subgradient times the step in lambda) passes above another sample
    by more than ``slack``. This implies midpoint convexity: if a sample at
    the midpoint of two others lies above their mean by more than
    ``slack``, its line sums to twice its value at their lambdas, so it
    passes above one of them by more than ``slack``."""

    samples: list[LambdaPointResult]
    hyperplane_violations: list = field(default_factory=list)

    def run_checks(self, slack: float = 1e-6) -> None:
        self.hyperplane_violations = []
        ss = sorted(self.samples, key=lambda s: s.lam)
        for s in ss:
            for other in ss:
                line = (other.lam - s.lam) * s.subgradient + s.value
                if line > other.value + slack:
                    self.hyperplane_violations.append(
                        (s.lam, other.lam, line - other.value)
                    )


def _warm_lambda(
    solve: Callable[[float, list[np.ndarray]], LambdaPointResult],
    extra_seeds: Sequence[np.ndarray] = (),
) -> Callable[[float], tuple[float, float, LambdaPointResult]]:
    """Lambda evaluator for ``kelley_min``: each call seeds
    ``solve(lam, seeds)`` with the last maximizer, then with
    ``extra_seeds``, and returns (value, slope, result), the slope being
    that of the maximizer's line in lambda."""
    warm: list[np.ndarray] = []

    def evaluate(lam: float) -> tuple[float, float, LambdaPointResult]:
        res = solve(float(lam), warm + list(extra_seeds))
        warm[:] = [res.aux.joint]
        return res.value, res.subgradient, res

    return evaluate


def build_lambda_curve(
    c: Channel,
    lambdas: Sequence[float],
    cfg: SearchConfig,
    extra_seeds: Sequence[np.ndarray] = (),
) -> LambdaCurve:
    """Sample the global lambda-curve on a grid with warm-started searches."""
    evaluate = _warm_lambda(
        lambda lam, extra: lambda_sr_global(c, lam, cfg, extra_seeds=extra),
        extra_seeds,
    )
    curve = LambdaCurve([evaluate(lam)[2] for lam in lambdas])
    curve.run_checks()
    return curve


@dataclass
class MartonSumRate:
    value: float
    lam_star: float
    aux: AuxiliaryJoint
    evaluations: int
    converged: bool
    profile: Cardinalities


def marton_sum_rate(
    c: Channel,
    cfg: SearchConfig,
    profile: Cardinalities | None = None,
    extra_seeds: Sequence[np.ndarray] = (),
) -> MartonSumRate:
    """min over lambda of the global weighted sum rate (``kelley_min``).

    Each evaluation's maximizer gives the line of its weighted sum rate in
    lambda, with slope I(W;Y) - I(W;Z). The driver samples the minimum of
    the lines' upper envelope until it reaches a sampled lambda, so a
    search that falls short at one lambda does not lift the value: it is
    at most the true sum rate plus ``KELLEY_TOL``. The value is the
    envelope at ``lam_star``, the weighted sum rate there of ``aux`` (the
    active line's auxiliary). Consecutive evaluations warm-start each
    other with the last maximizer.
    """
    prof = profile or Cardinalities.for_sum_rate(c)
    evaluate = _warm_lambda(
        lambda lam, extra: lambda_sr_global(c, lam, cfg, profile=prof, extra_seeds=extra),
        extra_seeds,
    )
    lam, value, active, evaluations = kelley_min(evaluate)
    return MartonSumRate(
        value=value,
        lam_star=lam,
        aux=active.aux,
        evaluations=evaluations,
        converged=active.converged,
        profile=prof,
    )


def outer_auxiliary(a1: AuxiliaryJoint, a2: AuxiliaryJoint) -> AuxiliaryJoint:
    """Independent product of component auxiliaries on the product channel.

    Index flattening matches the product channel: first component major.
    """
    return AuxiliaryJoint(product_tensor(a1.joint, a2.joint))


@dataclass(frozen=True)
class Check:
    """A computed value compared with its target under one pass rule."""

    name: str
    computed: float
    target: float
    tolerance: float
    passed: bool

    @classmethod
    def within(cls, name: str, computed: float, target: float, tolerance: float) -> "Check":
        """Passes when |computed - target| <= tolerance."""
        return cls(name, computed, target, tolerance, bool(abs(computed - target) <= tolerance))

    @classmethod
    def at_least(cls, name: str, computed: float, target: float, tolerance: float) -> "Check":
        """Passes when computed >= target - tolerance."""
        return cls(name, computed, target, tolerance, bool(computed >= target - tolerance))


# largest |product - component sum| that check_factorization calls a factorization
FACTORIZATION_TOL = 5e-3


@dataclass
class FactorizationReport:
    lam: float
    value_c1: float
    value_c2: float
    value_product: float
    gap: float
    check: Check  # |gap| <= FACTORIZATION_TOL
    deterministic_links: list
    converged: bool

    @property
    def holds(self) -> bool:
        return self.check.passed


def check_factorization(
    c1: Channel,
    c2: Channel,
    lam: float,
    cfg: SearchConfig,
) -> FactorizationReport:
    """Compare the product channel's weighted sum rate with the component sum.

    The product search is seeded with the independent product of the
    component maximizers, so superadditivity of the reported values holds
    by construction; the interesting direction is whether the product
    search exceeds the sum.

    Budgets: each component search runs ``lambda_sr_global`` at ``cfg``;
    the product search, the largest, runs ``max(8, cfg.restarts // 4)``
    restarts. Each polishes as ``lambda_sr_global`` says.
    """
    r1 = lambda_sr_global(c1, lam, cfg)
    r2 = lambda_sr_global(c2, lam, cfg)
    pc = make_product(c1, c2)
    flat = pc.flat
    prof_p = Cardinalities.for_sum_rate(flat)
    seed = fit_joint(outer_auxiliary(r1.aux, r2.aux).joint, prof_p.shape(flat.nx))
    pcfg = cfg.with_(restarts=max(8, cfg.restarts // 4))
    rp = lambda_sr_global(flat, lam, pcfg, profile=prof_p, extra_seeds=[seed])
    gap = rp.value - (r1.value + r2.value)
    links = []
    for tag, ch in (("1", c1), ("2", c2)):
        for rec in ("y", "z"):
            if is_deterministic(ch, rec):
                links.append(f"component_{tag}_{rec}")
    return FactorizationReport(
        lam=lam,
        value_c1=r1.value,
        value_c2=r2.value,
        value_product=rp.value,
        gap=gap,
        check=Check.within("factorization_gap", gap, 0.0, FACTORIZATION_TOL),
        deterministic_links=links,
        converged=r1.converged and r2.converged and rp.converged,
    )


@dataclass
class MinMaxReport:
    max_min: float
    max_min_max: float
    min_max: float
    max_pairwise_gap: float
    lam_star: float
    converged: bool


def check_min_max_equality(c: Channel, cfg: SearchConfig, px_resolution: int) -> MinMaxReport:
    """Numerically compare the three orderings of max/min for tiny channels.

    max-min: maximize min(endpoint expressions) over the auxiliary joint
    (the weighted sum rate is affine in lambda, so the inner min sits at
    an endpoint). max-min-max: sweep p(x) on a grid, inner min over
    lambda of the fixed-input maximum (``kelley_min``). min-max: the
    sum-rate driver, ``marton_sum_rate``. All three agree in exact
    arithmetic.

    Budgets: the max-min search runs ``cfg``. The min-max driver
    and the two maximizers that seed max-min run ``lambda_sr_global`` at
    ``max(8, cfg.restarts // 2)`` restarts. Every fixed-input search of
    max-min-max runs ``max(4, cfg.restarts // 3)`` restarts of
    ``max(60, cfg.max_iters // 2)`` iterations.
    """
    if max(c.nx, c.ny, c.nz) > 3:
        raise ValueError("min-max check is restricted to nx, ny, nz <= 3")
    prof = Cardinalities.for_sum_rate(c)

    # min-max via the sum-rate driver
    mm_cfg = cfg.with_(restarts=max(8, cfg.restarts // 2))
    mm = marton_sum_rate(c, mm_cfg, profile=prof)

    # max-min over the joint: min of the two endpoint rows
    prof_mm = Cardinalities(c.nx, c.nx, min(2 * c.nx, c.nx + 4))
    endpoints = [lambda_weights(0.0), lambda_weights(1.0)]
    obj = JointObjective(marton_table(c, prof_mm), endpoints)
    seeds = [
        t.ravel() for t in structured_seed_joints(c, prof_mm, _default_px_list(c))
    ]
    # mixture seeds from maximizers straddling the minimizing lambda
    lamL = max(0.0, mm.lam_star - 0.08)
    lamR = min(1.0, mm.lam_star + 0.08)
    auxL = lambda_sr_global(c, lamL, mm_cfg, profile=prof).aux
    auxR = lambda_sr_global(c, lamR, mm_cfg, profile=prof).aux
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        mix = _mixture_joint(auxL, auxR, alpha, prof_mm)
        if mix is not None:
            seeds.append(mix.ravel())
    res_mm = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    max_min = res_mm.value

    # max-min-max over a p(x) grid with a local polish
    inner_cfg = cfg.with_(restarts=max(4, cfg.restarts // 3), max_iters=max(60, cfg.max_iters // 2))

    def min_over_lambda(px: np.ndarray) -> float:
        evaluate = _warm_lambda(
            lambda lam, extra: maximize_lambda_sr_at_input(
                c, lam, px, inner_cfg, profile=prof, extra_seeds=extra
            )
        )
        return kelley_min(evaluate)[1]

    best_px, best_val = None, -np.inf
    for px in simplex_grid(c.nx, px_resolution):
        val = min_over_lambda(px)
        if val > best_val:
            best_val, best_px = val, px
    # local polish around the best grid point
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(987,)))
    for _ in range(10):
        cand = project_simplex(best_px + 0.5 / px_resolution * rng.normal(size=c.nx))
        val = min_over_lambda(cand)
        if val > best_val:
            best_val, best_px = val, cand
    max_min_max = best_val

    vals = [max_min, max_min_max, mm.value]
    gap = max(vals) - min(vals)
    return MinMaxReport(
        max_min=max_min,
        max_min_max=max_min_max,
        min_max=mm.value,
        max_pairwise_gap=gap,
        lam_star=mm.lam_star,
        converged=mm.converged and res_mm.converged,
    )


def _mixture_joint(
    a: AuxiliaryJoint, b: AuxiliaryJoint, alpha: float, prof: Cardinalities
) -> np.ndarray | None:
    """Time-share two auxiliaries by stacking their W alphabets."""
    nu = max(a.shape[0], b.shape[0])
    nv = max(a.shape[1], b.shape[1])
    nw = a.shape[2] + b.shape[2]
    nx = a.shape[3]
    if nu > prof.nu or nv > prof.nv or nw > prof.nw or b.shape[3] != nx:
        return None
    t = np.zeros(prof.shape(nx))
    t[: a.shape[0], : a.shape[1], : a.shape[2], :] += (1.0 - alpha) * a.joint
    t[: b.shape[0], : b.shape[1], a.shape[2] : a.shape[2] + b.shape[2], :] += alpha * b.joint
    return t
