"""Lambda-weighted sum rates for broadcast channels.

For a channel q(y,z|x), an auxiliary joint p(u,v,w,x) and lambda in [0,1],
the weighted sum rate is

    lambda*I(W;Y) + (1-lambda)*I(W;Z) + I(U;Y|W) + I(V;Z|W) - I(U;V|W).

Its maximum over auxiliaries upper-bounds every lambda-combination of the
inner-bound sum rate, is convex in lambda, and its minimum over lambda is
the inner-bound sum rate itself. Maximizations here are nonconvex, so all
reported maxima are certified lower bounds (exact evaluations at feasible
points). At a fixed auxiliary the weighted sum rate is a line in lambda,
below the curve, and every lambda quantity reads the upper envelope of the
evaluated lines (``search.envelope``): the sum rate is its least value at a
sampled lambda (``search.kelley_min``), at most the inner-bound sum rate
plus ``search.KELLEY_TOL``; every search starts from the envelope's
auxiliary at its lambda; a curve sample is the envelope at its lambda; and
the min-max check's max-min search starts from the time-share of the two
lines that meet at the envelope's minimizer.

Every search and evaluation here runs one table per channel and profile,
``marton_table``, with rows I(W;Y), I(W;Z) and I(U;Y|W) + I(V;Z|W) -
I(U;V|W). Lambda is only the row weights (lambda, 1-lambda, 1), and the
curve's slope I(W;Y) - I(W;Z) is the first row minus the second.

Cardinality caps: every search at one lambda runs at |U| <= min(nx, ny),
|V| <= min(nx, nz), |W| <= nx, which suffice for the weighted sum rate,
and a result's auxiliary has them as its shape. On a ``ProductChannel``,
where every term adds over the components for product auxiliaries, each
line is the sum of the components' lines (``_product_line``), and its
auxiliary's caps are the products of the components' caps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import (
    Channel,
    ProductChannel,
    capacity,
    deterministic_map,
    is_deterministic,
    product_tensor,
)
from .kernel import entropy_of_array  # noqa: F401  (bench/selftest.py traces this site)
from .objectives import FixedInputObjective, InfoFunctional, JointObjective, mi_terms
from .search import (
    Line,
    SearchConfig,
    ascend,
    envelope,
    envelope_min,
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
    on an entry that is not finite, an entry below -1e-10 or a total off 1
    by more than 1e-9, and clamps the remaining rounding negatives to 0."""
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != len(axes):
        raise ValueError(f"{name} must have axes ({', '.join(axes)})")
    # NaN fails every comparison below, so it is rejected here
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"non-finite entry {bad[0]} in {name}")
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
    # NaN fails the comparison, so it is rejected here too
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
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


@dataclass(frozen=True)
class LambdaPointResult(Line):
    """Best weighted sum rate found at one lambda, with its maximizer
    ``aux``: the line of aux's rate in lambda, whose slope I(W;Y) - I(W;Z)
    is a subgradient of the curve."""

    aux: AuxiliaryJoint
    converged: bool


def maximize_lambda_sr_at_input(
    c: Channel,
    lam: float,
    px: np.ndarray,
    cfg: SearchConfig,
    extra_seeds: Sequence[np.ndarray] = (),
) -> LambdaPointResult:
    """Best weighted sum rate at a fixed input law (certified lower bound)."""
    prof = Cardinalities.for_sum_rate(c)
    px = checked_joint(px, "x", "input law")
    table = marton_table(c, prof)
    obj = FixedInputObjective(table, px, lambda_weights(lam)[None])
    seeds = [obj.to_flat([t]) for t in [*structured_seed_joints(c, prof, [px]), *extra_seeds]]
    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    aux = AuxiliaryJoint(obj.to_tensors(res.point)[0])
    return LambdaPointResult(lam, res.value, _slope(table.value(aux.joint)), aux, res.converged)


def lambda_sr_global(
    c: Channel,
    lam: float,
    cfg: SearchConfig,
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
    prof = Cardinalities.for_sum_rate(c)
    table = marton_table(c, prof)
    weight_rows = lambda_weights(lam)[None]
    obj = JointObjective([table], weight_rows, None)
    starts = [*structured_seed_joints(c, prof, _default_px_list(c)), *extra_seeds]
    res = maximize(obj, obj.block_sizes, cfg, seeds=[obj.to_flat([t]) for t in starts])
    best_v, (best_t,) = res.value, obj.to_tensors(res.point)

    inner_cfg = cfg.with_(max_iters=max(40, cfg.max_iters // 2))
    px = best_t.sum(axis=(0, 1, 2))
    fobj = FixedInputObjective(table, px, weight_rows)
    v0, x0, _, _ = ascend(fobj, fobj.to_flat([best_t]), fobj.block_sizes, inner_cfg)
    (t0,) = fobj.to_tensors(x0)
    if v0 > best_v:
        best_v, best_t = v0, t0
    # the joint objective's gradient at t0, contracted with the conditional
    _, grad = obj(obj.to_flat([t0])[None])
    (g,) = obj.to_tensors(grad([0])[0])
    cond_only = np.where(px > 0, t0 / np.where(px > 0, px, 1.0), 0.0)
    super_px = np.einsum("uvwx,uvwx->x", cond_only, g)
    for step in (1.0, 0.2, 0.05):
        px_new = project_simplex(px + step * super_px)
        fobj2 = FixedInputObjective(table, px_new, weight_rows)
        v1, x1, _, _ = ascend(fobj2, fobj2.to_flat([t0]), fobj2.block_sizes, inner_cfg)
        if v1 > best_v + 1e-12:
            best_v, (best_t,) = v1, fobj2.to_tensors(x1)
            break

    aux = AuxiliaryJoint(best_t)
    return LambdaPointResult(lam, best_v, _slope(table.value(aux.joint)), aux, res.converged)


# a curve sample's own search may end this far below the envelope unflagged
CURVE_SLACK = 1e-6


@dataclass
class LambdaCurve:
    """The searches' envelope at each search's lambda, as the active line
    there. ``hyperplane_violations`` lists (active line's lambda, lambda,
    shortfall) where a search ended more than ``CURVE_SLACK`` below the
    envelope. That implies midpoint convexity: a search at the midpoint of
    two others above their mean by more than the slack has a line summing
    to twice its value at their lambdas, so it passes above one of them."""

    samples: list[LambdaPointResult]
    hyperplane_violations: list

    @classmethod
    def from_lines(cls, lines: Sequence[LambdaPointResult]) -> "LambdaCurve":
        samples, violations = [], []
        for own in lines:
            top = envelope(lines, own.lam)
            value = top.at(own.lam)
            samples.append(replace(top, lam=own.lam, value=value))
            if value > own.value + CURVE_SLACK:
                violations.append((top.lam, own.lam, value - own.value))
        return cls(samples, violations)


def build_lambda_curve(
    c: Channel | ProductChannel, lambdas: Sequence[float], cfg: SearchConfig
) -> LambdaCurve:
    """Search the global lambda-curve at each grid lambda in order (``_line``),
    each search seeded with the envelope of the lines before it, and sample
    the envelope of all of them."""
    lines: list[LambdaPointResult] = []
    for lam in lambdas:
        lines.append(_line(c, float(lam), cfg, envelope(lines, lam)))
    return LambdaCurve.from_lines(lines)


@dataclass
class MartonSumRate:
    value: float
    lam_star: float
    aux: AuxiliaryJoint
    lines: list[LambdaPointResult]
    converged: bool

    @property
    def evaluations(self) -> int:
        return len(self.lines)


def marton_sum_rate(c: Channel | ProductChannel, cfg: SearchConfig) -> MartonSumRate:
    """min over lambda of the global weighted sum rate (``kelley_min`` over ``_line``).

    Each evaluation's maximizer gives the line of its weighted sum rate in
    lambda, with slope I(W;Y) - I(W;Z), and is seeded with the envelope's
    auxiliary at its lambda. The driver samples the
    minimum of the lines' upper envelope until it reaches a sampled lambda,
    so a search that falls short at one lambda does not lift the value: it
    is at most the true sum rate plus ``KELLEY_TOL``. The value is the
    envelope at ``lam_star``, the weighted sum rate there of ``aux`` (the
    active line's auxiliary); ``lines`` holds every evaluated line.
    """
    lam, lines = kelley_min(lambda lam, active: _line(c, lam, cfg, active))
    active = envelope(lines, lam)
    return MartonSumRate(active.at(lam), lam, active.aux, lines, active.converged)


def _line(
    c: Channel | ProductChannel, lam: float, cfg: SearchConfig, active: LambdaPointResult | None
) -> LambdaPointResult:
    """The line at ``lam`` seeded with ``active``, the envelope's line there: the sum
    of the component lines on a ``ProductChannel``, else ``lambda_sr_global``."""
    if isinstance(c, ProductChannel):
        return _product_line(c, lam, cfg, active)
    return lambda_sr_global(c, lam, cfg, [active.aux.joint] if active else [])


def _product_line(
    pc: ProductChannel, lam: float, cfg: SearchConfig, active: LambdaPointResult | None
) -> LambdaPointResult:
    """The product's line at ``lam``: ``lambda_sr_global`` on each component,
    seeded with its marginal of ``active``'s auxiliary. The line's auxiliary
    is the product of the two maximizers, and its value and slope are that
    auxiliary's rows on the product table: an exact evaluation on the
    product, the sum of the component lines up to rounding."""
    comps = (pc.c1, pc.c2)
    seeds = ([], [])
    if active is not None:
        # outer_auxiliary's axes split into the components' axes
        shapes = [Cardinalities.for_sum_rate(c).shape(c.nx) for c in comps]
        t = active.aux.joint.reshape([n for pair in zip(*shapes) for n in pair])
        seeds = ([t.sum(axis=(1, 3, 5, 7))], [t.sum(axis=(0, 2, 4, 6))])
    r1, r2 = (lambda_sr_global(c, lam, cfg, s) for c, s in zip(comps, seeds))
    aux = outer_auxiliary(r1.aux, r2.aux)
    rows = _table_at(pc.flat, aux)
    value = float((lambda_weights(lam)[None] @ rows)[0])
    return LambdaPointResult(lam, value, _slope(rows), aux, r1.converged and r2.converged)


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
    pc = ProductChannel(c1, c2)
    flat = pc.flat
    shape = Cardinalities.for_sum_rate(flat).shape(flat.nx)
    seed = fit_joint(outer_auxiliary(r1.aux, r2.aux).joint, shape)
    pcfg = cfg.with_(restarts=max(8, cfg.restarts // 4))
    rp = lambda_sr_global(flat, lam, pcfg, extra_seeds=[seed])
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
    an endpoint), seeded with ``_max_min_seed`` of the min-max driver's
    lines, so it is at least the min-max value minus ``KELLEY_TOL``.
    max-min-max: sweep p(x) on a grid, inner min over lambda of the
    fixed-input maximum (``kelley_min``). min-max: the sum-rate driver,
    ``marton_sum_rate``. All three agree in exact arithmetic.

    Budgets: the max-min search runs ``cfg``. The min-max driver runs
    ``lambda_sr_global`` at ``max(8, cfg.restarts // 2)`` restarts. Every
    fixed-input search of max-min-max runs ``max(4, cfg.restarts // 3)``
    restarts of ``max(60, cfg.max_iters // 2)`` iterations.
    """
    if max(c.nx, c.ny, c.nz) > 3:
        raise ValueError("min-max check is restricted to nx, ny, nz <= 3")
    # min-max via the sum-rate driver
    mm_cfg = cfg.with_(restarts=max(8, cfg.restarts // 2))
    mm = marton_sum_rate(c, mm_cfg)

    # max-min over the joint: min of the two endpoint rows
    prof_mm = Cardinalities(c.nx, c.nx, min(2 * c.nx, c.nx + 4))
    endpoints = [lambda_weights(0.0), lambda_weights(1.0)]
    obj = JointObjective([marton_table(c, prof_mm)], endpoints, None)
    starts = structured_seed_joints(c, prof_mm, _default_px_list(c))
    starts.append(_max_min_seed(mm.lines, prof_mm.shape(c.nx)))
    seeds = [obj.to_flat([t]) for t in starts]
    res_mm = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    max_min = res_mm.value

    # max-min-max over a p(x) grid with a local polish
    inner_cfg = cfg.with_(restarts=max(4, cfg.restarts // 3), max_iters=max(60, cfg.max_iters // 2))

    def min_over_lambda(px: np.ndarray) -> float:
        lam, lines = kelley_min(
            lambda lam, active: maximize_lambda_sr_at_input(
                c, lam, px, inner_cfg, [active.aux.joint] if active else []
            )
        )
        return envelope(lines, lam).at(lam)

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


def _max_min_seed(lines: Sequence[LambdaPointResult], shape: tuple[int, ...]) -> np.ndarray:
    """Time-share, W alphabets stacked, of the two lines that meet at the
    envelope's minimizer x (the highest there of slope <= 0 and of slope
    >= 0), weighted so that its slope is 0; at x = 0 or 1, the line rising
    from x alone. Time-sharing keeps the private rows linear and only
    raises I(W;Y) and I(W;Z), as H(Y) and H(Z) are concave in p(x), so
    both endpoint rows are at least the envelope's minimum."""
    x = envelope_min(lines)
    down = envelope([line for line in lines if line.slope <= 0.0] or lines, x)
    up = envelope([line for line in lines if line.slope >= 0.0] or lines, x)
    if 0.0 < x < 1.0 and down.slope != up.slope:
        alpha = down.slope / (down.slope - up.slope)
    else:
        alpha = float(x == 0.0)
    mix = np.concatenate([(1.0 - alpha) * down.aux.joint, alpha * up.aux.joint], axis=2)
    return fit_joint(mix, shape)
