"""Outer and inner rate regions evaluated at explicit auxiliaries.

Two families live here. The single-letter UV outer bound works on one
channel with auxiliaries p(u,v,x), and reads them only through p(u,x)
and p(v,x). The product-channel regions work on a
two-component product with independent per-component auxiliaries
p1(u1,v1,w1,x1) p2(u2,v2,w2,x2) and produce polytopes in (R0, R1, R2):

  product_outer      six inequality families with min-terms expanded
  semi_deterministic capacity region form when Y1 and Z2 are deterministic
  more_capable       capacity region form when Z1 is more capable than Y1
                     and Y2 more capable than Z2

The mirrored outer bound, with the components swapped in the mixed sum
rows, is ``product_outer`` on ``ProductChannel(pc.c2, pc.c1)``: swapping
the two sides of every ``product_outer`` row gives the mirrored rows.

The region forms assume their class; ``class_notes`` warns of a receiver
that is not deterministic where a form needs it, or of a more-capable
relation that ``channel.is_more_capable`` refutes at the caller's budget
(the verdict ``bcbounds classify`` reports). Polytopes carry no notes;
the ``outer`` and ``region`` commands compute them once per sweep.

All min-terms are expanded into separate inequalities, so every
right-hand side is a smooth sum of per-component information terms. A
support in direction w is a three-variable LP, and by LP duality it is
the minimum of mu_B . b over the dual-feasible bases B (3-subsets of the
constraints with mu_B = A_B^{-T} w >= 0). The bases depend only on the
kind, the pin on R0 and w, so their duals are weight rows found once: the
search's objective and every reported value are that minimum, its
gradient follows the minimal row, and the reported vertex is optimal and
inside the region up to rounding. The search's objective is a
``JointObjective`` over the two component tables, one block each, under
those dual rows, with each basis's pin term on R0 as its offset: the
same minimum of weight rows that scores every other search here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Channel, ProductChannel, is_deterministic, is_more_capable
from .marton import (
    AuxiliaryJoint,
    Cardinalities,
    checked_joint,
    deterministic_joint,
    fit_joint,
    structured_seed_joints,
)
from .objectives import (
    InfoFunctional,
    JointObjective,
    SharedInputObjective,
    Term,
    ent_terms,
    mi_terms,
    weigh,
)
from .search import SearchConfig, maximize

__all__ = [
    "UvAuxiliary",
    "UvPoint",
    "ProductAuxiliary",
    "RateRegionPolytope",
    "evaluate_uv_point",
    "uv_sum_rate",
    "build_region",
    "class_notes",
    "region_support",
    "REGION_KINDS",
]


# ---------------------------------------------------------------- UV bound


@dataclass
class UvAuxiliary:
    """Joint law p(u, v, x) for the single-letter UV outer bound."""

    joint: np.ndarray

    def __post_init__(self) -> None:
        self.joint = checked_joint(self.joint, "uvx", "UV auxiliary")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.joint.shape


@dataclass
class UvPoint:
    r1_bound: float  # I(U;Y)
    r2_bound: float  # I(V;Z)
    sum_y_side: float  # I(U;Y) + I(X;Z|U)
    sum_z_side: float  # I(V;Z) + I(X;Y|V)

    @property
    def sum_rate(self) -> float:
        return min(self.r1_bound + self.r2_bound, self.sum_y_side, self.sum_z_side)


def _uv_sides() -> tuple[list[list[Term]], list[list[Term]]]:
    """The three sum-rate branches split by the auxiliary they read: the
    U-side rows over p(u,x) and the V-side rows over p(v,x), whose sums are
    the branches I(U;Y) + I(V;Z), I(U;Y) + I(X;Z|U) and I(V;Z) + I(X;Y|V).
    No branch has a term in U and V together."""
    iuy, ivz = mi_terms("u", "y"), mi_terms("v", "z")
    return [iuy, iuy + mi_terms("x", "z", "u"), []], [ivz, [], ivz + mi_terms("x", "y", "v")]


def _uv_side_tables(c: Channel, nu: int, nv: int) -> list[InfoFunctional]:
    """The U-side table over p(u,x) and the V-side table over p(v,x)."""
    u_side, v_side = _uv_sides()
    return [
        InfoFunctional("ux", (nu, c.nx), u_side, channel=c.q),
        InfoFunctional("vx", (nv, c.nx), v_side, channel=c.q),
    ]


def evaluate_uv_point(c: Channel, aux: UvAuxiliary) -> UvPoint:
    """Exact UV-bound coordinates at one auxiliary."""
    nu, nv, nx = aux.shape
    if nx != c.nx:
        raise ValueError("UV auxiliary input alphabet mismatch")
    # the side tables' rows at p(u,x) and p(v,x), as uv_sum_rate scores them
    u_side, v_side = _uv_side_tables(c, nu, nv)
    iuy, sum_y, _ = map(float, u_side.value(aux.joint.sum(axis=1)))
    ivz, _, sum_z = map(float, v_side.value(aux.joint.sum(axis=0)))
    return UvPoint(r1_bound=iuy, r2_bound=ivz, sum_y_side=sum_y, sum_z_side=sum_z)


@dataclass
class UvSumRate:
    value: float
    aux: UvAuxiliary
    point: UvPoint
    converged: bool


def uv_sum_rate(
    c: Channel,
    cfg: SearchConfig,
    extra_seeds: Sequence[np.ndarray] = (),
) -> UvSumRate:
    """Maximize the UV sum rate min of its three inequality combinations.

    Auxiliary alphabets are |U| = |V| = nx + 1. No branch has a term in U
    and V together, so the value depends on p(u,v,x) only through p(u,x)
    and p(v,x): the search runs over p(x), p(u|x) and p(v|x), a
    ``SharedInputObjective`` over the U-side and V-side tables under
    identity weight rows, and ``aux`` is the coupling p(x) p(u|x) p(v|x),
    whose value is that of every law with those two marginals. Seeds, the
    deterministic ones and ``extra_seeds`` (each a law p(u,v,x) over the
    channel's inputs), enter through their marginals. The objective is a
    min of smooth branches; ascent follows the active branch and every
    candidate is scored exactly, so the result is a certified lower bound.
    """
    shape = (c.nx + 1, c.nx + 1, c.nx)
    extra = [UvAuxiliary(s).joint for s in extra_seeds]
    if any(t.shape[2] != c.nx for t in extra):
        raise ValueError("UV auxiliary input alphabet mismatch")
    obj = SharedInputObjective(_uv_side_tables(c, *shape[:2]), np.eye(3), None)

    uniform = np.full(c.nx, 1.0 / c.nx)
    ident = np.arange(c.nx)
    joints = [
        deterministic_joint(shape, uniform, maps)
        for maps in ((ident, ident), (ident, None), (None, ident))
    ] + [fit_joint(t, shape) for t in extra]
    seeds = [obj.to_flat([t.sum(axis=1), t.sum(axis=0)]) for t in joints]

    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    aux = UvAuxiliary(obj.coupling(res.point))
    return UvSumRate(
        value=res.value,
        aux=aux,
        point=evaluate_uv_point(c, aux),
        converged=res.converged,
    )


# ------------------------------------------------------- product regions

CONTAINS_TOL = 1e-9


@dataclass
class ProductAuxiliary:
    """Independent per-component auxiliaries for a product channel."""

    a1: AuxiliaryJoint
    a2: AuxiliaryJoint


# named per-component information terms used by region right-hand sides
_TERM_DEFS = {
    "ay": mi_terms("w", "y"),
    "az": mi_terms("w", "z"),
    "uy": mi_terms("u", "y", "w"),
    "vz": mi_terms("v", "z", "w"),
    "su": mi_terms("u", "y", "w") + mi_terms("x", "z", "uw"),
    "sv": mi_terms("v", "z", "w") + mi_terms("x", "y", "vw"),
    "hyw": ent_terms("y", "w"),
    "hzw": ent_terms("z", "w"),
    "svh": mi_terms("v", "z", "w") + ent_terms("y", "vw"),
    "suh": mi_terms("u", "y", "w") + ent_terms("z", "uw"),
    "xy": mi_terms("x", "y", "w"),
    "xz": mi_terms("x", "z", "w"),
}

Row = tuple[tuple[int, int, int], tuple[str, ...], tuple[str, ...]]


def _region_rows(kind: str) -> list[Row]:
    r0 = [((1, 0, 0), ("ay",), ("ay",)), ((1, 0, 0), ("az",), ("az",))]
    if kind == "product_outer":
        rows = list(r0)
        for base in ("ay", "az"):
            rows.append(((1, 1, 0), (base, "uy"), (base, "uy")))
            rows.append(((1, 0, 1), (base, "vz"), (base, "vz")))
        for p1, p2 in (("su", "su"), ("sv", "su"), ("sv", "sv")):
            for base in ("ay", "az"):
                rows.append(((1, 1, 1), (base, p1), (base, p2)))
        return rows
    if kind == "semi_deterministic":
        rows = list(r0)
        rows.append(((1, 1, 0), ("ay", "hyw"), ("ay", "uy")))
        rows.append(((1, 0, 1), ("az", "vz"), ("az", "hzw")))
        for base in ("ay", "az"):
            rows.append(((1, 1, 1), (base, "svh"), (base, "suh")))
        return rows
    if kind == "more_capable":
        rows = list(r0)
        for base in ("ay", "az"):
            rows.append(((1, 1, 0), (base, "uy"), (base, "xy")))
            rows.append(((1, 0, 1), (base, "xz"), (base, "vz")))
        for p1, p2 in (("su", "xy"), ("xz", "xy"), ("xz", "sv")):
            for base in ("ay", "az"):
                rows.append(((1, 1, 1), (base, p1), (base, p2)))
        return rows
    raise ValueError(f"unknown region kind {kind!r}")


REGION_KINDS = ("product_outer", "semi_deterministic", "more_capable")


def default_region_profiles(
    pc: ProductChannel, kind: str
) -> tuple[Cardinalities, Cardinalities]:
    """Auxiliary alphabet profiles per kind.

    The specialized regions use reduced auxiliaries: the semi-deterministic
    form needs only (W1, V1) and (W2, U2); the more-capable form only
    (W1, U1) and (W2, V2). Unused alphabets collapse to size one.
    """
    p1 = Cardinalities.for_region(pc.c1)
    p2 = Cardinalities.for_region(pc.c2)
    if kind == "semi_deterministic":
        p1 = Cardinalities(1, p1.nv, p1.nw)
        p2 = Cardinalities(p2.nu, 1, p2.nw)
    elif kind == "more_capable":
        p1 = Cardinalities(p1.nu, 1, p1.nw)
        p2 = Cardinalities(1, p2.nv, p2.nw)
    return p1, p2


def class_notes(pc: ProductChannel, kind: str, cfg: SearchConfig) -> list[str]:
    """Diagnostics of the class a region kind assumes; mismatches warn, never
    raise. The more-capable relations are ``is_more_capable``'s verdicts at
    ``cfg``, which can refute them but not certify them."""
    notes: list[str] = []
    if kind == "semi_deterministic":
        if not (is_deterministic(pc.c1, "y") and is_deterministic(pc.c2, "z")):
            notes.append(
                "warning: region form assumes deterministic Y1 and Z2; "
                "channel does not match, values are not a capacity region"
            )
    if kind == "more_capable":
        for c, stronger, weaker in ((pc.c1, "Z1", "Y1"), (pc.c2, "Y2", "Z2")):
            verdict = is_more_capable(c, stronger[0].lower(), cfg)
            if not verdict.holds:
                notes.append(
                    f"warning: region form assumes {stronger} more capable than {weaker}; "
                    f"component {stronger[1]}'s {stronger[0].lower()}_more_capable_than_"
                    f"{weaker[0].lower()} verdict refutes it by {verdict.gap:.6g} bits, "
                    "values are not a capacity region"
                )
    return notes


@dataclass
class RateRegionPolytope:
    """Polytope {R >= 0, a . R <= rhs} in (R0, R1, R2) with provenance."""

    inequalities: list[tuple[tuple[int, int, int], float]]
    tag: str

    def support(self, weights: Sequence[float], fix_r0: float | None = None) -> tuple[float, np.ndarray]:
        """Support in direction ``weights``, R0 <= ``fix_r0`` if given, and an optimal vertex."""
        system = _VertexSystem([a for a, _ in self.inequalities], fix_r0, weights)
        return system.optimum(np.asarray([r for _, r in self.inequalities]))

    def contains(self, point: Sequence[float]) -> bool:
        """Membership up to a slack of CONTAINS_TOL on every constraint."""
        r = np.asarray(point, dtype=float)
        if (r < -CONTAINS_TOL).any():
            return False
        for a, rhs in self.inequalities:
            if float(np.dot(a, r)) > rhs + CONTAINS_TOL:
                return False
        return True


class _VertexSystem:
    """The support LP of a region in direction ``w``: maximize w . R over the
    rows a . R <= rhs, the optional pin R0 <= fix_r0 and R >= 0. Its
    dual-feasible bases, the nonsingular 3-subsets of the constraints whose
    duals mu = A_B^{-T} w are >= 0 once rounding noise is zeroed, are found
    once, each as its duals on the rows and its pin term: a support is
    min_k duals[k] . rhs + offset[k], the weight rows and offset of the
    search's ``JointObjective``. ``duals`` and ``offset`` keep the first
    basis of each distinct pair, in order; ``optimum`` scores every basis
    (``basis_duals``, ``basis_offset``). With no such basis the support is
    unbounded and the constructor raises, as it does for weights that are
    not finite or a pin that is negative or not finite."""

    def __init__(self, row_normals: Sequence, fix_r0: float | None, w: Sequence[float]) -> None:
        w = np.asarray(w, dtype=float)
        if not np.isfinite(w).all():
            raise ValueError(f"weights must be finite, got {w.tolist()}")
        if fix_r0 is not None and not 0.0 <= fix_r0 < np.inf:
            raise ValueError(f"fix_r0 must be finite and nonnegative, got {fix_r0}")
        pin = [] if fix_r0 is None else [(1.0, 0.0, 0.0)]
        rows = np.asarray(row_normals, dtype=float).reshape(-1, 3)
        self.A = np.vstack([rows, *pin, np.diag([-1.0] * 3)])
        self.tail_rhs = np.asarray(([] if fix_r0 is None else [float(fix_r0)]) + [0.0] * 3)
        combos = np.asarray(list(itertools.combinations(range(len(self.A)), 3)))
        combos = combos[np.abs(np.linalg.det(self.A[combos])) >= 1e-12]
        inv = np.linalg.inv(self.A[combos])
        mu = np.matmul(inv.transpose(0, 2, 1), w)
        mu[np.abs(mu) <= 1e-14 * np.abs(w).max()] = 0.0
        feasible = (mu >= 0.0).all(axis=1)
        if not feasible.any():
            raise ValueError(f"no dual-feasible basis: support along {w.tolist()} is unbounded")
        self.combos, self.inv = combos[feasible], inv[feasible]
        full = np.zeros((len(self.combos), self.A.shape[0]))
        np.put_along_axis(full, self.combos, mu[feasible], 1)
        self.basis_duals = full[:, : len(rows)]
        self.basis_offset = full[:, len(rows) :] @ self.tail_rhs
        pairs = np.column_stack([self.basis_duals, self.basis_offset])
        first = np.sort(np.unique(pairs, axis=0, return_index=True)[1])
        self.duals, self.offset = self.basis_duals[first], self.basis_offset[first]

    def optimum(self, rhs: np.ndarray) -> tuple[float, np.ndarray]:
        """The support at one point's row right-hand sides and an optimal
        vertex. A basis solution misses by the larger of its value's excess
        and its worst constraint violation, and the first least miss wins,
        since on degenerate right-hand sides the first minimal basis alone
        can solve to a point outside the region."""
        b = np.concatenate([rhs, self.tail_rhs])
        verts = np.matmul(self.inv, b[self.combos][..., None])[..., 0]
        value = weigh(self.duals, rhs[None], self.offset)[0][0]
        excess = self.basis_duals @ rhs + self.basis_offset - value
        miss = np.maximum(excess, (verts @ self.A.T - b).max(1))
        return float(value), verts[miss.argmin()]


def _row_tables(
    pc: ProductChannel, rows: list[Row], shape1: tuple, shape2: tuple
) -> tuple[InfoFunctional, InfoFunctional]:
    """Per component, a table of its share of each row's right-hand side."""

    def table(c: Channel, shape: tuple, side: int) -> InfoFunctional:
        exprs = [[t for n in row[side] for t in _TERM_DEFS[n]] for row in rows]
        return InfoFunctional("uvwx", shape, exprs, channel=c.q)

    return table(pc.c1, shape1, 1), table(pc.c2, shape2, 2)


def _polytope(kind: str, rows: list[Row], rhs: np.ndarray) -> RateRegionPolytope:
    """The region's polytope for the row right-hand sides ``rhs``."""
    ineqs = [(a, float(r)) for (a, _, _), r in zip(rows, rhs)]
    return RateRegionPolytope(inequalities=ineqs, tag=kind)


def _check_inputs(pc: ProductChannel, aux: ProductAuxiliary) -> None:
    if aux.a1.shape[3] != pc.c1.nx or aux.a2.shape[3] != pc.c2.nx:
        raise ValueError("component auxiliary input alphabet mismatch")


def build_region(pc: ProductChannel, aux: ProductAuxiliary, kind: str) -> RateRegionPolytope:
    """Instantiate a region's inequalities at one product auxiliary."""
    rows = _region_rows(kind)
    _check_inputs(pc, aux)
    f1, f2 = _row_tables(pc, rows, aux.a1.shape, aux.a2.shape)
    return _polytope(kind, rows, f1.value(aux.a1.joint) + f2.value(aux.a2.joint))


def _support_objective(
    pc: ProductChannel,
    kind: str,
    weights: Sequence[float],
    prof1: Cardinalities,
    prof2: Cardinalities,
    fix_r0: float | None,
) -> tuple[JointObjective, _VertexSystem]:
    """A region's support in direction ``weights`` as a search objective
    over the two component auxiliaries, one block each: the component
    tables under the support LP's dual rows and pin offsets. Also returns
    the LP, which reports the vertex."""
    rows = _region_rows(kind)
    tables = _row_tables(pc, rows, prof1.shape(pc.c1.nx), prof2.shape(pc.c2.nx))
    system = _VertexSystem([a for a, _, _ in rows], fix_r0, weights)
    return JointObjective(tables, system.duals, system.offset), system


@dataclass
class SupportResult:
    """The support of ``region`` in direction ``weights`` and an optimal vertex."""

    value: float
    weights: tuple[float, float, float]
    vertex: np.ndarray
    aux: ProductAuxiliary
    region: RateRegionPolytope
    converged: bool


def region_support(
    pc: ProductChannel,
    kind: str,
    weights: Sequence[float],
    cfg: SearchConfig,
    extra_seeds: Sequence[ProductAuxiliary] = (),
    fix_r0: float | None = None,
) -> SupportResult:
    """Maximize a region's support function over product auxiliaries.

    ``value`` is the support of the region at the returned auxiliary in
    the direction ``weights`` (the minimum over the dual weight rows, the
    search objective's value there), so up to rounding it is a lower
    bound of the maximum over all auxiliaries. ``vertex`` is an optimal
    vertex, inside the region up to rounding. The mirrored outer bound is
    ``product_outer`` on ``ProductChannel(pc.c2, pc.c1)``, whose ``aux``
    lists the components in that swapped order. Each of ``extra_seeds``
    must be over the components' inputs.
    """
    for pa in extra_seeds:
        _check_inputs(pc, pa)
    prof1, prof2 = default_region_profiles(pc, kind)
    obj, system = _support_objective(pc, kind, weights, prof1, prof2, fix_r0)
    f1, f2 = obj.tables

    px1 = [np.full(pc.c1.nx, 1.0 / pc.c1.nx)]
    px2 = [np.full(pc.c2.nx, 1.0 / pc.c2.nx)]
    s1 = structured_seed_joints(pc.c1, prof1, px1)
    s2 = structured_seed_joints(pc.c2, prof2, px2)
    seeds = [obj.to_flat([t1, t2]) for t1 in s1[:6] for t2 in s2[:6]]
    for pa in extra_seeds:
        fitted = fit_joint(pa.a1.joint, f1.shape), fit_joint(pa.a2.joint, f2.shape)
        seeds.append(obj.to_flat(fitted))

    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    t1, t2 = obj.to_tensors(res.point)
    rhs = f1.value(t1) + f2.value(t2)
    value, vertex = system.optimum(rhs)
    return SupportResult(
        value=value,
        weights=tuple(float(x) for x in weights),
        vertex=vertex,
        aux=ProductAuxiliary(AuxiliaryJoint(t1), AuxiliaryJoint(t2)),
        region=_polytope(kind, _region_rows(kind), rhs),
        converged=res.converged,
    )
