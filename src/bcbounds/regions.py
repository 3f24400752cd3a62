"""Outer and inner rate regions evaluated at explicit auxiliaries.

Two families live here. The single-letter UV outer bound works on one
channel with auxiliaries p(u,v,x). The product-channel regions work on a
two-component product with independent per-component auxiliaries
p1(u1,v1,w1,x1) p2(u2,v2,w2,x2) and produce polytopes in (R0, R1, R2):

  product_outer      six inequality families with min-terms expanded
  semi_deterministic capacity region form when Y1 and Z2 are deterministic
  more_capable       capacity region form when Z1 is more capable than Y1
                     and Y2 more capable than Z2

The mirrored outer bound, with the components swapped in the mixed sum
rows, is ``product_outer`` on ``ProductChannel(pc.c2, pc.c1)``: swapping
the two sides of every ``product_outer`` row gives the mirrored rows.

The region forms assume their class; build_region notes a mismatch of the
determinism it can read off the channel or a more-capable relation that a
p(x) grid scan refutes, and ``bcbounds classify`` reports the more-capable
verdicts of each component.

All min-terms are expanded into separate inequalities, so every
right-hand side is a smooth sum of per-component information terms. A
support in direction w is a three-variable LP, and by LP duality it is
the minimum of mu_B . b over the dual-feasible bases B (3-subsets of the
constraints with mu_B = A_B^{-T} w >= 0). The bases depend only on the
kind, the pin on R0 and w, so their duals are weight rows found once: the
search's objective and every reported value are that minimum, its
gradient follows the minimal row, and the reported vertex is optimal and
inside the region up to rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import REFUTE_TOL, Channel, ProductChannel, is_deterministic, more_capable_scan
from .marton import (
    AuxiliaryJoint,
    Cardinalities,
    checked_joint,
    deterministic_joint,
    fit_joint,
    structured_seed_joints,
)
from .objectives import BatchGrad, InfoFunctional, JointObjective, ent_terms, mi_terms
from .search import SearchConfig, maximize

__all__ = [
    "UvAuxiliary",
    "UvPoint",
    "ProductAuxiliary",
    "RateRegionPolytope",
    "evaluate_uv_point",
    "uv_sum_rate",
    "build_region",
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


def _uv_table(c: Channel, nu: int, nv: int) -> InfoFunctional:
    """Rows: the three sum-rate branches (searched as their minimum), then
    I(U;Y) and I(V;Z)."""
    iuy, ivz = mi_terms("u", "y"), mi_terms("v", "z")
    rows = [iuy + ivz, iuy + mi_terms("x", "z", "u"), ivz + mi_terms("x", "y", "v"), iuy, ivz]
    return InfoFunctional("uvx", (nu, nv, c.nx), rows, channel=c.q)


def _uv_point(table: InfoFunctional, aux: UvAuxiliary) -> UvPoint:
    _, sum_y, sum_z, iuy, ivz = map(float, table.value(aux.joint))
    return UvPoint(r1_bound=iuy, r2_bound=ivz, sum_y_side=sum_y, sum_z_side=sum_z)


def evaluate_uv_point(c: Channel, aux: UvAuxiliary) -> UvPoint:
    """Exact UV-bound coordinates at one auxiliary."""
    nu, nv, nx = aux.shape
    if nx != c.nx:
        raise ValueError("UV auxiliary input alphabet mismatch")
    return _uv_point(_uv_table(c, nu, nv), aux)


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

    Auxiliary alphabets are |U| = |V| = nx + 1. The objective is a
    min of smooth branches; ascent follows the active branch and every
    candidate is scored exactly, so the result is a certified lower bound.
    """
    shape = (c.nx + 1, c.nx + 1, c.nx)
    obj = JointObjective(_uv_table(c, *shape[:2]), np.eye(5)[:3])

    uniform = np.full(c.nx, 1.0 / c.nx)
    ident = np.arange(c.nx)
    seeds = [
        deterministic_joint(shape, uniform, maps).ravel()
        for maps in ((ident, ident), (ident, None), (None, ident))
    ]
    seeds += [fit_joint(s, shape).ravel() for s in extra_seeds]

    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    aux = UvAuxiliary(res.point.reshape(shape))
    return UvSumRate(
        value=res.value,
        aux=aux,
        point=_uv_point(obj.functional, aux),
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


def _class_notes(pc: ProductChannel, kind: str) -> list[str]:
    """Diagnostics of the region's class; mismatches warn, never raise. The
    more-capable relations are checked by a p(x) grid scan, which can only
    refute them."""
    notes: list[str] = []
    if kind == "semi_deterministic":
        if not (is_deterministic(pc.c1, "y") and is_deterministic(pc.c2, "z")):
            notes.append(
                "warning: region form assumes deterministic Y1 and Z2; "
                "channel does not match, values are not a capacity region"
            )
    if kind == "more_capable":
        for c, stronger, weaker in ((pc.c1, "Z1", "Y1"), (pc.c2, "Y2", "Z2")):
            gap = more_capable_scan(c, stronger[0].lower())[0]
            if gap > REFUTE_TOL:
                notes.append(
                    f"warning: region form assumes {stronger} more capable than {weaker}; "
                    f"a p(x) grid scan refutes it by {gap:.6g} bits, "
                    "values are not a capacity region"
                )
    return notes


@dataclass
class RateRegionPolytope:
    """Polytope {R >= 0, a . R <= rhs} in (R0, R1, R2) with provenance."""

    inequalities: list[tuple[tuple[int, int, int], float]]
    tag: str
    notes: list = field(default_factory=list)

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
    once: ``duals[k]`` holds basis k's duals on the rows and ``offset[k]``
    its pin term, so a support is min_k duals[k] . rhs + offset[k]. With no
    such basis the support is unbounded and the constructor raises."""

    def __init__(self, row_normals: Sequence, fix_r0: float | None, w: Sequence[float]) -> None:
        w = np.asarray(w, dtype=float)
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
        self.duals = full[:, : len(rows)]
        self.offset = full[:, len(rows) :] @ self.tail_rhs

    def support(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The support and the index of the first minimal basis at each row
        of row right-hand sides ``rhs``, bit-identical to a call on the row
        alone."""
        values = np.matmul(self.duals, rhs[..., None])[..., 0] + self.offset
        k = values.argmin(axis=1)
        return values[np.arange(len(rhs)), k], k

    def optimum(self, rhs: np.ndarray) -> tuple[float, np.ndarray]:
        """The support at one point's row right-hand sides and an optimal
        vertex. A basis solution misses by the larger of its value's excess
        and its worst constraint violation, and the first least miss wins,
        since on degenerate right-hand sides the first minimal basis alone
        can solve to a point outside the region."""
        b = np.concatenate([rhs, self.tail_rhs])
        verts = np.matmul(self.inv, b[self.combos][..., None])[..., 0]
        value = self.support(rhs[None])[0][0]
        miss = np.maximum(self.duals @ rhs + self.offset - value, (verts @ self.A.T - b).max(1))
        return float(value), verts[miss.argmin()]


def _row_tables(
    pc: ProductChannel, rows: list[Row], shape1: tuple, shape2: tuple
) -> tuple[InfoFunctional, InfoFunctional]:
    """Per component, a table of its share of each row's right-hand side."""

    def table(c: Channel, shape: tuple, side: int) -> InfoFunctional:
        exprs = [[t for n in row[side] for t in _TERM_DEFS[n]] for row in rows]
        return InfoFunctional("uvwx", shape, exprs, channel=c.q)

    return table(pc.c1, shape1, 1), table(pc.c2, shape2, 2)


def _polytope(
    pc: ProductChannel, kind: str, rows: list[Row], rhs: np.ndarray
) -> RateRegionPolytope:
    """The region's polytope for the row right-hand sides ``rhs``."""
    ineqs = [(a, float(r)) for (a, _, _), r in zip(rows, rhs)]
    return RateRegionPolytope(inequalities=ineqs, tag=kind, notes=_class_notes(pc, kind))


def build_region(pc: ProductChannel, aux: ProductAuxiliary, kind: str) -> RateRegionPolytope:
    """Instantiate a region's inequalities at one product auxiliary."""
    rows = _region_rows(kind)
    if aux.a1.shape[3] != pc.c1.nx or aux.a2.shape[3] != pc.c2.nx:
        raise ValueError("component auxiliary input alphabet mismatch")
    f1, f2 = _row_tables(pc, rows, aux.a1.shape, aux.a2.shape)
    return _polytope(pc, kind, rows, f1.value(aux.a1.joint) + f2.value(aux.a2.joint))


class _SupportObjective:
    """Support function of a region in a fixed direction, as a function of
    the two component auxiliaries: the minimum of ``system.duals`` weighing
    the row values, with the gradient of the first minimal weight row."""

    def __init__(
        self,
        pc: ProductChannel,
        kind: str,
        weights: Sequence[float],
        prof1: Cardinalities,
        prof2: Cardinalities,
        fix_r0: float | None,
    ) -> None:
        self.rows = _region_rows(kind)
        self.shape1 = prof1.shape(pc.c1.nx)
        self.shape2 = prof2.shape(pc.c2.nx)
        self.size1 = int(np.prod(self.shape1))
        self.size2 = int(np.prod(self.shape2))
        self.f1, self.f2 = _row_tables(pc, self.rows, self.shape1, self.shape2)
        self.system = _VertexSystem([a for a, _, _ in self.rows], fix_r0, weights)

    @property
    def block_sizes(self) -> list[int]:
        return [self.size1, self.size2]

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two component auxiliaries of a flat point, or of each row of
        a batch."""
        lead = flat.shape[:-1]
        return (
            flat[..., : self.size1].reshape(lead + self.shape1),
            flat[..., self.size1 :].reshape(lead + self.shape2),
        )

    def __call__(self, flat: np.ndarray) -> tuple[np.ndarray, BatchGrad]:
        t1, t2 = self.split(flat)
        ev1, ev2 = self.f1.evaluate(t1), self.f2.evaluate(t2)
        values, k = self.system.support(ev1.values + ev2.values)

        def grad(rows: Sequence[int]) -> np.ndarray:
            mu = self.system.duals[k[rows]]
            g1 = ev1.grad(rows, mu).reshape(len(rows), -1)
            g2 = ev2.grad(rows, mu).reshape(len(rows), -1)
            return np.concatenate([g1, g2], axis=1)

        return values, grad


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
    lists the components in that swapped order.
    """
    prof1, prof2 = default_region_profiles(pc, kind)
    obj = _SupportObjective(pc, kind, weights, prof1, prof2, fix_r0=fix_r0)

    seeds = []
    px1 = [np.full(pc.c1.nx, 1.0 / pc.c1.nx)]
    px2 = [np.full(pc.c2.nx, 1.0 / pc.c2.nx)]
    s1 = structured_seed_joints(pc.c1, prof1, px1)
    s2 = structured_seed_joints(pc.c2, prof2, px2)
    for t1 in s1[:6]:
        for t2 in s2[:6]:
            seeds.append(np.concatenate([t1.ravel(), t2.ravel()]))
    for pa in extra_seeds:
        e1 = fit_joint(pa.a1.joint, obj.shape1)
        e2 = fit_joint(pa.a2.joint, obj.shape2)
        seeds.append(np.concatenate([e1.ravel(), e2.ravel()]))

    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    t1, t2 = obj.split(res.point)
    rhs = obj.f1.value(t1) + obj.f2.value(t2)
    value, vertex = obj.system.optimum(rhs)
    return SupportResult(
        value=value,
        weights=tuple(float(x) for x in weights),
        vertex=vertex,
        aux=ProductAuxiliary(AuxiliaryJoint(t1), AuxiliaryJoint(t2)),
        region=_polytope(pc, kind, obj.rows, rhs),
        converged=res.converged,
    )
