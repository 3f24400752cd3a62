"""Outer and inner rate regions evaluated at explicit auxiliaries.

Two families live here. The single-letter UV outer bound works on one
channel with auxiliaries p(u,v,x). The product-channel regions work on a
two-component product with independent per-component auxiliaries
p1(u1,v1,w1,x1) p2(u2,v2,w2,x2) and produce polytopes in (R0, R1, R2):

  product_outer      six inequality families with min-terms expanded
  product_inner      the achievable product region (with the -I(U;V|W) term)
  semi_deterministic capacity region form when Y1 and Z2 are deterministic
  more_capable       capacity region form when Z1 is more capable than Y1
                     and Y2 more capable than Z2
  more_capable_deterministic
                     capacity region form when Z1 is more capable than Y1
                     and Y2 is deterministic

The region forms assume their class; build_region notes a mismatch of the
determinism it can read off the channel, and ``bcbounds classify`` reports
the more-capable verdicts of each component.

All min-terms are expanded into separate inequalities, so every
right-hand side is a smooth sum of per-component information terms; the
support search differentiates through the optimal vertex via the active
constraints' dual weights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import Channel, ProductChannel, is_deterministic
from .marton import (
    AuxiliaryJoint,
    Cardinalities,
    checked_joint,
    deterministic_joint,
    embed_auxiliary,
    structured_seed_joints,
)
from .objectives import Grad, InfoFunctional, JointObjective, ent_terms, mi_terms, min_of
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

    def to_dict(self) -> dict:
        return {
            "r1_bound_bits": self.r1_bound,
            "r2_bound_bits": self.r2_bound,
            "sum_y_side_bits": self.sum_y_side,
            "sum_z_side_bits": self.sum_z_side,
            "sum_rate_bits": self.sum_rate,
        }


def _uv_table(c: Channel, nu: int, nv: int) -> InfoFunctional:
    """Rows: the three sum-rate branches (searched as their minimum), then
    I(U;Y) and I(V;Z)."""
    iuy, ivz = mi_terms("u", "y"), mi_terms("v", "z")
    rows = [iuy + ivz, iuy + mi_terms("x", "z", "u"), ivz + mi_terms("x", "y", "v"), iuy, ivz]
    return InfoFunctional("uvx", (nu, nv, c.nx), rows, channel=c.q)


def evaluate_uv_point(c: Channel, aux: UvAuxiliary) -> UvPoint:
    """Exact UV-bound coordinates at one auxiliary."""
    nu, nv, nx = aux.shape
    if nx != c.nx:
        raise ValueError("UV auxiliary input alphabet mismatch")
    _, sum_y, sum_z, iuy, ivz = map(float, _uv_table(c, nu, nv).value(aux.joint))
    return UvPoint(r1_bound=iuy, r2_bound=ivz, sum_y_side=sum_y, sum_z_side=sum_z)


@dataclass
class UvSumRate:
    value: float
    aux: UvAuxiliary
    point: UvPoint
    converged: bool


def uv_sum_rate(
    c: Channel,
    cfg: SearchConfig | None = None,
    extra_seeds: Sequence[np.ndarray] = (),
) -> UvSumRate:
    """Maximize the UV sum rate min of its three inequality combinations.

    Auxiliary alphabets are |U| = |V| = nx + 1. The objective is a
    min of smooth branches; ascent follows the active branch and every
    candidate is scored exactly, so the result is a certified lower bound.
    """
    cfg = cfg or SearchConfig(restarts=32, max_iters=200)
    shape = (c.nx + 1, c.nx + 1, c.nx)
    obj = JointObjective(_uv_table(c, *shape[:2]), min_of(np.eye(5)[:3]))

    uniform = np.full(c.nx, 1.0 / c.nx)
    ident = np.arange(c.nx)
    seeds = [
        deterministic_joint(shape, uniform, maps).ravel()
        for maps in ((ident, ident), (ident, None), (None, ident))
    ]
    for s in extra_seeds:
        if isinstance(s, UvAuxiliary):
            s = s.joint
        s = np.asarray(s, dtype=float)
        if s.shape != shape:
            # allow smaller auxiliary alphabets, zero-padded
            padded = np.zeros(shape)
            padded[: s.shape[0], : s.shape[1], :] = s
            s = padded
        seeds.append(s.ravel())

    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    aux = UvAuxiliary(res.point.reshape(shape))
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
    "ay": lambda: mi_terms("w", "y"),
    "az": lambda: mi_terms("w", "z"),
    "uy": lambda: mi_terms("u", "y", "w"),
    "vz": lambda: mi_terms("v", "z", "w"),
    "su": lambda: mi_terms("u", "y", "w") + mi_terms("x", "z", "uw"),
    "sv": lambda: mi_terms("v", "z", "w") + mi_terms("x", "y", "vw"),
    "hyw": lambda: ent_terms("y", "w"),
    "hzw": lambda: ent_terms("z", "w"),
    "svh": lambda: mi_terms("v", "z", "w") + ent_terms("y", "vw"),
    "suh": lambda: mi_terms("u", "y", "w") + ent_terms("z", "uw"),
    "xy": lambda: mi_terms("x", "y", "w"),
    "xz": lambda: mi_terms("x", "z", "w"),
    "iuv": lambda: mi_terms("u", "v", "w"),
    "niuv": lambda: [(-c, s) for c, s in mi_terms("u", "v", "w")],
}

Row = tuple[tuple[int, int, int], tuple[str, ...], tuple[str, ...]]


def _region_rows(kind: str, mirrored: bool) -> list[Row]:
    r0 = [((1, 0, 0), ("ay",), ("ay",)), ((1, 0, 0), ("az",), ("az",))]
    if kind == "product_outer":
        rows = list(r0)
        for base in ("ay", "az"):
            rows.append(((1, 1, 0), (base, "uy"), (base, "uy")))
            rows.append(((1, 0, 1), (base, "vz"), (base, "vz")))
        if not mirrored:
            patterns = [("su", "su"), ("sv", "su"), ("sv", "sv")]
        else:
            patterns = [("su", "sv"), ("sv", "sv"), ("su", "su")]
        for p1, p2 in patterns:
            for base in ("ay", "az"):
                rows.append(((1, 1, 1), (base, p1), (base, p2)))
        return rows
    if kind == "product_inner":
        rows = list(r0)
        rows.append(((1, 1, 0), ("ay", "uy"), ("ay", "uy")))
        rows.append(((1, 0, 1), ("az", "vz"), ("az", "vz")))
        for base in ("ay", "az"):
            rows.append(((1, 1, 1), (base, "uy", "vz", "niuv"), (base, "uy", "vz", "niuv")))
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
    if kind == "more_capable_deterministic":
        # mixed class: Z1 more capable than Y1, Y2 deterministic
        rows = list(r0)
        for base in ("ay", "az"):
            rows.append(((1, 1, 0), (base, "uy"), (base, "hyw")))
            rows.append(((1, 0, 1), (base, "xz"), (base, "vz")))
            rows.append(((1, 1, 1), (base, "xz"), (base, "svh")))
        return rows
    raise ValueError(f"unknown region kind {kind!r}")


REGION_KINDS = (
    "product_outer",
    "product_inner",
    "semi_deterministic",
    "more_capable",
    "more_capable_deterministic",
)


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
    elif kind in ("more_capable", "more_capable_deterministic"):
        p1 = Cardinalities(p1.nu, 1, p1.nw)
        p2 = Cardinalities(1, p2.nv, p2.nw)
    return p1, p2


def _class_notes(pc: ProductChannel, kind: str) -> list[str]:
    """Determinism diagnostics of the region's class; mismatches warn, never
    raise."""
    notes: list[str] = []
    if kind == "semi_deterministic":
        if not (is_deterministic(pc.c1, "y") and is_deterministic(pc.c2, "z")):
            notes.append(
                "warning: region form assumes deterministic Y1 and Z2; "
                "channel does not match, values are not a capacity region"
            )
    elif kind == "more_capable_deterministic":
        if not is_deterministic(pc.c2, "y"):
            notes.append(
                "warning: region form assumes deterministic Y2; "
                "channel does not match"
            )
    return notes


@dataclass
class RateRegionPolytope:
    """Polytope {R >= 0, a . R <= rhs} in (R0, R1, R2) with provenance."""

    inequalities: list[tuple[tuple[int, int, int], float]]
    tag: str
    notes: list = field(default_factory=list)

    def to_json_list(self) -> list[dict]:
        return [
            {"a": [float(x) for x in a], "rhs": float(r)}
            for a, r in self.inequalities
        ]

    def vertices(self, fix_r0: float | None = None) -> np.ndarray:
        system = _VertexSystem([a for a, _ in self.inequalities], fix_r0)
        verts, feas = system.vertices(np.asarray([r for _, r in self.inequalities]))
        if not feas.any():
            return np.zeros((1, 3))
        return np.unique(np.round(verts[feas], 12), axis=0)

    def support(self, weights: Sequence[float], fix_r0: float | None = None) -> tuple[float, np.ndarray]:
        verts = self.vertices(fix_r0=fix_r0)
        w = np.asarray(weights, dtype=float)
        scores = verts @ w
        i = int(np.argmax(scores))
        return float(scores[i]), verts[i]

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
    """Constraints of a region in (R0, R1, R2): the rows a . R <= rhs, then
    the optional pin R0 <= fix_r0, then R >= 0. Every nonsingular 3-subset
    of them is inverted once, so the candidate vertices for any row
    right-hand sides are one batched matmul."""

    def __init__(self, row_normals: Sequence, fix_r0: float | None = None) -> None:
        pin = [] if fix_r0 is None else [(1.0, 0.0, 0.0)]
        rows = np.asarray(row_normals, dtype=float).reshape(-1, 3)
        self.A = np.vstack([rows, *pin, np.diag([-1.0] * 3)])
        self.tail_rhs = np.asarray(([] if fix_r0 is None else [float(fix_r0)]) + [0.0] * 3)
        combos = np.asarray(list(itertools.combinations(range(self.A.shape[0]), 3)))
        subs = self.A[combos]
        nonsingular = np.abs(np.linalg.det(subs)) >= 1e-12
        self.combos = combos[nonsingular]
        self.inv = np.linalg.inv(subs[nonsingular])

    def vertices(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate vertex of each 3-subset for row right-hand sides
        ``rhs``, and a mask of the feasible ones."""
        b = np.concatenate([rhs, self.tail_rhs])
        verts = np.einsum("kij,kj->ki", self.inv, b[self.combos])
        return verts, (verts @ self.A.T <= b[None, :] + 1e-9).all(axis=1)


def _row_tables(
    pc: ProductChannel, rows: list[Row], shape1: tuple, shape2: tuple
) -> tuple[InfoFunctional, InfoFunctional]:
    """Per component, a table of its share of each row's right-hand side."""

    def table(c: Channel, shape: tuple, side: int) -> InfoFunctional:
        exprs = [[t for n in row[side] for t in _TERM_DEFS[n]()] for row in rows]
        return InfoFunctional("uvwx", shape, exprs, channel=c.q)

    return table(pc.c1, shape1, 1), table(pc.c2, shape2, 2)


def build_region(
    pc: ProductChannel,
    aux: ProductAuxiliary,
    kind: str,
    mirrored: bool = False,
) -> RateRegionPolytope:
    """Instantiate a region's inequalities at one product auxiliary."""
    notes = _class_notes(pc, kind)
    rows = _region_rows(kind, mirrored)
    if aux.a1.shape[3] != pc.c1.nx or aux.a2.shape[3] != pc.c2.nx:
        raise ValueError("component auxiliary input alphabet mismatch")
    f1, f2 = _row_tables(pc, rows, aux.a1.shape, aux.a2.shape)
    rhs = f1.value(aux.a1.joint) + f2.value(aux.a2.joint)
    ineqs = [(a, float(r)) for (a, _, _), r in zip(rows, rhs)]
    tag = kind + ("_mirror" if (kind == "product_outer" and mirrored) else "")
    return RateRegionPolytope(inequalities=ineqs, tag=tag, notes=notes)


class _SupportObjective:
    """Support function of a region in a fixed direction, as a function of
    the two component auxiliaries, with gradients via active-vertex duals."""

    def __init__(
        self,
        pc: ProductChannel,
        kind: str,
        mirrored: bool,
        weights: Sequence[float],
        prof1: Cardinalities,
        prof2: Cardinalities,
        fix_r0: float | None = None,
    ) -> None:
        self.rows = _region_rows(kind, mirrored)
        self.w = np.asarray(weights, dtype=float)
        self.shape1 = (prof1.nu, prof1.nv, prof1.nw, pc.c1.nx)
        self.shape2 = (prof2.nu, prof2.nv, prof2.nw, pc.c2.nx)
        self.size1 = int(np.prod(self.shape1))
        self.size2 = int(np.prod(self.shape2))
        self.f1, self.f2 = _row_tables(pc, self.rows, self.shape1, self.shape2)
        self.system = _VertexSystem([a for a, _, _ in self.rows], fix_r0)

    @property
    def block_sizes(self) -> list[int]:
        return [self.size1, self.size2]

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            flat[: self.size1].reshape(self.shape1),
            flat[self.size1 :].reshape(self.shape2),
        )

    def best_vertex(self, rhs: np.ndarray) -> tuple[float, int | None]:
        """Support value over the feasible vertices for row right-hand sides
        ``rhs``, and the index of the optimal combination of active
        constraints (None for an empty numeric polytope)."""
        verts, feas = self.system.vertices(rhs)
        scores = verts @ self.w
        scores[~feas] = -np.inf
        k = int(np.argmax(scores))
        if not np.isfinite(scores[k]):
            return 0.0, None
        return float(scores[k]), k

    def __call__(self, flat: np.ndarray) -> tuple[float, Grad]:
        t1, t2 = self.split(flat)
        ev1, ev2 = self.f1.evaluate(t1), self.f2.evaluate(t2)
        value, k = self.best_vertex(ev1.values + ev2.values)
        if k is None:
            # empty numeric polytope: fall back to the origin
            return value, lambda: np.zeros(self.size1 + self.size2)

        def grad() -> np.ndarray:
            # duals of the active constraints, as weights on the region rows
            vs = self.system
            mu = np.zeros(vs.A.shape[0])
            mu[vs.combos[k]] = vs.inv[k].T @ self.w
            mu = mu[: len(self.rows)]
            mu[np.abs(mu) <= 1e-14] = 0.0
            return np.concatenate([ev1.grad(mu).ravel(), ev2.grad(mu).ravel()])

        return value, grad


def _fit_seed(aux: AuxiliaryJoint, prof: Cardinalities) -> np.ndarray:
    """Adapt a seed auxiliary to a profile: axes the profile collapses to
    size one are marginalized out, the rest zero-padded."""
    t = aux.joint
    if prof.nu == 1 and t.shape[0] > 1:
        t = t.sum(axis=0, keepdims=True)
    if prof.nv == 1 and t.shape[1] > 1:
        t = t.sum(axis=1, keepdims=True)
    if prof.nw == 1 and t.shape[2] > 1:
        t = t.sum(axis=2, keepdims=True)
    return embed_auxiliary(AuxiliaryJoint(t), prof).joint


@dataclass
class SupportResult:
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
    cfg: SearchConfig | None = None,
    mirrored: bool = False,
    extra_seeds: Sequence[ProductAuxiliary] = (),
    fix_r0: float | None = None,
) -> SupportResult:
    """Maximize a region's support function over product auxiliaries.

    Certified lower bound of the true support: every candidate auxiliary
    pair is scored by exact vertex enumeration of its polytope.
    """
    cfg = cfg or SearchConfig(restarts=32, max_iters=150)
    prof1, prof2 = default_region_profiles(pc, kind)
    obj = _SupportObjective(pc, kind, mirrored, weights, prof1, prof2, fix_r0=fix_r0)

    seeds = []
    px1 = [np.full(pc.c1.nx, 1.0 / pc.c1.nx)]
    px2 = [np.full(pc.c2.nx, 1.0 / pc.c2.nx)]
    s1 = structured_seed_joints(pc.c1, prof1, px1)
    s2 = structured_seed_joints(pc.c2, prof2, px2)
    for t1 in s1[:6]:
        for t2 in s2[:6]:
            seeds.append(np.concatenate([t1.ravel(), t2.ravel()]))
    for pa in extra_seeds:
        e1 = _fit_seed(pa.a1, prof1)
        e2 = _fit_seed(pa.a2, prof2)
        seeds.append(np.concatenate([e1.ravel(), e2.ravel()]))

    res = maximize(obj, obj.block_sizes, cfg, seeds=seeds)
    t1, t2 = obj.split(res.point)
    aux = ProductAuxiliary(AuxiliaryJoint(t1), AuxiliaryJoint(t2))
    region = build_region(pc, aux, kind, mirrored=mirrored)
    value, vertex = region.support(weights, fix_r0=fix_r0)
    value = max(value, res.value)
    return SupportResult(
        value=value,
        weights=tuple(float(x) for x in weights),
        vertex=vertex,
        aux=aux,
        region=region,
        converged=res.converged,
    )
