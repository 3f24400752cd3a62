"""Separating example: a product channel where the achievable sum rate
(8/3 bits) sits strictly below the UV outer bound (at least 44/15 bits).

Each component has four inputs. One receiver sees the two-way class label
[x >= 2] (deterministic, one bit). The other receiver sees an unordered
pair of distinct inputs, uniform over the three pairs containing x, so
its output alphabet has six symbols. Component 1 is oriented with the
deterministic receiver on the Y side, component 2 on the Z side; the
product is therefore reversely semi-deterministic.

The weighted sum-rate curve of a single component at uniform input is
piecewise affine with one breakpoint, known in closed form, and the
minimum of the two components' curve sum is 8/3 at lambda = 1/2. A
mixture auxiliary built from the class label, the input parity, and a
Q-randomized switch to the raw input evaluates the UV bound to exactly
44/15. Everything here is exact arithmetic plus the Marton sum rate of
the product from its components and a UV search seeded with the witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, ProductChannel, product_tensor
from .kernel import entropy_of_array
from .marton import AuxiliaryJoint, Check, MartonSumRate, deterministic_joint, marton_sum_rate
from .regions import UvAuxiliary, UvPoint, UvSumRate, evaluate_uv_point, uv_sum_rate
from .search import SearchConfig

__all__ = [
    "PAIRS",
    "component",
    "product_channel",
    "f_closed_form",
    "lambda_curve_analytic",
    "analytic_product_curve",
    "analytic_minimum",
    "component_branch_aux",
    "UV_WITNESS_BITS",
    "uv_witness_auxiliary",
    "marton_on_product",
    "uv_on_product",
    "verify_separation",
]

# unordered pairs of distinct inputs; the noisy receiver emits the index
# of one of the three pairs containing x, each with probability 1/3
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

LOG2_3 = float(np.log2(3.0))

# the class label [x >= 2] and the parity x % 2; parity pairs one input
# from each class, which keeps the class label uninformed while still
# splitting the noisy receiver's pair distribution
_LABEL = np.array([0, 0, 1, 1])
_PARITY = np.array([0, 1, 0, 1])


def component(det: str) -> Channel:
    """One four-input component; `det` names the deterministic receiver."""
    if det not in ("y", "z"):
        raise ValueError("det must be 'y' or 'z'")
    noisy = np.zeros((4, 6))
    for j, (a, b) in enumerate(PAIRS):
        noisy[a, j] = 1.0 / 3.0
        noisy[b, j] = 1.0 / 3.0
    label = np.zeros((4, 2))
    label[np.arange(4), _LABEL] = 1.0
    if det == "z":
        q = np.einsum("xy,xz->xyz", noisy, label)
    else:
        q = np.einsum("xy,xz->xyz", label, noisy)
    return Channel(q)


def product_channel() -> ProductChannel:
    """Component 1 deterministic toward Y, component 2 toward Z."""
    return ProductChannel(component("y"), component("z"))


def f_closed_form(x: float) -> float:
    """Best H(Z|U) - H(Y|U) over p(u|x) at input (x/2, x/2, (1-x)/2, (1-x)/2)
    on the Z-deterministic component: (1/3) H2(x) - log2(3)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return entropy_of_array(np.array([x, 1.0 - x])) / 3.0 - LOG2_3


def lambda_curve_analytic(lam: float, det: str) -> float:
    """Closed-form weighted sum rate at uniform input for one component.

    Z-deterministic orientation: 5/3 - (2/3) lam on [0, 1/2], then 4/3.
    The Y-deterministic orientation is the lam -> 1 - lam mirror.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if det == "y":
        return lambda_curve_analytic(1.0 - lam, "z")
    if det != "z":
        raise ValueError("det must be 'y' or 'z'")
    if lam <= 0.5:
        return 5.0 / 3.0 - 2.0 / 3.0 * lam
    return 4.0 / 3.0


def analytic_product_curve(lam: float) -> float:
    return lambda_curve_analytic(lam, "y") + lambda_curve_analytic(lam, "z")


def analytic_minimum() -> tuple[float, float]:
    """(lambda*, value) of the product curve minimum: (1/2, 8/3)."""
    return 0.5, 8.0 / 3.0


def component_branch_aux(det: str, branch: str) -> AuxiliaryJoint:
    """The two optimal auxiliary constructions for one component, at the
    uniform input law.

    Z-deterministic: 'steep' is W = class label, U = X, V = class label
    (value 5/3 - (2/3) lam at uniform); 'flat' is W constant, U = parity,
    V = class label (value 4/3 for every lam). The Y-deterministic
    constructions swap the U and V roles.
    """
    if det not in ("y", "z"):
        raise ValueError("det must be 'y' or 'z'")
    px = np.full(4, 0.25)
    if branch == "steep":
        t = deterministic_joint((4, 2, 2, 4), px, (np.arange(4), _LABEL, _LABEL))
    elif branch == "flat":
        t = deterministic_joint((2, 2, 1, 4), px, (_PARITY, _LABEL, None))
    else:
        raise ValueError("branch must be 'steep' or 'flat'")
    return AuxiliaryJoint(t if det == "z" else np.swapaxes(t, 0, 1))


def _witness_components(q1: float, q2: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-component witness laws p1(u1, v1_mixed, x1), p2(u2_mixed, v2, x2).

    A mixed symbol takes values 0..1 for the parity branch (probability q)
    and 2..5 to identify x; the other auxiliary is the class label."""
    p1 = np.zeros((2, 6, 4))
    p2 = np.zeros((6, 2, 4))
    for x in range(4):
        p1[_LABEL[x], _PARITY[x], x] += q1 * 0.25
        p1[_LABEL[x], 2 + x, x] += (1.0 - q1) * 0.25
        p2[_PARITY[x], _LABEL[x], x] += q2 * 0.25
        p2[2 + x, _LABEL[x], x] += (1.0 - q2) * 0.25
    return p1, p2


# the UV sum rate at the witness auxiliary, exactly
UV_WITNESS_BITS = 44.0 / 15.0


def uv_witness_auxiliary(q_probs: tuple[float, float] = (0.8, 0.8)) -> UvAuxiliary:
    """Mixture auxiliary certifying the UV bound value on the product.

    Component 1: U1 is the Y1 label; the V side draws Q1 (probability
    q_probs[0] for branch 0) and reveals the parity of X1 when Q1 = 0 or
    X1 itself when Q1 = 1. Component 2 mirrors this on the U side with
    V2 the Z2 label. The (branch, symbol) pairs are flattened to plain
    alphabets of size six; the product auxiliary has |U| = |V| = 12 on
    the 16 inputs. At q_probs = (4/5, 4/5) the evaluated point is exactly
    (22/15, 22/15, 44/15, 44/15).
    """
    q1, q2 = float(q_probs[0]), float(q_probs[1])
    if not (0.0 <= q1 <= 1.0 and 0.0 <= q2 <= 1.0):
        raise ValueError("mixing probabilities must lie in [0, 1]")
    p1, p2 = _witness_components(q1, q2)
    return UvAuxiliary(product_tensor(p1, p2))


# search budgets of verify_separation's two product searches
MARTON_PRODUCT_CFG = SearchConfig(restarts=6, max_iters=120)
UV_PRODUCT_CFG = SearchConfig(restarts=8, max_iters=150)


def marton_on_product(cfg: SearchConfig) -> MartonSumRate:
    """Marton sum rate of the product from its components' searches."""
    return marton_sum_rate(product_channel(), cfg)


def uv_on_product(cfg: SearchConfig) -> UvSumRate:
    """Free UV sum-rate search on the product, seeded with the witness."""
    return uv_sum_rate(
        product_channel().flat,
        cfg,
        extra_seeds=[uv_witness_auxiliary().joint],
    )


@dataclass
class SeparationReport:
    checks: list[Check]
    converged: bool
    marton: MartonSumRate
    uv_witness_point: UvPoint
    uv_free: UvSumRate

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_separation(seed: int) -> SeparationReport:
    """End-to-end reproduction of the inner/outer sum-rate separation.

    Checks: (i) the analytic curve minimum is 8/3 at lambda = 1/2;
    (ii) the numeric Marton sum rate of the product is within 5e-3 of it;
    (iii) the UV bound at the explicit mixture auxiliary is exactly 44/15;
    (iv) the free UV search does at least as well; (v) the numeric gap
    reproduces the analytic 4/15 separation up to the same slacks.
    """
    lam_star, analytic_value = analytic_minimum()
    target_uv = UV_WITNESS_BITS
    grid = [k / 10.0 for k in range(11)]
    curve_min = min(analytic_product_curve(l) for l in grid + [lam_star])
    marton = marton_on_product(MARTON_PRODUCT_CFG.with_(seed=seed))
    point = evaluate_uv_point(product_channel().flat, uv_witness_auxiliary())
    free = uv_on_product(UV_PRODUCT_CFG.with_(seed=seed))
    gap = free.value - marton.value
    checks = [
        Check.within("analytic_curve_minimum", curve_min, analytic_value, 1e-12),
        Check.within("marton_numeric_on_product", marton.value, analytic_value, 5e-3),
        Check.within("uv_at_witness", point.sum_rate, target_uv, 1e-9),
        Check.at_least("uv_free_search", free.value, target_uv, 1e-6),
        Check.at_least("separation_gap", gap, target_uv - analytic_value, 5e-3 + 1e-6),
    ]
    return SeparationReport(
        checks=checks,
        converged=marton.converged and free.converged,
        marton=marton,
        uv_witness_point=point,
        uv_free=free,
    )
