"""Differentiable information objectives over distribution tensors.

Every maximization target in this package (lambda-sum-rate, endpoint
reformulations, UV bound branches, classification gaps, region right-hand
sides) is a weighted sum of joint entropies of marginals of

    lifted(t)(dist_axes, out_axes) = t(dist_axes) * q(out_axes | input)

where t is the searched distribution and q the fixed channel. Each such
marginal is a linear image of t: a sum over the axes it drops, then a
product with the matching marginal of q. A table of expressions is
compiled once into its distinct marginals; an evaluation computes each
marginal and its entropy once (the entropy vector H), and the row values
are C @ H for a fixed coefficient matrix C (R. W. Yeung, "A framework for
linear information inequalities", IEEE Trans. IT 1997). The gradient of
w . (C @ H) for caller-chosen row weights w is one adjoint pass,
sum_s (w^T C)_s dH_s/dt, skipping marginals of zero weight. Entropy
derivatives use d/dm[-m log2 m] = -(log2 m + log2 e); zero marginals are
clipped only inside the gradient (values keep the exact zero-skip
convention of the kernel).

A weighing turns the row values into the objective and its row weights:
the default sums the rows, and ``min_of(weight_rows)`` takes the minimum
over weight rows w_k of w_k . values, following the first minimal row.
So one table serves a whole family of objectives: the lambda-weighted
sum rate is one three-row table under the weights (lambda, 1-lambda, 1),
and the UV sum rate is the minimum of the first three rows of the UV
table under identity weight rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import entropy_of_array

LOG2E = math.log2(math.e)
GRAD_CLIP = 1e-300
# axes of every channel tensor: the input, then the two receivers
CHANNEL_AXES = "xyz"

__all__ = [
    "InfoFunctional",
    "Evaluation",
    "mi_terms",
    "ent_terms",
    "scale_terms",
    "merge_terms",
    "min_of",
    "JointObjective",
    "FixedInputObjective",
]

Term = tuple[float, str]
# maps row values to (objective value, row weights of its gradient)
Weigh = Callable[[np.ndarray], tuple[float, np.ndarray]]


def _canon(subset: str, order: str) -> str:
    letters = set(subset)
    unknown = letters - set(order)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}")
    return "".join(a for a in order if a in letters)


def mi_terms(a: str, b: str, given: str = "", coeff: float = 1.0) -> list[Term]:
    """Entropy decomposition of coeff * I(A;B|C)."""
    if set(a) & set(b) or set(a) & set(given) or set(b) & set(given):
        raise ValueError("a, b, given must be disjoint")
    out = [(coeff, a + given), (coeff, b + given), (-coeff, a + b + given)]
    if given:
        out.append((-coeff, given))
    return out


def ent_terms(of: str, given: str = "", coeff: float = 1.0) -> list[Term]:
    """Entropy decomposition of coeff * H(OF|GIVEN)."""
    out = [(coeff, of + given)]
    if given:
        out.append((-coeff, given))
    return out


def scale_terms(terms: Sequence[Term], factor: float) -> list[Term]:
    return [(c * factor, s) for c, s in terms]


def merge_terms(terms: Sequence[Term], order: str) -> list[Term]:
    acc: dict[str, float] = {}
    for coeff, subset in terms:
        key = _canon(subset, order)
        if not key:
            continue
        acc[key] = acc.get(key, 0.0) + coeff
    return [(c, s) for s, c in acc.items() if abs(c) > 1e-14]


def _sum_of_rows(values: np.ndarray) -> tuple[float, np.ndarray]:
    return float(values.sum()), np.ones(len(values))


def min_of(weight_rows: Sequence | np.ndarray) -> Weigh:
    """Weighing for the minimum over weight rows w_k of w_k . values: the
    value is the minimum and the gradient follows the first minimal row, so
    a single weight row is a plain weighted sum. Projected ascent on a
    minimum is still a certified lower-bound search, because every
    candidate is scored by the true minimum."""
    rows = np.atleast_2d(np.asarray(weight_rows, dtype=float))

    def weigh(values: np.ndarray) -> tuple[float, np.ndarray]:
        scores = rows @ values
        k = int(np.argmin(scores))
        return float(scores[k]), rows[k]

    return weigh


@dataclass(frozen=True)
class _Marginal:
    """One distinct marginal: a keep-marginal of t, times a channel marginal."""

    keep: int  # index into the table's keep-marginals of t
    q: np.ndarray | None  # channel marginal as (inputs, outputs); None: t only
    joint_input: bool  # the marginal keeps the input axis next to the outputs


@dataclass(frozen=True)
class _Keep:
    """t summed over ``drop``, held as (rest, inputs) when it keeps the
    channel input (ready for a matmul with q) and flat otherwise."""

    drop: tuple[int, ...]  # axes of t summed out
    work: tuple[int, ...]  # working shape of the keep-marginal
    expand: tuple[int, ...]  # shape that broadcasts it back against t


class Evaluation:
    """Marginals and row values of a table at one tensor; ``grad`` runs the
    adjoint pass for any row weights without recomputing the marginals."""

    def __init__(self, fn: "InfoFunctional", t: np.ndarray) -> None:
        self._fn = fn
        kept = [np.add.reduce(t, axis=k.drop).reshape(k.work) for k in fn._keeps]
        self.marginals: list[np.ndarray] = []
        h = np.empty(len(fn._marginals))
        for s, mg in enumerate(fn._marginals):
            m = kept[mg.keep]
            if mg.q is not None:
                m = m[:, :, None] * mg.q if mg.joint_input else m @ mg.q
            self.marginals.append(m)
            h[s] = entropy_of_array(m)
        self.values = fn.coeffs @ h

    def grad(self, weights: np.ndarray) -> np.ndarray:
        """Gradient of weights . values with respect to t."""
        fn = self._fn
        per_marginal = np.asarray(weights, dtype=float) @ fn.coeffs
        active = np.flatnonzero(per_marginal)
        ms = [self.marginals[s] for s in active]
        sizes = [m.size for m in ms]
        # weighted entropy derivatives of every active marginal at once
        flat = np.concatenate([m.ravel() for m in ms]) if ms else np.zeros(0)
        dh = np.log2(np.maximum(flat, GRAD_CLIP))
        dh += LOG2E
        dh *= -np.repeat(per_marginal[active], sizes)
        acc: list[np.ndarray | None] = [None] * len(fn._keeps)
        start = 0
        for s, m, n in zip(active, ms, sizes):
            mg = fn._marginals[s]
            d = dh[start : start + n].reshape(m.shape)
            start += n
            if mg.q is not None:
                d = (d * mg.q).sum(axis=-1) if mg.joint_input else d @ mg.q.T
            acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
        grad = np.zeros(fn.shape)
        for keep, g in zip(fn._keeps, acc):
            if g is not None:
                grad += g.reshape(keep.expand)
        return grad


class InfoFunctional:
    """Table of weighted entropy sums with exact gradients w.r.t. the base tensor.

    dist_axes: one letter per axis of t, input axis last (e.g. 'uvwx').
    channel: optional conditional array q[x, y, z] (axes CHANNEL_AXES);
    its input x is then the last letter of dist_axes.
    terms: one expression, a list of (coefficient, subset-of-letters)
    pairs, whose value is a float; or a list of such expressions (rows),
    whose value is the array of row values.
    """

    def __init__(
        self,
        dist_axes: str,
        dist_shape: Sequence[int],
        terms: Sequence,
        channel: np.ndarray | None = None,
    ) -> None:
        if len(dist_axes) != len(dist_shape):
            raise ValueError("dist_axes and dist_shape disagree")
        self.dist_axes = dist_axes
        self.shape = tuple(int(n) for n in dist_shape)
        in_axis = CHANNEL_AXES[0]
        out_axes = CHANNEL_AXES[1:] if channel is not None else ""
        if channel is not None and not dist_axes.endswith(in_axis):
            raise ValueError(f"input axis '{in_axis}' must be the last dist axis")
        order = dist_axes + out_axes
        self.order = order
        # a table's first element is a row (a list of terms), an expression's a term
        self.scalar = not terms or not isinstance(terms[0][0], (tuple, list))
        rows = [terms] if self.scalar else list(terms)
        merged = [merge_terms(row, order) for row in rows]
        subsets = list(dict.fromkeys(s for row in merged for _, s in row))
        self.coeffs = np.zeros((len(rows), len(subsets)))
        for r, row in enumerate(merged):
            for coeff, subset in row:
                self.coeffs[r, subsets.index(subset)] = coeff

        keep_index: dict[str, int] = {}
        self._keeps: list[_Keep] = []
        self._marginals: list[_Marginal] = []
        q_cache: dict[str, np.ndarray] = {}
        for subset in subsets:
            sout = "".join(a for a in out_axes if a in subset)
            keep = "".join(a for a in dist_axes if a in subset or (sout and a == in_axis))
            if keep not in keep_index:
                keep_index[keep] = len(self._keeps)
                drop = tuple(i for i, a in enumerate(dist_axes) if a not in keep)
                expand = tuple(1 if i in drop else n for i, n in enumerate(self.shape))
                with_input = channel is not None and in_axis in keep
                work = (-1, self.shape[-1]) if with_input else (-1,)
                self._keeps.append(_Keep(drop, work, expand))
            if sout and sout not in q_cache:
                drop = tuple(i for i, a in enumerate(CHANNEL_AXES) if a not in in_axis + sout)
                q_cache[sout] = channel.sum(axis=drop).reshape(channel.shape[0], -1)
            joint_input = in_axis in subset
            self._marginals.append(_Marginal(keep_index[keep], q_cache.get(sout), joint_input))

    def evaluate(self, t: np.ndarray) -> Evaluation:
        """Marginals, entropy vector and row values at t (forward pass only)."""
        return Evaluation(self, t)

    def value(self, t: np.ndarray) -> float | np.ndarray:
        values = self.evaluate(t).values
        return float(values[0]) if self.scalar else values

    def value_and_grad(
        self, t: np.ndarray, weigh: Weigh = _sum_of_rows
    ) -> tuple[float, np.ndarray]:
        """Objective value and gradient; ``weigh`` turns the row values into
        the value and the row weights (default: the sum of the rows)."""
        ev = self.evaluate(t)
        value, weights = weigh(ev.values)
        return value, ev.grad(weights)


class JointObjective:
    """Flat-vector adapter: one simplex over the whole base tensor; ``weigh``
    reduces a table's rows to the objective (see ``value_and_grad``)."""

    def __init__(self, functional: InfoFunctional, weigh: Weigh = _sum_of_rows) -> None:
        self.functional = functional
        self.weigh = weigh
        self.shape = functional.shape
        self.size = int(np.prod(self.shape))

    @property
    def block_sizes(self) -> list[int]:
        return [self.size]

    def __call__(self, flat: np.ndarray) -> tuple[float, np.ndarray]:
        v, g = self.functional.value_and_grad(flat.reshape(self.shape), self.weigh)
        return v, g.ravel()

    def to_tensor(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.shape).copy()

    def to_flat(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=float).ravel().copy()


class FixedInputObjective:
    """Flat-vector adapter at fixed input law: one simplex per input symbol;
    ``weigh`` as in ``JointObjective``.

    The flat layout is input-major: block x holds the conditional
    p(rest | X=x) in C order. Axes of the base tensor keep the input last.
    """

    def __init__(
        self, functional: InfoFunctional, px: np.ndarray, weigh: Weigh = _sum_of_rows
    ) -> None:
        self.functional = functional
        self.weigh = weigh
        self.rest_shape = functional.shape[:-1]
        self.nx = functional.shape[-1]
        self.px = np.asarray(px, dtype=float)
        if self.px.shape != (self.nx,):
            raise ValueError("px length mismatch")
        self.block = int(np.prod(self.rest_shape))

    @property
    def block_sizes(self) -> list[int]:
        return [self.block] * self.nx

    def __call__(self, flat: np.ndarray) -> tuple[float, np.ndarray]:
        t = self.to_tensor(flat)
        v, g = self.functional.value_and_grad(t, self.weigh)
        gc = np.moveaxis(g * self.px, -1, 0)
        return v, gc.ravel()

    def to_tensor(self, flat: np.ndarray) -> np.ndarray:
        cond = flat.reshape((self.nx,) + self.rest_shape)
        return np.moveaxis(cond, 0, -1) * self.px

    def to_flat(self, t: np.ndarray) -> np.ndarray:
        """Conditional layout of a joint tensor (zero-mass inputs -> uniform)."""
        t = np.asarray(t, dtype=float)
        px = t.sum(axis=tuple(range(t.ndim - 1)))
        safe = np.where(px > 0.0, px, 1.0)
        cond = t / safe
        uniform = 1.0 / self.block
        cond = np.where(px > 0.0, cond, uniform)
        return np.moveaxis(cond, -1, 0).ravel().copy()
