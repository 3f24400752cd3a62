"""Differentiable information objectives over distribution tensors.

Every maximization target in this package (lambda-sum-rate, endpoint
reformulations, UV bound branches, classification gaps, region right-hand
sides) is a weighted sum of joint entropies of marginals of

    lifted(t)(dist_axes, out_axes) = t(dist_axes) * q(out_axes | input)

where t is the searched distribution and q the fixed channel. Each such
marginal is a linear image of t: a sum over the axes it drops, then a
product with the matching marginal of q. An ``InfoFunctional`` is a
table: a list of rows, each row one expression, so a single expression is
a one-row table whose value is ``value(t)[0]``.

A table is compiled once. The channel is memoryless, so an entropy of
outputs S next to the input X and other axes K obeys the chain rule

    H(K, X, S) = H(K, X) + sum_x p(x) h_S(x),   h_S(x) = H(q_S(. | x)),

and the compile rewrites every such term into the smaller entropy plus a
term linear in the input law p_X, with h_S computed once per output set.
The rows are then merged again, so H(K, X) terms that cancel drop out (as
in I(X;Z|U)), and no compiled marginal keeps the input next to an output.
What is left is a set of distinct marginals with a flat layout (an offset
and a shape per marginal), a coefficient matrix C over their entropies,
and a matrix L of the linear terms, one row per table row and one column
per input symbol; a table with no such term has no L and no linear step.

An evaluation is one fused pass: it writes every marginal into one
buffer, takes one positive mask and one log2 over the whole buffer, and
reads off the entropy vector H, each entry bit-identical to
``entropy_of_array`` on its marginal. The row values are C @ H + L @ p_X,
with p_X one of the keep-marginals of t (R. W. Yeung, "A framework for
linear information inequalities", IEEE Trans. IT 1997). The gradient of
the row values under caller-chosen row weights w is one adjoint pass,
sum_s (w^T C)_s dH_s/dt plus w^T L along the input axis, skipping
marginals of zero weight and reusing the forward pass's logs. Entropy
derivatives use d/dm[-m log2 m] = -(log2 m + log2 e); zero marginals are
clipped only inside the gradient (values keep the exact zero-skip
convention of the kernel), so at a zero-mass cell of (K, X) the gradient
of H(K, X, S) is the clipped derivative plus h_S(x).

Every evaluation takes a batch of tensors with a leading axis, and every
result keeps that axis; ``value(t)`` is the helper for exact evaluation
at one tensor, a batch of one. Each tensor of a batch is summed exactly
as on its own, bit for bit: the reductions keep the batch axis slowest,
and every product with a per-tensor operand is a stacked matmul whose
slices are the products a single tensor makes (channel products, row
values C @ H and L @ p_X, weighings, adjoint weights w^T C and w^T L),
never one matmul over the whole batch, whose gemm sums in another order.
Every entropy is a pairwise sum of its marginal's terms p log2 p along
its own row of the buffer, one ``np.add.reduce`` per marginal for the
whole batch (see ``kernel``), and the adjoint pass runs once for all the
rows it is asked for.

An evaluation reads every tensor in C order: a batch whose tensors are
laid out otherwise (the input-major tensors of ``FixedInputObjective``)
is copied once, so a tensor's value depends only on its entries. A table
owns the work buffers of the forward pass (the keep-marginals of t and
the flat marginal buffer, one row per tensor) and reuses them on every
evaluation, filling them by a plan compiled for the batch shape. It
keeps one plan, the last one, and compiles a new one when the shape
changes: a search's group passes through every smaller batch size as its
restarts finish, and a plan per size would keep the buffers of them all.
So a table must not be evaluated from two threads at once.

The gradient is lazy: ``value_and_grad`` returns the values and
``grad(rows)``, the gradients at the tensors ``rows``, which runs the
adjoint pass only when called, so a search pays for it only at the
points it accepts. The flat-vector adapters below follow that search
contract (see ``search``), one ``value_and_grad`` call per batch. An
``Evaluation`` keeps only what its gradient reads, so a gradient taken
after later evaluations of the same table is still the one at its own
point.

A weighing is data: weight rows w_k, one coefficient per table row. A
tensor's objective is the minimum over k of w_k . values, and its
gradient follows the first minimal row, so a single weight row is a
plain weighted sum. Projected ascent on a minimum is still a certified
lower-bound search, because every candidate is scored by the true
minimum. So one table serves a whole family of objectives: the
lambda-weighted sum rate is one three-row table under the weight row
(lambda, 1-lambda, 1), and the UV sum rate is the minimum of the first
three rows of the UV table under identity weight rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import entropy_of_array  # noqa: F401  (bench/selftest.py traces this site)
from .kernel import segment_entropies

LOG2E = math.log2(math.e)
GRAD_CLIP = 1e-300
LOG2_CLIP = float(np.log2(GRAD_CLIP))
# axes of every channel tensor: the input, then the two receivers
CHANNEL_AXES = "xyz"

__all__ = [
    "InfoFunctional",
    "Evaluation",
    "mi_terms",
    "ent_terms",
    "merge_terms",
    "JointObjective",
    "FixedInputObjective",
]

Term = tuple[float, str]
# the gradients at the rows of an evaluated batch, computed only when called
BatchGrad = Callable[[Sequence[int]], np.ndarray]


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


def ent_terms(of: str, given: str = "") -> list[Term]:
    """Entropy decomposition of H(OF|GIVEN)."""
    out = [(1.0, of + given)]
    if given:
        out.append((-1.0, given))
    return out


def merge_terms(terms: Sequence[Term], order: str) -> list[Term]:
    acc: dict[str, float] = {}
    for coeff, subset in terms:
        key = _canon(subset, order)
        if not key:
            continue
        acc[key] = acc.get(key, 0.0) + coeff
    return [(c, s) for s, c in acc.items() if abs(c) > 1e-14]


@dataclass(frozen=True)
class _Marginal:
    """One distinct marginal: a keep-marginal of t, or one contracted over
    the input with a channel marginal. No marginal keeps the input next to
    an output: the compile rewrote those by the chain rule."""

    keep: int  # index into the table's keep-marginals of t
    q: np.ndarray | None  # channel marginal as (inputs, outputs); None: t only


@dataclass(frozen=True)
class _Keep:
    """t summed over ``drop``, held as (rest, inputs) when it keeps the
    channel input (ready for a matmul with q) and flat otherwise."""

    drop: tuple[int, ...]  # axes of t summed out
    work: tuple[int, ...]  # working shape of the keep-marginal
    expand: tuple[int, ...]  # shape that broadcasts it back against t


@dataclass(frozen=True)
class _Plan:
    """How an evaluation fills a table's work buffers from a batch of one
    shape: reduce the batch into each keep buffer, run each copy ``(out,
    source)``, then each channel product ``np.matmul(source, q, out=out)``;
    every marginal's ``out`` is its column slice of ``rows``, which holds
    the marginals of one t per row."""

    reductions: list[tuple[tuple[int, ...], np.ndarray]]
    copies: list[tuple[np.ndarray, np.ndarray]]
    products: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    rows: np.ndarray  # one buffer, one row per t: its marginals in turn
    px: np.ndarray | None  # the input law of each t, for the linear term


class Evaluation:
    """Entropy vectors and row values of a table at each tensor of a batch,
    one row of each per tensor, each tensor read in C order (a batch of
    other tensors is copied once); ``grad`` runs the adjoint pass for any
    row weights without recomputing the forward pass."""

    def __init__(self, fn: "InfoFunctional", batch: np.ndarray) -> None:
        self._fn = fn
        batch = np.asarray(batch, dtype=float)
        # each tensor in C order (a batch of one ignores the batch stride);
        # tensors spaced out along the batch axis are read as they are
        if not batch[:1].flags.c_contiguous:
            batch = np.ascontiguousarray(batch)
        plan = fn._plan(batch.shape)
        for drop, out in plan.reductions:
            np.add.reduce(batch, axis=drop, out=out)
        for out, m in plan.copies:
            np.copyto(out, m)
        for m, q, out in plan.products:
            np.matmul(m, q, out=out)
        # the next evaluation overwrites the buffers: keep only what grad
        # reads, which segment_entropies returns as fresh arrays
        self.entropies, self._positive, self._logs = segment_entropies(plan.rows, fn._offsets)
        # a stacked matrix-vector product: numpy makes the one BLAS call per
        # tensor that a single tensor makes (a gemm over the batch would not)
        self.values = np.matmul(fn.coeffs, self.entropies[..., None])[..., 0]
        if fn.linear is not None:
            self.values += np.matmul(fn.linear, plan.px[..., None])[..., 0]

    def grad(self, rows: Sequence[int], weights: np.ndarray) -> np.ndarray:
        """Gradients at the tensors ``rows`` of the batch (any order, repeats
        allowed), each under its row of ``weights``, in one adjoint pass:
        the per-marginal weights of every row in one stacked product, the
        entropy derivatives of every row in one buffer, and one channel
        contraction per marginal over all rows. Each gradient is
        bit-identical to the one its tensor gets alone."""
        fn = self._fn
        n, size = len(rows), fn._offsets[-1]
        per_marginal = np.matmul(weights[:, None, :], fn.coeffs)[:, 0]
        # log2(max(m, GRAD_CLIP)) from the forward pass's logs, plus log2 e,
        # for the whole batch by one boolean assignment, then the rows asked
        # for; a group of the search holds at most LOCKSTEP_FLOATS floats of
        # points, which bounds the work on rows not asked for
        dh = np.full(self._positive.shape, LOG2_CLIP)
        dh[self._positive] = np.maximum(self._logs, LOG2_CLIP)
        dh += LOG2E
        dh = dh.reshape(-1, size)[rows]
        dh *= np.repeat(-per_marginal, fn._sizes, axis=1)
        # A marginal is skipped only when it has zero weight in every row. In
        # a row where its weight is zero, it adds dh * -0.0 (dh is finite):
        # exact zeros of either sign, whose contraction is again such zeros.
        # Adding them leaves every nonzero sum unchanged, and since the
        # gradient starts at +0.0, any zero added to it leaves +0.0. So
        # every sum, and every final zero, has the bits it has alone.
        acc: list[np.ndarray | None] = [None] * len(fn._keeps)
        for s in per_marginal.any(axis=0).nonzero()[0]:
            mg, (a, b) = fn._marginals[s], fn._bounds[s]
            d = dh[:, a:b].reshape((n,) + fn._shapes[s])
            if mg.q is not None:
                d = d @ mg.q.T
            acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
        if fn.linear is not None:
            # L @ p_X has the gradient w.L along the input axis of every t
            d, k = np.matmul(weights[:, None, :], fn.linear), fn._px_keep
            acc[k] = d if acc[k] is None else acc[k] + d
        grads = np.zeros((n,) + fn.shape)
        for keep, g in zip(fn._keeps, acc):
            if g is not None:
                grads += g.reshape((n,) + keep.expand)
        return grads


class InfoFunctional:
    """Table of weighted entropy sums with exact gradients w.r.t. the base tensor.

    dist_axes: one letter per axis of t, input axis last (e.g. 'uvwx').
    channel: optional conditional array q[x, y, z] (axes CHANNEL_AXES);
    its input x is then the last letter of dist_axes.
    rows: a list of expressions, each a list of (coefficient,
    subset-of-letters) pairs; the value is the array of row values, and
    an empty row is 0.

    Compiled: ``subsets`` labels the entropy columns of ``coeffs`` (C), and
    ``linear`` is L, the chain rule's terms in p_X (None when it is zero).
    """

    def __init__(
        self,
        dist_axes: str,
        dist_shape: Sequence[int],
        rows: Sequence[Sequence[Term]],
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
        q_cache: dict[str, np.ndarray] = {}
        h_cache: dict[str, np.ndarray] = {}

        def out_marginal(sout: str) -> np.ndarray:
            # q(sout | x) as (inputs, outputs), one per output set
            if sout not in q_cache:
                drop = tuple(i for i, a in enumerate(CHANNEL_AXES) if a not in in_axis + sout)
                q_cache[sout] = channel.sum(axis=drop).reshape(channel.shape[0], -1)
            return q_cache[sout]

        # the chain rule of a memoryless channel: a term (c, K X S) with outputs
        # S is (c, K X) plus c sum_x p(x) H(S | X=x), a term linear in p_X
        linear = np.zeros((len(rows), self.shape[-1]))
        merged = []
        for r, row in enumerate(rows):
            split = []
            for coeff, subset in merge_terms(row, order):
                sout = "".join(a for a in out_axes if a in subset)
                if sout and in_axis in subset:
                    if sout not in h_cache:
                        q = out_marginal(sout)
                        h_cache[sout] = segment_entropies(q, [0, q.shape[1]])[0][:, 0]
                    linear[r] += coeff * h_cache[sout]
                    subset = "".join(a for a in subset if a not in sout)
                split.append((coeff, subset))
            merged.append(merge_terms(split, order))
        self.linear = linear if linear.any() else None
        self.subsets = list(dict.fromkeys(s for row in merged for _, s in row))
        self.coeffs = np.zeros((len(rows), len(self.subsets)))
        for r, row in enumerate(merged):
            for coeff, subset in row:
                self.coeffs[r, self.subsets.index(subset)] = coeff

        keep_index: dict[str, int] = {}
        self._keeps: list[_Keep] = []

        def keep_of(keep: str) -> int:
            if keep not in keep_index:
                keep_index[keep] = len(self._keeps)
                drop = tuple(i for i, a in enumerate(dist_axes) if a not in keep)
                expand = tuple(1 if i in drop else n for i, n in enumerate(self.shape))
                size, nx = math.prod(expand), self.shape[-1]
                with_input = channel is not None and in_axis in keep
                work = (size // nx, nx) if with_input else (size,)
                self._keeps.append(_Keep(drop, work, expand))
            return keep_index[keep]

        self._marginals: list[_Marginal] = []
        self._shapes: list[tuple[int, ...]] = []
        for subset in self.subsets:
            sout = "".join(a for a in out_axes if a in subset)
            keep = "".join(a for a in dist_axes if a in subset or (sout and a == in_axis))
            mg = _Marginal(keep_of(keep), out_marginal(sout) if sout else None)
            self._marginals.append(mg)
            work = self._keeps[mg.keep].work
            self._shapes.append(work if mg.q is None else (work[0], mg.q.shape[1]))
        # the input law p_X, a keep-marginal of its own unless one keeps X alone
        self._px_keep = keep_of(in_axis) if self.linear is not None else None
        # flat layout of the marginals in one evaluation buffer
        self._offsets = np.cumsum([0] + [math.prod(sh) for sh in self._shapes])
        self._sizes = np.diff(self._offsets)
        self._bounds = list(zip(self._offsets[:-1].tolist(), self._offsets[1:].tolist()))
        # the fill plan of the last batch shape, with its shape
        self._fill: tuple[tuple, _Plan] | None = None

    def _plan(self, shape: tuple[int, ...]) -> _Plan:
        """The plan that fills the work buffers from a C-order batch of
        ``shape``: the table's one kept plan when the shape matches, else a
        new one that replaces it. The batch axis is the slowest, and channel
        products are stacked matmuls (one matrix per tensor), so every
        tensor of a batch sums in the same order as on its own.
        """
        if self._fill is not None and self._fill[0] == shape:
            return self._fill[1]
        # drop the old plan, and its buffers, before making the new one
        self._fill = None
        if shape[1:] != self.shape:
            raise ValueError(f"expected a batch of shape (n,) + {self.shape}, got {shape}")
        n, size = shape[0], self._offsets[-1]
        rows = np.empty((n, size))
        reductions, work = [], []
        for keep in self._keeps:
            m = np.empty((n,) + keep.work)
            kept = tuple(d for a, d in enumerate(self.shape) if a not in keep.drop)
            # the same axes of every tensor, behind the batch axis
            reductions.append((tuple(a + 1 for a in keep.drop), m.reshape((n,) + kept)))
            work.append(m)
        copies, products = [], []
        for mg, (a, b), sh in zip(self._marginals, self._bounds, self._shapes):
            m, view = work[mg.keep], rows[:, a:b].reshape((n,) + sh)
            if mg.q is None:
                copies.append((view, m))
            else:
                products.append((m, mg.q, view))
        px = None if self._px_keep is None else work[self._px_keep][:, 0]
        plan = _Plan(reductions, copies, products, rows, px)
        self._fill = (shape, plan)
        return plan

    def evaluate(self, batch: np.ndarray) -> Evaluation:
        """Marginals, entropy vectors and row values at each tensor of a
        batch with a leading axis (forward pass only)."""
        return Evaluation(self, batch)

    def value(self, t: np.ndarray) -> np.ndarray:
        """Row values at one tensor t, evaluated as a batch of one."""
        return self.evaluate(t[None]).values[0]

    def value_and_grad(
        self, batch: np.ndarray, weight_rows: np.ndarray
    ) -> tuple[np.ndarray, BatchGrad]:
        """Objective values of a batch and ``grad(rows)``, the gradients at
        the tensors ``batch[rows]``; only calling ``grad`` runs the adjoint
        pass. ``weight_rows`` is a 2-D array, one weight row per line: each
        tensor's value is the minimum over them of its weighted row values,
        and its gradient follows the first minimal weight row."""
        ev = self.evaluate(batch)
        # the stacked product again; argmin takes the first minimal row
        scores = np.matmul(weight_rows, ev.values[..., None])[..., 0]
        k = scores.argmin(axis=1)
        values, weights = scores[np.arange(len(k)), k], weight_rows[k]
        return values, lambda rows: ev.grad(rows, weights[rows])


class JointObjective:
    """Flat-vector adapter: one simplex over the whole base tensor; the
    objective is the table's rows under ``weight_rows`` (see
    ``value_and_grad``). Called on a batch of flat points, one per row, it
    follows the search contract: their values and ``grad(rows)``."""

    def __init__(self, functional: InfoFunctional, weight_rows: Sequence | np.ndarray) -> None:
        self.functional = functional
        self.weight_rows = np.atleast_2d(np.asarray(weight_rows, dtype=float))
        self.shape = functional.shape
        self.size = int(np.prod(self.shape))

    @property
    def block_sizes(self) -> list[int]:
        return [self.size]

    def __call__(self, flat: np.ndarray) -> tuple[np.ndarray, BatchGrad]:
        batch = flat.reshape((len(flat),) + self.shape)
        values, grad = self.functional.value_and_grad(batch, self.weight_rows)
        return values, lambda rows: grad(rows).reshape(len(rows), -1)

    def to_tensor(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.shape).copy()

    def to_flat(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(t, dtype=float).ravel().copy()


class FixedInputObjective:
    """Flat-vector adapter at fixed input law: one simplex per input symbol;
    ``weight_rows`` and the batch call as in ``JointObjective``.

    The flat layout is input-major: block x holds the conditional
    p(rest | X=x) in C order. Axes of the base tensor keep the input last;
    ``to_tensor`` keeps the flat point's memory order, so each evaluation
    copies its batch once to C order.
    """

    def __init__(
        self, functional: InfoFunctional, px: np.ndarray, weight_rows: Sequence | np.ndarray
    ) -> None:
        self.functional = functional
        self.weight_rows = np.atleast_2d(np.asarray(weight_rows, dtype=float))
        self.rest_shape = functional.shape[:-1]
        self.nx = functional.shape[-1]
        self.px = np.asarray(px, dtype=float)
        if self.px.shape != (self.nx,):
            raise ValueError("px length mismatch")
        self.block = int(np.prod(self.rest_shape))

    @property
    def block_sizes(self) -> list[int]:
        return [self.block] * self.nx

    def __call__(self, flat: np.ndarray) -> tuple[np.ndarray, BatchGrad]:
        values, grad = self.functional.value_and_grad(self.to_tensor(flat), self.weight_rows)
        return values, lambda rows: np.moveaxis(grad(rows) * self.px, -1, 1).reshape(len(rows), -1)

    def to_tensor(self, flat: np.ndarray) -> np.ndarray:
        """Joint tensor of a flat point, or one per row of a batch."""
        cond = flat.reshape(flat.shape[:-1] + (self.nx,) + self.rest_shape)
        return np.moveaxis(cond, flat.ndim - 1, -1) * self.px

    def to_flat(self, t: np.ndarray) -> np.ndarray:
        """Conditional layout of a joint tensor (zero-mass inputs -> uniform)."""
        t = np.asarray(t, dtype=float)
        px = t.sum(axis=tuple(range(t.ndim - 1)))
        safe = np.where(px > 0.0, px, 1.0)
        cond = t / safe
        uniform = 1.0 / self.block
        cond = np.where(px > 0.0, cond, uniform)
        return np.moveaxis(cond, -1, 0).ravel().copy()
