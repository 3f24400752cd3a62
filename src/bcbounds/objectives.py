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
buffer, takes one log2 in place over a copy of it with ``GRAD_CLIP`` at
every zero entry (so the log there is ``LOG2_CLIP``), and reads off the
entropy vector H, each entry bit-identical to ``entropy_of_array`` on
its marginal (see ``kernel``). The row values are C @ H + L @ p_X, with
p_X one of the keep-marginals of t (R. W. Yeung, "A framework for linear
information inequalities", IEEE Trans. IT 1997). The gradient of the row values
under weight rows w is one adjoint pass, sum_s (w^T C)_s dH_s/dt plus
w^T L along the input axis, skipping marginals of zero weight and
reading the forward pass's clipped logs. Entropy derivatives use
d/dm[-m log2 m] = -(log2 m + log2 e) with log2 m clipped below at
``LOG2_CLIP`` (values keep the exact zero-skip convention of the
kernel), so at a zero-mass cell of (K, X) the gradient of H(K, X, S) is
the clipped derivative plus h_S(x).

The keep-marginals of t (t summed over the axes a marginal drops) form a
lattice, compiled with the table and ordered largest first: each keep is
reduced from the smallest keep before it whose axes hold its own, and
only a keep with no such superset (a root) reads t. On a ``product_outer``
component table (keeps w, x, wx, uw, uwx, vw, vwx) the roots are uwx and
vwx, wx, uw and vw come from a root, and w and x from wx. The adjoint
runs back down the same lattice, smallest first: each keep's gradient is
broadcast into its parent's, and only the roots' into the gradient of t.
This sums in another order than one reduction of t per keep, within the
same recursive-summation bound (N. J. Higham, "The accuracy of floating
point summation", SIAM J. Sci. Comput. 1993).

The whole fill, from t to the flat marginal buffer (and p_X when the table
has a linear term), is linear, so a table can also fill through its
matrix: the lattice's image of the unit tensors, each entry 0, 1 or an
entry of a channel marginal, so the lattice stays the one definition of
every marginal. A table whose map has at most ``DENSE_MAP_FLOATS``
entries precomputes it once, at compile, and fills a batch by one stacked
product (n, 1, K) @ (K, N); its adjoint is one stacked product of the map
with the weighted entropy derivatives (zero outside the weighing's hull,
plus w^T L on the p_X columns). Both paths exist because each wins on its
own tables: on a small table the lattice's cost is its dozen or so numpy
calls per evaluation, which the map replaces with one BLAS call per
tensor, while on a large one the map's K x N products outweigh the walk
(the map of a ``product_outer`` component table has 337,920 entries, and
the UV table of the worked product about 4.1M). The map sums each entry
in its own order, within the same bound.

Every evaluation takes a batch of tensors with a leading axis, and every
result keeps that axis; ``value(t)`` is the helper for exact evaluation
at one tensor, a batch of one. Each tensor of a batch is summed exactly
as on its own, bit for bit: every reduction, of t or of a keep buffer,
keeps the batch axis slowest, and every product with a per-tensor
operand is a stacked matmul whose slices are the products a single
tensor makes (channel products, the dense fill and its adjoint, row
values C @ H and L @ p_X, weighings, and the compiled adjoint weights
w^T C and w^T L, one slice per weight row), never one matmul over the
whole batch, whose gemm sums in another order. Every entropy is a
pairwise sum of its marginal's terms p log2 p along its own row of the
buffer, one ``np.add.reduce`` per marginal for the whole batch (see
``kernel``), and the adjoint pass runs once for all the rows it is asked
for.

An evaluation reads every tensor in C order (a batch of other tensors is
copied once), so a tensor's value depends only on its entries. A table on
the lattice owns the work buffers of the forward pass (the keep-marginals
of t and the flat marginal buffer, one row per tensor) and reuses them on
every evaluation, filling them by a plan compiled for the batch shape. It
keeps one plan, the last one, and compiles a new one when the shape
changes: a search's batch keeps its size while starts wait and shrinks
through smaller sizes at its stream's end, and a plan per size would
keep the buffers of them all. So a table must not be evaluated from two
threads at once.

The gradient is lazy: ``value_and_grad(batch)`` runs the forward pass
and returns its ``Evaluation``, whose ``grad`` runs the adjoint pass
only when called, so a search pays for it only at the points it
accepts. An ``Evaluation`` keeps only what its gradient reads, so a
gradient taken after later evaluations of the same table is still the
one at its own point.

A search objective is a ``JointObjective(tables, weight_rows, offset)``:
one simplex block per table, over its whole base tensor, and at each
point the minimum over k of w_k . (sum_i values_i) + offset[k], the sum
of the tables' row values weighed by each weight row (no offset when
``offset`` is None), whose gradient follows the first minimal row. A
single weight row is a plain weighted sum. Projected ascent on a minimum
is still a certified lower-bound search, because every candidate is
scored by the true minimum. So a few tables serve a whole family of
objectives: the lambda-weighted sum rate is one three-row table under
the weight row (lambda, 1-lambda, 1), the UV sum rate is the minimum of
the first three rows of the UV table under identity weight rows, and a
product region's support is its two component tables under the dual
rows of its support LP, with the pin on R0 as the offset.

An objective keeps its weight rows for its whole run, so it compiles
them once against each table, as a ``Weighing``: each row's marginal
weights w_k C, the marginals they weigh and the hull of those in the
flat layout, the negated weights repeated over the layout, and w_k L.
A gradient call takes the weighing and each tensor's row index; when
all its tensors take one row it reads that row's compiled lines as they
are, and when they mix rows it reads the union of their marginals over
the union's hull, so no call multiplies, scans or repeats weights.

Called on a batch of flat points, one per row, an objective follows the
search contract (see ``search``): one ``value_and_grad`` call per table
and batch, their values, and ``grad(rows)``, each table's gradient at
the points ``rows`` under the points' minimal rows, concatenated block
by block. ``FixedInputObjective`` is the same objective on one table at
a fixed input law, with one simplex per input symbol: it maps flat
points to tensors and pulls gradients back its own way, and scores
through the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kernel import entropy_of_array  # noqa: F401  (bench/selftest.py traces this site)
from .kernel import LOG2_CLIP, segment_entropies

LOG2E = math.log2(math.e)
# axes of every channel tensor: the input, then the two receivers
CHANNEL_AXES = "xyz"
# the largest dense map, in floats (256 KiB), through which a table fills its
# marginal buffer; larger tables keep the lattice. On one 2-vCPU VM the map
# was faster at 24,064 entries (the 4-input component's Marton table) and
# slower at 47,104 (the worked product's semi-deterministic tables)
DENSE_MAP_FLOATS = 32768

__all__ = [
    "InfoFunctional",
    "Evaluation",
    "Weighing",
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
    """t summed over some of its axes, reduced from its parent in the
    table's keep lattice (t itself for a root), held as (rest, inputs) when
    it keeps the channel input (ready for a matmul with q) and flat
    otherwise."""

    parent: int | None  # the smallest keep reduced before it that holds its axes
    axes: tuple[int, ...]  # axes of the parent (of t, for a root) summed out
    kept: tuple[int, ...]  # its shape, one entry per axis of t it keeps
    work: tuple[int, ...]  # working shape of the keep-marginal
    expand: tuple[int, ...]  # shape that broadcasts it back against the parent


@dataclass(frozen=True)
class _Plan:
    """How an evaluation fills a table's work buffers from a batch of one
    shape: run each reduction ``(parent, axes, out)`` in lattice order,
    ``np.add.reduce`` of the parent keep's buffer (of the batch, for a
    root) over ``axes`` into the keep's buffer ``out``; then each copy
    ``(out, source)``, then each channel product ``np.matmul(source, q,
    out=out)``. Every marginal's ``out`` is its column slice of ``rows``,
    which holds the marginals of one t per row."""

    reductions: list[tuple[np.ndarray | None, tuple[int, ...], np.ndarray]]
    copies: list[tuple[np.ndarray, np.ndarray]]
    products: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    rows: np.ndarray  # one buffer, one row per t: its marginals in turn
    px: np.ndarray | None  # the input law of each t, for the linear term


class Evaluation:
    """Entropy vectors and row values of a table at each tensor of a batch,
    one row of each per tensor, each tensor read in C order (a batch of
    other tensors is copied once); ``grad`` runs the adjoint pass under
    any weighing of the table without recomputing the forward pass."""

    def __init__(self, fn: "InfoFunctional", batch: np.ndarray) -> None:
        self._fn = fn
        batch = np.asarray(batch, dtype=float)
        # each tensor in C order (a batch of one ignores the batch stride);
        # tensors spaced out along the batch axis are read as they are
        if not batch[:1].flags.c_contiguous:
            batch = np.ascontiguousarray(batch)
        rows, px = fn._marginal_rows(batch)
        # the next evaluation overwrites the lattice's buffers: keep only what
        # grad reads, which segment_entropies returns as fresh arrays
        self.entropies, self._logs = segment_entropies(rows, fn._offsets)
        # a stacked matrix-vector product: numpy makes the one BLAS call per
        # tensor that a single tensor makes (a gemm over the batch would not)
        self.values = np.matmul(fn.coeffs, self.entropies[..., None])[..., 0]
        if fn.linear is not None:
            self.values += np.matmul(fn.linear, px[..., None])[..., 0]

    def grad(self, rows: Sequence[int], weighing: "Weighing", ks: Sequence[int]) -> np.ndarray:
        """Gradients at the tensors ``rows`` of the batch (any order, repeats
        allowed), each under its weight row ``ks`` of ``weighing``, compiled
        for this table, in one adjoint pass: the entropy derivatives in one
        buffer, at the rows asked for and over the weighing's hull of the
        marginals with weight; then, through a dense map, one product with
        the map per tensor; else one channel contraction per marginal with
        weight over all rows, then back down the keep lattice, each keep's
        gradient into its parent's and the roots' into the gradient of t.
        Each gradient is bit-identical to the one its tensor gets alone."""
        fn = self._fn
        n = len(rows)
        ks = np.asarray(ks).tolist()
        used, lo, hi, neg = weighing.select(ks)
        # log2(max(m, GRAD_CLIP)) from the forward pass's clipped logs, plus
        # log2 e, times minus each row's weights, at the rows asked for
        dh = np.maximum(self._logs[np.asarray(rows), lo:hi], LOG2_CLIP)
        dh += LOG2E
        dh *= neg
        if fn._map is not None:
            # the adjoint of the dense fill: the derivatives over the whole
            # layout (zero outside the hull) and w.L on the p_X columns, then
            # one (K, N) @ (N, 1) product per tensor. A marginal of zero
            # weight in a tensor's row adds exact zeros, which leave its sums
            # as they are alone (see the lattice's note below)
            d = np.zeros((n, fn._map.shape[1]))
            d[:, lo:hi] = dh
            if fn.linear is not None:
                d[:, fn._offsets[-1] :] = weighing.linear[ks][:, 0]
            return np.matmul(fn._map, d[..., None]).reshape((n,) + fn.shape)
        # A marginal is skipped only when it has zero weight in every row. In
        # a row where its weight is zero, it adds dh * -0.0 (dh is finite):
        # exact zeros of either sign, whose contraction is again such zeros.
        # Adding them leaves every nonzero sum unchanged, and since the
        # gradient starts at +0.0, any zero added to it leaves +0.0. So
        # every sum, and every final zero, has the bits it has alone.
        acc: list[np.ndarray | None] = [None] * len(fn._keeps)
        for s in used:
            mg, (a, b) = fn._marginals[s], fn._bounds[s]
            d = dh[:, a - lo : b - lo].reshape((n,) + fn._shapes[s])
            if mg.q is not None:
                d = d @ mg.q.T
            acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
        if fn.linear is not None:
            # L @ p_X has the gradient w.L along the input axis of every t
            d, k = weighing.linear[ks], fn._px_keep
            acc[k] = d if acc[k] is None else acc[k] + d
        # back down the lattice, smallest first: each keep's gradient goes
        # into its parent's, and only the roots' into the gradient of t
        grads = np.zeros((n,) + fn.shape)
        for k in reversed(range(len(acc))):
            if acc[k] is None:
                continue
            keep = fn._keeps[k]
            p, g = keep.parent, acc[k].reshape((n,) + keep.expand)
            if p is None:
                grads += g
            elif acc[p] is None:
                acc[p] = np.broadcast_to(g, (n,) + fn._keeps[p].kept)
            else:
                acc[p] = acc[p].reshape((n,) + fn._keeps[p].kept) + g
        return grads


class Weighing:
    """Weight rows w_k compiled against one table, once per objective, so
    that no gradient call recomputes them. For each row: its marginal
    weights w_k C, all rows in one stacked product whose slices are the
    products a single row makes; the marginals it weighs and their hull
    [lo, hi) in the table's flat layout; minus its marginal weights,
    repeated over every entry of the layout; and w_k L when the table has
    a linear term."""

    def __init__(self, fn: "InfoFunctional", weight_rows: Sequence | np.ndarray) -> None:
        self.rows = np.atleast_2d(np.asarray(weight_rows, dtype=float))
        self._offsets = fn._offsets
        per_marginal = np.matmul(self.rows[:, None, :], fn.coeffs)[:, 0]
        self.used = [np.flatnonzero(w).tolist() for w in per_marginal]
        self.hulls = [self._hull(used) for used in self.used]
        self.neg = np.repeat(-per_marginal, fn._sizes, axis=1)
        self.linear = None if fn.linear is None else np.matmul(self.rows[:, None, :], fn.linear)

    def _hull(self, used: list[int]) -> tuple[int, int]:
        # the layout from the first marginal in ``used`` to the end of the last
        return (int(self._offsets[used[0]]), int(self._offsets[used[-1] + 1])) if used else (0, 0)

    def select(self, ks: list[int]) -> tuple[list[int], int, int, np.ndarray]:
        """The weighing of a gradient call whose tensors take the weight rows
        ``ks``: the marginals with weight in some of them, their hull [lo,
        hi), and minus the marginal weights over the hull, one line for all
        tensors when they all take one row and one line per tensor when
        they mix rows, whose marginals and hull are then the union."""
        distinct = set(ks)
        if len(distinct) == 1:
            k = ks[0]
            lo, hi = self.hulls[k]
            return self.used[k], lo, hi, self.neg[k, lo:hi]
        used = sorted(set().union(*(self.used[k] for k in distinct)))
        lo, hi = self._hull(used)
        return used, lo, hi, self.neg[ks, lo:hi]


def weigh(
    weight_rows: np.ndarray, values: np.ndarray, offset: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """At each row of ``values``, the minimum over k of w_k . row (+ ``offset[k]``
    if given) and the first minimal k, each row weighed as on its own."""
    scores = np.matmul(weight_rows, values[..., None])[..., 0]
    if offset is not None:
        scores += offset
    k = scores.argmin(axis=1)
    return scores[np.arange(len(k)), k], k


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

        # the axes of t each marginal keeps, and the input law p_X, a
        # keep-marginal of its own unless one keeps X alone
        sources = []
        for subset in self.subsets:
            sout = "".join(a for a in out_axes if a in subset)
            keep = "".join(a for a in dist_axes if a in subset or (sout and a == in_axis))
            sources.append((keep, out_marginal(sout) if sout else None))
        names = [k for k, _ in sources] + ([in_axis] if self.linear is not None else [])
        names = list(dict.fromkeys(names))
        dims = dict(zip(dist_axes, self.shape))

        def size(keep: str) -> int:
            return math.prod(dims[a] for a in keep)

        # the keep lattice, largest first (a superset of equal size first):
        # each keep is reduced from the smallest keep before it that holds
        # its axes, and from t only when none does
        names.sort(key=lambda k: (-size(k), -len(k)))
        nx = self.shape[-1]
        self._keeps: list[_Keep] = []
        for i, keep in enumerate(names):
            supersets = [j for j in range(i) if set(keep) <= set(names[j])]
            parent = min(supersets, key=lambda j: size(names[j]), default=None)
            src = dist_axes if parent is None else names[parent]
            axes = tuple(p for p, a in enumerate(src) if a not in keep)
            kept = tuple(dims[a] for a in keep)
            expand = tuple(dims[a] if a in keep else 1 for a in src)
            with_input = channel is not None and in_axis in keep
            work = (size(keep) // nx, nx) if with_input else (size(keep),)
            self._keeps.append(_Keep(parent, axes, kept, work, expand))

        self._marginals: list[_Marginal] = []
        self._shapes: list[tuple[int, ...]] = []
        for keep, q in sources:
            mg = _Marginal(names.index(keep), q)
            self._marginals.append(mg)
            work = self._keeps[mg.keep].work
            self._shapes.append(work if mg.q is None else (work[0], mg.q.shape[1]))
        self._px_keep = names.index(in_axis) if self.linear is not None else None
        # flat layout of the marginals in one evaluation buffer
        self._offsets = np.cumsum([0] + [math.prod(sh) for sh in self._shapes])
        self._sizes = np.diff(self._offsets)
        self._bounds = list(zip(self._offsets[:-1].tolist(), self._offsets[1:].tolist()))
        # the fill plan of the last batch shape, with its shape
        self._fill: tuple[tuple, _Plan] | None = None
        cols = int(self._offsets[-1]) + (nx if self.linear is not None else 0)
        small = math.prod(self.shape) * cols <= DENSE_MAP_FLOATS
        self._map = self._dense_map(cols) if small else None

    def _dense_map(self, cols: int) -> np.ndarray:
        """The fill as a (K, N) matrix, K the size of t and N the flat layout
        plus p_X when the table has a linear term: row k is the lattice's
        fill of the k-th unit tensor, exact (each entry 0, 1 or an entry of
        a channel marginal). The unit tensors go through the lattice in
        chunks of one shape (the last one padded with zero tensors), so one
        plan serves them all, and the chunk's tensors and the plan's buffers
        together hold at most the map's size."""
        size, width = math.prod(self.shape), int(self._offsets[-1])
        out = np.empty((size, cols))
        per_unit = size + width + sum(math.prod(keep.kept) for keep in self._keeps)
        chunk = min(size, max(1, size * cols // per_unit))
        units = np.empty((chunk, size))
        for a in range(0, size, chunk):
            b = min(a + chunk, size)
            units.fill(0.0)
            units[np.arange(b - a), np.arange(a, b)] = 1.0
            rows, px = self._lattice(units.reshape((chunk,) + self.shape))
            out[a:b, :width] = rows[: b - a]
            if px is not None:
                out[a:b, width:] = px[: b - a]
        # drop the plan and its buffers
        self._fill = None
        return out

    def _marginal_rows(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The flat marginal buffer of each tensor of a C-order batch, one
        row per tensor, and its input law when the table has a linear term:
        one stacked product with the dense map, whose slices are the
        products a single tensor makes, or else the lattice."""
        if batch.shape[1:] != self.shape:
            raise ValueError(f"expected a batch of shape (n,) + {self.shape}, got {batch.shape}")
        if self._map is None:
            return self._lattice(batch)
        filled = np.matmul(batch.reshape(len(batch), 1, -1), self._map)[:, 0]
        width = int(self._offsets[-1])
        return filled[:, :width], None if self.linear is None else filled[:, width:]

    def _lattice(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The marginal rows and input laws of a C-order batch down the keep
        lattice, in the work buffers of the batch shape's plan."""
        plan = self._plan(batch.shape)
        for src, axes, out in plan.reductions:
            np.add.reduce(batch if src is None else src, axis=axes, out=out)
        for out, m in plan.copies:
            np.copyto(out, m)
        for m, q, out in plan.products:
            np.matmul(m, q, out=out)
        return plan.rows, plan.px

    def _plan(self, shape: tuple[int, ...]) -> _Plan:
        """The plan that fills the work buffers from a C-order batch of
        ``shape``: the table's one kept plan when the shape matches, else a
        new one that replaces it; a search changes its batch shape mostly
        at its stream's end. The batch axis is the slowest, and channel
        products are stacked matmuls (one matrix per tensor), so every
        tensor of a batch sums in the same order as on its own.
        """
        if self._fill is not None and self._fill[0] == shape:
            return self._fill[1]
        # drop the old plan, and its buffers, before making the new one
        self._fill = None
        n, size = shape[0], self._offsets[-1]
        rows = np.empty((n, size))
        reductions, work, views = [], [], []
        for keep in self._keeps:
            m = np.empty((n,) + keep.work)
            view = m.reshape((n,) + keep.kept)
            # the same axes of every tensor, behind the batch axis
            src = None if keep.parent is None else views[keep.parent]
            reductions.append((src, tuple(a + 1 for a in keep.axes), view))
            work.append(m)
            views.append(view)
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

    def value_and_grad(self, batch: np.ndarray) -> Evaluation:
        """The forward pass at each tensor of a batch with a leading axis:
        its entropy vectors and row values, and ``grad``, the adjoint pass
        under any weighing of this table, run only when called."""
        return Evaluation(self, batch)

    def value(self, t: np.ndarray) -> np.ndarray:
        """Row values at one tensor t, evaluated as a batch of one."""
        return self.value_and_grad(t[None]).values[0]


class JointObjective:
    """The search objective over ``tables``, one simplex block per table:
    at each point the minimum over k of ``weight_rows[k]`` . (sum of the
    tables' row values) + ``offset[k]`` (no offset when ``offset`` is
    None), its gradient following the first minimal row. Called on a batch
    of flat points, one per row, it follows the search contract: their
    values and ``grad(rows)``."""

    def __init__(
        self,
        tables: Sequence[InfoFunctional],
        weight_rows: Sequence | np.ndarray,
        offset: np.ndarray | None,
    ) -> None:
        self.tables = list(tables)
        self.weight_rows = np.atleast_2d(np.asarray(weight_rows, dtype=float))
        self.offset = offset
        self.weighings = [Weighing(fn, self.weight_rows) for fn in self.tables]
        ends = np.cumsum([math.prod(fn.shape) for fn in self.tables]).tolist()
        self._blocks = [slice(a, b) for a, b in zip([0] + ends, ends)]

    @property
    def block_sizes(self) -> list[int]:
        return [s.stop - s.start for s in self._blocks]

    def __call__(self, flat: np.ndarray) -> tuple[np.ndarray, BatchGrad]:
        evs = [fn.value_and_grad(t) for fn, t in zip(self.tables, self.to_tensors(flat))]
        # the tables' row values summed from the first table's, so that a
        # single table's values (and their signed zeros) are weighed as they are
        total = evs[0].values
        for ev in evs[1:]:
            total = total + ev.values
        values, k = weigh(self.weight_rows, total, self.offset)

        def grad(rows: Sequence[int]) -> np.ndarray:
            ks = k[rows]
            return self._pullback([ev.grad(rows, w, ks) for ev, w in zip(evs, self.weighings)])

        return values, grad

    def _pullback(self, grads: list[np.ndarray]) -> np.ndarray:
        """Flat gradients from each table's gradients, block by block."""
        return np.concatenate([g.reshape(len(g), -1) for g in grads], axis=1)

    def to_tensors(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each table's tensor at a flat point, or its tensors at each row
        of a batch of them, as views of ``flat``."""
        lead = flat.shape[:-1]
        return [flat[..., s].reshape(lead + fn.shape) for s, fn in zip(self._blocks, self.tables)]

    def to_flat(self, tensors: Sequence[np.ndarray]) -> np.ndarray:
        """The flat point of one tensor per table."""
        return np.concatenate([np.asarray(t, dtype=float).ravel() for t in tensors])


class FixedInputObjective(JointObjective):
    """``JointObjective`` of one table at a fixed input law ``px``, one
    simplex per input symbol; it scores as its base and differs only in
    the flat layout and the gradient pullback.

    The flat layout is input-major: block x holds the conditional
    p(rest | X=x) in C order. Axes of the base tensor keep the input last,
    and ``to_tensors`` writes it in C order.
    """

    def __init__(
        self, functional: InfoFunctional, px: np.ndarray, weight_rows: Sequence | np.ndarray
    ) -> None:
        super().__init__([functional], weight_rows, None)
        self.rest_shape = functional.shape[:-1]
        self.nx = functional.shape[-1]
        self.px = np.asarray(px, dtype=float)
        if self.px.shape != (self.nx,):
            raise ValueError("px length mismatch")
        self.block = int(np.prod(self.rest_shape))
        # the input axis of a batch moved last (input-major to tensor order)
        # and back, as transposes fixed once
        k = len(self.rest_shape)
        self._input_last = (0, *range(2, k + 2), 1)
        self._input_first = (0, k + 1, *range(1, k + 1))

    @property
    def block_sizes(self) -> list[int]:
        return [self.block] * self.nx

    def _pullback(self, grads: list[np.ndarray]) -> np.ndarray:
        (g,) = grads
        return (g * self.px).transpose(self._input_first).reshape(len(g), -1)

    def to_tensors(self, flat: np.ndarray) -> list[np.ndarray]:
        """The joint tensor of a flat point, or one per row of a batch."""
        cond = flat.reshape((-1, self.nx) + self.rest_shape).transpose(self._input_last)
        t = np.multiply(cond, self.px, order="C")
        return [t if flat.ndim > 1 else t[0]]

    def to_flat(self, tensors: Sequence[np.ndarray]) -> np.ndarray:
        """Conditional layout of a joint tensor (zero-mass inputs -> uniform)."""
        (t,) = tensors
        t = np.asarray(t, dtype=float)
        px = t.sum(axis=tuple(range(t.ndim - 1)))
        safe = np.where(px > 0.0, px, 1.0)
        cond = t / safe
        uniform = 1.0 / self.block
        cond = np.where(px > 0.0, cond, uniform)
        return np.moveaxis(cond, -1, 0).ravel().copy()
