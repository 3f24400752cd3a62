"""Reference entropy and mutual information for the tests.

An oracle independent of the entropy-vector core in ``bcbounds.objectives``:
marginals are taken by explicit axis sums of a validated joint tensor and
combined term by term. All quantities are in bits; zero probabilities are
skipped exactly, as in ``bcbounds.kernel.entropy_of_array``.

Quantities are requested by axis index, e.g. for p(x, y, z) stored with
axes (0, 1, 2), ``mutual_information(p, (0,), (1,), given=(2,))`` is I(X;Y|Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from bcbounds.kernel import entropy_of_array

NORM_TOL = 1e-12
NEG_TOL = 1e-10


@dataclass(frozen=True)
class ProbTensor:
    """A validated joint probability tensor.

    values : ndarray, one axis per variable, entries nonnegative and
    summing to one. Construction fails loudly on bad input; tiny negative
    round-off (>= -1e-10) is clamped to zero, anything worse is an error.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim == 0:
            raise ValueError("probability tensor needs at least one axis")
        lo = float(arr.min())
        if lo < -NEG_TOL:
            raise ValueError(f"negative probability {lo} below -{NEG_TOL}")
        if lo < 0.0:
            arr = np.where(arr < 0.0, 0.0, arr)
        total = float(arr.sum())
        if abs(total - 1.0) > max(NORM_TOL, 1e-9 * arr.size):
            raise ValueError(f"tensor sums to {total}, not 1")
        object.__setattr__(self, "values", arr)

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def marginal(self, axes: Sequence[int]) -> np.ndarray:
        """Marginal over the given axes (in the given order)."""
        keep = _check_axes(axes, self.ndim)
        drop = tuple(i for i in range(self.ndim) if i not in keep)
        m = self.values.sum(axis=drop) if drop else self.values
        order = tuple(sorted(keep).index(a) for a in keep)
        return np.transpose(m, order)


def _check_axes(axes: Iterable[int], ndim: int) -> tuple[int, ...]:
    out = tuple(int(a) for a in axes)
    for a in out:
        if a < 0 or a >= ndim:
            raise IndexError(f"axis {a} out of range for {ndim}-axis tensor")
    if len(set(out)) != len(out):
        raise ValueError(f"repeated axis in {out}")
    return out


def _as_tensor(p: ProbTensor | np.ndarray) -> ProbTensor:
    if isinstance(p, ProbTensor):
        return p
    return ProbTensor(np.asarray(p, dtype=float))


def entropy(
    p: ProbTensor | np.ndarray,
    axes: Sequence[int] | None = None,
    given: Sequence[int] = (),
) -> float:
    """H(axes | given) in bits. ``axes=None`` means all axes.

    H(A|C) is computed as H(A,C) - H(C); both entropies use the same
    exact-zero-skip rule, so deterministic relations give exact zeros.
    """
    t = _as_tensor(p)
    if axes is None:
        axes = tuple(range(t.ndim))
    keep = _check_axes(axes, t.ndim)
    cond = _check_axes(given, t.ndim)
    if set(keep) & set(cond):
        raise ValueError("axes and given must be disjoint")
    h_joint = entropy_of_array(t.marginal(tuple(keep) + tuple(cond)))
    if not cond:
        return h_joint
    return h_joint - entropy_of_array(t.marginal(cond))


def mutual_information(
    p: ProbTensor | np.ndarray,
    a: Sequence[int],
    b: Sequence[int],
    given: Sequence[int] = (),
) -> float:
    """I(A;B|C) in bits via H(A,C) + H(B,C) - H(A,B,C) - H(C)."""
    t = _as_tensor(p)
    aa = _check_axes(a, t.ndim)
    bb = _check_axes(b, t.ndim)
    cc = _check_axes(given, t.ndim)
    if (set(aa) & set(bb)) or (set(aa) & set(cc)) or (set(bb) & set(cc)):
        raise ValueError("a, b, given must be pairwise disjoint")
    h_ac = entropy_of_array(t.marginal(aa + cc))
    h_bc = entropy_of_array(t.marginal(bb + cc))
    h_abc = entropy_of_array(t.marginal(aa + bb + cc))
    h_c = entropy_of_array(t.marginal(cc)) if cc else 0.0
    return h_ac + h_bc - h_abc - h_c
