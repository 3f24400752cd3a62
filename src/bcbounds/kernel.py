"""Shannon entropy of a finite nonnegative array.

All quantities are in bits (base-2 logs). Zero probabilities contribute
exactly zero to p*log(p), never a clamped value, so point masses and
other boundary distributions evaluate without warnings or -inf
artifacts.

The input contract is nonnegative rows: projected search points,
validated channels and their marginals, all linear images of those with
nonnegative coefficients. An entry that is not positive gets the log
``LOG2_CLIP`` (log2 of ``GRAD_CLIP``): a copy of the array with
``GRAD_CLIP`` in place of those entries takes one log2 in place, so the
logs are the clipped logs an entropy derivative reads. Such an entry's
term p*log2(p) is then LOG2_CLIP * 0.0 = -0.0, which leaves every nonzero
sum unchanged. A negative entry would instead contribute a positive
term, so callers must not pass one.

Every entropy is one pairwise sum (numpy's ``add.reduce`` along a
contiguous row; N. J. Higham, "The accuracy of floating point
summation", SIAM J. Sci. Comput. 1993) of the terms p*log2(p), with each
zero entry's term an exact zero in its place. ``entropy_of_array`` is a
batch of one with one segment, so it and ``segment_entropies`` agree bit
for bit on every array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["entropy_of_array", "segment_entropies"]

# the smallest mass an entropy derivative resolves, and its log
GRAD_CLIP = 1e-300
LOG2_CLIP = float(np.log2(GRAD_CLIP))


def entropy_of_array(p: np.ndarray) -> float:
    """Shannon entropy in bits of an arbitrary nonnegative array.

    Does not require normalization; used internally on marginals that are
    exact by construction. Terms with p == 0 contribute exactly zero.
    """
    flat = np.asarray(p, dtype=float).ravel()
    if flat.size == 0:
        return 0.0
    return float(segment_entropies(flat[None], [0, flat.size])[0][0, 0])


def segment_entropies(rows: np.ndarray, offsets: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Entropies in bits of the segments ``rows[:, offsets[s]:offsets[s+1]]``
    of every row of a 2-D nonnegative array, by one mask and one log2 over
    the whole array (``GRAD_CLIP`` in place of each entry that is not
    positive) and one pairwise sum per segment for all rows at once.

    Returns (entropies, one row per row of ``rows``; log2 of each
    positive entry in its place and ``LOG2_CLIP`` at the others, shaped as
    ``rows``), so a caller can reuse the logs of any segment.
    """
    mask = rows > 0.0
    logs = np.where(mask, rows, GRAD_CLIP)
    np.log2(logs, out=logs)
    # p*log2(p): a zero entry's term is LOG2_CLIP * 0.0 = -0.0
    terms = logs * rows
    bounds = np.asarray(offsets).tolist()
    # one segment's sums for all rows per line: each reduce writes a
    # contiguous line
    sums = np.empty((len(bounds) - 1, len(rows)))
    for s, (a, b) in enumerate(zip(bounds, bounds[1:])):
        np.add.reduce(terms[:, a:b], 1, out=sums[s])
    # -sum, except that a segment with no positive entry keeps +0.0
    h = np.zeros((len(rows), len(sums)))
    np.negative(sums.T, out=h, where=np.logical_or.reduceat(mask, bounds[:-1], axis=1))
    return h, logs
