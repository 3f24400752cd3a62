"""Shannon entropy of a finite nonnegative array.

All quantities are in bits (base-2 logs). Zero probabilities are skipped
exactly when summing p*log(p), never clamped, so point masses and other
boundary distributions evaluate without warnings or -inf artifacts.

Every entropy is one pairwise sum (numpy's ``add.reduce`` along a
contiguous row; N. J. Higham, "The accuracy of floating point
summation", SIAM J. Sci. Comput. 1993) of the terms p*log2(p), with each
zero entry's term an exact +0.0 in its place. ``entropy_of_array`` is a
batch of one with one segment, so it and ``segment_entropies`` agree bit
for bit on every array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["entropy_of_array", "segment_entropies"]


def entropy_of_array(p: np.ndarray) -> float:
    """Shannon entropy in bits of an arbitrary nonnegative array.

    Does not require normalization; used internally on marginals that are
    exact by construction. Terms with p == 0 contribute exactly zero.
    """
    flat = np.asarray(p, dtype=float).ravel()
    if flat.size == 0:
        return 0.0
    return float(segment_entropies(flat[None], [0, flat.size])[0][0, 0])


def segment_entropies(
    rows: np.ndarray, offsets: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropies in bits of the segments ``rows[:, offsets[s]:offsets[s+1]]``
    of every row of a 2-D nonnegative array, by one mask and one log2 over
    the whole array and one pairwise sum per segment for all rows at once.

    Returns (entropies, one row per row of ``rows``; the mask of the
    positive entries; log2 of each positive entry in its place, +0.0 at
    the others), both shaped as ``rows``, so a caller can reuse the logs
    of any segment.
    """
    mask = rows > 0.0
    logs = np.zeros(rows.shape)
    logs[mask] = np.log2(rows[mask])
    # p*log2(p): a zero entry's term is +0.0 * 0.0 = +0.0
    terms = logs * rows
    sums = np.empty((len(rows), len(offsets) - 1))
    for s, (a, b) in enumerate(zip(offsets, offsets[1:])):
        np.add.reduce(terms[:, a:b], axis=1, out=sums[:, s])
    # -sum, except that a segment with no positive entry keeps +0.0
    h = np.zeros_like(sums)
    np.negative(sums, out=h, where=np.logical_or.reduceat(mask, offsets[:-1], axis=1))
    return h, mask, logs
