"""Shannon entropy of a finite nonnegative array.

All quantities are in bits (base-2 logs). Zero probabilities are skipped
exactly when summing p*log(p), never clamped, so point masses and other
boundary distributions evaluate without warnings or -inf artifacts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["entropy_of_array", "segment_entropies"]


def entropy_of_array(p: np.ndarray) -> float:
    """Shannon entropy in bits of an arbitrary nonnegative array.

    Does not require normalization; used internally on marginals that are
    exact by construction. Terms with p == 0 contribute exactly zero.
    """
    flat = np.asarray(p, dtype=float).ravel()
    pos = flat[flat > 0.0]
    if pos.size == 0:
        return 0.0
    return float(-np.dot(pos, np.log2(pos)))


def segment_entropies(
    flat: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropies in bits of the segments ``flat[offsets[s]:offsets[s+1]]``
    of one flat nonnegative array, in a single mask and a single log2.

    Each entropy is bit-identical to ``entropy_of_array`` on its segment:
    the same positive entries, their logs and one dot product, in the same
    order. Returns (entropies, mask of the positive entries, log2 of the
    positive entries), so a caller can reuse the logs.
    """
    mask = flat > 0.0
    pos = flat[mask]
    logs = np.log2(pos)
    # positives before each segment boundary
    cuts = np.searchsorted(np.flatnonzero(mask), offsets).tolist()
    h = np.zeros(len(cuts) - 1)
    for s, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if b > a:
            h[s] = -np.dot(pos[a:b], logs[a:b])
    return h, mask, logs
