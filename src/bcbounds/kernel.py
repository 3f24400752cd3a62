"""Shannon entropy of a finite nonnegative array.

All quantities are in bits (base-2 logs). Zero probabilities are skipped
exactly when summing p*log(p), never clamped, so point masses and other
boundary distributions evaluate without warnings or -inf artifacts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["entropy_of_array"]


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
