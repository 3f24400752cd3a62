"""Two-receiver discrete memoryless broadcast channels.

A channel is a row-stochastic tensor q[x, y, z] = q(y, z | x). The product
of two channels uses independent inputs/outputs with row-major index
flattening: (x1, x2) -> x1 * nx2 + x2, and likewise for y and z, so
component indices are recoverable by divmod.

Receiver comparisons ("more capable": I(X;A) >= I(X;B) for every input
law; "less noisy": I(U;A) >= I(U;B) for every p(u,x)) are semi-decidable
here: a violation witness is a certificate, absence of one after a grid
plus multi-start search is best-effort only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .kernel import entropy_of_array  # noqa: F401  (bench/selftest.py traces this site)
from .objectives import InfoFunctional, JointObjective, mi_terms
from .search import SearchConfig, maximize, simplex_grid, simplex_grid_size

ROW_TOL = 1e-9
# p(x) grid resolution of the coarse scan in is_more_capable
GRID_RESOLUTION = 16
# a receiver comparison gap above this many bits refutes the relation
REFUTE_TOL = 1e-9
# Blahut-Arimoto stopping rule of capacity
CAPACITY_TOL = 1e-10
CAPACITY_MAX_ITERS = 2000
Receiver = Literal["y", "z"]

__all__ = [
    "Channel",
    "ProductChannel",
    "ClassReport",
    "product_tensor",
    "is_deterministic",
    "deterministic_map",
    "capacity",
    "is_more_capable",
    "less_noisy_verdict",
    "classify",
    "channel_to_dict",
    "channel_from_dict",
    "load_channel_file",
    "save_channel_file",
]


@dataclass(frozen=True)
class Channel:
    q: np.ndarray  # q[x, y, z]

    def __post_init__(self) -> None:
        arr = np.asarray(self.q, dtype=float)
        if arr.ndim != 3:
            raise ValueError("channel tensor must have axes (x, y, z)")
        # NaN fails every comparison below, so it is rejected here
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ValueError(f"non-finite channel entry {bad[0]}")
        if arr.min() < -ROW_TOL:
            raise ValueError(f"negative channel entry {arr.min()}")
        rows = arr.sum(axis=(1, 2))
        worst = float(np.abs(rows - 1.0).max())
        if worst > ROW_TOL:
            raise ValueError(f"row-stochasticity violated by {worst}")
        arr = np.where(arr < 0.0, 0.0, arr)
        object.__setattr__(self, "q", arr)

    @property
    def nx(self) -> int:
        return self.q.shape[0]

    @property
    def ny(self) -> int:
        return self.q.shape[1]

    @property
    def nz(self) -> int:
        return self.q.shape[2]

    @cached_property
    def qy(self) -> np.ndarray:
        return self.q.sum(axis=2)

    @cached_property
    def qz(self) -> np.ndarray:
        return self.q.sum(axis=1)

    def receiver_matrix(self, receiver: Receiver) -> np.ndarray:
        _check_receiver(receiver)
        return self.qy if receiver == "y" else self.qz


@dataclass(frozen=True)
class ProductChannel:
    """Two independent component channels used in parallel."""

    c1: Channel
    c2: Channel

    @cached_property
    def flat(self) -> Channel:
        return Channel(product_tensor(self.c1.q, self.c2.q))


def product_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent product of two tensors of one rank with each pair of
    axes flattened, first component major: out[i * b.shape[0] + j, ...]
    = a[i, ...] * b[j, ...], axis by axis."""
    t = np.multiply.outer(a, b)
    interleaved = [ax for k in range(a.ndim) for ax in (k, a.ndim + k)]
    return t.transpose(interleaved).reshape([m * n for m, n in zip(a.shape, b.shape)])


def _check_receiver(receiver: str) -> None:
    if receiver not in ("y", "z"):
        raise ValueError(f"receiver must be 'y' or 'z', got {receiver!r}")


def is_deterministic(c: Channel, receiver: Receiver) -> bool:
    """True when the receiver's marginal channel has a single unit entry per row."""
    m = c.receiver_matrix(receiver)
    return bool(m.max(axis=1).min() >= 1.0 - ROW_TOL)


def deterministic_map(c: Channel, receiver: Receiver) -> np.ndarray:
    if not is_deterministic(c, receiver):
        raise ValueError(f"receiver {receiver} is not deterministic")
    return np.argmax(c.receiver_matrix(receiver), axis=1)


def capacity(c: Channel, receiver: Receiver):
    """Blahut-Arimoto capacity of one receiver's marginal channel.

    Returns (capacity_bits, px). Used for structured search seeds and
    trivial sanity caps, not as part of any bound's definition.
    """
    w = c.receiver_matrix(receiver)
    nx = w.shape[0]
    px = np.full(nx, 1.0 / nx)
    logw = np.where(w > 0.0, np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    cap = 0.0
    for _ in range(CAPACITY_MAX_ITERS):
        out = px @ w
        with np.errstate(divide="ignore"):
            logout = np.where(out > 0.0, np.log2(np.where(out > 0.0, out, 1.0)), 0.0)
        d = np.einsum("xy,xy->x", w, logw - logout[None, :])
        cap_new = float(np.log2(np.dot(px, np.exp2(d))))
        px = px * np.exp2(d - cap_new)
        px = np.maximum(px, 0.0)
        px /= px.sum()
        if abs(cap_new - cap) < CAPACITY_TOL:
            cap = cap_new
            break
        cap = cap_new
    return cap, px


@dataclass
class ComparisonVerdict:
    """Outcome of a one-sided receiver comparison search."""

    holds: bool | None  # True: no violation found; False: refuted; None: unknown
    gap: float  # max of I(X;weaker) - I(X;stronger) found (or U variant)
    witness: np.ndarray | None
    converged: bool


def _gap_table(c: Channel, stronger: Receiver, aux: bool) -> InfoFunctional:
    """The one-row table I(X;weaker) - I(X;stronger) over p(x), or with
    ``aux`` I(U;weaker) - I(U;stronger) over p(u, x) with |U| = 2."""
    weaker: Receiver = "z" if stronger == "y" else "y"
    if aux:
        axes, shape = "ux", (2, c.nx)
        terms = mi_terms("u", weaker) + mi_terms("u", stronger, coeff=-1.0)
    else:
        axes, shape = "x", (c.nx,)
        terms = mi_terms("x", weaker) + mi_terms("x", stronger, coeff=-1.0)
    return InfoFunctional(axes, shape, [terms], channel=c.q)


def _gap_objective(c: Channel, stronger: Receiver, aux: bool) -> JointObjective:
    return JointObjective([_gap_table(c, stronger, aux)], [1.0], None)


def is_more_capable(c: Channel, stronger: Receiver, cfg: SearchConfig) -> ComparisonVerdict:
    """Search for an input law where the weaker receiver learns more.

    Maximizes I(X;weaker) - I(X;stronger) over p(x): one batched scan of a
    p(x) grid, then a multi-start ascent seeded at the scan's first
    maximizer. A gap above REFUTE_TOL refutes the relation with the witness
    input; otherwise the relation is reported as not refuted, since a
    search cannot certify it.
    """
    _check_receiver(stronger)
    obj = _gap_objective(c, stronger, aux=False)
    res_grid = GRID_RESOLUTION
    while simplex_grid_size(c.nx, res_grid) > 25000 and res_grid > 2:
        res_grid -= 2
    grid = np.asarray(list(simplex_grid(c.nx, res_grid)), dtype=float)
    gaps = obj.tables[0].value_and_grad(grid).values[:, 0]
    k = int(gaps.argmax())
    best_grid, best_px = float(gaps[k]), grid[k]
    result = maximize(obj, obj.block_sizes, cfg, seeds=[best_px])
    gap = max(result.value, best_grid)
    witness = result.point if result.value >= best_grid else best_px
    refuted = gap > REFUTE_TOL
    return ComparisonVerdict(
        holds=(not refuted),
        gap=float(gap),
        witness=np.asarray(witness, dtype=float),
        converged=result.converged,
    )


def less_noisy_verdict(c: Channel, stronger: Receiver, cfg: SearchConfig) -> ComparisonVerdict:
    """Heuristic refutation search with a binary auxiliary.

    Maximizes I(U;weaker) - I(U;stronger) over p(u, x) with |U| = 2. A
    positive gap is a sound "no"; otherwise the verdict stays unknown
    because no finite certificate for "yes" is available here.
    """
    _check_receiver(stronger)
    obj = _gap_objective(c, stronger, aux=True)
    result = maximize(obj, obj.block_sizes, cfg)
    refuted = result.value > REFUTE_TOL
    return ComparisonVerdict(
        holds=(False if refuted else None),
        gap=float(result.value),
        witness=obj.to_tensors(result.point)[0],
        converged=result.converged,
    )


@dataclass
class ClassReport:
    y_deterministic: bool
    z_deterministic: bool
    y_more_capable: ComparisonVerdict
    z_more_capable: ComparisonVerdict
    y_less_noisy: ComparisonVerdict
    z_less_noisy: ComparisonVerdict


def classify(c: Channel, cfg: SearchConfig) -> ClassReport:
    """Structural report: determinism flags and receiver-order verdicts."""
    return ClassReport(
        y_deterministic=is_deterministic(c, "y"),
        z_deterministic=is_deterministic(c, "z"),
        y_more_capable=is_more_capable(c, "y", cfg),
        z_more_capable=is_more_capable(c, "z", cfg),
        y_less_noisy=less_noisy_verdict(c, "y", cfg),
        z_less_noisy=less_noisy_verdict(c, "z", cfg),
    )


def channel_to_dict(c: Channel) -> dict:
    return {"nx": c.nx, "ny": c.ny, "nz": c.nz, "q": c.q.tolist()}


def channel_from_dict(d: dict) -> Channel:
    try:
        nx, ny, nz = int(d["nx"]), int(d["ny"]), int(d["nz"])
        q = np.asarray(d["q"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed channel object: {exc}") from exc
    if q.shape != (nx, ny, nz):
        raise ValueError(f"q has shape {q.shape}, header says {(nx, ny, nz)}")
    return Channel(q)


def load_channel_file(path: str) -> Channel | ProductChannel:
    """Load a channel or a two-component product file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON object expected")
    if "product" in data:
        parts = data["product"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ValueError(f"{path}: 'product' must list exactly two channels")
        return ProductChannel(channel_from_dict(parts[0]), channel_from_dict(parts[1]))
    return channel_from_dict(data)


def save_channel_file(path: str, c: Channel | ProductChannel) -> None:
    if isinstance(c, ProductChannel):
        data = {"product": [channel_to_dict(c.c1), channel_to_dict(c.c2)]}
    else:
        data = channel_to_dict(c)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
