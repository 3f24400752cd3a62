"""Seeded inputs, tasks and reference checks for the bcbounds benchmark.

A workload seed fixes the whole task list: task k of seed n draws its
relabelings and its search seed from ``SeedSequence([n, k])``. The
program under test receives only the generated channels and configs.

Workloads (see README.md for the layer each one stresses):

- ``separation``: ``verify_separation`` on the 16-input product, the
  paper's headline. lambda* = 1/2 is the first bisection midpoint, so the
  lambda loop runs once.
- ``lambda_search``: ``marton_sum_rate`` on a relabeled BEC(0.45)/BSC(0.1)
  pair. Its lambda curve has a nonzero subgradient everywhere, so golden
  section iterates (21 evaluations).
- ``product_regions``: the semi-deterministic and ``product_outer``
  support pair on the product, weights (0, 1, 1), R0 pinned to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("separation", "lambda_search", "product_regions")

# BEC(0.45) receiver Y (third symbol = erasure), BSC(0.1) receiver Z.
BEC_EPS = 0.45
BSC_P = 0.1
# The BEC receiver's capacity 1 - eps is the pair's Marton sum rate.
LAMBDA_TARGET = 1.0 - BEC_EPS
LAMBDA_TOL = 5e-3

SEMI_TARGET = 8.0 / 3.0
SEMI_TOL = 5e-3
OUTER_LO = 8.0 / 3.0 - 1e-6
OUTER_HI = 44.0 / 15.0

# Tolerances, as printed with every run's results.
TOLERANCES = {
    "separation": "all five verify_separation checks (their own tolerances)",
    "lambda_search": f"converged and |value - {LAMBDA_TARGET}| <= {LAMBDA_TOL}",
    "product_regions": (
        f"|semi - 8/3| <= {SEMI_TOL} and outer in [8/3 - 1e-6, 44/15]"
    ),
}


@dataclass
class Task:
    """One unit of work: inputs for the program plus what to check."""

    workload: str
    index: int
    search_seed: int
    q: np.ndarray | None = None  # lambda_search: relabeled channel q[x, y, z]
    perm: dict = field(default_factory=dict)  # lambda_search: the relabeling

    def describe(self) -> dict:
        out = {"task": self.index, "search_seed": self.search_seed}
        out.update(self.perm)
        return out


def bec_bsc_pair() -> np.ndarray:
    my = np.array([[1 - BEC_EPS, 0.0, BEC_EPS], [0.0, 1 - BEC_EPS, BEC_EPS]])
    mz = np.array([[1 - BSC_P, BSC_P], [BSC_P, 1 - BSC_P]])
    return np.einsum("xy,xz->xyz", my, mz)


def relabel(q: np.ndarray, px, py, pz, swap: bool) -> np.ndarray:
    """q'[x, y, z] = q[px[x], py[y], pz[z]], receivers swapped if asked."""
    out = q[np.ix_(px, py, pz)]
    return out.transpose(0, 2, 1).copy() if swap else out.copy()


def make_task(workload: str, seed: int, index: int) -> Task:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ss = np.random.SeedSequence([seed, index])
    search_seed = int(ss.generate_state(1)[0] >> 1)
    task = Task(workload, index, search_seed)
    if workload == "lambda_search":
        rng = np.random.default_rng(ss)
        base = bec_bsc_pair()
        px, py, pz = (rng.permutation(n).tolist() for n in base.shape)
        # tasks alternate; on odd workload seeds the first task is swapped
        swap = (seed + index) % 2 == 1
        task.q = relabel(base, px, py, pz, swap)
        task.perm = {"perm_x": px, "perm_y": py, "perm_z": pz, "swap": swap}
    return task


def task_list(workload: str, seed: int, count: int) -> list[Task]:
    return [make_task(workload, seed, k) for k in range(count)]


class Inputs:
    """Everything a workload needs that does not depend on the task."""

    def __init__(self, workload: str):
        from bcbounds import ProductAuxiliary, product_channel
        from bcbounds.counterexample import component_branch_aux

        if workload == "product_regions":
            self.pc = product_channel()
            self.extra = [
                ProductAuxiliary(component_branch_aux("y", b1), component_branch_aux("z", b2))
                for b1 in ("steep", "flat")
                for b2 in ("steep", "flat")
            ]


def run_task(inputs: Inputs, task: Task) -> dict:
    """Run one task; returns its outputs and the reference check."""
    import bcbounds

    if task.workload == "separation":
        rep = bcbounds.verify_separation(seed=task.search_seed)
        m = rep.marton
        return {
            "passed": bool(rep.passed),
            "value_bits": m.value,
            "lambda_star": m.lam_star,
            "evaluations": m.evaluations,
            "error_bits": abs(m.value - 8.0 / 3.0),
            "uv_free_bits": rep.uv_free.value,
            "failed_checks": [c.name for c in rep.checks if not c.passed],
        }
    if task.workload == "lambda_search":
        cfg = bcbounds.SearchConfig(restarts=8, max_iters=150, seed=task.search_seed)
        res = bcbounds.marton_sum_rate(bcbounds.Channel(task.q), cfg)
        err = abs(res.value - LAMBDA_TARGET)
        return {
            "passed": bool(res.converged and err <= LAMBDA_TOL),
            "value_bits": res.value,
            "lambda_star": res.lam_star,
            "evaluations": res.evaluations,
            "error_bits": err,
            "converged": bool(res.converged),
        }
    cfg = bcbounds.SearchConfig(restarts=6, max_iters=150, seed=task.search_seed)
    semi = bcbounds.region_support(
        inputs.pc, "semi_deterministic", (0, 1, 1), cfg, extra_seeds=inputs.extra, fix_r0=0.0
    )
    outer = bcbounds.region_support(
        inputs.pc, "product_outer", (0, 1, 1), cfg, extra_seeds=inputs.extra, fix_r0=0.0
    )
    semi_err = abs(semi.value - SEMI_TARGET)
    return {
        "passed": bool(semi_err <= SEMI_TOL and OUTER_LO <= outer.value <= OUTER_HI),
        "value_bits": semi.value,
        "outer_bits": outer.value,
        "error_bits": semi_err,
    }
