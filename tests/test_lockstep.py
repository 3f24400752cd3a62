"""The lockstep ascent against the sequential reference: ``maximize`` and
``ascend`` reproduce, bit for bit, a loop over ``oracles.run_restart``,
whichever restarts share a round and however many trials of each a round
scores."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from bcbounds import search
from bcbounds.channel import Channel, ProductChannel
from bcbounds.marton import (
    Cardinalities,
    _default_px_list,
    lambda_weights,
    marton_table,
    structured_seed_joints,
)
from bcbounds.objectives import FixedInputObjective, JointObjective
from bcbounds.regions import _support_objective, _uv_table, default_region_profiles
from bcbounds.search import SearchConfig, ascend, maximize
from oracles import maximize_sequential, pointwise, run_restart

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import bec_bsc_pair  # noqa: E402


def _random_channel(rng, nx, ny, nz):
    return Channel(rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz))


def _marton_lambda_search():
    # the benchmark's lambda_search table: BEC(0.45)/BSC(0.1), shape (2,2,2,2)
    c = Channel(bec_bsc_pair())
    prof = Cardinalities.for_sum_rate(c)
    obj = JointObjective([marton_table(c, prof)], lambda_weights(0.3)[None], None)
    seeds = [obj.to_flat([t]) for t in structured_seed_joints(c, prof, _default_px_list(c))]
    return obj, SearchConfig(restarts=8, max_iters=150, seed=11), seeds


def _uv_small():
    c = _random_channel(np.random.default_rng(21), 3, 2, 3)
    obj = JointObjective([_uv_table(c, 4, 4)], np.eye(5)[:3], None)
    return obj, SearchConfig(restarts=6, max_iters=80, seed=2), []


def _fixed_input():
    c = Channel(bec_bsc_pair())
    prof = Cardinalities.for_sum_rate(c)
    px = np.array([0.3, 0.7])
    obj = FixedInputObjective(marton_table(c, prof), px, lambda_weights(0.6)[None])
    seeds = [obj.to_flat([t]) for t in structured_seed_joints(c, prof, [px])]
    return obj, SearchConfig(restarts=6, max_iters=80, seed=4), seeds


def _semi_deterministic():
    rng = np.random.default_rng(22)
    pc = ProductChannel(_random_channel(rng, 2, 2, 2), _random_channel(rng, 2, 2, 2))
    prof1, prof2 = default_region_profiles(pc, "semi_deterministic")
    obj, _ = _support_objective(pc, "semi_deterministic", (0, 1, 1), prof1, prof2, 0.0)
    return obj, SearchConfig(restarts=6, max_iters=60, seed=1), []


CASES = {
    "marton_lambda_search": _marton_lambda_search,
    "uv_small": _uv_small,
    "fixed_input": _fixed_input,
    "semi_deterministic": _semi_deterministic,
}


@pytest.mark.parametrize("case", list(CASES))
def test_lockstep_search_matches_sequential_restarts(case, monkeypatch):
    obj, cfg, seeds = CASES[case]()
    sizes = obj.block_sizes
    ref = maximize_sequential(obj, sizes, cfg, seeds)
    assert len(ref.restart_values) > 2
    n = sum(sizes)
    # LOCKSTEP_FLOATS for groups of one, two and all restarts, each at
    # speculative depths 1 to 4 however many floats are live, and with
    # SPECULATE_FLOATS below one point, where a round still scores one
    # trial per restart
    depths = [(d, 1 << 40) for d in (1, 2, 3, 4)] + [(3, 1)]
    for cap, (depth, floats) in itertools.product(
        (n, 2 * n, n * len(ref.restart_values)), depths
    ):
        monkeypatch.setattr(search, "LOCKSTEP_FLOATS", cap)
        monkeypatch.setattr(search, "SPECULATE_DEPTH", depth)
        monkeypatch.setattr(search, "SPECULATE_FLOATS", floats)
        got = maximize(obj, sizes, cfg, seeds=seeds)
        assert got.value == ref.value
        assert got.point.tobytes() == ref.point.tobytes()
        assert got.restart_index == ref.restart_index
        assert got.restart_values == ref.restart_values
        assert got.converged == ref.converged
    # ascend is the same engine with one start, here at the default depth
    monkeypatch.undo()
    f = pointwise(obj)
    for x0 in itertools.islice(search._start_points(sizes, cfg, seeds), 4):
        v, x, iters, converged = ascend(obj, x0, sizes, cfg)
        rv, rx, riters, rconverged = run_restart(f, x0, sizes, cfg)
        assert (v, x.tobytes(), iters, converged) == (rv, rx.tobytes(), riters, rconverged)
