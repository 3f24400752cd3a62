import logging
import math

import numpy as np
import pytest

from bcbounds.search import (
    SearchConfig,
    ascend,
    golden_section_min,
    maximize,
    project_blocks,
    project_simplex,
    simplex_grid,
    simplex_grid_size,
)


def _projection_oracle(v, tol=1e-12):
    # independent solver: find tau with sum(max(v - tau, 0)) = 1 by bisection
    lo, hi = v.min() - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def test_project_simplex_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(scale=3.0, size=rng.integers(2, 9))
        p = project_simplex(v)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(p - _projection_oracle(v)).max() < 1e-8


def test_project_simplex_fixed_point():
    p = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(p), p, atol=1e-12)


def test_project_blocks_independent():
    v = np.array([2.0, -1.0, 0.3, 0.9])
    out = project_blocks(v, [2, 2])
    assert np.allclose(out[:2], project_simplex(v[:2]))
    assert np.allclose(out[2:], project_simplex(v[2:]))


def test_simplex_grid_count_and_membership():
    pts = list(simplex_grid(4, 8))
    assert len(pts) == simplex_grid_size(4, 8) == math.comb(11, 3) == 165
    arr = np.array(pts)
    assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
    assert arr.min() >= 0.0
    # grid coordinates are exact multiples of 1/8
    assert np.allclose(arr * 8, np.round(arr * 8), atol=1e-12)


def test_simplex_grid_contains_vertices_and_uniform():
    pts = {tuple(p) for p in simplex_grid(3, 3)}
    assert (1.0, 0.0, 0.0) in pts
    assert (0.0, 1.0, 0.0) in pts
    assert (1 / 3, 1 / 3, 1 / 3) in pts


def test_golden_section_quadratic():
    res = golden_section_min(lambda x: (x - 0.3) ** 2, bracket=(0.0, 1.0), tol=1e-6)
    assert res.converged
    assert res.x == pytest.approx(0.3, abs=1e-4)
    assert res.value == pytest.approx(0.0, abs=1e-8)


def test_golden_section_with_subgradient_and_payload():
    def f(x):
        return (x - 0.25) ** 2, 2 * (x - 0.25), {"x": x}

    res = golden_section_min(f, bracket=(0.0, 1.0), tol=1e-5)
    assert res.converged
    assert res.x == pytest.approx(0.25, abs=1e-3)
    assert res.payload["x"] == res.x
    # sign bisection should beat plain golden section on evaluation count
    plain = golden_section_min(lambda x: (x - 0.25) ** 2, bracket=(0.0, 1.0), tol=1e-5)
    assert res.evaluations <= plain.evaluations


def test_golden_section_endpoint_minimum():
    res = golden_section_min(lambda x: x, bracket=(0.0, 1.0), tol=1e-5)
    assert res.x == pytest.approx(0.0, abs=1e-4)


def test_golden_section_bad_bracket():
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x, bracket=(1.0, 0.0))


def _concave_target(t):
    def fun(x):
        d = x - t
        return -float(d @ d), lambda: -2.0 * d

    return fun


def test_ascend_concave_reaches_optimum():
    t = np.array([0.1, 0.2, 0.7])
    v, x, iters, converged = ascend(
        _concave_target(t), np.full(3, 1 / 3), [3], SearchConfig(max_iters=200)
    )
    assert converged
    assert v == pytest.approx(0.0, abs=1e-10)
    assert np.abs(x - t).max() < 1e-5


def test_maximize_blocks():
    # separable concave objective over two simplices
    t1 = np.array([0.6, 0.4])
    t2 = np.array([0.25, 0.25, 0.5])

    def fun(x):
        d1, d2 = x[:2] - t1, x[2:] - t2
        return -float(d1 @ d1 + d2 @ d2), lambda: np.concatenate([-2 * d1, -2 * d2])

    res = maximize(fun, [2, 3], SearchConfig(restarts=3, seed=0))
    assert res.converged
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert np.abs(res.point - np.concatenate([t1, t2])).max() < 1e-5


def _bumpy(x):
    # two local maxima on the 3-simplex; the better one sits at a vertex
    t1 = np.array([1.0, 0.0, 0.0])
    t2 = np.array([0.0, 0.0, 1.0])
    a = np.exp(-8.0 * float((x - t1) @ (x - t1)))
    b = 2.0 * np.exp(-8.0 * float((x - t2) @ (x - t2)))
    return a + b, lambda: a * (-16.0) * (x - t1) + b * (-16.0) * (x - t2)


def test_maximize_budget_monotonicity():
    values = []
    for restarts in (1, 2, 4, 8, 16):
        res = maximize(_bumpy, [3], SearchConfig(restarts=restarts, seed=7))
        values.append(res.value)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_maximize_seeds_always_run():
    # restarts=1 leaves no seed slot in the cycling plan; the seed must
    # still be evaluated, and it sits exactly at the global maximum
    seed = np.array([0.0, 0.0, 1.0])
    res = maximize(_bumpy, [3], SearchConfig(restarts=1, seed=0), seeds=[seed])
    assert res.value >= 2.0 - 1e-9


def test_maximize_seed_size_validated():
    with pytest.raises(ValueError):
        maximize(_bumpy, [3], SearchConfig(restarts=1), seeds=[np.ones(4)])


def test_maximize_nan_objective_aborts_and_logs(caplog):
    def bad(x):
        return float("nan"), lambda: np.zeros_like(x)

    with caplog.at_level(logging.WARNING, logger="bcbounds.search"):
        res = maximize(bad, [3], SearchConfig(restarts=2, seed=0))
    assert res.value == -np.inf
    assert not res.converged
    assert any("non-finite" in rec.message for rec in caplog.records)


def test_maximize_deterministic_for_fixed_seed():
    r1 = maximize(_bumpy, [3], SearchConfig(restarts=5, seed=3))
    r2 = maximize(_bumpy, [3], SearchConfig(restarts=5, seed=3))
    assert r1.value == r2.value
    assert np.array_equal(r1.point, r2.point)
    r3 = maximize(_bumpy, [3], SearchConfig(restarts=5, seed=4))
    # different seed draws different random starts
    assert r3.restart_values != r1.restart_values or r3.value == pytest.approx(r1.value)


def test_maximize_restart_order_contract():
    # restart i depends only on (seed, i) and the seed plan, so doubling the
    # budget keeps the first restarts bit-identical; seeds sit in slots 3, 7
    seeds = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1])]
    n = 8
    small = maximize(_bumpy, [3], SearchConfig(restarts=n, seed=5), seeds=seeds)
    big = maximize(_bumpy, [3], SearchConfig(restarts=2 * n, seed=5), seeds=seeds)
    assert len(small.restart_values) == n and len(big.restart_values) == 2 * n
    assert big.restart_values[:n] == small.restart_values
    assert big.value >= small.value
    again = maximize(_bumpy, [3], SearchConfig(restarts=n, seed=5), seeds=seeds)
    assert again.restart_values == small.restart_values
    assert again.value == small.value and again.restart_index == small.restart_index
    assert np.array_equal(again.point, small.point)


def _counted(fun):
    # fun, recording each call's value and how often its gradient callable ran
    calls = []

    def wrapped(x):
        value, grad = fun(x)
        call = {"value": value, "grads": 0}
        calls.append(call)

        def counted_grad():
            call["grads"] += 1
            return grad()

        return value, counted_grad

    return wrapped, calls


def _eager(fun):
    # the same objective with its gradient computed at every call
    def wrapped(x):
        value, grad = fun(x)
        g = grad()
        return value, lambda: g

    return wrapped


def test_ascent_runs_gradients_only_at_accepted_points():
    rng = np.random.default_rng(0)
    accepted = rejected = 0
    for _ in range(8):
        fun, calls = _counted(_bumpy)
        ascend(fun, rng.dirichlet(np.ones(3)), [3], SearchConfig(max_iters=60))
        # the start point's gradient runs once
        assert calls[0]["grads"] == 1
        current = calls[0]["value"]
        for call in calls[1:]:
            # a trial is accepted exactly when it raises the value
            if call["value"] > current + 1e-15:
                current = call["value"]
                accepted += 1
                assert call["grads"] == 1
            else:
                rejected += 1
                assert call["grads"] == 0
    assert accepted > 0 and rejected > 0


def test_value_first_search_matches_eager_gradients():
    seeds = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1])]
    for restarts, seed in ((1, 0), (5, 3), (8, 5)):
        cfg = SearchConfig(restarts=restarts, seed=seed)
        lazy = maximize(_bumpy, [3], cfg, seeds=seeds)
        eager = maximize(_eager(_bumpy), [3], cfg, seeds=seeds)
        assert lazy.value == eager.value
        assert np.array_equal(lazy.point, eager.point)
        assert lazy.restart_values == eager.restart_values
        assert lazy.restart_index == eager.restart_index
