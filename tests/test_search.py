import dataclasses
import itertools
import logging
import math

import numpy as np
import pytest

from bcbounds import search
from bcbounds.search import (
    Line,
    SearchConfig,
    ascend,
    envelope,
    kelley_min,
    maximize,
    project_blocks,
    project_simplex,
    simplex_grid,
    simplex_grid_size,
)
from oracles import maximize_sequential, pointwise, project_blocks_per_block, run_restart


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


PROJECTION_SHAPES = [
    [16],
    [8, 8],
    [128] * 2,
    [512] * 2,
    [256] * 16,
    [4096],
    [4624],
    [3, 5, 8],
    [3, 3, 5, 5, 5, 2],
]


def _shape_id(sizes):
    return f"{len(sizes)}x{sizes[0]}" if len(set(sizes)) == 1 else "-".join(map(str, sizes))


def _batched(fun):
    # a plain objective fun(x) -> (value, grad) in the search contract: a
    # batch of points in, their values and grad(rows) out
    def batch(points):
        outs = [fun(x) for x in points]
        values = np.array([v for v, _ in outs])
        return values, lambda rows: np.array([outs[r][1]() for r in rows])

    return batch


@pytest.mark.parametrize(
    "sizes, batch",
    [(s, False) for s in PROJECTION_SHAPES] + [(s, True) for s in PROJECTION_SHAPES],
    ids=[_shape_id(s) for s in PROJECTION_SHAPES]
    + [f"batch-{_shape_id(s)}" for s in PROJECTION_SHAPES],
)
def test_project_blocks_matches_per_block_sort_bit_for_bit(sizes, batch):
    # ascent trials: a point of the product of simplices plus a step of
    # 1e-12 to 64 along a normal, a tied or a zero gradient; a batch
    # projects the five steps' trials together, each row on its own
    rng = np.random.default_rng(sum(sizes))
    n = sum(sizes)
    for draw in range(4):
        x = np.concatenate([rng.dirichlet(np.full(b, (1.0, 0.1)[draw % 2])) for b in sizes])
        gradients = {
            "normal": rng.normal(size=n),
            "tied": rng.integers(-2, 3, size=n).astype(float),
            "zero": np.zeros(n),
        }
        for g in gradients.values():
            trials = [x + step * g for step in (1e-12, 1e-6, 1e-2, 1.0, 64.0)]
            rows = project_blocks(np.stack(trials), sizes) if batch else None
            for i, v in enumerate(trials):
                got = rows[i] if batch else project_blocks(v, sizes)
                assert got.tobytes() == project_blocks_per_block(v, sizes).tobytes()
                if len(sizes) == 1:
                    assert project_simplex(v).tobytes() == got.tobytes()


NON_FINITE_SIZES = [[4], [3, 3, 3], [3, 5, 8], [3, 3, 5, 5, 5, 2]]


@pytest.mark.parametrize(
    "sizes, batch",
    [(s, False) for s in NON_FINITE_SIZES] + [(s, True) for s in NON_FINITE_SIZES],
    ids=[f"{batch}sizes{i}" for batch in ("", "batch-") for i in range(len(NON_FINITE_SIZES))],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_blocks_rejects_non_finite_entries_naming_the_block(sizes, batch, bad):
    # in a batch the bad entry sits in the last of three points, and the
    # error names its block within that point
    rng = np.random.default_rng(1)
    for block in range(len(sizes)):
        v = rng.normal(size=(3, sum(sizes)) if batch else sum(sizes))
        target = v[-1] if batch else v
        target[sum(sizes[:block]) + sizes[block] // 2] = bad
        with pytest.raises(ValueError, match=f"block {block} "):
            project_blocks(v, sizes)


def test_ascent_projects_through_the_search_module(monkeypatch):
    # the ascent looks project_blocks up in the search module, so a wrapper
    # put there (as the benchmark's tracer does) counts every projection
    original = search.project_blocks
    projected, served = [], []
    target = np.array([0.6, 0.4, 0.25, 0.25, 0.5])

    def counting(v, block_sizes):
        projected.append(original(v, block_sizes))
        return projected[-1]

    def fun(points):
        # every point served is a row of the latest projection
        assert {p.tobytes() for p in points} <= {p.tobytes() for p in projected[-1]}
        served.append(len(projected))
        d = points - target
        return -np.einsum("ij,ij->i", d, d), lambda rows: -2.0 * d[rows]

    monkeypatch.setattr(search, "project_blocks", counting)
    res = maximize(fun, [2, 3], SearchConfig(restarts=6, max_iters=40, seed=2))
    assert res.value == pytest.approx(0.0, abs=1e-10)
    # one projection per objective call, plus at most one per restart for
    # the round whose trials did not move their points
    assert len(set(served)) == len(served)
    assert len(served) <= len(projected) <= len(served) + len(res.restart_values)


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


TIE = 8.0 / 3.0


@dataclasses.dataclass(frozen=True)
class _Sample(Line):
    payload: object


def _kelley(f):
    """kelley_min on f(x) -> (value, slope, payload), unseeded, as (lam,
    value at lam, payload of the active line, evaluations)."""
    lam, lines = kelley_min(lambda x, _: _Sample(x, *f(x)))
    active = envelope(lines, lam)
    return lam, active.at(lam), active.payload, len(lines)


@pytest.mark.parametrize("first_slope", [0.0, 2.0 / 3.0, -2.0 / 3.0], ids=["flat", "rising", "falling"])
def test_kelley_min_stops_on_the_worked_example_tie(first_slope):
    # the worked example at lambda = 1/2: seeds tie at 8/3 with slopes 0 and
    # +-2/3, and rounding picks which line the first sample returns
    def f(x):
        slope = first_slope if x == 0.5 else max((0.0, 2 / 3, -2 / 3), key=lambda s: s * (x - 0.5))
        return TIE + slope * (x - 0.5), slope, slope

    lam, value, payload, evals = _kelley(f)
    assert lam == 0.5
    assert value == pytest.approx(TIE, abs=1e-15)
    assert evals <= 2
    assert TIE + payload * (lam - 0.5) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("slope, end", [(0.3, 0.0), (-0.3, 1.0)])
def test_kelley_min_reaches_an_affine_curves_endpoint(slope, end):
    lam, value, _, evals = _kelley(lambda x: (1.0 + slope * x, slope, None))
    assert (lam, evals) == (end, 2)
    assert value == pytest.approx(1.0 + slope * end, abs=1e-15)


def test_kelley_min_stops_at_a_zero_slope_first_sample():
    lam, value, payload, evals = _kelley(lambda x: ((x - 0.5) ** 2, 2 * (x - 0.5), {"x": x}))
    assert (lam, value, payload, evals) == (0.5, 0.0, {"x": 0.5}, 1)


@pytest.mark.parametrize("seed", range(6))
def test_kelley_min_is_not_fooled_by_short_samples(seed):
    # a max of lines, sampled by a "search" that returns its active line
    # 0.05 short at every other call: the report never exceeds the minimum
    rng = np.random.default_rng(seed)
    lines = list(zip(rng.uniform(0.0, 1.0, 5), rng.uniform(-1.0, 1.0, 5)))

    def curve(x):
        return max(a + b * x for a, b in lines)

    kinks = [
        (a2 - a1) / (b1 - b2) for (a1, b1), (a2, b2) in itertools.combinations(lines, 2)
    ]
    true_min = min(curve(x) for x in [0.0, 1.0, *kinks] if 0.0 <= x <= 1.0)
    calls = []

    def f(x):
        a, b = max(lines, key=lambda ln: ln[0] + ln[1] * x)
        calls.append(x)
        short = 0.05 if len(calls) % 2 else 0.0
        return a + b * x - short, b, (a - short, b)

    lam, value, (a, b), evals = _kelley(f)
    assert value <= true_min + search.KELLEY_TOL
    assert value >= true_min - 0.05
    assert a + b * lam == pytest.approx(value, abs=1e-15)
    assert evals == len(calls)


def test_envelope_is_the_first_highest_line_and_seeds_every_sample():
    lines = [_Sample(0.0, 1.0, 1.0, "a"), _Sample(1.0, 1.0, -1.0, "b"), _Sample(0.5, 1.5, 0.0, "c")]
    # at 1/2 all three lines read 3/2: the first wins the tie
    assert envelope(lines, 0.5).payload == "a"
    assert envelope(lines, 0.0).payload == "b"
    assert envelope(lines, 0.9).payload == "a"
    assert envelope([], 0.5) is None
    # each sample's search gets the envelope's line at its lambda, none at
    # the first: a line of slope -1 through (0, 1) seeds the next sample
    seeds = []

    def f(x, active):
        seeds.append(active)
        return _Sample(x, 1.0 - x, -1.0, x)

    lam, lines = kelley_min(f)
    assert seeds[0] is None
    assert seeds[1:] == [envelope(lines[:k], line.lam) for k, line in enumerate(lines) if k]
    assert (lam, len(lines)) == (1.0, 2)


def _concave_target(t):
    def fun(x):
        d = x - t
        return -float(d @ d), lambda: -2.0 * d

    return fun


def test_ascend_concave_reaches_optimum():
    t = np.array([0.1, 0.2, 0.7])
    v, x, iters, converged = ascend(
        _batched(_concave_target(t)), np.full(3, 1 / 3), [3], SearchConfig(max_iters=200)
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

    res = maximize(_batched(fun), [2, 3], SearchConfig(restarts=3, seed=0))
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
        res = maximize(_batched(_bumpy), [3], SearchConfig(restarts=restarts, seed=7))
        values.append(res.value)
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_maximize_seeds_always_run():
    # restarts=1 leaves no seed slot in the restart plan; the seed must
    # still be evaluated, and it sits exactly at the global maximum
    seed = np.array([0.0, 0.0, 1.0])
    res = maximize(_batched(_bumpy), [3], SearchConfig(restarts=1, seed=0), seeds=[seed])
    assert res.value >= 2.0 - 1e-9


@pytest.mark.parametrize(
    "budget",
    [
        {"restarts": 0},
        {"restarts": -5},
        {"max_iters": 0},
        {"restarts": -5, "max_iters": 0},
        {"seed": -1},
    ],
)
def test_search_config_rejects_budgets_below_one(budget):
    with pytest.raises(ValueError):
        SearchConfig(**budget)
    with pytest.raises(ValueError):
        SearchConfig(restarts=2, max_iters=5).with_(**budget)


def test_maximize_starts_each_distinct_seed_exactly_once():
    # seed slots 3 and 7 take the two distinct seeds, and slots 11 and 15,
    # with no unused seed left, draw Dirichlet(1): no two restarts start
    # from one point
    a, b = np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1])
    for seeds in ([a, b], [a, b, a.copy(), b]):
        starts = []

        def fun(points):
            starts.extend(p.tobytes() for p in points)
            return _batched(_bumpy)(points)

        res = maximize(fun, [3], SearchConfig(restarts=16, max_iters=1, seed=2), seeds=seeds)
        first = starts[:16]
        assert len(res.restart_values) == 16
        assert len(set(first)) == 16
        assert first[3] == project_simplex(a).tobytes()
        assert first[7] == project_simplex(b).tobytes()


def test_maximize_seed_size_validated():
    with pytest.raises(ValueError):
        maximize(_batched(_bumpy), [3], SearchConfig(restarts=1), seeds=[np.ones(4)])


def test_maximize_nan_objective_aborts_and_logs(caplog):
    def bad(x):
        return float("nan"), lambda: np.zeros_like(x)

    with caplog.at_level(logging.WARNING, logger="bcbounds.search"):
        res = maximize(_batched(bad), [3], SearchConfig(restarts=2, seed=0))
    assert res.value == -np.inf
    assert not res.converged
    assert any("non-finite" in rec.message for rec in caplog.records)


def test_maximize_deterministic_for_fixed_seed():
    r1 = maximize(_batched(_bumpy), [3], SearchConfig(restarts=5, seed=3))
    r2 = maximize(_batched(_bumpy), [3], SearchConfig(restarts=5, seed=3))
    assert r1.value == r2.value
    assert np.array_equal(r1.point, r2.point)
    r3 = maximize(_batched(_bumpy), [3], SearchConfig(restarts=5, seed=4))
    # different seed draws different random starts
    assert r3.restart_values != r1.restart_values or r3.value == pytest.approx(r1.value)


# LOCKSTEP_FLOATS for groups of one, two and all restarts of a 3-float point
GROUP_CAPS = {"one": 3, "two": 6, "all": search.LOCKSTEP_FLOATS}


def test_maximize_restart_order_contract(monkeypatch):
    # restart i depends only on (seed, i) and the seed plan, so doubling the
    # budget keeps the first restarts bit-identical; seeds sit in slots 3, 7.
    # Nor does it depend on which restarts step in lockstep with it.
    seeds = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1])]
    n = 8
    runs = {}
    for name, cap in GROUP_CAPS.items():
        monkeypatch.setattr(search, "LOCKSTEP_FLOATS", cap)
        small = maximize(_batched(_bumpy), [3], SearchConfig(restarts=n, seed=5), seeds=seeds)
        big = maximize(_batched(_bumpy), [3], SearchConfig(restarts=2 * n, seed=5), seeds=seeds)
        assert len(small.restart_values) == n and len(big.restart_values) == 2 * n
        assert big.restart_values[:n] == small.restart_values
        assert big.value >= small.value
        again = maximize(_batched(_bumpy), [3], SearchConfig(restarts=n, seed=5), seeds=seeds)
        assert again.restart_values == small.restart_values
        assert again.value == small.value and again.restart_index == small.restart_index
        assert np.array_equal(again.point, small.point)
        runs[name] = (big.restart_values, big.restart_index, big.point.tobytes())
    assert runs["one"] == runs["two"] == runs["all"]


def _counted(fun):
    # fun, recording each call's value, how often its gradient callable ran
    # and the bytes of the point it ran at
    calls = []

    def wrapped(x):
        value, grad = fun(x)
        call = {"value": value, "grads": 0}
        calls.append(call)

        def counted_grad():
            call["grads"] += 1
            call["point"] = x.tobytes()
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


def test_ascent_runs_gradients_only_at_accepted_points(monkeypatch):
    # one trial per round, so every call after the start's scores one trial
    monkeypatch.setattr(search, "SPECULATE_DEPTH", 1)
    rng = np.random.default_rng(0)
    accepted = rejected = 0
    for _ in range(8):
        fun, calls = _counted(_bumpy)
        ascend(_batched(fun), rng.dirichlet(np.ones(3)), [3], SearchConfig(max_iters=60))
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


def test_value_first_search_matches_eager_gradients(monkeypatch):
    seeds = [np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.3, 0.1])]
    for cap in GROUP_CAPS.values():
        monkeypatch.setattr(search, "LOCKSTEP_FLOATS", cap)
        for restarts, seed in ((1, 0), (5, 3), (8, 5)):
            cfg = SearchConfig(restarts=restarts, seed=seed)
            lazy = maximize(_batched(_bumpy), [3], cfg, seeds=seeds)
            eager = maximize(_batched(_eager(_bumpy)), [3], cfg, seeds=seeds)
            assert lazy.value == eager.value
            assert np.array_equal(lazy.point, eager.point)
            assert lazy.restart_values == eager.restart_values
            assert lazy.restart_index == eager.restart_index


def test_lockstep_refills_a_slot_as_its_restart_ends(monkeypatch):
    # room for 4 points and 12 starts: a restart that ends hands its slot to
    # the next start, so while a start still waits every objective call
    # scores 4 points. max_iters ends every restart unconverged, so no trial
    # stalls in place (that trial would not be scored, and its restart would
    # end converged). One trial per restart per round.
    drawn, sizes = [], []
    start_points = search._start_points

    def counted_starts(*args):
        for x0 in start_points(*args):
            drawn.append(x0)
            yield x0

    def fun(points):
        if len(drawn) < 12:
            sizes.append(len(points))
        return _batched(_bumpy)(points)

    monkeypatch.setattr(search, "_start_points", counted_starts)
    monkeypatch.setattr(search, "LOCKSTEP_FLOATS", 4 * 3)
    monkeypatch.setattr(search, "SPECULATE_DEPTH", 1)
    cfg = SearchConfig(restarts=12, max_iters=3, seed=0)
    res = maximize(fun, [3], cfg)
    assert not res.converged
    assert len(sizes) > 3 and set(sizes) == {4}
    assert res.restart_values == maximize_sequential(_batched(_bumpy), [3], cfg).restart_values


def _recorded(fun):
    # fun in the search contract, recording a copy of every batch it scores
    batches = []

    def wrapped(points):
        batches.append(points.copy())
        return fun(points)

    return wrapped, batches


def test_speculative_ascent_scores_next_steps_and_grades_only_accepted_points():
    # at the default depth a round scores the restart's trials at s, s/2 and
    # s/4 in order; the first that rises is accepted and gets the round's
    # one gradient, and the trials after it are scored but never graded
    depth = search.SPECULATE_DEPTH
    assert depth > 1
    rng = np.random.default_rng(0)
    later = 0
    for _ in range(8):
        x0 = rng.dirichlet(np.ones(3))
        cfg = SearchConfig(max_iters=60)
        counted_fun, calls = _counted(_bumpy)
        fun, batches = _recorded(_batched(counted_fun))
        got = ascend(fun, x0, [3], cfg)
        graded = [c["point"] for c in calls for _ in range(c["grads"])]
        assert len(batches[0]) == 1 and graded[0] == batches[0][0].tobytes()
        current = _bumpy(batches[0][0])[0]
        expected = [graded[0]]
        for batch in batches[1:]:
            assert 1 <= len(batch) <= depth
            for r, x in enumerate(batch):
                if _bumpy(x)[0] > current + 1e-15:
                    current = _bumpy(x)[0]
                    expected.append(x.tobytes())
                    later += r > 0
                    break
        # every start and accepted trial graded exactly once, nothing else
        assert graded == expected
        rv, rx, riters, rconverged = run_restart(pointwise(_batched(_bumpy)), x0, [3], cfg)
        assert (got[0], got[1].tobytes(), got[2:]) == (rv, rx.tobytes(), (riters, rconverged))
    assert later > 0


def test_speculative_rounds_bound_their_batches_and_grade_as_sequential(monkeypatch):
    # room for 4 points and 12 starts at the default depth: a call scores at
    # most depth trials of each live restart plus the new starts, and the
    # gradients run at exactly the starts and accepted trials of the
    # restarts run one at a time, each once
    depth = search.SPECULATE_DEPTH
    drawn, calls = [], []
    start_points = search._start_points

    def counted_starts(*args):
        for x0 in start_points(*args):
            drawn.append(x0)
            yield x0

    counted_fun, counted = _counted(_bumpy)
    batched = _batched(counted_fun)

    def fun(points):
        calls.append((len(points), len(drawn)))
        return batched(points)

    monkeypatch.setattr(search, "_start_points", counted_starts)
    monkeypatch.setattr(search, "LOCKSTEP_FLOATS", 4 * 3)
    cfg = SearchConfig(restarts=12, max_iters=40, seed=0)
    res = maximize(fun, [3], cfg)
    drawn_before = 0
    for size, drawn_by in calls:
        new = drawn_by - drawn_before
        drawn_before = drawn_by
        # the live restarts hold the slots the new starts did not take
        assert size <= depth * (4 - new) + new
    assert max(size for size, _ in calls) > 4
    monkeypatch.setattr(search, "_start_points", start_points)
    seq_fun, seq_counted = _counted(_bumpy)
    ref = maximize_sequential(_batched(seq_fun), [3], cfg)
    assert res.restart_values == ref.restart_values
    graded, seq_graded = (
        sorted(c["point"] for c in cs for _ in range(c["grads"])) for cs in (counted, seq_counted)
    )
    assert graded == seq_graded


def test_speculative_run_stops_at_a_trial_that_stalls_in_place(monkeypatch):
    # a flat objective whose gradient moves the point 1.5e-15 at step 1/2
    # and 0.75e-15 at 1/4: the trial at 1/2 is scored and rejected, the one
    # at 1/4 stalls in place, so the restart converges in that round, and
    # the one at 1/8 is not scored
    x0 = np.array([0.25, 0.25, 0.5])
    assert search.STEP_INIT == 0.5 and search.SPECULATE_DEPTH >= 3
    rounds = []
    project = search.project_blocks

    def counted_project(*args):
        rounds.append(None)
        return project(*args)

    def flat(x):
        return 0.0, lambda: np.array([3e-15, -3e-15, 0.0])

    monkeypatch.setattr(search, "project_blocks", counted_project)
    fun, batches = _recorded(_batched(flat))
    got = ascend(fun, x0, [3], SearchConfig(max_iters=10))
    assert [len(b) for b in batches] == [1, 1] and len(rounds) == 2
    assert np.abs(batches[1][0] - x0).max() >= 1e-15
    rv, rx, riters, rconverged = run_restart(
        pointwise(_batched(flat)), x0, [3], SearchConfig(max_iters=10)
    )
    assert (got[0], got[1].tobytes(), got[2:]) == (rv, rx.tobytes(), (riters, rconverged))
    assert got[3]


def test_speculative_stall_after_a_rise_does_not_end_the_restart():
    # the same tiny gradient on a steep objective: the trial at 1/2 rises
    # and is accepted, so the stall of the one at 1/4 does not converge the
    # restart, which runs on to max_iters as it does alone
    x0 = np.array([0.25, 0.25, 0.5])

    def steep(x):
        return 1e3 * float(x[0] - x[1]), lambda: np.array([3e-15, -3e-15, 0.0])

    cfg = SearchConfig(max_iters=3)
    fun, batches = _recorded(_batched(steep))
    v, x, iters, converged = ascend(fun, x0, [3], cfg)
    assert (iters, converged) == (3, False) and v > steep(x0)[0]
    assert len(batches) == 4 and len(batches[1]) == 1
    rv, rx, riters, rconverged = run_restart(pointwise(_batched(steep)), x0, [3], cfg)
    assert (v, x.tobytes(), iters, converged) == (rv, rx.tobytes(), riters, rconverged)


def test_speculative_trials_stop_at_min_step(monkeypatch):
    # a gradient that points downhill: every trial moves the point and none
    # rises, so the restart scores each step from STEP_INIT down to MIN_STEP
    # once, depth of them per call, and none below MIN_STEP: 1 + 39 calls at
    # depth 1 and 1 + 13 at the default depth 3
    c = np.array([1.0, 2.0, 3.0])

    def downhill(x):
        return float(x @ c), lambda: -c

    steps, s = 0, search.STEP_INIT
    while s >= search.MIN_STEP:
        steps, s = steps + 1, s * search.STEP_SHRINK
    x0 = np.array([0.2, 0.3, 0.5])
    cfg = SearchConfig(max_iters=10)
    ref = run_restart(pointwise(_batched(downhill)), x0, [3], cfg)
    for depth in (1, 2, 3, 4):
        monkeypatch.setattr(search, "SPECULATE_DEPTH", depth)
        fun, batches = _recorded(_batched(downhill))
        v, x, iters, converged = ascend(fun, x0, [3], cfg)
        assert len(batches) == 1 + math.ceil(steps / depth)
        assert sum(len(b) for b in batches) == 1 + steps
        assert (v, x.tobytes(), iters, converged) == (ref[0], ref[1].tobytes(), ref[2], ref[3])
        assert converged and v == float(x0 @ c)
    assert steps == 39


def test_speculative_round_ends_a_restart_at_max_iters():
    # a steep concave objective rejects the first trial of a round and
    # accepts a later one; the restart's last accepted step, at max_iters,
    # is not the first trial of its round, and it ends unconverged there
    t = np.array([0.3, 0.3, 0.4])

    def steep(x):
        d = x - t
        return -3.0 * float(d @ d), lambda: -6.0 * d

    x0 = np.array([0.35, 0.3, 0.35])
    cfg = SearchConfig(max_iters=2)
    fun, batches = _recorded(_batched(steep))
    v, x, iters, converged = ascend(fun, x0, [3], cfg)
    assert (iters, converged) == (2, False)
    last = [r for r, row in enumerate(batches[-1]) if row.tobytes() == x.tobytes()]
    assert len(batches[-1]) > 1 and last and last[0] > 0
    rv, rx, riters, rconverged = run_restart(pointwise(_batched(steep)), x0, [3], cfg)
    assert (v, x.tobytes(), iters, converged) == (rv, rx.tobytes(), riters, rconverged)


def test_lockstep_aborts_a_late_nonfinite_start(caplog):
    # start 3 scores nan; with two slots it enters after the first round
    # (whose two points are starts 0 and 1), is aborted at its projected
    # start and logged once, and every restart ends as it does on its own
    rng = np.random.default_rng(6)
    starts = [rng.dirichlet(np.ones(3)) for _ in range(6)]
    bad = project_blocks(starts[3], [3])
    # every point scored, and the place of the one that scores nan
    calls, entered = [], []

    def fun(x):
        calls.append(None)
        if x.tobytes() == bad.tobytes():
            entered.append(len(calls))
            return math.nan, lambda: np.zeros(3)
        return _bumpy(x)

    cfg = SearchConfig(max_iters=40)
    with caplog.at_level(logging.WARNING, logger="bcbounds.search"):
        got = search._lockstep(_batched(fun), starts, [3], cfg, 2)
    records = [rec for rec in caplog.records if rec.name == "bcbounds.search"]
    assert [rec.message for rec in records] == ["restart aborted: non-finite objective"]
    assert len(entered) == 1 and entered[0] > 2
    assert got[3][1].tobytes() == bad.tobytes() and got[3][2:] == (0, False)
    f = pointwise(_batched(fun))
    for (v, x, iters, converged), x0 in zip(got, starts):
        rv, rx, riters, rconverged = run_restart(f, x0, [3], cfg)
        assert (v, x.tobytes(), iters, converged) == (rv, rx.tobytes(), riters, rconverged)


def test_lockstep_makes_no_call_with_nothing_to_score():
    # every restart of a linear objective ends at the best vertex, where its
    # trial stalls in place; a round with no trial or start to score makes
    # no objective call
    c = np.array([1.0, 2.0, 3.0])
    sizes = []

    def fun(x):
        sizes.append(len(x))
        return x @ c, lambda rows: np.tile(c, (len(rows), 1))

    res = maximize(fun, [3], SearchConfig(restarts=5, max_iters=50))
    assert res.restart_values == [3.0] * 5 and res.converged
    assert sizes and min(sizes) > 0
