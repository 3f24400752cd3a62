import sys
from pathlib import Path

import numpy as np
import pytest

from bcbounds.channel import Channel, capacity, make_product
from bcbounds.marton import (
    AuxiliaryJoint,
    Cardinalities,
    LambdaCurve,
    LambdaPointResult,
    build_lambda_curve,
    check_factorization,
    check_min_max_equality,
    curve_subgradient,
    fit_joint,
    lambda_sr_global,
    lambda_sr_value,
    marton_sum_rate,
    marton_table,
    maximize_lambda_sr_at_input,
    outer_auxiliary,
    structured_seed_joints,
)
from bcbounds.cli import _curve_csv
from bcbounds.search import SearchConfig
from info_oracle import mutual_information
from oracles import endpoint_sr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CFG = SearchConfig(restarts=8, max_iters=150, seed=0)


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def bsc_pair(py, pz):
    my = np.array([[1 - py, py], [py, 1 - py]])
    mz = np.array([[1 - pz, pz], [pz, 1 - pz]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def random_channel(rng, nx, ny, nz):
    return Channel(rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz))


def random_aux(rng, prof, nx):
    t = rng.dirichlet(np.ones(prof.nu * prof.nv * prof.nw * nx))
    return AuxiliaryJoint(t.reshape(prof.nu, prof.nv, prof.nw, nx))


def lifted(c, aux):
    return np.einsum("uvwx,xyz->uvwxyz", aux.joint, c.q)


def kernel_lambda_sr(c, lam, aux):
    # independent oracle straight from entropy calls on the lifted joint
    p = lifted(c, aux)
    u, v, w, x, y, z = 0, 1, 2, 3, 4, 5
    return (
        lam * mutual_information(p, (w,), (y,))
        + (1 - lam) * mutual_information(p, (w,), (z,))
        + mutual_information(p, (u,), (y,), given=(w,))
        + mutual_information(p, (v,), (z,), given=(w,))
        - mutual_information(p, (u,), (v,), given=(w,))
    )


def test_cardinality_profiles():
    c = random_channel(np.random.default_rng(0), 4, 2, 6)
    sr = Cardinalities.for_sum_rate(c)
    assert (sr.nu, sr.nv, sr.nw) == (2, 4, 4)
    rg = Cardinalities.for_region(c)
    assert (rg.nu, rg.nv, rg.nw) == (4, 4, 8)


def test_auxiliary_joint_validation():
    with pytest.raises(ValueError):
        AuxiliaryJoint(np.full((2, 2, 2, 2), 0.2))  # sums to 3.2
    a = AuxiliaryJoint(np.full((2, 2, 2, 2), 1 / 16))
    assert np.allclose(a.px(), 0.5)


def test_lambda_sr_value_matches_kernel_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        c = random_channel(rng, 3, 2, 2)
        prof = Cardinalities.for_sum_rate(c)
        aux = random_aux(rng, prof, c.nx)
        lam = rng.uniform()
        assert lambda_sr_value(c, lam, aux) == pytest.approx(
            kernel_lambda_sr(c, lam, aux), abs=1e-11
        )


def test_curve_subgradient_matches_kernel():
    rng = np.random.default_rng(2)
    c = random_channel(rng, 3, 3, 2)
    aux = random_aux(rng, Cardinalities.for_sum_rate(c), c.nx)
    p = lifted(c, aux)
    expect = mutual_information(p, (2,), (4,)) - mutual_information(p, (2,), (5,))
    assert curve_subgradient(c, aux) == pytest.approx(expect, abs=1e-11)
    # and it really is the slope: value is affine in lambda for fixed aux
    v0 = lambda_sr_value(c, 0.2, aux)
    v1 = lambda_sr_value(c, 0.7, aux)
    assert (v1 - v0) / 0.5 == pytest.approx(curve_subgradient(c, aux), abs=1e-10)


def test_structured_seeds_are_valid_joints():
    rng = np.random.default_rng(3)
    c = random_channel(rng, 4, 2, 3)
    prof = Cardinalities.for_sum_rate(c)
    seeds = structured_seed_joints(c, prof, [np.full(4, 0.25)])
    assert seeds
    for t in seeds:
        assert t.shape == (prof.nu, prof.nv, prof.nw, c.nx)
        assert t.min() >= 0.0
        assert t.sum() == pytest.approx(1.0, abs=1e-12)


def test_deterministic_channel_constant_curve():
    # both outputs functions of x; weighted sum rate = max H(Y,Z) at any lambda
    fy = np.array([0, 0, 1, 1])
    fz = np.array([0, 0, 1, 1])
    q = np.zeros((4, 2, 2))
    q[np.arange(4), fy, fz] = 1.0
    c = Channel(q)
    for lam in (0.0, 0.5, 1.0):
        res = lambda_sr_global(c, lam, CFG)
        assert res.value == pytest.approx(1.0, abs=1e-6)


def test_less_noisy_pair_constant_curve_at_capacity():
    c = bsc_pair(0.1, 0.25)
    target = 1 - h2(0.1)
    for lam in (0.0, 0.5, 1.0):
        res = lambda_sr_global(c, lam, CFG)
        assert res.value == pytest.approx(target, abs=2e-3)


def test_maximize_at_input_fixed_marginal():
    rng = np.random.default_rng(4)
    c = random_channel(rng, 3, 2, 2)
    px = np.array([0.5, 0.25, 0.25])
    res = maximize_lambda_sr_at_input(c, 0.4, px, CFG)
    assert np.allclose(res.aux.px(), px, atol=1e-9)
    assert res.value <= lambda_sr_global(c, 0.4, CFG).value + 1e-6


def test_endpoint_reduction_matches_global():
    rng = np.random.default_rng(5)
    for _ in range(3):
        c = random_channel(rng, 3, 2, 2)
        for endpoint in (0, 1):
            ep = endpoint_sr(c, endpoint, CFG)
            gl = lambda_sr_global(c, float(endpoint), CFG)
            assert ep.value == pytest.approx(gl.value, abs=2e-3)
            # the reported auxiliary reproduces the reported value exactly
            assert lambda_sr_value(c, float(endpoint), ep.aux) == pytest.approx(
                ep.value, abs=1e-9
            )
    with pytest.raises(ValueError):
        endpoint_sr(random_channel(rng, 2, 2, 2), 2)


def test_curve_checks_clean_on_small_channel():
    rng = np.random.default_rng(6)
    c = random_channel(rng, 2, 2, 2)
    curve = build_lambda_curve(c, [0.0, 0.25, 0.5, 0.75, 1.0], CFG)
    curve.run_checks(1e-4)
    assert curve.hyperplane_violations == []
    assert len(curve.samples) == 5
    # csv shape
    text = _curve_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,value_bits,subgradient,converged"
    assert len(lines) == 6


def _curve(values, slopes):
    aux = AuxiliaryJoint(np.full((1, 1, 1, 2), 0.5))
    lams = [0.0, 0.25, 0.5]
    return LambdaCurve(
        [LambdaPointResult(lam, v, aux, g, True) for lam, v, g in zip(lams, values, slopes)]
    )


def test_curve_hyperplane_check_flags_a_midpoint_convexity_break():
    # the samples of 1 - lam with the middle one 0.01 above the chord:
    # the middle sample's line at lam = 0 or at lam = 1/2 passes above
    # that sample, whatever its slope
    for slope in (-1.5, -1.0, -0.5):
        curve = _curve([1.0, 0.76, 0.5], [-1.0, slope, -1.0])
        curve.run_checks()
        assert any(s == 0.25 for s, _, _ in curve.hyperplane_violations), slope
    # a convex curve with exact slopes: |lam - 1/4| + 1 sampled at its kink
    # with the left slope, so every line stays below every sample
    curve = _curve([1.25, 1.0, 1.25], [-1.0, -1.0, 1.0])
    curve.run_checks()
    assert curve.hyperplane_violations == []


def test_marton_sum_rate_is_curve_minimum():
    rng = np.random.default_rng(7)
    c = random_channel(rng, 2, 2, 2)
    res = marton_sum_rate(c, CFG)
    assert 0.0 <= res.lam_star <= 1.0
    assert res.converged
    # the value is the active line's auxiliary at lambda*
    assert lambda_sr_value(c, res.lam_star, res.aux) == pytest.approx(res.value, abs=1e-12)
    curve = build_lambda_curve(c, [k / 10 for k in range(11)], CFG)
    assert res.value <= min(s.value for s in curve.samples) + 2e-3
    # the sum rate never exceeds either single-receiver capacity sum
    cap_y, _ = capacity(c, "y")
    cap_z, _ = capacity(c, "z")
    assert res.value <= cap_y + cap_z + 1e-9


@pytest.mark.parametrize("index", range(6))
def test_marton_sum_rate_not_above_lambda_search_target(index):
    # the benchmark's lambda_search tasks, whose true sum rate is 0.55: a
    # sample that falls short at one lambda must not lift the reported value
    task = workloads.make_task("lambda_search", 0, index)
    res = marton_sum_rate(Channel(task.q), SearchConfig(8, 150, task.search_seed))
    assert res.value <= workloads.LAMBDA_TARGET + 1e-9
    assert abs(res.value - workloads.LAMBDA_TARGET) <= workloads.LAMBDA_TOL
    assert res.evaluations > 1


def test_outer_auxiliary_additivity():
    rng = np.random.default_rng(8)
    c1 = random_channel(rng, 2, 2, 3)
    c2 = random_channel(rng, 3, 2, 2)
    a1 = random_aux(rng, Cardinalities.for_sum_rate(c1), c1.nx)
    a2 = random_aux(rng, Cardinalities.for_sum_rate(c2), c2.nx)
    flat = make_product(c1, c2).flat
    lam = 0.3
    v = lambda_sr_value(flat, lam, outer_auxiliary(a1, a2))
    assert v == pytest.approx(
        lambda_sr_value(c1, lam, a1) + lambda_sr_value(c2, lam, a2), abs=1e-10
    )


def test_embed_auxiliary_preserves_value():
    rng = np.random.default_rng(9)
    c = random_channel(rng, 3, 2, 2)
    aux = random_aux(rng, Cardinalities(2, 2, 2), c.nx)
    big = AuxiliaryJoint(fit_joint(aux.joint, Cardinalities(4, 3, 5).shape(c.nx)))
    assert big.shape == (4, 3, 5, 3)
    assert lambda_sr_value(c, 0.6, big) == pytest.approx(
        lambda_sr_value(c, 0.6, aux), abs=1e-12
    )
    with pytest.raises(ValueError):
        fit_joint(big.joint, Cardinalities(2, 2, 2).shape(c.nx))


def test_fit_joint_pads_sums_out_size_one_axes_and_never_shrinks():
    rng = np.random.default_rng(10)
    c = random_channel(rng, 3, 2, 2)
    t = random_aux(rng, Cardinalities(2, 3, 2), c.nx).joint
    # zero-padding keeps every row of the Marton table
    padded = fit_joint(t, (4, 3, 5, 3))
    assert np.array_equal(padded[:2, :, :2], t) and padded.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(
        marton_table(c, Cardinalities(4, 3, 5)).value(padded),
        marton_table(c, Cardinalities(2, 3, 2)).value(t),
        rtol=0,
        atol=1e-12,
    )
    # an axis the target has at size one is summed out (a collapsed region
    # profile); the other axes are zero-padded
    fitted = fit_joint(t, (1, 4, 2, 3))
    assert fitted.shape == (1, 4, 2, 3)
    assert np.array_equal(fitted[:, :3], t.sum(axis=0, keepdims=True))
    assert not fitted[:, 3:].any()
    # a UV law p(u, v, x) zero-pads the same way
    uv = t.sum(axis=2)
    assert np.array_equal(fit_joint(uv, (4, 4, 3))[:2, :3], uv)
    # a shrinking axis, and a wrong number of axes, raise
    for shape in ((1, 2, 2, 3), (2, 3, 2)):
        with pytest.raises(ValueError):
            fit_joint(t, shape)


def test_factorization_superadditive_and_tight_with_deterministic_link():
    rng = np.random.default_rng(10)
    # component 1 carries a deterministic Y link
    det = np.zeros((3, 3))
    det[np.arange(3), [0, 1, 1]] = 1.0
    noisy = rng.dirichlet(np.ones(2), size=3)
    c1 = Channel(np.einsum("xy,xz->xyz", det, noisy))
    c2 = random_channel(rng, 2, 2, 2)
    rep = check_factorization(c1, c2, 0.5, CFG)
    assert "component_1_y" in rep.deterministic_links
    assert rep.gap >= -1e-6  # superadditivity by construction
    assert rep.holds
    assert abs(rep.gap) <= 5e-3
    # the report's verdict is its check's one pass rule
    check = rep.check
    assert (check.name, check.computed, check.target) == ("factorization_gap", rep.gap, 0.0)
    assert rep.holds is rep.check.passed


def test_min_max_equality_small_channel():
    rng = np.random.default_rng(11)
    c = random_channel(rng, 2, 2, 2)
    rep = check_min_max_equality(c, CFG, px_resolution=8)
    assert rep.max_pairwise_gap <= 0.02
    assert 0.0 <= rep.lam_star <= 1.0
    vals = [rep.max_min, rep.max_min_max, rep.min_max]
    assert max(vals) - min(vals) == pytest.approx(rep.max_pairwise_gap, abs=1e-12)


def test_min_max_rejects_large_alphabets():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError):
        check_min_max_equality(random_channel(rng, 4, 2, 2), CFG, px_resolution=8)
