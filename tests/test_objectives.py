import numpy as np
import pytest

from bcbounds.channel import Channel, make_product
from bcbounds.kernel import entropy_of_array
from bcbounds.marton import Cardinalities, marton_table
from bcbounds.objectives import (
    GRAD_CLIP,
    LOG2E,
    FixedInputObjective,
    InfoFunctional,
    JointObjective,
    ent_terms,
    merge_terms,
    mi_terms,
    min_of,
    scale_terms,
)
from bcbounds.regions import _region_rows, _row_tables, _uv_table, default_region_profiles
from info_oracle import mutual_information


def _random_channel(rng, nx, ny, nz):
    return rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz)


def _fd_grad(fn_value, t, eps=1e-6):
    g = np.zeros_like(t)
    it = np.nditer(t, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        tp = t.copy()
        tp[idx] += eps
        tm = t.copy()
        tm[idx] -= eps
        g[idx] = (fn_value(tp) - fn_value(tm)) / (2 * eps)
        it.iternext()
    return g


def test_term_builders():
    assert mi_terms("u", "y") == [(1.0, "u"), (1.0, "y"), (-1.0, "uy")]
    assert mi_terms("u", "y", given="w") == [
        (1.0, "uw"),
        (1.0, "yw"),
        (-1.0, "uyw"),
        (-1.0, "w"),
    ]
    assert ent_terms("y", given="w") == [(1.0, "yw"), (-1.0, "w")]
    assert scale_terms([(1.0, "u")], 0.5) == [(0.5, "u")]
    with pytest.raises(ValueError):
        mi_terms("u", "u")


def test_merge_terms_cancels():
    merged = merge_terms([(1.0, "uy"), (-1.0, "yu"), (2.0, "u")], "uy")
    assert merged == [(2.0, "u")]


def test_functional_matches_kernel_mi():
    rng = np.random.default_rng(0)
    q = _random_channel(rng, 3, 2, 4)
    fn = InfoFunctional("uvx", (2, 3, 3), mi_terms("u", "y") + mi_terms("v", "z", given="u"), q)
    t = rng.dirichlet(np.ones(2 * 3 * 3)).reshape(2, 3, 3)  # p(u, v, x)
    # zero-mass slices: a point mass on u and an input symbol of probability 0
    t_zero = np.zeros((2, 3, 3))
    t_zero[1, :, :2] = rng.dirichlet(np.ones(6)).reshape(3, 2)
    for t in (t, t_zero):
        joint = np.einsum("uvx,xyz->uvxyz", t, q)
        expect = mutual_information(joint, (0,), (3,)) + mutual_information(
            joint, (1,), (4,), given=(0,)
        )
        assert fn.value(t) == pytest.approx(expect, abs=1e-12)
        with np.errstate(all="raise"):
            v, grad = fn.value_and_grad(t)
            g = grad()
        assert v == pytest.approx(expect, abs=1e-12)
        assert np.isfinite(g).all()


def test_functional_without_channel():
    rng = np.random.default_rng(1)
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    fn = InfoFunctional("ab", t.shape, mi_terms("a", "b"))
    expect = mutual_information(t, (0,), (1,))
    assert fn.value(t) == pytest.approx(expect, abs=1e-12)


def _check_gradient(fn, t, rel_tol=1e-4):
    g = fn.value_and_grad(t)[1]()
    g_fd = _fd_grad(fn.value, t)
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() / scale < rel_tol


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = _random_channel(rng, 3, 3, 2)
        t = rng.dirichlet(np.ones(2 * 2 * 2 * 3)).reshape(2, 2, 2, 3)
        terms = (
            scale_terms(mi_terms("w", "y"), 0.3)
            + scale_terms(mi_terms("w", "z"), 0.7)
            + mi_terms("u", "y", given="w")
            + mi_terms("v", "z", given="w")
            + scale_terms(mi_terms("u", "v", given="w"), -1.0)
        )
        fn = InfoFunctional("uvwx", t.shape, terms, q)
        _check_gradient(fn, t)


def test_gradient_with_entropy_terms():
    rng = np.random.default_rng(3)
    q = _random_channel(rng, 4, 2, 3)
    t = rng.dirichlet(np.ones(2 * 4)).reshape(2, 4)
    fn = InfoFunctional("vx", t.shape, ent_terms("y", given="v") + mi_terms("v", "z"), q)
    _check_gradient(fn, t)


def test_joint_objective_round_trip():
    rng = np.random.default_rng(4)
    q = _random_channel(rng, 2, 2, 2)
    fn = InfoFunctional("ux", (3, 2), mi_terms("u", "y"), q)
    obj = JointObjective(fn)
    assert obj.block_sizes == [6]
    t = rng.dirichlet(np.ones(6)).reshape(3, 2)
    flat = obj.to_flat(t)
    assert np.allclose(obj.to_tensor(flat), t)
    v, grad = obj(flat)
    assert v == pytest.approx(fn.value(t), abs=1e-12)
    assert grad().shape == (6,)


def test_fixed_input_objective_blocks_and_masses():
    rng = np.random.default_rng(5)
    q = _random_channel(rng, 3, 2, 2)
    fn = InfoFunctional("uvx", (2, 2, 3), mi_terms("u", "y") + mi_terms("v", "z"), q)
    px = np.array([0.5, 0.5, 0.0])
    obj = FixedInputObjective(fn, px)
    # one conditional simplex per input letter
    assert obj.block_sizes == [4, 4, 4]
    t = rng.dirichlet(np.ones(4), size=3).T.reshape(2, 2, 3) * px
    flat = obj.to_flat(t)
    back = obj.to_tensor(flat)
    # input marginal is preserved exactly
    assert np.allclose(back.sum(axis=(0, 1)), px, atol=1e-12)
    v, grad = obj(flat)
    assert v == pytest.approx(fn.value(back), abs=1e-12)
    assert grad().shape == (12,)


def test_fixed_input_zero_mass_conditional_is_uniform():
    rng = np.random.default_rng(6)
    q = _random_channel(rng, 2, 2, 2)
    fn = InfoFunctional("ux", (2, 2), mi_terms("u", "y"), q)
    obj = FixedInputObjective(fn, np.array([1.0, 0.0]))
    t = np.zeros((2, 2))
    t[0, 0] = 1.0
    flat = obj.to_flat(t)
    # the conditional attached to the zero-mass input defaults to uniform
    assert np.allclose(flat[2:], 0.5)


def test_fixed_input_gradient_matches_fd():
    rng = np.random.default_rng(7)
    q = _random_channel(rng, 3, 2, 2)
    fn = InfoFunctional(
        "uvx",
        (2, 3, 3),
        mi_terms("u", "y") + mi_terms("v", "z") + scale_terms(mi_terms("u", "v"), -1.0),
        q,
    )
    px = rng.dirichlet(np.ones(3))
    obj = FixedInputObjective(fn, px)
    flat = np.concatenate([rng.dirichlet(np.ones(6)) for _ in range(3)])

    def value_only(f):
        return obj(f)[0]

    g = obj(flat)[1]()
    g_fd = np.zeros_like(flat)
    eps = 1e-6
    for i in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[i] += eps
        fm[i] -= eps
        g_fd[i] = (value_only(fp) - value_only(fm)) / (2 * eps)
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() / scale < 1e-4


def test_min_of_objectives_value_and_active_gradient():
    rng = np.random.default_rng(8)
    rows = [ent_terms("a"), ent_terms("b")]
    table = InfoFunctional("ab", (2, 3), rows)
    singles = [InfoFunctional("ab", (2, 3), r) for r in rows]
    obj = JointObjective(table, min_of(np.eye(2)))
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    vals = table.value(t)
    assert np.allclose(vals, [f.value(t) for f in singles], atol=1e-12)
    # the value is the minimum row and the gradient follows that row only
    k = int(np.argmin(vals))
    v, grad = obj(t.ravel())
    assert v == pytest.approx(vals[k], abs=1e-12)
    assert np.allclose(grad(), singles[k].value_and_grad(t)[1]().ravel(), atol=1e-12)
    # weight rows that skip a row leave it out of the minimum
    v1, grad1 = JointObjective(table, min_of(np.eye(2)[:1]))(t.ravel())
    assert v1 == pytest.approx(vals[0], abs=1e-12)
    assert np.allclose(grad1(), singles[0].value_and_grad(t)[1]().ravel(), atol=1e-12)
    # on a tie the first minimal row wins: H(A) = H(B) = 1 bit here
    tie = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]])
    assert table.value(tie)[0] == table.value(tie)[1]
    g_tie = obj(tie.ravel())[1]()
    assert np.allclose(g_tie, singles[0].value_and_grad(tie)[1]().ravel(), atol=1e-12)
    assert not np.allclose(g_tie, singles[1].value_and_grad(tie)[1]().ravel())


def _first_min_row(values, count):
    # reference weighing: the first minimal row among the leading ``count``
    k = int(np.argmin(values[:count]))
    w = np.zeros(len(values))
    w[k] = 1.0
    return float(values[k]), w


def test_min_of_identity_rows_and_weighted_row():
    rng = np.random.default_rng(9)
    q = _random_channel(rng, 3, 2, 2)
    rows = [mi_terms("u", "y"), mi_terms("v", "z"), ent_terms("u", "v"), mi_terms("x", "y", "u")]
    table = InfoFunctional("uvx", (2, 2, 3), rows, q)
    px = rng.dirichlet(np.ones(3))
    for _ in range(5):
        t = rng.dirichlet(np.ones(12)).reshape(2, 2, 3)
        # identity weight rows reproduce the first-minimal-row weighing bit for bit
        v, w = min_of(np.eye(4)[:3])(table.value(t))
        v_ref, w_ref = _first_min_row(table.value(t), 3)
        assert v == v_ref and np.array_equal(w, w_ref)
        flat = FixedInputObjective(table, px).to_flat(t)
        got = FixedInputObjective(table, px, min_of(np.eye(4)[:3]))(flat)
        ref = FixedInputObjective(table, px, lambda vals: _first_min_row(vals, 3))(flat)
        assert got[0] == ref[0] and np.array_equal(got[1](), ref[1]())
    # one weight row is the plain weighted sum, gradient included
    weights = np.array([0.3, 0.7, 1.0, -0.5])
    v, grad = table.value_and_grad(t, min_of(weights))
    singles = [InfoFunctional("uvx", (2, 2, 3), r, q) for r in rows]
    assert v == pytest.approx(sum(a * f.value(t) for a, f in zip(weights, singles)), abs=1e-12)
    g_ref = sum(a * f.value_and_grad(t)[1]() for a, f in zip(weights, singles))
    assert np.allclose(grad(), g_ref, atol=1e-12)


def _unfused(fn, t, weights):
    # the entropy vector and gradient the unfused way: each marginal its own
    # array, entropy_of_array on each, and a fresh log2(max(m, GRAD_CLIP))
    kept = [np.add.reduce(t, axis=k.drop).reshape(k.work) for k in fn._keeps]
    ms = []
    for mg in fn._marginals:
        m = kept[mg.keep]
        if mg.q is not None:
            m = m[:, :, None] * mg.q if mg.joint_input else m @ mg.q
        ms.append(m)
    h = np.array([entropy_of_array(m) for m in ms])
    per_marginal = weights @ fn.coeffs
    acc = [None] * len(fn._keeps)
    for s in np.flatnonzero(per_marginal):
        mg = fn._marginals[s]
        d = (np.log2(np.maximum(ms[s], GRAD_CLIP)) + LOG2E) * -per_marginal[s]
        if mg.q is not None:
            d = (d * mg.q).sum(axis=-1) if mg.joint_input else d @ mg.q.T
        acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
    grad = np.zeros(fn.shape)
    for keep, g in zip(fn._keeps, acc):
        if g is not None:
            grad += g.reshape(keep.expand)
    return h, grad, np.concatenate([m.ravel() for m in ms])


def _awkward_tensor(rng, shape):
    # scattered exact zeros and entries below GRAD_CLIP, plus whole slices of
    # them, so that the marginals hold both kinds of entries too
    t = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    flat = t.reshape(-1)
    idx = rng.permutation(flat.size)
    quarter = flat.size // 4
    flat[idx[:quarter]] = 0.0
    flat[idx[quarter : 2 * quarter]] = rng.uniform(1e-320, 1e-302, quarter)
    t[:, 0] = rng.uniform(0.0, 1e-305, t[:, 0].shape)
    t[-1] = 0.0
    return t


def test_fused_entropy_vector_matches_kernel_bit_for_bit():
    rng = np.random.default_rng(12)
    c = Channel(_random_channel(rng, 3, 2, 3))
    pc = make_product(c, Channel(_random_channel(rng, 2, 3, 2)))
    prof1, prof2 = default_region_profiles(pc, "product_outer")
    f1, f2 = _row_tables(
        pc,
        _region_rows("product_outer", False),
        (prof1.nu, prof1.nv, prof1.nw, pc.c1.nx),
        (prof2.nu, prof2.nv, prof2.nw, pc.c2.nx),
    )
    tables = [marton_table(c, Cardinalities(3, 2, 2)), _uv_table(c, 3, 3), f1, f2]
    for fn in tables:
        for _ in range(3):
            t = _awkward_tensor(rng, fn.shape)
            weights = rng.normal(size=fn.coeffs.shape[0])
            weights[0] = 0.0
            h_ref, g_ref, marginals = _unfused(fn, t, weights)
            assert (marginals == 0.0).any()
            assert ((marginals > 0.0) & (marginals < GRAD_CLIP)).any()
            ev = fn.evaluate(t)
            assert ev.entropies.tobytes() == h_ref.tobytes()
            assert ev.values.tobytes() == (fn.coeffs @ h_ref).tobytes()
            with np.errstate(all="raise"):
                g = ev.grad(weights)
            assert np.isfinite(g).all()
            assert g.tobytes() == g_ref.tobytes()
