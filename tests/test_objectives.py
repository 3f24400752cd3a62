import gc
import weakref

import numpy as np
import pytest

from bcbounds.channel import Channel, ProductChannel
from bcbounds.kernel import entropy_of_array
from bcbounds.counterexample import REDUCED_PRODUCT_PROFILE, product_channel
from bcbounds.marton import Cardinalities, lambda_weights, marton_table
from bcbounds.objectives import (
    GRAD_CLIP,
    LOG2E,
    FixedInputObjective,
    InfoFunctional,
    JointObjective,
    ent_terms,
    merge_terms,
    mi_terms,
)
from bcbounds.regions import _region_rows, _row_tables, _uv_table, default_region_profiles
from info_oracle import mutual_information
from oracles import grad_per_tensor, pointwise, row_values_per_tensor, weigh_per_tensor


def _random_channel(rng, nx, ny, nz):
    return rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz)


def _at(fn, weight_rows):
    # fn's objective under weight_rows as a function of one tensor
    rows = np.atleast_2d(np.asarray(weight_rows, dtype=float))
    return pointwise(lambda batch: fn.value_and_grad(batch, rows))


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
    assert mi_terms("u", "y", coeff=-1.0) == [(-1.0, "u"), (-1.0, "y"), (1.0, "uy")]
    with pytest.raises(ValueError):
        mi_terms("u", "u")


def test_merge_terms_cancels():
    merged = merge_terms([(1.0, "uy"), (-1.0, "yu"), (2.0, "u")], "uy")
    assert merged == [(2.0, "u")]


def test_functional_matches_kernel_mi():
    rng = np.random.default_rng(0)
    q = _random_channel(rng, 3, 2, 4)
    fn = InfoFunctional("uvx", (2, 3, 3), [mi_terms("u", "y") + mi_terms("v", "z", given="u")], q)
    t = rng.dirichlet(np.ones(2 * 3 * 3)).reshape(2, 3, 3)  # p(u, v, x)
    # zero-mass slices: a point mass on u and an input symbol of probability 0
    t_zero = np.zeros((2, 3, 3))
    t_zero[1, :, :2] = rng.dirichlet(np.ones(6)).reshape(3, 2)
    for t in (t, t_zero):
        joint = np.einsum("uvx,xyz->uvxyz", t, q)
        expect = mutual_information(joint, (0,), (3,)) + mutual_information(
            joint, (1,), (4,), given=(0,)
        )
        assert fn.value(t)[0] == pytest.approx(expect, abs=1e-12)
        with np.errstate(all="raise"):
            v, grad = _at(fn, [1.0])(t)
            g = grad()
        assert v == pytest.approx(expect, abs=1e-12)
        assert np.isfinite(g).all()


def test_functional_without_channel():
    rng = np.random.default_rng(1)
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    fn = InfoFunctional("ab", t.shape, [mi_terms("a", "b")])
    expect = mutual_information(t, (0,), (1,))
    assert fn.value(t)[0] == pytest.approx(expect, abs=1e-12)
    # an evaluation takes a batch: one tensor without its leading axis is refused
    with pytest.raises(ValueError, match="batch"):
        fn.evaluate(t)


def test_empty_first_row_is_zero_with_zero_gradient():
    rng = np.random.default_rng(10)
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    table = InfoFunctional("ab", (2, 3), [[], mi_terms("a", "b")])
    ev = table.evaluate(t[None])
    assert ev.values[0, 0] == 0.0
    assert ev.values[0, 1] == pytest.approx(mutual_information(t, (0,), (1,)), abs=1e-12)
    assert np.array_equal(ev.grad([0], np.array([[1.0, 0.0]])), np.zeros((1, 2, 3)))


def _check_gradient(fn, t, rel_tol=1e-4):
    g = _at(fn, [1.0])(t)[1]()
    g_fd = _fd_grad(lambda x: fn.value(x)[0], t)
    scale = max(1.0, np.abs(g_fd).max())
    assert np.abs(g - g_fd).max() / scale < rel_tol


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = _random_channel(rng, 3, 3, 2)
        t = rng.dirichlet(np.ones(2 * 2 * 2 * 3)).reshape(2, 2, 2, 3)
        terms = (
            mi_terms("w", "y", coeff=0.3)
            + mi_terms("w", "z", coeff=0.7)
            + mi_terms("u", "y", given="w")
            + mi_terms("v", "z", given="w")
            + mi_terms("u", "v", given="w", coeff=-1.0)
        )
        fn = InfoFunctional("uvwx", t.shape, [terms], q)
        _check_gradient(fn, t)


def test_gradient_with_entropy_terms():
    rng = np.random.default_rng(3)
    q = _random_channel(rng, 4, 2, 3)
    t = rng.dirichlet(np.ones(2 * 4)).reshape(2, 4)
    fn = InfoFunctional("vx", t.shape, [ent_terms("y", given="v") + mi_terms("v", "z")], q)
    _check_gradient(fn, t)


def test_joint_objective_round_trip():
    rng = np.random.default_rng(4)
    q = _random_channel(rng, 2, 2, 2)
    fn = InfoFunctional("ux", (3, 2), [mi_terms("u", "y")], q)
    obj = JointObjective(fn, [1.0])
    assert obj.block_sizes == [6]
    t = rng.dirichlet(np.ones(6)).reshape(3, 2)
    flat = obj.to_flat(t)
    assert np.allclose(obj.to_tensor(flat), t)
    v, grad = pointwise(obj)(flat)
    assert v == pytest.approx(fn.value(t)[0], abs=1e-12)
    assert grad().shape == (6,)


def test_fixed_input_objective_blocks_and_masses():
    rng = np.random.default_rng(5)
    q = _random_channel(rng, 3, 2, 2)
    fn = InfoFunctional("uvx", (2, 2, 3), [mi_terms("u", "y") + mi_terms("v", "z")], q)
    px = np.array([0.5, 0.5, 0.0])
    obj = FixedInputObjective(fn, px, [1.0])
    # one conditional simplex per input letter
    assert obj.block_sizes == [4, 4, 4]
    t = rng.dirichlet(np.ones(4), size=3).T.reshape(2, 2, 3) * px
    flat = obj.to_flat(t)
    back = obj.to_tensor(flat)
    # input marginal is preserved exactly
    assert np.allclose(back.sum(axis=(0, 1)), px, atol=1e-12)
    v, grad = pointwise(obj)(flat)
    assert v == pytest.approx(fn.value(back)[0], abs=1e-12)
    assert grad().shape == (12,)


def test_fixed_input_zero_mass_conditional_is_uniform():
    rng = np.random.default_rng(6)
    q = _random_channel(rng, 2, 2, 2)
    fn = InfoFunctional("ux", (2, 2), [mi_terms("u", "y")], q)
    obj = FixedInputObjective(fn, np.array([1.0, 0.0]), [1.0])
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
        [mi_terms("u", "y") + mi_terms("v", "z") + mi_terms("u", "v", coeff=-1.0)],
        q,
    )
    px = rng.dirichlet(np.ones(3))
    obj = FixedInputObjective(fn, px, [1.0])
    flat = np.concatenate([rng.dirichlet(np.ones(6)) for _ in range(3)])

    def value_only(f):
        return pointwise(obj)(f)[0]

    g = pointwise(obj)(flat)[1]()
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
    singles = [InfoFunctional("ab", (2, 3), [r]) for r in rows]
    obj = JointObjective(table, np.eye(2))
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    vals = table.value(t)
    assert np.allclose(vals, [f.value(t)[0] for f in singles], atol=1e-12)
    # the value is the minimum row and the gradient follows that row only
    k = int(np.argmin(vals))
    v, grad = pointwise(obj)(t.ravel())
    assert v == pytest.approx(vals[k], abs=1e-12)
    assert np.allclose(grad(), _at(singles[k], [1.0])(t)[1]().ravel(), atol=1e-12)
    # weight rows that skip a row leave it out of the minimum
    v1, grad1 = pointwise(JointObjective(table, np.eye(2)[:1]))(t.ravel())
    assert v1 == pytest.approx(vals[0], abs=1e-12)
    assert np.allclose(grad1(), _at(singles[0], [1.0])(t)[1]().ravel(), atol=1e-12)
    # on a tie the first minimal row wins: H(A) = H(B) = 1 bit here
    tie = np.array([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]])
    assert table.value(tie)[0] == table.value(tie)[1]
    g_tie = pointwise(obj)(tie.ravel())[1]()
    assert np.allclose(g_tie, _at(singles[0], [1.0])(tie)[1]().ravel(), atol=1e-12)
    assert not np.allclose(g_tie, _at(singles[1], [1.0])(tie)[1]().ravel())


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
        values, grad = table.value_and_grad(t[None], np.eye(4)[:3])
        v_ref, w_ref = _first_min_row(table.value(t), 3)
        assert values[0] == v_ref
        assert grad([0]).tobytes() == table.evaluate(t[None]).grad([0], w_ref[None]).tobytes()
        obj = FixedInputObjective(table, px, np.eye(4)[:3])
        flat = obj.to_flat(t)
        _, w_ref = _first_min_row(table.value(obj.to_tensor(flat)), 3)
        got = pointwise(obj)(flat)
        ref = pointwise(FixedInputObjective(table, px, w_ref))(flat)
        assert got[0] == ref[0] and np.array_equal(got[1](), ref[1]())
    # one weight row is the plain weighted sum, gradient included
    weights = np.array([0.3, 0.7, 1.0, -0.5])
    v, grad = _at(table, weights)(t)
    singles = [InfoFunctional("uvx", (2, 2, 3), [r], q) for r in rows]
    assert v == pytest.approx(sum(a * f.value(t)[0] for a, f in zip(weights, singles)), abs=1e-12)
    g_ref = sum(a * _at(f, [1.0])(t)[1]() for a, f in zip(weights, singles))
    assert np.allclose(grad(), g_ref, atol=1e-12)


def _unfused(fn, t, weights):
    # the entropy vector, row values and gradient the unfused way: each
    # marginal its own array, entropy_of_array on each, a fresh
    # log2(max(m, GRAD_CLIP)), and the linear term on the input law
    kept = [np.add.reduce(t, axis=k.drop).reshape(k.work) for k in fn._keeps]
    ms = []
    for mg in fn._marginals:
        m = kept[mg.keep]
        ms.append(m if mg.q is None else m @ mg.q)
    h = np.array([entropy_of_array(m) for m in ms])
    values = fn.coeffs @ h
    per_marginal = weights @ fn.coeffs
    acc = [None] * len(fn._keeps)
    for s in np.flatnonzero(per_marginal):
        mg = fn._marginals[s]
        d = (np.log2(np.maximum(ms[s], GRAD_CLIP)) + LOG2E) * -per_marginal[s]
        if mg.q is not None:
            d = d @ mg.q.T
        acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
    if fn.linear is not None:
        k = fn._px_keep
        values += fn.linear @ kept[k][0]
        d = (weights @ fn.linear)[None]
        acc[k] = d if acc[k] is None else acc[k] + d
    grad = np.zeros(fn.shape)
    for keep, g in zip(fn._keeps, acc):
        if g is not None:
            grad += g.reshape(keep.expand)
    return h, values, grad, np.concatenate([m.ravel() for m in ms])


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


def _c_order(t):
    return t


def _input_major(t):
    # the layout FixedInputObjective.to_tensor builds: the input axis slowest
    return np.ascontiguousarray(np.moveaxis(t, -1, 0)).transpose(list(range(1, t.ndim)) + [0])


def test_fused_entropy_vector_matches_kernel_bit_for_bit():
    rng = np.random.default_rng(12)
    c = Channel(_random_channel(rng, 3, 2, 3))
    pc = ProductChannel(c, Channel(_random_channel(rng, 2, 3, 2)))
    prof1, prof2 = default_region_profiles(pc, "product_outer")
    f1, f2 = _row_tables(
        pc,
        _region_rows("product_outer"),
        prof1.shape(pc.c1.nx),
        prof2.shape(pc.c2.nx),
    )
    tables = [marton_table(c, Cardinalities(3, 2, 2)), _uv_table(c, 3, 3), f1, f2]
    # 16 inputs: long enough sums that a matmul's order follows the layout
    # of its left operand
    wide = Channel(_random_channel(rng, 16, 3, 4))
    tables += [marton_table(wide, Cardinalities(4, 4, 2)), _uv_table(wide, 5, 5)]
    # every layout is read as its C copy: the unfused reference runs on that
    for fn in tables:
        for layout in (_c_order, _input_major, np.asfortranarray):
            t = layout(_awkward_tensor(rng, fn.shape))
            c_copy = np.ascontiguousarray(t)
            weights = rng.normal(size=fn.coeffs.shape[0])
            weights[0] = 0.0
            h_ref, v_ref, g_ref, marginals = _unfused(fn, c_copy, weights)
            assert (marginals == 0.0).any()
            assert ((marginals > 0.0) & (marginals < GRAD_CLIP)).any()
            ev = fn.evaluate(t[None])
            assert ev.entropies[0].tobytes() == h_ref.tobytes()
            assert ev.values[0].tobytes() == v_ref.tobytes()
            with np.errstate(all="raise"):
                g = ev.grad([0], weights[None])[0]
            assert np.isfinite(g).all()
            assert g.tobytes() == g_ref.tobytes()
            if layout is not _c_order:
                ref = fn.evaluate(c_copy[None])
                assert ev.entropies.tobytes() == ref.entropies.tobytes()
                assert ev.values.tobytes() == ref.values.tobytes()
                assert g.tobytes() == ref.grad([0], weights[None])[0].tobytes()


def test_a_tensor_has_one_value_whatever_its_memory_order():
    # on the worked product's Marton and UV tables a tensor in input-major
    # or Fortran order gets the entropies, row values and gradients of its C
    # copy, and a batch whose tensors are spaced out along the batch axis
    # (a region search's component split) those of its contiguous copy
    rng = np.random.default_rng(24)
    flat = product_channel().flat
    for fn in (marton_table(flat, REDUCED_PRODUCT_PROFILE), _uv_table(flat, 17, 17)):
        assert fn.shape in ((8, 8, 4, 16), (17, 17, 16))
        weights = rng.normal(size=(1, fn.coeffs.shape[0]))
        for _ in range(4):
            t = rng.dirichlet(np.ones(int(np.prod(fn.shape)))).reshape(fn.shape)
            ref = fn.evaluate(t[None])
            g_ref = ref.grad([0], weights)
            for layout in (_input_major, np.asfortranarray):
                ev = fn.evaluate(layout(t)[None])
                assert ev.entropies.tobytes() == ref.entropies.tobytes()
                assert ev.values.tobytes() == ref.values.tobytes()
                assert ev.grad([0], weights).tobytes() == g_ref.tobytes()
        size = int(np.prod(fn.shape))
        points = rng.dirichlet(np.ones(size), size=(3, 2)).reshape(3, 2 * size)
        spaced = points[:, :size].reshape((3,) + fn.shape)
        assert not spaced.flags.c_contiguous and spaced[0].flags.c_contiguous
        ev, ref = fn.evaluate(spaced), fn.evaluate(np.ascontiguousarray(spaced))
        assert ev.entropies.tobytes() == ref.entropies.tobytes()
        assert ev.values.tobytes() == ref.values.tobytes()
        w3 = np.repeat(weights, 3, axis=0)
        assert ev.grad(range(3), w3).tobytes() == ref.grad(range(3), w3).tobytes()


def test_evaluation_survives_later_evaluations_bit_for_bit():
    # a table reuses its work buffers, so an evaluation must keep what its
    # lazy gradient reads: evaluate t1, then t2, then take t1's gradient
    rng = np.random.default_rng(13)
    c = Channel(_random_channel(rng, 3, 2, 3))
    for fn in (marton_table(c, Cardinalities(3, 2, 2)), _uv_table(c, 3, 3)):
        px = rng.dirichlet(np.ones(3))
        t1, t2 = (_input_major(_awkward_tensor(rng, fn.shape)) for _ in range(2))
        weights = rng.normal(size=(1, fn.coeffs.shape[0]))
        ev1 = fn.evaluate(t1[None])
        v1, grad1 = fn.value_and_grad(t1[None], weights)
        ev2 = fn.evaluate(t2[None])
        fn.evaluate(np.ascontiguousarray(t2)[None] * 0.5)
        g1 = ev1.grad([0], weights)
        for ev, t in ((ev1, t1), (ev2, t2)):
            fresh = fn.evaluate(t[None])
            assert ev.entropies.tobytes() == fresh.entropies.tobytes()
            assert ev.values.tobytes() == fresh.values.tobytes()
        fresh = fn.evaluate(t1[None])
        assert g1.tobytes() == fresh.grad([0], weights).tobytes()
        assert grad1([0]).tobytes() == fresh.grad([0], weights).tobytes()
        assert v1.tobytes() == fn.value_and_grad(t1[None], weights)[0].tobytes()
        # the flat-vector adapters read the same buffers
        obj = FixedInputObjective(fn, px, weights)
        x1, x2 = obj.to_flat(t1), obj.to_flat(t2)
        f = pointwise(obj)
        value, grad = f(x1)
        f(x2)
        assert (value, grad().tobytes()) == (f(x1)[0], f(x1)[1]().tobytes())


def test_batched_evaluation_matches_each_tensor_bit_for_bit():
    # a batch is evaluated in one pass, and each tensor of it gets the
    # entropies, values and gradients it gets on its own, in both layouts
    # the objectives build; the rows' weights differ, so a marginal can
    # have zero weight in one row and not in another
    rng = np.random.default_rng(14)
    c = Channel(_random_channel(rng, 3, 2, 3))
    wide = Channel(_random_channel(rng, 16, 3, 4))
    tables = [marton_table(c, Cardinalities(3, 2, 2)), _uv_table(c, 3, 3)]
    tables += [marton_table(wide, Cardinalities(4, 4, 2)), _uv_table(wide, 5, 5)]
    for fn in tables:
        singles = [_awkward_tensor(rng, fn.shape) for _ in range(3)]
        weights = rng.normal(size=(3, fn.coeffs.shape[0]))
        weights[0, 0] = weights[2, 1] = 0.0
        batch_c = np.stack(singles)
        # input-major per tensor, the batch axis slowest
        batch_x = np.ascontiguousarray(np.moveaxis(batch_c, -1, 1)).transpose(
            [0] + list(range(2, batch_c.ndim)) + [1]
        )
        for layout, batch in ((_c_order, batch_c), (_input_major, batch_x)):
            ev = fn.evaluate(batch)
            assert ev.values.shape == (3, fn.coeffs.shape[0])
            grads = ev.grad(range(3), weights)
            rows = ev.grad([0, 2], weights[[0, 2]])
            for r, t in enumerate(singles):
                one = fn.evaluate(layout(t)[None])
                assert ev.entropies[r].tobytes() == one.entropies[0].tobytes()
                assert ev.values[r].tobytes() == one.values[0].tobytes()
                assert grads[r].tobytes() == one.grad([0], weights[[r]])[0].tobytes()
            assert rows.tobytes() == grads[[0, 2]].tobytes()


def test_value_and_grad_weighs_each_tensor_of_a_batch_by_its_own_minimal_row():
    # one batch whose tensors have different first-minimal weight rows, one
    # of them an exact three-way tie (H(A) = H(B) = 1 bit, so 2 H(A) - H(B)
    # = 1 too): each tensor's value and gradient are the ones it gets alone
    table = InfoFunctional("ab", (2, 3), [ent_terms("a"), ent_terms("b")])
    weight_rows = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]])
    batch = np.array(
        [
            [[0.5, 0.0, 0.0], [0.4, 0.1, 0.0]],  # H(B) < H(A): row 1
            [[0.3, 0.3, 0.3], [0.0, 0.0, 0.1]],  # 2 H(A) - H(B) < 0: row 2
            [[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]],  # a tie: the first row, 0
        ]
    )
    values, grad = table.value_and_grad(batch, weight_rows)
    grads = grad([0, 1, 2])
    for r, first_min in enumerate((1, 2, 0)):
        one = batch[r][None]
        alone, alone_grad = table.value_and_grad(one, weight_rows)
        assert values[r].tobytes() == alone[0].tobytes()
        assert grad([r]).tobytes() == alone_grad([0]).tobytes()
        assert grads[r].tobytes() == alone_grad([0])[0].tobytes()
        ref = table.evaluate(one).grad([0], weight_rows[[first_min]])
        assert grad([r]).tobytes() == ref.tobytes()
    assert table.value(batch[2]).tolist() == [1.0, 1.0]


def _uv_ties():
    # UV tables at U = X and at U = V = X, V constant in the first: all three
    # sum-rate branches tie exactly (2 bits each on the worked product), and
    # in the second the last two tie below the first
    nu, nv, nx = 17, 17, 16
    u_is_x, uv_is_x = np.zeros((nu, nv, nx)), np.zeros((nu, nv, nx))
    for x in range(nx):
        u_is_x[x, 0, x] = uv_is_x[x, x, x] = 1.0 / nx
    return [u_is_x, uv_is_x]


def test_batched_layer_matches_the_per_tensor_oracle_bit_for_bit():
    # the batched row values, weighing and adjoint pass against the loops
    # over tensors in oracles.py, at the benchmark's three table shapes:
    # batches of 1, 2 and 5 in both layouts the objectives build, gradient
    # rows in order, out of order and repeated, and weights under which a
    # marginal has zero weight in one row and not in another
    rng = np.random.default_rng(16)
    small = Channel(_random_channel(rng, 2, 3, 2))
    flat = product_channel().flat
    # the search's one weight row, and a minimum over several
    lam_rows = [lambda_weights(0.3)[None], np.stack([lambda_weights(x) for x in (0.0, 0.6, 1.0)])]
    cases = [
        (marton_table(small, Cardinalities.for_sum_rate(small)), (2, 2, 2, 2), lam_rows, []),
        (marton_table(flat, REDUCED_PRODUCT_PROFILE), (8, 8, 4, 16), lam_rows, []),
        (_uv_table(flat, 17, 17), (17, 17, 16), [np.eye(5)[:3]], _uv_ties()),
    ]
    for fn, shape, weighings, ties in cases:
        assert fn.shape == shape
        n_rows = fn.coeffs.shape[0]
        for n in (1, 2, 5):
            singles = [_awkward_tensor(rng, shape) for _ in range(n)]
            singles[: len(ties)] = ties[:n]
            batch_c = np.stack(singles)
            batch_x = np.ascontiguousarray(np.moveaxis(batch_c, -1, 1)).transpose(
                [0] + list(range(2, batch_c.ndim)) + [1]
            )
            weights = rng.normal(size=(n, n_rows))
            weights[0] = np.eye(n_rows)[0]
            per_marginal = weights @ fn.coeffs
            if n > 1:
                assert ((per_marginal[0] == 0.0) & (per_marginal[1:] != 0.0).any(axis=0)).any()
            row_sets = [list(range(n)), list(range(n))[::-1]]
            row_sets += [[2, 0, 2], [4, 1]] if n == 5 else []
            for batch in (batch_c, batch_x):
                ev = fn.evaluate(batch)
                ref = row_values_per_tensor(fn, batch, ev.entropies)
                assert ev.values.tobytes() == ref.tobytes()
                for rows in row_sets:
                    ref = grad_per_tensor(ev, rows, weights[rows])
                    assert ev.grad(rows, weights[rows]).tobytes() == ref.tobytes()
                for weight_rows in weighings:
                    values, grad = fn.value_and_grad(batch, weight_rows)
                    ref_values, ref_weights = weigh_per_tensor(ev.values, weight_rows)
                    assert values.tobytes() == ref_values.tobytes()
                    for rows in row_sets:
                        ref = grad_per_tensor(ev, rows, ref_weights[rows])
                        assert grad(rows).tobytes() == ref.tobytes()
                if ties:
                    # the ties are exact, and each weighs by its first minimal row
                    first_min = weigh_per_tensor(ev.values, np.eye(5)[:3])[1].argmax(axis=1)
                    assert len(set(ev.values[0, :3].tolist())) == 1 and first_min[0] == 0
                    if n > 1:
                        assert ev.values[1, 1] == ev.values[1, 2] < ev.values[1, 0]
                        assert first_min[1] == 1


def test_table_keeps_one_fill_plan_as_a_group_shrinks():
    # a search's group shrinks through every batch size as its restarts
    # finish: the table keeps one fill plan, with its buffers, not one per
    # size, and a size evaluated again is compiled again with the same bits
    rng = np.random.default_rng(23)
    q = _random_channel(rng, 3, 2, 2)
    fn = _uv_table(Channel(q), 4, 4)
    batch = rng.dirichlet(np.ones(48), size=16).reshape(16, 4, 4, 3)
    first = fn.evaluate(batch).values
    plans = []
    for n in range(16, 0, -1):
        assert fn.evaluate(batch[:n]).values.tobytes() == first[:n].tobytes()
        plans.append(weakref.ref(fn._plan(batch[:n].shape)))
        gc.collect()
        assert sum(ref() is not None for ref in plans) <= 1
    assert fn.evaluate(batch).values.tobytes() == first.tobytes()
