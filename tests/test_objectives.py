import copy
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from bcbounds.channel import Channel, ProductChannel
from bcbounds.kernel import GRAD_CLIP, LOG2_CLIP, entropy_of_array
from bcbounds.counterexample import component, product_channel
from bcbounds.marton import Cardinalities, lambda_weights, marton_table
from bcbounds.objectives import (
    DENSE_MAP_FLOATS,
    LOG2E,
    InfoFunctional,
    JointObjective,
    SharedInputObjective,
    Weighing,
    ent_terms,
    merge_terms,
    mi_terms,
)
from bcbounds.marton import AuxiliaryJoint
from bcbounds.regions import (
    _region_rows,
    _row_tables,
    _support_objective,
    _uv_side_tables,
    default_region_profiles,
)
from info_oracle import mutual_information
from oracles import (
    dense_adjoint_vector,
    dense_grad_per_tensor,
    dense_map_per_unit,
    dense_marginals_per_tensor,
    grad_per_tensor,
    keep_marginals_per_tensor,
    lattice_grad_per_tensor,
    pointwise,
    row_values_per_tensor,
    tensor_objective,
    uv_table,
    weigh_per_tensor,
    weighing_per_call,
)

# a Marton table shape on the 16-input product, large enough for every
# product of the components' branch constructions
PRODUCT_MARTON_CAPS = Cardinalities(8, 8, 4)


def _random_channel(rng, nx, ny, nz):
    return rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz)


def _at(fn, weight_rows):
    # fn's objective under weight_rows as a function of one tensor
    return pointwise(tensor_objective(fn, weight_rows))


def _grad(ev, rows, weights):
    # ev's gradients at the tensors ``rows``, each under its own line of
    # ``weights``
    return ev.grad(rows, Weighing(ev._fn, weights), range(len(rows)))


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
    # H of the empty subset is zero, so its term is dropped
    merged = merge_terms([(1.0, "uy"), (-1.0, "yu"), (2.0, "u"), (3.0, "")], "uy")
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
        fn.value_and_grad(t)


def test_empty_first_row_is_zero_with_zero_gradient():
    rng = np.random.default_rng(10)
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    table = InfoFunctional("ab", (2, 3), [[], mi_terms("a", "b")])
    ev = table.value_and_grad(t[None])
    assert ev.values[0, 0] == 0.0
    assert ev.values[0, 1] == pytest.approx(mutual_information(t, (0,), (1,)), abs=1e-12)
    assert np.array_equal(_grad(ev, [0], np.array([[1.0, 0.0]])), np.zeros((1, 2, 3)))


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
    obj = JointObjective([fn], [1.0], None)
    assert obj.block_sizes == [6]
    t = rng.dirichlet(np.ones(6)).reshape(3, 2)
    flat = obj.to_flat([t])
    assert np.allclose(obj.to_tensors(flat)[0], t)
    v, grad = pointwise(obj)(flat)
    assert v == pytest.approx(fn.value(t)[0], abs=1e-12)
    assert grad().shape == (6,)


def test_fixed_input_objective_blocks_and_masses():
    rng = np.random.default_rng(5)
    q = _random_channel(rng, 3, 2, 2)
    fn = InfoFunctional("uvx", (2, 2, 3), [mi_terms("u", "y") + mi_terms("v", "z")], q)
    px = np.array([0.5, 0.5, 0.0])
    obj = SharedInputObjective([fn], [1.0], px)
    # one conditional simplex per input letter
    assert obj.block_sizes == [4, 4, 4]
    t = rng.dirichlet(np.ones(4), size=3).T.reshape(2, 2, 3) * px
    flat = obj.to_flat([t])
    (back,) = obj.to_tensors(flat)
    # input marginal is preserved exactly
    assert np.allclose(back.sum(axis=(0, 1)), px, atol=1e-12)
    v, grad = pointwise(obj)(flat)
    assert v == pytest.approx(fn.value(back)[0], abs=1e-12)
    assert grad().shape == (12,)


def test_fixed_input_zero_mass_conditional_is_uniform():
    rng = np.random.default_rng(6)
    q = _random_channel(rng, 2, 2, 2)
    fn = InfoFunctional("ux", (2, 2), [mi_terms("u", "y")], q)
    obj = SharedInputObjective([fn], [1.0], np.array([1.0, 0.0]))
    t = np.zeros((2, 2))
    t[0, 0] = 1.0
    flat = obj.to_flat([t])
    # the conditional attached to the zero-mass input defaults to uniform
    assert np.allclose(flat[2:], 0.5)


def _chain_rule_parts(obj, tables, weight_row, flat):
    """The gradient of a SharedInputObjective along its flat layout, by the
    chain rule from the tables' own gradients at the joint tensors: the
    derivative in p(x), and per table the one in p(rest | x) as (inputs,
    rest)."""
    nx, px = obj.nx, flat[: obj.nx]
    joint = JointObjective(tables, weight_row, None)
    g = pointwise(joint)(joint.to_flat(obj.to_tensors(flat)))[1]()
    dpx, dconds, start = np.zeros(nx), [], nx
    for gi in joint.to_tensors(g):
        gi = gi.reshape(-1, nx).T
        dpx += (gi * flat[start : start + gi.size].reshape(nx, -1)).sum(axis=1)
        dconds.append(gi * px[:, None])
        start += gi.size
    return dpx, dconds


@pytest.mark.parametrize("branch", range(3))
def test_shared_input_direction_is_the_gradient_with_conditionals_divided_by_px(branch):
    # at random interior points, under one UV branch row, with p(x) searched
    # and with the same p(x) given: central finite differences along the
    # layout, p(x) (when searched), p(u|x), p(v|x), match the chain rule
    # within AC10's bound and within 1e-4 of the largest of 1 and the
    # largest derivative, and the returned direction is that gradient with
    # each conditional block divided by its p(x)
    rng = np.random.default_rng(20 + branch)
    c = Channel(_random_channel(rng, 3, 2, 3))
    tables = _uv_side_tables(c, 3, 4)
    weight_row = np.eye(3)[branch : branch + 1]
    obj = SharedInputObjective(tables, weight_row, None)
    assert obj.block_sizes == [3] + [3] * 3 + [4] * 3
    for _ in range(3):
        flat = np.concatenate([rng.dirichlet(np.ones(b)) for b in obj.block_sizes])
        dpx, dconds = _chain_rule_parts(obj, tables, weight_row, flat)
        px = flat[:3, None]
        given = SharedInputObjective(tables, weight_row, flat[:3])
        assert given.block_sizes == obj.block_sizes[1:]
        for o, point, lead in ((obj, flat, [dpx]), (given, flat[3:], [])):
            f = pointwise(o)
            chain = np.concatenate(lead + [d.ravel() for d in dconds])
            fd = _fd_grad(lambda x: f(x)[0], point)
            assert np.linalg.norm(chain - fd) / max(np.linalg.norm(fd), 1e-9) <= 1e-4
            assert np.abs(chain - fd).max() / max(1.0, np.abs(fd).max()) < 1e-4
            expect = np.concatenate(lead + [(d / px).ravel() for d in dconds])
            assert np.allclose(f(point)[1](), expect, rtol=1e-12, atol=1e-15)


def test_shared_input_conditional_of_a_zero_mass_input_moves_nothing():
    rng = np.random.default_rng(23)
    c = Channel(_random_channel(rng, 3, 2, 3))
    for branch in range(3):
        obj = SharedInputObjective(_uv_side_tables(c, 3, 4), np.eye(3)[branch : branch + 1], None)
        conds = [rng.dirichlet(np.ones(b)) for b in obj.block_sizes[1:]]
        flat = np.concatenate([[0.6, 0.4, 0.0]] + conds)
        moved = flat.copy()
        # input 2's conditionals: the third block of each table
        moved[3 + 6 : 3 + 9] = rng.dirichlet(np.ones(3))
        moved[12 + 8 : 12 + 12] = rng.dirichlet(np.ones(4))
        assert pointwise(obj)(moved)[0] == pointwise(obj)(flat)[0]
        # the coupling p(x) p(u|x) p(v|x) has the tables' tensors as marginals
        law = obj.coupling(flat)
        t_u, t_v = obj.to_tensors(flat)
        assert np.allclose(law.sum(axis=1), t_u, rtol=0, atol=1e-15)
        assert np.allclose(law.sum(axis=0), t_v, rtol=0, atol=1e-15)


@pytest.mark.parametrize("small", [True, False])
def test_shared_input_batch_rows_keep_their_lone_bits(small):
    # the tables of a small channel take the dense map, the worked
    # product's the lattice; each row of a batch gets its value and its
    # direction as it gets them alone, under mixed minimal rows
    rng = np.random.default_rng(24)
    c = Channel(_random_channel(rng, 3, 2, 3)) if small else product_channel().flat
    # weights under which both sum rows with a cross term are minimal somewhere
    weight_rows = np.diag([100.0, 1.0, 2.0 if small else 1.0])
    obj = SharedInputObjective(_uv_side_tables(c, c.nx + 1, c.nx + 1), weight_rows, None)
    assert all((fn._map is not None) == small for fn in obj.tables)
    batch = np.stack(
        [np.concatenate([rng.dirichlet(np.ones(b)) for b in obj.block_sizes]) for _ in range(5)]
    )
    values, grad = obj(batch)
    rows = [3, 0, 4, 1]
    directions = grad(rows)
    for i, r in enumerate(rows):
        alone, lone_grad = obj(batch[r : r + 1])
        assert alone[0].tobytes() == values[r].tobytes()
        assert lone_grad([0])[0].tobytes() == directions[i].tobytes()


def test_min_of_objectives_value_and_active_gradient():
    rng = np.random.default_rng(8)
    rows = [ent_terms("a"), ent_terms("b")]
    table = InfoFunctional("ab", (2, 3), rows)
    singles = [InfoFunctional("ab", (2, 3), [r]) for r in rows]
    obj = JointObjective([table], np.eye(2), None)
    t = rng.dirichlet(np.ones(6)).reshape(2, 3)
    vals = table.value(t)
    assert np.allclose(vals, [f.value(t)[0] for f in singles], atol=1e-12)
    # the value is the minimum row and the gradient follows that row only
    k = int(np.argmin(vals))
    v, grad = pointwise(obj)(t.ravel())
    assert v == pytest.approx(vals[k], abs=1e-12)
    assert np.allclose(grad(), _at(singles[k], [1.0])(t)[1]().ravel(), atol=1e-12)
    # weight rows that skip a row leave it out of the minimum
    v1, grad1 = pointwise(JointObjective([table], np.eye(2)[:1], None))(t.ravel())
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
        values, grad = tensor_objective(table, np.eye(4)[:3])(t[None])
        v_ref, w_ref = _first_min_row(table.value(t), 3)
        assert values[0] == v_ref
        ref = _grad(table.value_and_grad(t[None]), [0], w_ref[None])
        assert grad([0]).tobytes() == ref.tobytes()
        obj = SharedInputObjective([table], np.eye(4)[:3], px)
        flat = obj.to_flat([t])
        _, w_ref = _first_min_row(table.value(obj.to_tensors(flat)[0]), 3)
        got = pointwise(obj)(flat)
        ref = pointwise(SharedInputObjective([table], w_ref, px))(flat)
        assert got[0] == ref[0] and np.array_equal(got[1](), ref[1]())
    # one weight row is the plain weighted sum, gradient included
    weights = np.array([0.3, 0.7, 1.0, -0.5])
    v, grad = _at(table, weights)(t)
    singles = [InfoFunctional("uvx", (2, 2, 3), [r], q) for r in rows]
    assert v == pytest.approx(sum(a * f.value(t)[0] for a, f in zip(weights, singles)), abs=1e-12)
    g_ref = sum(a * _at(f, [1.0])(t)[1]() for a, f in zip(weights, singles))
    assert np.allclose(grad(), g_ref, atol=1e-12)


def _keep_grads(fn, ms, weights):
    # each keep's own gradient, in its own shape: the derivatives of its
    # marginals ``ms`` under ``weights`` from a fresh log2(max(m, GRAD_CLIP)),
    # in marginal order, plus the linear term's on the input law
    per_marginal = weights @ fn.coeffs
    acc = [None] * len(fn._keeps)
    for s in np.flatnonzero(per_marginal):
        mg = fn._marginals[s]
        d = (np.log2(np.maximum(ms[s], GRAD_CLIP)) + LOG2E) * -per_marginal[s]
        if mg.q is not None:
            d = d @ mg.q.T
        d = d.reshape(fn._keeps[mg.keep].kept)
        acc[mg.keep] = d if acc[mg.keep] is None else acc[mg.keep] + d
    if fn.linear is not None:
        k = fn._px_keep
        d = weights @ fn.linear
        acc[k] = d if acc[k] is None else acc[k] + d
    return acc


def _unfused(fn, t, weights):
    # the entropy vector, row values and gradient the unfused way, one
    # tensor on the path its table takes: the keep-marginals down the
    # table's lattice, or t times the dense map; each marginal its own
    # array, entropy_of_array on each, the linear term on the input law;
    # then the keeps' gradients back down the lattice, or the derivatives
    # times the dense map
    if fn._map is None:
        kept = keep_marginals_per_tensor(fn, t)
        ms = []
        for mg in fn._marginals:
            m = kept[mg.keep].reshape(fn._keeps[mg.keep].work)
            ms.append(m if mg.q is None else m @ mg.q)
        px = None if fn.linear is None else kept[fn._px_keep]
    else:
        ms, px = dense_marginals_per_tensor(fn, t)
    h = np.array([entropy_of_array(m) for m in ms])
    values = fn.coeffs @ h
    if fn.linear is not None:
        values += fn.linear @ px
    if fn._map is None:
        grad = lattice_grad_per_tensor(fn, _keep_grads(fn, ms, weights))
    else:
        dh = np.concatenate([np.log2(np.maximum(m, GRAD_CLIP)).ravel() for m in ms]) + LOG2E
        grad = dense_grad_per_tensor(fn, dh, weights)
    return h, values, grad, np.concatenate([m.ravel() for m in ms])


def _kept_axes(fn):
    # the axes of t each keep-marginal keeps, walked down its lattice path
    kept = []
    for keep in fn._keeps:
        src = list(range(len(fn.shape))) if keep.parent is None else kept[keep.parent]
        kept.append([a for p, a in enumerate(src) if p not in keep.axes])
    return kept


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
    # an input-major layout: the input axis slowest
    return np.ascontiguousarray(np.moveaxis(t, -1, 0)).transpose(list(range(1, t.ndim)) + [0])


def _kernel_tables(rng):
    c = Channel(_random_channel(rng, 3, 2, 3))
    pc = ProductChannel(c, Channel(_random_channel(rng, 2, 3, 2)))
    prof1, prof2 = default_region_profiles(pc, "product_outer")
    f1, f2 = _row_tables(
        pc,
        _region_rows("product_outer"),
        prof1.shape(pc.c1.nx),
        prof2.shape(pc.c2.nx),
    )
    tables = [marton_table(c, Cardinalities(3, 2, 2)), uv_table(c, 3, 3), f1, f2]
    # 16 inputs: long enough sums that a matmul's order follows the layout
    # of its left operand
    wide = Channel(_random_channel(rng, 16, 3, 4))
    tables += [marton_table(wide, Cardinalities(4, 4, 2)), uv_table(wide, 5, 5)]
    return tables


def test_fused_entropy_vector_matches_kernel_bit_for_bit():
    rng = np.random.default_rng(12)
    tables = _kernel_tables(rng)
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
            ev = fn.value_and_grad(t[None])
            assert ev.entropies[0].tobytes() == h_ref.tobytes()
            assert ev.values[0].tobytes() == v_ref.tobytes()
            with np.errstate(all="raise"):
                g = _grad(ev, [0], weights[None])[0]
            assert np.isfinite(g).all()
            assert g.tobytes() == g_ref.tobytes()
            if layout is not _c_order:
                ref = fn.value_and_grad(c_copy[None])
                assert ev.entropies.tobytes() == ref.entropies.tobytes()
                assert ev.values.tobytes() == ref.values.tobytes()
                assert g.tobytes() == _grad(ref, [0], weights[None])[0].tobytes()


def _gamma(k):
    # Higham's gamma_k = k u / (1 - k u), u the unit roundoff of a double
    u = 2.0**-53
    return k * u / (1 - k * u)


def test_lattice_sums_stay_within_the_recursive_summation_bound():
    # the lattice sums in another order than numpy's direct reduction and
    # the keep-order broadcast sum; any order of k terms lies within
    # gamma_{k-1} sum|x| of the exact sum (Higham 1993), so two orders lie
    # within 2 gamma_k sum|x| of each other, and t >= 0 makes sum|x| the
    # marginal itself. A dense table's fill and adjoint are sums of the same
    # products in the map's order, bounded the same way (see below)
    rng = np.random.default_rng(25)
    tables = _kernel_tables(rng)
    moved = dense = 0
    for fn in tables:
        t = _awkward_tensor(rng, fn.shape)
        weights = rng.normal(size=fn.coeffs.shape[0])
        ev = fn.value_and_grad(t[None])
        if fn._map is not None:
            moved += _dense_sums_within_the_bound(fn, t, ev, weights)
            dense += 1
            continue
        # the keep buffers the evaluation filled, in lattice order
        lattice = [out[0] for _, _, out in fn._plan((1,) + fn.shape).reductions]
        for keep_axes, m in zip(_kept_axes(fn), lattice):
            drop = tuple(a for a in range(t.ndim) if a not in keep_axes)
            direct = np.add.reduce(t, axis=drop)
            terms = t.size // direct.size
            assert (np.abs(m - direct) <= 2 * _gamma(terms) * direct).all()
            moved += m.tobytes() != direct.tobytes()
        # the gradient: each keep's own term, summed in keep order into a
        # gradient that starts at +0.0, against the lattice's order
        ms = []
        for mg in fn._marginals:
            m = lattice[mg.keep].reshape(fn._keeps[mg.keep].work)
            ms.append(m if mg.q is None else m @ mg.q)
        own = _keep_grads(fn, ms, weights)
        keep_order, scale = np.zeros(fn.shape), np.zeros(fn.shape)
        for keep_axes, g in zip(_kept_axes(fn), own):
            if g is not None:
                shape = [n if a in keep_axes else 1 for a, n in enumerate(fn.shape)]
                keep_order += g.reshape(shape)
                scale += np.abs(g).reshape(shape)
        g = _grad(ev, [0], weights[None])[0]
        assert (np.abs(g - keep_order) <= 2 * _gamma(len(own)) * scale).all()
    # both paths ran, and the orders differ: the checks compare different sums
    assert 0 < dense < len(tables)
    assert moved


def _dense_sums_within_the_bound(fn, t, ev, weights):
    # each entry of the dense fill is a dot product of K = t.size terms
    # t * map, so it lies within gamma_K of the exact marginal, and so
    # does the direct one (a reduction of t, then its product with the
    # channel marginal, of fewer terms); the gradient at t sums the products
    # map * d over the map's N columns, as does a keep-order sum of the
    # same products, so they lie within 2 gamma_N |map| @ |d| of each other.
    # Returns the number of marginals whose bits differ from the direct ones
    ms, _ = dense_marginals_per_tensor(fn, t)
    moved = 0
    for s, (mg, m) in enumerate(zip(fn._marginals, ms)):
        keep_axes = _kept_axes(fn)[mg.keep]
        drop = tuple(a for a in range(t.ndim) if a not in keep_axes)
        direct = np.add.reduce(t, axis=drop).reshape(fn._keeps[mg.keep].work)
        if mg.q is not None:
            direct = direct @ mg.q
        bound = 2 * _gamma(t.size + 1) * np.maximum(m, direct)
        assert (np.abs(m - direct) <= bound).all()
        moved += m.tobytes() != direct.tobytes()
    own = _keep_grads(fn, ms, weights)
    keep_order = np.zeros(fn.shape)
    for keep_axes, g in zip(_kept_axes(fn), own):
        if g is not None:
            shape = [n if a in keep_axes else 1 for a, n in enumerate(fn.shape)]
            keep_order += g.reshape(shape)
    dh = np.concatenate([np.log2(np.maximum(m, GRAD_CLIP)).ravel() for m in ms]) + LOG2E
    d = dense_adjoint_vector(fn, dh, weights)
    scale = (np.abs(fn._map) @ np.abs(d)).reshape(fn.shape)
    g = _grad(ev, [0], weights[None])[0]
    assert (np.abs(g - keep_order) <= 2 * _gamma(len(d)) * scale).all()
    return moved


def test_keep_lattice_reduces_each_keep_from_its_smallest_superset():
    # on the worked product's three table shapes every keep-marginal but the
    # roots is reduced from the smallest keep before it that holds its axes,
    # largest first; only the roots read the batch
    pc = product_channel()
    prof1, prof2 = default_region_profiles(pc, "product_outer")
    component = _row_tables(
        pc, _region_rows("product_outer"), prof1.shape(pc.c1.nx), prof2.shape(pc.c2.nx)
    )[0]
    cases = [
        (component, (4, 4, 8, 4), 2),
        (marton_table(pc.flat, PRODUCT_MARTON_CAPS), (8, 8, 4, 16), 3),
        (uv_table(pc.flat, 17, 17), (17, 17, 16), 2),
    ]
    for fn, shape, roots in cases:
        assert fn.shape == shape
        kept = [set(k) for k in _kept_axes(fn)]
        # one keep per set of axes of t that a marginal or the input law
        # needs; a marginal with outputs keeps the input x to contract it
        needed = [s + "x" * bool(set(s) & set("yz")) for s in fn.subsets]
        needed += ["x"] if fn.linear is not None else []
        needed = {frozenset(a for a, x in enumerate(fn.dist_axes) if x in s) for s in needed}
        assert sorted(map(sorted, kept)) == sorted(map(sorted, needed))
        for keep, axes in zip(fn._keeps, kept):
            assert keep.kept == tuple(shape[a] for a in sorted(axes))
        sizes = [int(np.prod(keep.kept)) for keep in fn._keeps]
        assert sizes == sorted(sizes, reverse=True)
        for i, keep in enumerate(fn._keeps):
            supersets = [j for j in range(i) if kept[i] <= kept[j]]
            if keep.parent is None:
                assert not supersets
            else:
                assert keep.parent == min(supersets, key=lambda j: sizes[j])
        assert sum(keep.parent is None for keep in fn._keeps) == roots


def test_a_tensor_has_one_value_whatever_its_memory_order():
    # on the worked product's Marton and UV tables a tensor in input-major
    # or Fortran order gets the entropies, row values and gradients of its C
    # copy, and a batch whose tensors are spaced out along the batch axis
    # (a region search's component split) those of its contiguous copy
    rng = np.random.default_rng(24)
    flat = product_channel().flat
    for fn in (marton_table(flat, PRODUCT_MARTON_CAPS), uv_table(flat, 17, 17)):
        assert fn.shape in ((8, 8, 4, 16), (17, 17, 16))
        weights = rng.normal(size=(1, fn.coeffs.shape[0]))
        for _ in range(4):
            t = rng.dirichlet(np.ones(int(np.prod(fn.shape)))).reshape(fn.shape)
            ref = fn.value_and_grad(t[None])
            g_ref = _grad(ref, [0], weights)
            for layout in (_input_major, np.asfortranarray):
                ev = fn.value_and_grad(layout(t)[None])
                assert ev.entropies.tobytes() == ref.entropies.tobytes()
                assert ev.values.tobytes() == ref.values.tobytes()
                assert _grad(ev, [0], weights).tobytes() == g_ref.tobytes()
        size = int(np.prod(fn.shape))
        points = rng.dirichlet(np.ones(size), size=(3, 2)).reshape(3, 2 * size)
        spaced = points[:, :size].reshape((3,) + fn.shape)
        assert not spaced.flags.c_contiguous and spaced[0].flags.c_contiguous
        ev, ref = fn.value_and_grad(spaced), fn.value_and_grad(np.ascontiguousarray(spaced))
        assert ev.entropies.tobytes() == ref.entropies.tobytes()
        assert ev.values.tobytes() == ref.values.tobytes()
        w3 = np.repeat(weights, 3, axis=0)
        assert _grad(ev, range(3), w3).tobytes() == _grad(ref, range(3), w3).tobytes()


def test_evaluation_survives_later_evaluations_bit_for_bit():
    # a table reuses its work buffers, so an evaluation must keep what its
    # lazy gradient reads: evaluate t1, then t2, then take t1's gradient
    rng = np.random.default_rng(13)
    c = Channel(_random_channel(rng, 3, 2, 3))
    for fn in (marton_table(c, Cardinalities(3, 2, 2)), uv_table(c, 3, 3)):
        px = rng.dirichlet(np.ones(3))
        t1, t2 = (_input_major(_awkward_tensor(rng, fn.shape)) for _ in range(2))
        weights = rng.normal(size=(1, fn.coeffs.shape[0]))
        ev1 = fn.value_and_grad(t1[None])
        v1, grad1 = tensor_objective(fn, weights)(t1[None])
        ev2 = fn.value_and_grad(t2[None])
        fn.value_and_grad(np.ascontiguousarray(t2)[None] * 0.5)
        g1 = _grad(ev1, [0], weights)
        for ev, t in ((ev1, t1), (ev2, t2)):
            fresh = fn.value_and_grad(t[None])
            assert ev.entropies.tobytes() == fresh.entropies.tobytes()
            assert ev.values.tobytes() == fresh.values.tobytes()
        fresh = fn.value_and_grad(t1[None])
        assert g1.tobytes() == _grad(fresh, [0], weights).tobytes()
        assert grad1([0]).tobytes() == _grad(fresh, [0], weights).tobytes()
        assert v1.tobytes() == tensor_objective(fn, weights)(t1[None])[0].tobytes()
        # the flat-vector adapters read the same buffers
        obj = SharedInputObjective([fn], weights, px)
        x1, x2 = obj.to_flat([t1]), obj.to_flat([t2])
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
    tables = [marton_table(c, Cardinalities(3, 2, 2)), uv_table(c, 3, 3)]
    tables += [marton_table(wide, Cardinalities(4, 4, 2)), uv_table(wide, 5, 5)]
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
            ev = fn.value_and_grad(batch)
            assert ev.values.shape == (3, fn.coeffs.shape[0])
            grads = _grad(ev, range(3), weights)
            rows = _grad(ev, [0, 2], weights[[0, 2]])
            for r, t in enumerate(singles):
                one = fn.value_and_grad(layout(t)[None])
                assert ev.entropies[r].tobytes() == one.entropies[0].tobytes()
                assert ev.values[r].tobytes() == one.values[0].tobytes()
                assert grads[r].tobytes() == _grad(one, [0], weights[[r]])[0].tobytes()
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
    values, grad = tensor_objective(table, weight_rows)(batch)
    grads = grad([0, 1, 2])
    for r, first_min in enumerate((1, 2, 0)):
        one = batch[r][None]
        alone, alone_grad = tensor_objective(table, weight_rows)(one)
        assert values[r].tobytes() == alone[0].tobytes()
        assert grad([r]).tobytes() == alone_grad([0]).tobytes()
        assert grads[r].tobytes() == alone_grad([0])[0].tobytes()
        ref = _grad(table.value_and_grad(one), [0], weight_rows[[first_min]])
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
        (marton_table(flat, PRODUCT_MARTON_CAPS), (8, 8, 4, 16), lam_rows, []),
        (uv_table(flat, 17, 17), (17, 17, 16), [np.eye(5)[:3]], _uv_ties()),
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
                ev = fn.value_and_grad(batch)
                ref = row_values_per_tensor(fn, batch, ev.entropies)
                assert ev.values.tobytes() == ref.tobytes()
                for rows in row_sets:
                    ref = grad_per_tensor(ev, rows, weights[rows])
                    assert _grad(ev, rows, weights[rows]).tobytes() == ref.tobytes()
                for weight_rows in weighings:
                    values, grad = tensor_objective(fn, weight_rows)(batch)
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
    # a search's batch shrinks through every smaller size as its last
    # restarts finish, once its stream of starts has run out: the table
    # keeps one fill plan, with its buffers, not one per size, and a size
    # evaluated again is compiled again with the same bits
    rng = np.random.default_rng(23)
    q = _random_channel(rng, 3, 2, 2)
    fn = uv_table(Channel(q), 4, 4)
    batch = rng.dirichlet(np.ones(48), size=16).reshape(16, 4, 4, 3)
    first = fn.value_and_grad(batch).values
    plans = []
    for n in range(16, 0, -1):
        assert fn.value_and_grad(batch[:n]).values.tobytes() == first[:n].tobytes()
        plans.append(weakref.ref(fn._plan(batch[:n].shape)))
        gc.collect()
        assert sum(ref() is not None for ref in plans) <= 1
    assert fn.value_and_grad(batch).values.tobytes() == first.tobytes()


def _compiled_weighings():
    # the objectives' weighings at the worked product's tables: the Marton
    # table under lambda rows (lambda 0 and 1 zero a marginal that 1/2
    # weighs), the UV table under its three branch rows, and both
    # component tables of the product_outer and semi_deterministic supports
    # under their dual rows
    pc = product_channel()
    lam_rows = np.stack([lambda_weights(x) for x in (0.5, 0.0, 1.0, 0.3)])
    objectives = [
        JointObjective([marton_table(pc.flat, PRODUCT_MARTON_CAPS)], lam_rows, None),
        JointObjective([uv_table(pc.flat, 17, 17)], np.eye(5)[:3], None),
    ]
    for kind in ("product_outer", "semi_deterministic"):
        prof1, prof2 = default_region_profiles(pc, kind)
        for weights, fix_r0 in (((0.0, 1.0, 1.0), 0.0), ((1.0, 1.0, 1.0), None)):
            objectives.append(_support_objective(pc, kind, weights, prof1, prof2, fix_r0)[0])
    cases = [case for obj in objectives for case in zip(obj.tables, obj.weighings)]
    assert len(cases) == 10
    return cases


def test_compiled_weighing_matches_the_per_call_weighing_bit_for_bit():
    # each objective compiles its weight rows once; a gradient call's
    # weighing and gradients must be the ones the call would compute from
    # its weight lines, for one row, for mixed and repeated rows, and where
    # a row gives zero weight to a marginal that another row of the call
    # weighs; and each tensor's gradient is the one it gets alone
    rng = np.random.default_rng(26)
    zero_where_other_weighs = 0
    for fn, weighing in _compiled_weighings():
        n_k = len(weighing.rows)
        batch = np.stack([_awkward_tensor(rng, fn.shape) for _ in range(5)])
        ev = fn.value_and_grad(batch)
        calls = [([0, 1, 2, 3, 4], [k] * 5) for k in range(n_k)]
        calls += [([0, 1, 2, 3, 4], [k % n_k for k in range(5)])]
        calls += [([2, 0, 2], [n_k - 1, 0, n_k - 1]), ([4, 1], [0, n_k - 1]), ([3], [n_k - 1])]
        for rows, ks in calls:
            used, lo, hi, neg = weighing.select(ks)
            ref_used, ref_lo, ref_hi, ref_neg = weighing_per_call(fn, weighing.rows[ks])
            assert (used, lo, hi) == (ref_used, ref_lo, ref_hi)
            assert np.broadcast_to(neg, ref_neg.shape).tobytes() == ref_neg.tobytes()
            per_marginal = weighing.rows[ks] @ fn.coeffs
            zero_where_other_weighs += bool(
                ((per_marginal == 0.0) & (per_marginal != 0.0).any(axis=0)).any()
            )
            g = ev.grad(rows, weighing, ks)
            assert g.tobytes() == grad_per_tensor(ev, rows, weighing.rows[ks]).tobytes()
            for got, r, k in zip(g, rows, ks):
                alone = fn.value_and_grad(batch[r][None]).grad([0], weighing, [k])[0]
                assert got.tobytes() == alone.tobytes()
        assert n_k > 1
    assert zero_where_other_weighs


def test_value_at_a_validated_joint_with_exact_zeros_keeps_its_bits():
    # the entropy pass writes LOG2_CLIP at every zero entry, whose term is
    # then -0.0: the Marton and UV rows at validated joints with exact zeros
    # (one input symbol of zero mass) keep the bits they had when zero
    # entries were skipped by a gather and scatter. The component's two
    # tables fill through their dense maps, whose sums run in another order:
    # their values were recorded again on that path (each moved by at most
    # 8.9e-16); the product's tables keep the lattice and their old bits
    expected = [
        (
            ["0x1.3f965226b1920p-6", "0x1.adfc9a92a0500p-7", "0x1.1c0e79139ed70p-3"],
            ["0x1.2437737d1af10p-3", "0x1.d3e1713941f80p-1", "0x1.c9611c3168b54p-1",
             "0x1.2aa5fef9a82f0p-5", "0x1.b31be77d61cc0p-4"],
        ),
        (
            ["0x1.64b1ce7801800p-8", "0x1.c914c52b10000p-8", "0x1.4c04a33ed16e0p-4"],
            ["0x1.1fbd4d5c63240p-4", "0x1.fbce6040a15bap+0", "0x1.fd1533e548feep+0",
             "0x1.06670d1467000p-5", "0x1.39138da45f480p-5"],
        ),
    ]
    rng = np.random.default_rng(2011)
    channels = [
        (component("y"), Cardinalities(3, 3, 2)),
        (product_channel().flat, Cardinalities(4, 4, 2)),
    ]
    for (c, prof), (marton_hex, uv_hex) in zip(channels, expected):
        shape = prof.shape(c.nx)
        t = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        t[rng.random(shape) < 0.4] = 0.0
        t[..., 0] = 0.0
        aux = AuxiliaryJoint(t / t.sum())
        assert (aux.joint == 0.0).any()
        marton, uv = marton_table(c, prof), uv_table(c, shape[0], shape[1])
        assert [fn._map is not None for fn in (marton, uv)] == [c.nx == 4] * 2
        assert [v.hex() for v in marton.value(aux.joint)] == marton_hex
        assert [v.hex() for v in uv.value(aux.joint.sum(axis=2))] == uv_hex


def _small_tables(rng):
    # tables whose maps are small: one without a channel, and the Marton
    # and UV tables of random 2- and 3-input channels (the UV table has a
    # linear term)
    tables = [InfoFunctional("ab", (3, 4), [mi_terms("a", "b"), ent_terms("a", "b")])]
    for nx in (2, 3):
        c = Channel(_random_channel(rng, nx, 2, 3))
        tables += [marton_table(c, Cardinalities(2, 2, 2)), uv_table(c, 2, 3)]
    assert all(fn._map is not None for fn in tables)
    assert any(fn.linear is not None for fn in tables)
    return tables


def _on_the_lattice(fn):
    # the same table with its dense map dropped, so it fills down the lattice
    twin = copy.copy(fn)
    twin._map = None
    return twin


def _bec_bsc():
    my = np.array([[0.55, 0.0, 0.45], [0.0, 0.55, 0.45]])
    mz = np.array([[0.9, 0.1], [0.1, 0.9]])
    return Channel(np.einsum("xy,xz->xyz", my, mz))


def test_dense_map_is_the_lattice_image_of_the_unit_tensors():
    # the map's rows are the lattice's fill of each unit tensor, built one at
    # a time by the oracle; every entry is 0, 1 or an entry of a channel
    # marginal, so the map is exact; building it takes at most the map's
    # own size again in transient memory
    rng = np.random.default_rng(27)
    pair, comp = _bec_bsc(), component("z")
    tables = _small_tables(rng)
    tables += [marton_table(c, Cardinalities.for_sum_rate(c)) for c in (pair, comp)]
    for fn in tables:
        assert fn._map.tobytes() == dense_map_per_unit(fn).tobytes()
        qs = [mg.q.ravel() for mg in fn._marginals if mg.q is not None]
        assert set(fn._map.ravel().tolist()) <= {0.0, 1.0}.union(*map(set, qs))
    big = tables[-1]
    assert big._map.size > DENSE_MAP_FLOATS // 2
    tracemalloc.start()
    try:
        built = big._dense_map(big._map.shape[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.tobytes() == big._map.tobytes()
    # the map itself, the chunk's buffers and a little bookkeeping
    assert peak <= 2 * built.nbytes + 16384


def test_dense_and_lattice_agree_on_small_tables():
    # a small table's dense map and its lattice give the same entropies and
    # row values within 1e-13, and the same gradients within 1e-13 of the
    # size of the terms each entry sums (|map| @ |d|, the scale of its
    # rounding: a clipped log adds terms near 1000 that cancel), at tensors
    # with exact zeros, entries below GRAD_CLIP and a zero-mass input, under
    # one weight row and under mixed rows; and through SharedInputObjective
    # at a given input law with a zero, within 1e-13 of each flat gradient's
    # largest entry (one weight row there: under a minimum over rows, a near
    # tie may take another row on each path)
    rng = np.random.default_rng(28)
    for fn in _small_tables(rng):
        lattice = _on_the_lattice(fn)
        batch = np.stack([_awkward_tensor(rng, fn.shape) for _ in range(5)])
        batch[1, ..., 0] = 0.0
        weights = rng.normal(size=(2, fn.coeffs.shape[0]))
        dense_ev, lattice_ev = fn.value_and_grad(batch), lattice.value_and_grad(batch)
        assert np.abs(dense_ev.entropies - lattice_ev.entropies).max() <= 1e-13
        assert np.abs(dense_ev.values - lattice_ev.values).max() <= 1e-13
        for ks in ([0] * 5, [0, 1, 1, 0, 1]):
            g = dense_ev.grad(range(5), Weighing(fn, weights), ks)
            ref = lattice_ev.grad(range(5), Weighing(lattice, weights), ks)
            for r, k in enumerate(ks):
                dh = np.maximum(dense_ev._logs[r], LOG2_CLIP) + LOG2E
                d = dense_adjoint_vector(fn, dh, weights[k])
                scale = (np.abs(fn._map) @ np.abs(d)).reshape(fn.shape)
                assert (np.abs(g[r] - ref[r]) <= 1e-13 * scale).all()
        if fn.dist_axes[-1] != "x":
            continue
        px = rng.dirichlet(np.ones(fn.shape[-1]))
        px[0] = 0.0
        px /= px.sum()
        dense_obj = SharedInputObjective([fn], weights[:1], px)
        lattice_obj = SharedInputObjective([lattice], weights[:1], px)
        block = dense_obj.block_sizes[0]
        flat = rng.dirichlet(np.ones(block), size=(5, fn.shape[-1])).reshape(5, -1)
        (v, grad), (v_ref, grad_ref) = dense_obj(flat), lattice_obj(flat)
        assert np.abs(v - v_ref).max() <= 1e-13
        g, ref = grad(range(5)), grad_ref(range(5))
        scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
        assert (np.abs(g - ref) <= 1e-13 * scale).all()


def test_dense_tables_give_each_tensor_its_lone_bits():
    # through the dense map each tensor of a batch gets the bits of the
    # per-tensor oracle of the dense arithmetic and the bits it gets alone:
    # row values, and gradients under one row and under mixed rows, in order,
    # out of order and repeated
    rng = np.random.default_rng(29)
    for fn in _small_tables(rng):
        batch = np.stack([_awkward_tensor(rng, fn.shape) for _ in range(5)])
        weighing = Weighing(fn, rng.normal(size=(3, fn.coeffs.shape[0])))
        ev = fn.value_and_grad(batch)
        assert ev.values.tobytes() == row_values_per_tensor(fn, batch, ev.entropies).tobytes()
        calls = [(range(5), [1] * 5), (range(5), [0, 1, 2, 0, 1]), ([4, 0, 4], [2, 0, 1])]
        for rows, ks in calls:
            g = ev.grad(rows, weighing, ks)
            ref = grad_per_tensor(ev, list(rows), weighing.rows[ks])
            assert g.tobytes() == ref.tobytes()
            for got, r, k in zip(g, rows, ks):
                alone = fn.value_and_grad(batch[r][None])
                assert alone.values[0].tobytes() == ev.values[r].tobytes()
                assert alone.grad([0], weighing, [k])[0].tobytes() == got.tobytes()


def test_small_tables_take_the_dense_map_and_the_product_tables_the_lattice():
    # the map's size picks the path: the Marton tables of the BEC/BSC pair
    # and of the 4-input components fill through their maps; the worked
    # product's semi-deterministic, product_outer and UV tables, whose maps
    # are larger than DENSE_MAP_FLOATS, keep the lattice
    channels = (_bec_bsc(), component("y"), component("z"))
    dense = [marton_table(c, Cardinalities.for_sum_rate(c)) for c in channels]
    assert [fn.shape for fn in dense] == [(2, 2, 2, 2), (2, 4, 4, 4), (4, 2, 4, 4)]
    assert all(fn._map is not None for fn in dense)
    pc = product_channel()
    lattice = [uv_table(pc.flat, 17, 17)]
    for kind in ("semi_deterministic", "product_outer"):
        prof1, prof2 = default_region_profiles(pc, kind)
        sides = prof1.shape(pc.c1.nx), prof2.shape(pc.c2.nx)
        lattice += _row_tables(pc, _region_rows(kind), *sides)
    shapes = [(17, 17, 16), (1, 4, 8, 4), (4, 1, 8, 4), (4, 4, 8, 4), (4, 4, 8, 4)]
    assert [fn.shape for fn in lattice] == shapes
    assert all(fn._map is None for fn in lattice)
