"""The memoryless-channel chain rule that tables compile in, and the layout
it leaves.

A table rewrites every entropy H(K,X,S) of outputs S next to the input X
as H(K,X) + sum_x p(x) H(S|X=x). These tests check every row family that
puts X next to an output against mutual informations of the explicit joint
p(..., x) q(y, z | x), and pin the layout the rewrite gives.
"""

import numpy as np
import pytest

from bcbounds.channel import Channel, _gap_table
from bcbounds.counterexample import component, product_channel
from bcbounds.marton import Cardinalities, marton_table
from bcbounds.objectives import (
    LOG2_CLIP,
    LOG2E,
    InfoFunctional,
    merge_terms,
    mi_terms,
)
from bcbounds.regions import (
    _TERM_DEFS,
    REGION_KINDS,
    _region_rows,
    _row_tables,
    default_region_profiles,
)
from info_oracle import entropy, mutual_information
from oracles import endpoint_table, tensor_objective, uv_table

# a Marton table shape on the 16-input product, large enough for every
# product of the components' branch constructions
PRODUCT_MARTON_CAPS = Cardinalities(8, 8, 4)


def _random_channel(seed):
    rng = np.random.default_rng(seed)
    return Channel(rng.dirichlet(np.ones(6), size=3).reshape(3, 2, 3))


# component("y") has zero channel entries: its Y is a deterministic map
CHANNELS = [_random_channel(30), component("y")]


def _joint(t, c):
    return np.einsum("...x,xyz->...xyz", t, c.q)


def _uv(c):
    def expect(t):
        # axes u v x y z
        p = _joint(t, c)
        iuy, ivz = mutual_information(p, (0,), (3,)), mutual_information(p, (1,), (4,))
        sum_y = iuy + mutual_information(p, (2,), (4,), given=(0,))
        sum_z = ivz + mutual_information(p, (2,), (3,), given=(1,))
        return [iuy + ivz, sum_y, sum_z, iuy, ivz]

    return uv_table(c, 3, 2), expect


def _region_terms(c):
    names = ("su", "sv", "xy", "xz")

    def expect(t):
        # axes u v w x y z
        p = _joint(t, c)
        return [
            mutual_information(p, (0,), (4,), given=(2,))
            + mutual_information(p, (3,), (5,), given=(0, 2)),
            mutual_information(p, (1,), (5,), given=(2,))
            + mutual_information(p, (3,), (4,), given=(1, 2)),
            mutual_information(p, (3,), (4,), given=(2,)),
            mutual_information(p, (3,), (5,), given=(2,)),
        ]

    shape = (2, 2, 3, c.nx)
    return InfoFunctional("uvwx", shape, [_TERM_DEFS[n] for n in names], channel=c.q), expect


def _gap(stronger, aux):
    def build(c):
        # the weaker receiver's axis in the joint, then the stronger one's
        first = 2 if aux else 1
        weak, strong = (first + 1, first) if stronger == "y" else (first, first + 1)

        def expect(t):
            p = _joint(t, c)
            return [mutual_information(p, (0,), (weak,)) - mutual_information(p, (0,), (strong,))]

        return _gap_table(c, stronger, aux), expect

    return build


def _endpoint(endpoint):
    def build(c):
        def expect(t):
            # axes w x y z: I(W;Z) + I(X;Y|W) at 0, receivers swapped at 1
            p = _joint(t, c)
            near, far = (3, 2) if endpoint == 0 else (2, 3)
            return [
                mutual_information(p, (0,), (near,))
                + mutual_information(p, (1,), (far,), given=(0,))
            ]

        return endpoint_table(c, endpoint), expect

    return build


FAMILIES = {
    "uv": _uv,
    "region_terms": _region_terms,
    "gap_y": _gap("y", False),
    "gap_z": _gap("z", False),
    "gap_u": _gap("y", True),
    "endpoint_0": _endpoint(0),
    "endpoint_1": _endpoint(1),
}


def _fd_grad(fn, w, t, eps=1e-6):
    g = np.zeros_like(t)
    for idx in np.ndindex(t.shape):
        tp, tm = t.copy(), t.copy()
        tp[idx] += eps
        tm[idx] -= eps
        g[idx] = (w @ fn.value(tp) - w @ fn.value(tm)) / (2 * eps)
    return g


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("ci", range(len(CHANNELS)))
def test_chain_rule_rows_match_the_explicit_joint(family, ci):
    c = CHANNELS[ci]
    fn, expect = FAMILIES[family](c)
    # every family but the auxiliary gap puts the input next to an output;
    # on component("y") H(Y|X) = 0, so a table whose linear terms are all
    # multiples of it keeps no linear term
    if ci == 0:
        assert (fn.linear is not None) == (family != "gap_u")
    rng = np.random.default_rng(31 + ci)
    tensors = [rng.dirichlet(np.ones(int(np.prod(fn.shape)))).reshape(fn.shape) for _ in range(3)]
    # an input symbol of zero mass
    zero_x = tensors[0].copy()
    zero_x[..., 0] = 0.0
    tensors.append(zero_x / zero_x.sum())
    for t in tensors:
        assert fn.value(t) == pytest.approx(expect(t), abs=1e-12)
    # the gradient, linear term included, at an interior point
    t, w = tensors[1], rng.normal(size=len(fn.coeffs))
    _, grad = tensor_objective(fn, w)(t[None])
    g_fd = _fd_grad(fn, w, t)
    assert np.abs(grad([0])[0] - g_fd).max() / max(1.0, np.abs(g_fd).max()) < 1e-4


def test_gradient_at_a_zero_mass_input_adds_the_output_entropy():
    # H(X,Z) compiles to H(X) + sum_x p(x) H(Z|X=x): at an input of zero mass
    # the gradient is the clipped entropy derivative plus H(Z|X=x)
    c = CHANNELS[0]
    fn = InfoFunctional("x", (c.nx,), [[(1.0, "xz")]], channel=c.q)
    assert fn.subsets == ["x"]
    p = np.array([0.0, 0.4, 0.6])
    g = tensor_objective(fn, [1.0])(p[None])[1]([0])[0]
    h_z = entropy(c.q[0].sum(axis=0))
    assert g[0] == pytest.approx(-(LOG2_CLIP + LOG2E) + h_z, rel=1e-15)
    assert fn.value(p)[0] == pytest.approx(entropy(_joint(p, c).sum(axis=1)), abs=1e-12)


def _component_tables(pc, kind):
    prof1, prof2 = default_region_profiles(pc, kind)
    return _row_tables(pc, _region_rows(kind), prof1.shape(pc.c1.nx), prof2.shape(pc.c2.nx))


def _package_tables():
    pc = product_channel()
    small = CHANNELS[0]
    tables = [
        marton_table(pc.flat, PRODUCT_MARTON_CAPS),
        marton_table(small, Cardinalities.for_sum_rate(small)),
        uv_table(pc.flat, 17, 17),
        uv_table(small, 4, 4),
    ]
    for kind in REGION_KINDS:
        tables += _component_tables(pc, kind)
    for stronger in ("y", "z"):
        for aux in (False, True):
            tables.append(_gap_table(small, stronger, aux))
    return tables


def test_no_compiled_marginal_keeps_the_input_next_to_an_output():
    for fn in _package_tables():
        for subset in fn.subsets:
            assert not ("x" in subset and set(subset) & set("yz")), subset
        # every marginal is a keep-marginal of t, or one without the input
        # times a channel marginal
        for mg, shape in zip(fn._marginals, fn._shapes):
            keep = fn._keeps[mg.keep]
            assert shape == (keep.work if mg.q is None else (keep.work[0], mg.q.shape[1]))


def test_chain_rule_layout_of_the_worked_product():
    pc = product_channel()
    uv = uv_table(pc.flat, 17, 17)
    assert uv.subsets == ["u", "y", "uy", "v", "z", "vz", "uz", "vy"]
    assert uv._offsets[-1] == 874
    assert uv.linear is not None and uv.linear.shape == (5, 16)
    for fn in _component_tables(pc, "product_outer"):
        assert len(fn.subsets) == 11 and fn._offsets[-1] == 656
    # the semi-deterministic rows put no input next to an output
    for fn in _component_tables(pc, "semi_deterministic"):
        assert fn.linear is None
    # the Marton table has no term with the input next to an output: it
    # compiles as it did without the rewrite, with no linear term
    fn = marton_table(pc.flat, PRODUCT_MARTON_CAPS)
    assert fn.linear is None
    rows = [
        mi_terms("w", "y"),
        mi_terms("w", "z"),
        mi_terms("u", "y", "w") + mi_terms("v", "z", "w") + mi_terms("u", "v", "w", -1.0),
    ]
    merged = [merge_terms(row, fn.order) for row in rows]
    subsets = list(dict.fromkeys(s for row in merged for _, s in row))
    coeffs = np.zeros((3, len(subsets)))
    for r, row in enumerate(merged):
        for coeff, subset in row:
            coeffs[r, subsets.index(subset)] = coeff
    assert fn.subsets == subsets and fn.coeffs.tobytes() == coeffs.tobytes()
    assert fn._offsets.tolist() == [0, 4, 16, 64, 76, 124, 508, 892, 1148]

