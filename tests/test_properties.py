"""Property tests of the Marton table at fixed auxiliaries (no search)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bcbounds.channel import Channel, ProductChannel
from bcbounds.marton import (
    AuxiliaryJoint,
    Cardinalities,
    lambda_sr_value,
    marton_table,
    outer_auxiliary,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def channel_and_aux(draw):
    """A random channel with 2-3 symbols per alphabet and an auxiliary joint
    at its sum-rate profile; half the time a third of the auxiliary's
    entries are zeroed, so boundary points are covered too."""
    nx, ny, nz = (draw(st.integers(2, 3)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = Channel(rng.dirichlet(np.ones(ny * nz), size=nx).reshape(nx, ny, nz))
    prof = Cardinalities.for_sum_rate(c)
    t = rng.dirichlet(np.ones(prof.nu * prof.nv * prof.nw * nx))
    if draw(st.booleans()):
        t[rng.random(t.size) < 1 / 3] = 0.0
        t = t / t.sum() if t.sum() > 0 else np.full(t.size, 1.0 / t.size)
    return c, AuxiliaryJoint(t.reshape(prof.nu, prof.nv, prof.nw, nx))


@PROPERTY_SETTINGS
@given(channel_and_aux(), st.data())
def test_relabeling_leaves_every_table_row_unchanged(case, data):
    c, aux = case
    perm_x = np.asarray(data.draw(st.permutations(range(c.nx))))
    perm_y = np.asarray(data.draw(st.permutations(range(c.ny))))
    perm_z = np.asarray(data.draw(st.permutations(range(c.nz))))
    relabeled = Channel(c.q[np.ix_(perm_x, perm_y, perm_z)])
    aux_x = AuxiliaryJoint(aux.joint[..., perm_x])
    prof = Cardinalities(*aux.shape[:3])
    rows = marton_table(c, prof).value(aux.joint)
    rows_relabeled = marton_table(relabeled, prof).value(aux_x.joint)
    assert np.allclose(rows_relabeled, rows, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(channel_and_aux(), st.floats(0.0, 1.0))
def test_swapping_receivers_maps_lambda_to_one_minus_lambda(case, lam):
    c, aux = case
    swapped = Channel(c.q.transpose(0, 2, 1))
    aux_uv = AuxiliaryJoint(aux.joint.transpose(1, 0, 2, 3))
    value = lambda_sr_value(c, lam, aux)
    assert abs(lambda_sr_value(swapped, 1.0 - lam, aux_uv) - value) <= 1e-12


def _rows(c, aux):
    return marton_table(c, Cardinalities(*aux.shape[:3])).value(aux.joint)


@PROPERTY_SETTINGS
@given(channel_and_aux(), channel_and_aux())
def test_table_rows_add_up_at_an_independent_product_auxiliary(case1, case2):
    # on a product channel, every Marton table row at the independent
    # product of component auxiliaries is the sum of the component rows
    (c1, aux1), (c2, aux2) = case1, case2
    product = ProductChannel(c1, c2).flat
    rows = _rows(product, outer_auxiliary(aux1, aux2))
    assert np.allclose(rows, _rows(c1, aux1) + _rows(c2, aux2), rtol=0.0, atol=1e-12)
