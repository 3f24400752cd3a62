"""Every input check of the library raises its own error: a bad argument to
the worked example, a negative law entry, an alphabet mismatch, an axis
error or an empty grid."""

import re

import numpy as np
import pytest

from bcbounds.channel import Channel, ProductChannel
from bcbounds.counterexample import (
    component,
    component_branch_aux,
    lambda_curve_analytic,
    uv_witness_auxiliary,
)
from bcbounds.marton import AuxiliaryJoint, lambda_sr_value
from bcbounds.objectives import FixedInputObjective, InfoFunctional, ent_terms, merge_terms
from bcbounds.regions import ProductAuxiliary, UvAuxiliary, build_region, evaluate_uv_point
from bcbounds.search import simplex_grid

# a law over two inputs, where the worked example's components have four
TWO_INPUTS = np.full((1, 1, 1, 2), 0.5)

CASES = {
    "component_det": (lambda: component("x"), "det must be 'y' or 'z'"),
    "curve_det": (lambda: lambda_curve_analytic(0.5, "x"), "det must be 'y' or 'z'"),
    "branch_det": (lambda: component_branch_aux("x", "flat"), "det must be 'y' or 'z'"),
    "branch": (lambda: component_branch_aux("z", "bent"), "branch must be 'steep' or 'flat'"),
    "mixing": (
        lambda: uv_witness_auxiliary((1.5, 0.8)),
        "mixing probabilities must lie in [0, 1]",
    ),
    "channel_entry": (lambda: Channel(np.array([[[1.1, -0.1]]])), "negative channel entry -0.1"),
    "aux_entry": (
        lambda: AuxiliaryJoint(np.array([[[[1.1, -0.1]]]])),
        "negative entry -0.1 in auxiliary joint",
    ),
    "marton_alphabet": (
        lambda: lambda_sr_value(component("z"), 0.5, AuxiliaryJoint(TWO_INPUTS)),
        "auxiliary input alphabet mismatch",
    ),
    "uv_alphabet": (
        lambda: evaluate_uv_point(component("z"), UvAuxiliary(TWO_INPUTS[0])),
        "UV auxiliary input alphabet mismatch",
    ),
    "region_alphabet": (
        lambda: build_region(
            ProductChannel(component("y"), component("z")),
            ProductAuxiliary(AuxiliaryJoint(TWO_INPUTS), AuxiliaryJoint(TWO_INPUTS)),
            "product_outer",
        ),
        "component auxiliary input alphabet mismatch",
    ),
    "px_length": (
        lambda: FixedInputObjective(InfoFunctional("ux", (2, 4), [ent_terms("u")]), [0.5] * 2, [1.0]),
        "px length mismatch",
    ),
    "unknown_axes": (lambda: merge_terms([(1.0, "uq")], "ux"), "unknown axes ['q']"),
    "axes_shape": (
        lambda: InfoFunctional("ux", (2,), [ent_terms("u")]),
        "dist_axes and dist_shape disagree",
    ),
    "input_axis": (
        lambda: InfoFunctional("xu", (4, 2), [ent_terms("u")], channel=component("z").q),
        "input axis 'x' must be the last dist axis",
    ),
    "empty_grid": (lambda: next(simplex_grid(0, 1)), "dim and resolution must be positive"),
}


@pytest.mark.parametrize("name", CASES)
def test_input_check_raises_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
