"""Every input check of the library raises its own error: a bad argument to
the worked example, a negative or non-finite law entry, an unnormalized
input law, a lambda outside [0, 1], an alphabet mismatch, an unknown
receiver, a region pin or direction out of range, an axis error, block
sizes below 1 or that do not fit a point, an empty grid, or a search
budget or seed that is not an integer."""

import re

import numpy as np
import pytest

from bcbounds.channel import Channel, ProductChannel, is_deterministic
from bcbounds.counterexample import (
    component,
    component_branch_aux,
    lambda_curve_analytic,
    product_channel,
    uv_witness_auxiliary,
)
from bcbounds.marton import (
    AuxiliaryJoint,
    lambda_sr_global,
    lambda_sr_value,
    maximize_lambda_sr_at_input,
)
from bcbounds.objectives import InfoFunctional, SharedInputObjective, ent_terms, merge_terms
from bcbounds.regions import (
    ProductAuxiliary,
    RateRegionPolytope,
    UvAuxiliary,
    build_region,
    evaluate_uv_point,
    region_support,
    uv_sum_rate,
)
from bcbounds.search import SearchConfig, project_blocks, simplex_grid

# a law over two inputs, where the worked example's components have four
TWO_INPUTS = np.full((1, 1, 1, 2), 0.5)
THREE_INPUTS = np.full((1, 1, 1, 3), 1 / 3)


def _support(weights, fix_r0):
    """A region support search; its checks run before the search starts."""
    return region_support(
        product_channel(), "semi_deterministic", weights, SearchConfig(2, 20, 0), fix_r0=fix_r0
    )


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
    "channel_nan": (
        lambda: Channel(np.array([[[np.nan, 1.0]]])),
        "non-finite channel entry nan",
    ),
    "aux_entry": (
        lambda: AuxiliaryJoint(np.array([[[[1.1, -0.1]]]])),
        "negative entry -0.1 in auxiliary joint",
    ),
    "aux_nan": (
        lambda: AuxiliaryJoint(np.array([[[[np.nan, 1.0]]]])),
        "non-finite entry nan in auxiliary joint",
    ),
    "input_law_entry": (
        lambda: maximize_lambda_sr_at_input(
            component("z"), 0.5, [1.1, -0.1, 0.0, 0.0], SearchConfig(1, 1)
        ),
        "negative entry -0.1 in input law",
    ),
    "input_law_sum": (
        lambda: maximize_lambda_sr_at_input(component("z"), 0.5, [0.5] * 4, SearchConfig(1, 1)),
        "input law sums to 2.0",
    ),
    "lambda_high": (
        lambda: lambda_sr_value(component("z"), 1.5, component_branch_aux("z", "steep")),
        "lambda must lie in [0, 1], got 1.5",
    ),
    "lambda_nan": (
        lambda: lambda_sr_global(component("z"), np.nan, SearchConfig(1, 1)),
        "lambda must lie in [0, 1], got nan",
    ),
    "marton_alphabet": (
        lambda: lambda_sr_value(component("z"), 0.5, AuxiliaryJoint(TWO_INPUTS)),
        "auxiliary input alphabet mismatch",
    ),
    "uv_alphabet": (
        lambda: evaluate_uv_point(component("z"), UvAuxiliary(TWO_INPUTS[0])),
        "UV auxiliary input alphabet mismatch",
    ),
    "uv_seed_alphabet": (
        lambda: uv_sum_rate(
            component("z"), SearchConfig(1, 5, 0), extra_seeds=[np.full((2, 2, 3), 1 / 12)]
        ),
        "UV auxiliary input alphabet mismatch",
    ),
    "uv_seed_sum": (
        lambda: uv_sum_rate(
            component("z"), SearchConfig(1, 5, 0), extra_seeds=[np.ones((2, 2, 4))]
        ),
        "UV auxiliary sums to 16.0",
    ),
    "support_seed_alphabet": (
        lambda: region_support(
            product_channel(),
            "semi_deterministic",
            (0, 1, 1),
            SearchConfig(1, 5, 0),
            extra_seeds=[ProductAuxiliary(*[AuxiliaryJoint(THREE_INPUTS)] * 2)],
            fix_r0=0.0,
        ),
        "component auxiliary input alphabet mismatch",
    ),
    "region_alphabet": (
        lambda: build_region(
            ProductChannel(component("y"), component("z")),
            ProductAuxiliary(AuxiliaryJoint(TWO_INPUTS), AuxiliaryJoint(TWO_INPUTS)),
            "product_outer",
        ),
        "component auxiliary input alphabet mismatch",
    ),
    "receiver": (
        lambda: is_deterministic(component("y"), "x"),
        "receiver must be 'y' or 'z', got 'x'",
    ),
    "pin_negative": (
        lambda: _support((1, 1, 1), -1.0),
        "fix_r0 must be finite and nonnegative, got -1.0",
    ),
    "pin_nan": (lambda: _support((1, 1, 1), np.nan), "fix_r0 must be finite and nonnegative, got nan"),
    "pin_inf": (lambda: _support((1, 1, 1), np.inf), "fix_r0 must be finite and nonnegative, got inf"),
    "weights_nan": (
        lambda: _support((np.nan, 1, 1), None),
        "weights must be finite, got [nan, 1.0, 1.0]",
    ),
    "polytope_pin": (
        lambda: RateRegionPolytope([((1, 1, 1), 1.0)], "product_outer").support((0, 1, 1), -0.5),
        "fix_r0 must be finite and nonnegative, got -0.5",
    ),
    "px_length": (
        lambda: SharedInputObjective(
            [InfoFunctional("ux", (2, 4), [ent_terms("u")])], [1.0], [0.5] * 2
        ),
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
    "block_sizes": (
        lambda: project_blocks(np.arange(10.0) / 10, [5]),
        "block sizes [5] do not add up to 10",
    ),
    "block_empty": (
        lambda: project_blocks([0.2, 0.3, 0.5], [0, 3]),
        "block 0 has size 0, below 1",
    ),
    "block_negative_first": (
        lambda: project_blocks([0.2, 0.3, 0.5], [-1, 4]),
        "block 0 has size -1, below 1",
    ),
    "block_negative_last": (
        lambda: project_blocks([0.2, 0.3, 0.5], [4, -1]),
        "block 1 has size -1, below 1",
    ),
    "empty_grid": (lambda: next(simplex_grid(0, 1)), "dim and resolution must be positive"),
    "iters_nan": (
        lambda: SearchConfig(2, float("nan"), 0),
        "max_iters must be an integer, got nan",
    ),
    "restarts_float": (lambda: SearchConfig(2.5, 10, 0), "restarts must be an integer, got 2.5"),
    "seed_float": (lambda: SearchConfig(2, 10, 1.5), "seed must be an integer, got 1.5"),
    "restarts_bool": (lambda: SearchConfig(True, 10, 0), "restarts must be an integer, got True"),
}


@pytest.mark.parametrize("name", CASES)
def test_input_check_raises_its_message(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
