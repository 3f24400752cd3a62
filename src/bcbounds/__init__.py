"""Inner and outer capacity-bound computations for two-receiver
discrete memoryless broadcast channels."""

from .channel import (
    Channel,
    ClassReport,
    ProductChannel,
    classify,
    is_deterministic,
    is_more_capable,
    less_noisy_verdict,
    load_channel_file,
    save_channel_file,
)
from .counterexample import (
    analytic_minimum,
    analytic_product_curve,
    component,
    f_closed_form,
    lambda_curve_analytic,
    marton_on_product,
    product_channel,
    uv_on_product,
    uv_witness_auxiliary,
    verify_separation,
)
from .marton import (
    AuxiliaryJoint,
    Cardinalities,
    LambdaCurve,
    build_lambda_curve,
    check_factorization,
    check_min_max_equality,
    lambda_sr_global,
    lambda_sr_value,
    marton_sum_rate,
    maximize_lambda_sr_at_input,
)
from .regions import (
    REGION_KINDS,
    ProductAuxiliary,
    RateRegionPolytope,
    UvAuxiliary,
    UvPoint,
    build_region,
    class_notes,
    default_region_profiles,
    evaluate_uv_point,
    region_support,
    uv_sum_rate,
)
from .search import SearchConfig, maximize, simplex_grid

__version__ = "0.1.0"
