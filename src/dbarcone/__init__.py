"""dbarcone: explicit solution operator for the dbar-equation on weighted
homogeneous complex varieties, with an empirical verification harness."""

__version__ = "0.1.0"

from .charts import Chart, build_chart
from .forms import (
    ZeroOneForm,
    bump_dbar_form,
    raw_bump_form,
    scale_form,
    zero_form,
)
from .measure import (
    LinkSample,
    SurfaceEstimate,
    dist_sigma_path,
    l2_norm_form,
    l2_norm_function,
    sample_link,
    surface_integral,
)
from .quadrature import (
    PlanarIntegrand,
    QuadratureParams,
    cauchy_transform,
    integrate_plane,
)
from .solver import (
    SolveResult,
    ThetaTransfer,
    solve,
    solve_l2,
    solve_scaled,
    solve_weighted_via_cone,
    theta_cone,
    theta_map,
    theta_pullback_form,
    truncation_radius,
)
from .variety import (
    SparsePolynomial,
    Variety,
    Weights,
    act,
    contains,
    is_regular,
    weighted_degree,
)
from .verify import (
    HolderReport,
    L2Report,
    ResidualReport,
    ScalingReport,
    dbar_residual,
    holder_report,
    l2_report,
    measure_scaling_check,
)

__all__ = [
    "Chart",
    "HolderReport",
    "L2Report",
    "LinkSample",
    "PlanarIntegrand",
    "QuadratureParams",
    "ResidualReport",
    "ScalingReport",
    "SolveResult",
    "SparsePolynomial",
    "SurfaceEstimate",
    "ThetaTransfer",
    "Variety",
    "Weights",
    "ZeroOneForm",
    "act",
    "build_chart",
    "bump_dbar_form",
    "cauchy_transform",
    "contains",
    "dbar_residual",
    "dist_sigma_path",
    "holder_report",
    "integrate_plane",
    "is_regular",
    "l2_norm_form",
    "l2_norm_function",
    "l2_report",
    "measure_scaling_check",
    "raw_bump_form",
    "sample_link",
    "scale_form",
    "solve",
    "solve_l2",
    "solve_scaled",
    "solve_weighted_via_cone",
    "surface_integral",
    "theta_cone",
    "theta_map",
    "theta_pullback_form",
    "truncation_radius",
    "weighted_degree",
    "zero_form",
]
