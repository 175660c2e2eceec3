"""Exact secant/tangent composition on cubic surfaces and related experiments."""

from .geometry import (
    CubicForm,
    Field,
    ProjPoint,
    RATIONALS,
    eval_form,
    gradient,
    line_through,
    meet,
    normalize,
)
from .surface import (
    CubicSurface,
    height,
    on_tangent_section,
    secant_compose,
    surface_point,
)
from .enumeration import (
    PointRegistry,
    brute_force_oracle,
    enumerate_points,
    load_registry,
    save_registry,
)
from .decompose import (
    CompositionTable,
    DecompositionReport,
    Scheme,
    build_report,
    build_table,
    render_scheme,
    strong_decompositions,
    weak_closure,
)
from .planecubic import PlaneCubic, cubic_compose, group_add
from .splitplane import (
    BlowupModel,
    check_general_position,
    cubic_system_basis,
    embed,
    modified_compose,
    plane_closure,
    quaternary_star,
    recover_cubic_equation,
    verify_claim1,
)

__version__ = "0.1.0"
