"""Exact cohomology pairings on symplectic torus quotients.

The engine works entirely from isolated fixed-point data: moment images,
integer tangent weights, and optional root systems.  Pairings are computed
by evaluating plans, formal integer combinations of (fixed point, oriented
flag) pairs, through weighted Segre class substitutions.  All arithmetic
is exact rational.
"""

from .errors import (
    ClassSyntaxError,
    DimensionMismatch,
    EmptyStage,
    IndexOutOfRange,
    ModelFormatError,
    ModelTooLarge,
    NoRootData,
    NotRegular,
    NotUnimodular,
    PlanFormatError,
    TorusLocError,
    UnknownFixedPoint,
    UnknownGenerator,
    Unsupported,
    ZeroConstantTerm,
)
from .localization import (
    OrientedFlag,
    Plan,
    PlanTerm,
    dump_plan,
    evaluate_plan,
    flag_split,
    lambda_flag,
    load_plan,
    stage_map,
    volume_class,
    weyl_correct,
)
from .model import (
    EquivariantClass,
    FixedPoint,
    TorusModel,
    build_cp_product,
    build_sphere_product,
    class_generator,
    load_model,
)
from .plans import CP2_VARIANTS, WallList, cp2_plan, expand_orbits, rank1_plan, wall_list
from .poly import MultiPoly, linear_substitute, poly_str, series_invert
from .weighted import (
    WeightedSpace,
    fiber_integrate_power,
    parse_weighted_space,
    ring_relation,
    weight_gcd,
    weighted_chern,
    weighted_segre,
)

__all__ = [name for name in dir() if not name.startswith("_")]
