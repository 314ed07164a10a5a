"""Dirichlet-type norms and the bidisc Bergman norm of their lift,
de Branges-Rovnyak kernels, and composition-operator bound checks on the
unit disc."""

from .config import symbol_from_spec
from .errors import (
    ConfigError,
    ConvergenceError,
    DiscopError,
    ParamError,
    SymbolError,
)
from .kernels import (
    SupEstimate,
    SupSearchSettings,
    Verdict,
    estimate_sup,
)
from .norms import (
    NormResult,
    WeightParams,
    dirichlet_norm_sq_coeff,
    dirichlet_norm_sq_quad,
    double_integral_functional,
    validate_main_theorem_params,
)
from .operators import (
    BoundCheckReport,
    BoundCheckRow,
    ComposedFunction,
    RankReport,
    RankVerdict,
    bound_check,
    lift_norm_check,
    rank_sufficiency_check,
)
from .quadrature import (
    DiscRule,
    QuadratureSettings,
    build_disc_rule,
    refine_until,
)
from .series import TruncatedPowerSeries
from .symbols import (
    Blaschke,
    BoundaryPoint,
    FiniteBlaschke,
    Identity,
    MobiusAuto,
    Monomial,
    Polynomial,
    Rotation,
    SelfMapCheck,
    verify_self_map,
)

__version__ = "0.1.0"
