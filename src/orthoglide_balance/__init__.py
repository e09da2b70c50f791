"""COM-trajectory planning and shaking-force analysis for the Orthoglide
parallel manipulator.

The toolkit plans rest-to-rest motions two ways: driving the platform along a
straight line under a quintic profile (the conventional strategy), or driving
the common center of mass of the moving links along a straight line under a
bang-bang profile, which lowers the peak COM acceleration and with it the
shaking force transmitted to the frame.  A dynamics layer quantifies both
strategies and a CLI runs whole scenarios to CSV.

The package exports the parameter types, the two planners, the load
evaluation and the scenario front end.  The `(..., 3)` kernels stay public in
their own modules (``orthoglide_balance.geometry.inverse_kinematics``,
``orthoglide_balance.mass_model.com_of_pose``, ...).
"""

from .errors import (
    ConfigError,
    InfeasiblePoseError,
    KinematicsError,
    PlanningError,
    SolverError,
)
from .geometry import GeometryParams
from .mass_model import MassParams
from .planner import (
    MODE_COM_LINE,
    MODE_PLATFORM_LINE,
    PLAN_MODES,
    PlanRequest,
    plan_com_line,
    plan_platform_line,
)
from .dynamics import compare, evaluate
from .config import ScenarioConfig, default_config, load_config, validate_config
from .cli import run_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GeometryParams",
    "InfeasiblePoseError",
    "KinematicsError",
    "MassParams",
    "MODE_COM_LINE",
    "MODE_PLATFORM_LINE",
    "PLAN_MODES",
    "PlanRequest",
    "PlanningError",
    "ScenarioConfig",
    "SolverError",
    "compare",
    "default_config",
    "evaluate",
    "load_config",
    "plan_com_line",
    "plan_platform_line",
    "run_scenario",
    "validate_config",
]
