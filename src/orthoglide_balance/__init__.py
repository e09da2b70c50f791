"""COM-trajectory planning and shaking-force analysis for the Orthoglide
parallel manipulator.

The toolkit plans rest-to-rest motions two ways: driving the platform along a
straight line under a quintic profile (the conventional strategy), or driving
the common center of mass of the moving links along a straight line under a
bang-bang profile, which lowers the peak COM acceleration and with it the
shaking force transmitted to the frame.  A dynamics layer quantifies both
strategies and a CLI runs whole scenarios to CSV.
"""

from .errors import (
    ConfigError,
    InfeasiblePoseError,
    KinematicsError,
    PlanningError,
    SolverError,
)
from .geometry import (
    GeometryParams,
    JointPointSet,
    forward_kinematics,
    inverse_kinematics,
    is_feasible,
    joint_points,
    radicands,
    sqrt_radicands,
)
from .mass_model import (
    LumpedPointSet,
    MassParams,
    com_closed_form,
    com_from_points,
    com_of_pose,
    com_pose_jacobian,
    lumped_points,
)
from .profiles import (
    BANG_BANG,
    QUINTIC,
    ProfileSpec,
    bang_bang_scalar,
    peak_acceleration,
    quintic_scalar,
)
from .planner import (
    MODE_COM_LINE,
    MODE_PLATFORM_LINE,
    PLAN_MODES,
    PlanRequest,
    Trajectory,
    plan_com_line,
    plan_platform_line,
    solve_com_waypoint,
    time_grid,
)
from .dynamics import (
    ComparisonReport,
    ShakingForceSeries,
    ShakingMomentSeries,
    ShakingSummary,
    compare,
    evaluate,
    second_time_derivative,
    shaking_force_series,
    shaking_moment_series,
    summarize,
)
from .config import (
    ScenarioConfig,
    config_from_dict,
    default_config,
    load_config,
    save_config,
    validate_config,
)
from .cli import run_scenario

__version__ = "0.1.0"

__all__ = [
    "BANG_BANG",
    "ComparisonReport",
    "ConfigError",
    "GeometryParams",
    "InfeasiblePoseError",
    "JointPointSet",
    "KinematicsError",
    "LumpedPointSet",
    "MassParams",
    "MODE_COM_LINE",
    "MODE_PLATFORM_LINE",
    "PLAN_MODES",
    "PlanRequest",
    "PlanningError",
    "ProfileSpec",
    "QUINTIC",
    "ScenarioConfig",
    "ShakingForceSeries",
    "ShakingMomentSeries",
    "ShakingSummary",
    "SolverError",
    "Trajectory",
    "bang_bang_scalar",
    "com_closed_form",
    "com_from_points",
    "com_of_pose",
    "com_pose_jacobian",
    "compare",
    "config_from_dict",
    "default_config",
    "evaluate",
    "forward_kinematics",
    "inverse_kinematics",
    "is_feasible",
    "joint_points",
    "load_config",
    "lumped_points",
    "peak_acceleration",
    "plan_com_line",
    "plan_platform_line",
    "quintic_scalar",
    "radicands",
    "run_scenario",
    "save_config",
    "second_time_derivative",
    "shaking_force_series",
    "shaking_moment_series",
    "solve_com_waypoint",
    "sqrt_radicands",
    "summarize",
    "time_grid",
    "validate_config",
]
