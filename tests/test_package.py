import inspect

import orthoglide_balance
from orthoglide_balance import PLAN_MODES, cli, planner

PUBLIC = {
    "ConfigError", "InfeasiblePoseError", "KinematicsError", "PlanningError", "SolverError",
    "GeometryParams", "MassParams", "PlanRequest",
    "MODE_PLATFORM_LINE", "MODE_COM_LINE", "PLAN_MODES",
    "plan_platform_line", "plan_com_line", "evaluate", "compare",
    "ScenarioConfig", "default_config", "load_config", "validate_config", "run_scenario",
}


def test_public_surface():
    assert len(orthoglide_balance.__all__) == len(PUBLIC) == 20
    assert set(orthoglide_balance.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(orthoglide_balance, name) is not None


def test_benchmark_entry_points():
    # the scenario benchmark runs cli.main, checks rows against cli.CSV_HEADER
    # and planner.time_grid, traces the planners through cli._PLANNERS and
    # times the CSV writer as cli.write_trajectory_csv: a rename must fail
    # here rather than zero its ok_frac or drop a per-layer figure
    assert callable(cli.main)
    assert callable(cli.write_trajectory_csv)
    assert list(inspect.signature(cli.write_trajectory_csv).parameters) == [
        "path", "traj", "force_series", "moment_series"]
    assert cli.CSV_HEADER.startswith("t,")
    assert callable(planner.time_grid)
    assert tuple(cli._PLANNERS) == PLAN_MODES
