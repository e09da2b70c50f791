import orthoglide_balance

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
