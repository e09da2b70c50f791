"""Exception types shared across the toolkit."""


class InfeasiblePoseError(ValueError):
    """Platform pose lies outside the reachable workspace.

    ``axis`` names the most violated prismatic axis ("x", "y" or "z") of the
    first offending pose and ``radicand`` holds its negative radicand value
    in m^2.  For a batch of poses, ``index`` is the row of the first
    offending pose (counted over the flattened leading dimensions); it is
    None for a single pose.
    """

    def __init__(self, message, axis=None, radicand=None, index=None):
        super().__init__(message)
        self.axis = axis
        self.radicand = radicand
        self.index = index


class KinematicsError(ValueError):
    """A platform/joint state violates the rigid-link constraints."""


class SolverError(RuntimeError):
    """Newton iteration failed; carries the final residual and iteration count."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class PlanningError(RuntimeError):
    """Trajectory planning failed; carries the mode and the time of failure."""

    def __init__(self, message, mode=None, t=None):
        super().__init__(message)
        self.mode = mode
        self.t = t


class ConfigError(ValueError):
    """Parameters or a scenario failed validation; ``violations`` lists them all."""

    def __init__(self, violations):
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(f"invalid configuration:\n{lines}")
        self.violations = list(violations)
