"""Scenario configuration: JSON schema, validation and the shipped default.

A scenario bundles the mechanism geometry, the link masses, the motion
endpoints and timing, and the planning modes to run.  The file format is
plain JSON:

    {
      "geometry": {"L": 0.31, "l": 0.1, "s_x": 1, "s_y": 1, "s_z": 1},
      "masses": {"m1": 0.396, "m2": 0.248, "m3": 0.905},
      "trajectory": {"p_i": [0, 0, 0], "p_f": [-0.1, 0.07, -0.11],
                     "t_f": 1.0, "dt": 0.001},
      "modes": ["platform_line_quintic", "com_line_bangbang"],
      "output_dir": "out"
    }

All quantities are SI (meters, seconds, kilograms).
"""

import json
from dataclasses import dataclass

from .errors import ConfigError
from .geometry import GeometryParams
from .mass_model import MassParams
from .planner import PLAN_MODES, PlanRequest


@dataclass(frozen=True)
class ScenarioConfig:
    """Raw scenario values as read from a config file.

    Kept unvalidated so that validate_config can report every violation with
    its field path; use the *_params builders only after validation passes.
    """

    L: float
    l: float
    s_x: int
    s_y: int
    s_z: int
    m1: float
    m2: float
    m3: float
    p_i: tuple
    p_f: tuple
    t_f: float
    dt: float
    modes: tuple
    output_dir: str = "out"

    def geometry_params(self) -> GeometryParams:
        return GeometryParams(L=self.L, l=self.l, s=(self.s_x, self.s_y, self.s_z))

    def mass_params(self) -> MassParams:
        return MassParams(m1=self.m1, m2=self.m2, m3=self.m3)

    def plan_request(self) -> PlanRequest:
        return PlanRequest(p_i=self.p_i, p_f=self.p_f, t_f=self.t_f, dt=self.dt,
                           geometry=self.geometry_params(), masses=self.mass_params())

    def to_dict(self) -> dict:
        return {
            "geometry": {"L": self.L, "l": self.l,
                         "s_x": self.s_x, "s_y": self.s_y, "s_z": self.s_z},
            "masses": {"m1": self.m1, "m2": self.m2, "m3": self.m3},
            "trajectory": {"p_i": list(self.p_i), "p_f": list(self.p_f),
                           "t_f": self.t_f, "dt": self.dt},
            "modes": list(self.modes),
            "output_dir": self.output_dir,
        }


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from the nested JSON structure.

    Raises KeyError/TypeError for structurally broken input; value-level
    problems are left for validate_config.
    """
    geo = d["geometry"]
    masses = d["masses"]
    traj = d["trajectory"]
    return ScenarioConfig(
        L=float(geo["L"]), l=float(geo["l"]),
        s_x=geo["s_x"], s_y=geo["s_y"], s_z=geo["s_z"],
        m1=float(masses["m1"]), m2=float(masses["m2"]), m3=float(masses["m3"]),
        p_i=tuple(float(v) for v in traj["p_i"]),
        p_f=tuple(float(v) for v in traj["p_f"]),
        t_f=float(traj["t_f"]), dt=float(traj["dt"]),
        modes=tuple(d.get("modes", list(PLAN_MODES))),
        output_dir=str(d.get("output_dir", "out")),
    )


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_config() -> ScenarioConfig:
    """The shipped default scenario (benchmark prototype parameters)."""
    return ScenarioConfig(
        L=0.31, l=0.1, s_x=1, s_y=1, s_z=1,
        m1=0.396, m2=0.248, m3=0.905,
        p_i=(0.0, 0.0, 0.0), p_f=(-0.1, 0.07, -0.11),
        t_f=1.0, dt=0.001,
        modes=tuple(PLAN_MODES),
        output_dir="out",
    )


def _section(violations, name, build):
    """Build a parameter dataclass; on ConfigError, record its violations
    under the section's field path and return None."""
    try:
        return build()
    except ConfigError as exc:
        violations.extend(f"{name}.{item}" for item in exc.violations)
        return None


def validate_config(cfg: ScenarioConfig) -> list:
    """Check every invariant; return the list of violations (empty when ok).

    The geometry, mass and trajectory rules are those of GeometryParams,
    MassParams and PlanRequest; the modes list and output_dir are checked
    here.  Messages name the offending field path so a CLI user can fix the
    file.
    """
    v = []
    geometry = _section(v, "geometry", cfg.geometry_params)
    _section(v, "masses", cfg.mass_params)
    v.extend(f"trajectory.{item}" for item in
             PlanRequest.violations(cfg.p_i, cfg.p_f, cfg.t_f, cfg.dt, geometry))

    if not cfg.modes:
        v.append("modes must not be empty")
    for mode in cfg.modes:
        if mode not in PLAN_MODES:
            v.append(f"modes: unknown mode {mode!r}; expected a subset of {list(PLAN_MODES)}")
    if len(set(cfg.modes)) != len(cfg.modes):
        v.append("modes must not contain duplicates")

    if not isinstance(cfg.output_dir, str) or not cfg.output_dir:
        v.append("output_dir must be a non-empty string")
    return v
