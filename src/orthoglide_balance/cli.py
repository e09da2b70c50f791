"""Batch front end: validate a scenario, run its planning modes, write CSVs.

Per mode one CSV time series is written, plus a human-readable summary.txt
and a machine-readable summary.json.  Output is deterministic: identical
configs produce byte-identical files.

Usage:
    orthoglide-balance run [--config cfg.json] [--out DIR] [--mode platform|com|both]
    orthoglide-balance validate --config cfg.json

Exit codes: 0 success, 1 validation or I/O error, 2 planning/solver error.

A reduction percentage whose unbalanced peak lies below the roundoff floor of
its finite differences is undefined: null in summary.json, "undefined" in
summary.txt and on stdout.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, default_config, load_config, validate_config
from .dynamics import compare, evaluate
from .errors import ConfigError, PlanningError, SolverError
from .planner import MODE_COM_LINE, MODE_PLATFORM_LINE, plan_com_line, plan_platform_line

CSV_HEADER = ("t,p_x,p_y,p_z,ρ_x,ρ_y,ρ_z,S_x,S_y,S_z,"
              "Fsh_x,Fsh_y,Fsh_z,|Fsh|,Msh_x,Msh_y,Msh_z,|Msh|")

_PLANNERS = {
    MODE_PLATFORM_LINE: plan_platform_line,
    MODE_COM_LINE: plan_com_line,
}


def write_trajectory_csv(path, traj, force_series, moment_series) -> None:
    """One row per sample, each value with 15 significant digits in fixed
    scientific notation."""
    table = np.column_stack([
        traj.t, traj.platform, traj.joints, traj.com,
        force_series.force, np.linalg.norm(force_series.force, axis=1),
        moment_series.moment, np.linalg.norm(moment_series.moment, axis=1),
    ])
    row = ",".join(["%.14e"] * table.shape[1]) + "\n"
    text = CSV_HEADER + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _summary_dict(cfg: ScenarioConfig, summaries: dict, report) -> dict:
    out = {
        "scenario": cfg.to_dict(),
        "modes": {
            mode: {
                "peak_force_N": s.peak_force,
                "t_peak_force_s": s.t_peak_force,
                "rms_force_N": s.rms_force,
                "peak_moment_Nm": s.peak_moment,
                "t_peak_moment_s": s.t_peak_moment,
                "rms_moment_Nm": s.rms_moment,
            }
            for mode, s in summaries.items()
        },
    }
    if report is not None:
        out["force_reduction_pct"] = report.force_reduction_pct
        out["moment_reduction_pct"] = report.moment_reduction_pct
    return out


def _pct(value) -> str:
    return "undefined" if value is None else f"{value:.4g} %"


def _summary_text(cfg: ScenarioConfig, summaries: dict, report) -> str:
    lines = [
        "orthoglide-balance scenario summary",
        f"  endpoints: p_i = {list(cfg.p_i)} m, p_f = {list(cfg.p_f)} m",
        f"  duration: t_f = {cfg.t_f} s, dt = {cfg.dt} s",
    ]
    for mode, s in summaries.items():
        lines += [
            f"mode {mode}:",
            f"  peak |Fsh| = {s.peak_force:.6g} N at t = {s.t_peak_force:.6g} s",
            f"  rms  |Fsh| = {s.rms_force:.6g} N",
            f"  peak |Msh| = {s.peak_moment:.6g} N·m at t = {s.t_peak_moment:.6g} s",
            f"  rms  |Msh| = {s.rms_moment:.6g} N·m",
        ]
    if report is not None:
        lines += [
            f"shaking force reduction (peak):  {_pct(report.force_reduction_pct)}",
            f"shaking moment reduction (peak): {_pct(report.moment_reduction_pct)}",
        ]
    return "\n".join(lines) + "\n"


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> dict:
    """Validate, plan every requested mode, evaluate loads, write artifacts.

    Returns the summary dict (also written to summary.json).  Raises
    ConfigError on validation failure and PlanningError/SolverError when a
    mode cannot be planned.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    req = cfg.plan_request()
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    summaries = {}
    for mode in cfg.modes:
        traj = _PLANNERS[mode](req)
        force, moment, summary = evaluate(traj, req.geometry, req.masses)
        write_trajectory_csv(out / f"{mode}.csv", traj, force, moment)
        summaries[mode] = summary

    report = None
    if MODE_PLATFORM_LINE in summaries and MODE_COM_LINE in summaries:
        report = compare(summaries[MODE_PLATFORM_LINE], summaries[MODE_COM_LINE])

    summary = _summary_dict(cfg, summaries, report)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    (out / "summary.txt").write_text(
        _summary_text(cfg, summaries, report), encoding="utf-8", newline="\n")
    return summary


_MODE_FLAGS = {
    "platform": (MODE_PLATFORM_LINE,),
    "com": (MODE_COM_LINE,),
    "both": (MODE_PLATFORM_LINE, MODE_COM_LINE),
}


def _load(args) -> ScenarioConfig:
    if args.config is None:
        return default_config()
    return load_config(args.config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orthoglide-balance",
        description="Plan Orthoglide motions and evaluate the shaking loads they "
                    "transmit to the frame.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="plan the scenario and write CSV/summary artifacts")
    p_run.add_argument("--config", help="scenario JSON (defaults to the built-in scenario)")
    p_run.add_argument("--out", help="output directory (overrides output_dir in the config)")
    p_run.add_argument("--mode", choices=sorted(_MODE_FLAGS),
                       help="restrict which planning modes run")

    p_val = sub.add_parser("validate", help="validate a scenario file and report violations")
    p_val.add_argument("--config", required=True, help="scenario JSON to check")

    args = parser.parse_args(argv)

    try:
        cfg = _load(args)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        violations = validate_config(cfg)
        if violations:
            for item in violations:
                print(f"violation: {item}", file=sys.stderr)
            return 1
        print("config ok")
        return 0

    if args.mode is not None:
        cfg = replace(cfg, modes=_MODE_FLAGS[args.mode])
    try:
        summary = run_scenario(cfg, out_dir=args.out)
    except ConfigError as exc:
        for item in exc.violations:
            print(f"violation: {item}", file=sys.stderr)
        return 1
    except (PlanningError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1

    for mode, s in summary["modes"].items():
        print(f"{mode}: peak |Fsh| = {s['peak_force_N']:.6g} N, "
              f"peak |Msh| = {s['peak_moment_Nm']:.6g} N·m")
    if "force_reduction_pct" in summary:
        print(f"force reduction:  {_pct(summary['force_reduction_pct'])}")
        print(f"moment reduction: {_pct(summary['moment_reduction_pct'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
