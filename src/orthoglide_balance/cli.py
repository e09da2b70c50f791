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


# The CSV formatter.  Each value gets a 28-byte cell of seven 4-byte words:
# sign, "d.dd", three 4-digit groups, "e±XX", separator; unused bytes are 0
# and dropped at the end.  The byte tables are viewed as uint32 so that one
# gather fills a word.
_CELL = 28
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_n = np.arange(10000)
_GROUP = (np.stack([_n // 1000, _n // 100 % 10, _n // 10 % 10, _n % 10], axis=1)
          + ord("0")).astype(np.uint8)
_LEAD = _GROUP[:1000].copy()
_LEAD[:, 0] = _LEAD[:, 1]
_LEAD[:, 1] = ord(".")
_e = np.arange(-8, 16)
_EXPONENT = np.stack([np.full(_e.size, ord("e")), np.where(_e < 0, ord("-"), ord("+")),
                      ord("0") + abs(_e) // 10, ord("0") + abs(_e) % 10], axis=1).astype(np.uint8)
_GROUP, _LEAD, _EXPONENT = (t.view(np.uint32).ravel() for t in (_GROUP, _LEAD, _EXPONENT))
del _n, _e
# Rows formatted at a time: small enough that the temporaries stay in cache.
_CHUNK_ROWS = 512


def _scaled(a, e):
    """a * 10**(14 - e) as the exact sum hi + lo (Dekker's two-product)."""
    k = 14 - e
    hi = a * _POW10.take(k)
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _format_rows(table) -> bytes:
    """The rows of ``table``, each value as ``'%.14e' % x``, with ',' between
    values and '\\n' after each row.

    For 1e-8 <= |x| < 1e15 the 15-digit mantissa is x * 10**(14 - e), formed
    exactly and rounded half to even; 10**k is exact for k <= 22.  ±0 takes
    its sign from the sign bit.  Other values (subnormal, tiny, huge, nan,
    ±inf) are formatted one by one with ``%``.
    """
    x = table.ravel()
    a = np.abs(x)
    zero = a == 0.0
    fast = ((a >= 1e-8) & (a < 1e15)) | zero
    a = np.where(fast & ~zero, a, 1.0)
    # log10 may miss a power of ten by one; the exact product then lies
    # outside [1e14, 1e15) and the row is redone once with e ± 1
    e = np.clip(np.floor(np.log10(a)), -8, 14).astype(np.intp)
    hi, lo = _scaled(a, e)
    low = (hi < 1e14) | ((hi == 1e14) & (lo < 0))
    high = (hi > 1e15) | ((hi == 1e15) & (lo >= 0))
    redo = np.flatnonzero(low | high)
    if redo.size:
        e[redo] += np.where(high[redo], 1, -1)
        hi[redo], lo[redo] = _scaled(a[redo], e[redo])
    # hi - floor(hi) - 0.5 is exact and, when nonzero, outweighs |lo|
    m = np.floor(hi)
    d = hi - m - 0.5
    up = (d > 0) | ((d == 0) & (lo > 0))
    tie = np.flatnonzero((d == 0) & (lo == 0))
    up[tie] = m[tie] % 2 == 1
    m += up
    carry = m == 1e15
    m[carry] = 1e14
    e += carry
    m[zero] = 0.0
    e[zero] = 0
    # 15 digits as 3|4|4|4; every quotient is exact in float64
    g1 = np.floor(m / 1e12)
    m -= g1 * 1e12
    g2 = np.floor(m / 1e8)
    m -= g2 * 1e8
    g3 = np.floor(m / 1e4)
    m -= g3 * 1e4
    cells = np.zeros((x.size, _CELL // 4), np.uint32)
    for word, lookup, group in ((1, _LEAD, g1), (2, _GROUP, g2), (3, _GROUP, g3), (4, _GROUP, m)):
        cells[:, word] = lookup.take(group.astype(np.intp))
    cells[:, 5] = _EXPONENT.take(e + 8)
    cells = cells.view(np.uint8)
    cells[:, 3] = np.signbit(x) * np.uint8(ord("-"))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.14e" % v for v in x[slow].tolist()], dtype="S24")
        cells[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    cells = cells.reshape(table.shape + (_CELL,))
    cells[:, :-1, 24] = ord(",")
    cells[:, -1, 24] = ord("\n")
    cells = cells.ravel()
    return cells[cells != 0].tobytes()


def write_trajectory_csv(path, traj, force_series, moment_series) -> None:
    """One row per sample, each value formatted exactly as C/Python
    ``'%.14e' % x``: 15 significant digits, correctly rounded from the exact
    binary value, ties to even.

    Values with 1e-8 <= |x| < 1e15, and ±0, are formatted by a numpy kernel
    over blocks of rows; subnormal, smaller or larger values, nan and ±inf
    (which includes every 3-digit exponent) fall back to ``%`` one by one.
    """
    table = np.column_stack([
        traj.t, traj.platform, traj.joints, traj.com,
        force_series.force, np.linalg.norm(force_series.force, axis=1),
        moment_series.moment, np.linalg.norm(moment_series.moment, axis=1),
    ])
    with open(path, "wb") as fh:
        fh.write((CSV_HEADER + "\n").encode("utf-8"))
        for start in range(0, len(table), _CHUNK_ROWS):
            fh.write(_format_rows(table[start:start + _CHUNK_ROWS]))


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
