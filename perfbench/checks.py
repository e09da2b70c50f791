"""Output checks for one finished `run`, and the analytic peak shaking force.

The checker reads only the files the program wrote.  The reference values it
compares against (endpoint poses, the straight COM line, the analytic peak
force) come from the scenario itself through the closed-form COM model in
model.py.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from model import POSE_GAIN, ROOT_GAIN, TOTAL_MASS, com, radicands
from workloads import COM

POSE_TOL = 1e-9      # m, endpoint poses
STRAIGHT_TOL = 1e-8  # m, COM-line straightness (acceptance criterion c06)
PEAK_RTOL = 1e-12    # the CSV carries 15 significant digits


def com_line_peak_force(sc):
    """Bang-bang COM line: |F| = M * 4|D| / t_f^2 on every sample."""
    d = com(sc.p_f, sc.s) - com(sc.p_i, sc.s)
    return TOTAL_MASS * 4.0 * float(np.linalg.norm(d)) / sc.t_f**2


def platform_line_peak_force(sc, t):
    """Largest M*|S''(t_k)| over the sample times of a quintic platform line.

    S'' comes from exact differentiation of the closed-form COM along
    p(t) = p_i + sigma(t) D; no finite differences.
    """
    p_i = np.asarray(sc.p_i)
    dp = np.asarray(sc.p_f) - p_i
    tau = np.asarray(t) / sc.t_f
    sig = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    dsig = 30.0 * tau**2 * (1.0 - tau) ** 2 / sc.t_f
    ddsig = 60.0 * tau * (1.0 - 3.0 * tau + 2.0 * tau**2) / sc.t_f**2
    p = p_i + np.multiply.outer(sig, dp)
    v = np.multiply.outer(dsig, dp)
    a = np.multiply.outer(ddsig, dp)
    # radicand r_i = L^2 - sum_{j != i} p_j^2 and its time derivatives
    r = radicands(p)
    dr = -2.0 * (np.sum(p * v, axis=1, keepdims=True) - p * v)
    ddr = -2.0 * (np.sum(v * v + p * a, axis=1, keepdims=True) - (v * v + p * a))
    q = np.sqrt(r)
    ddq = ddr / (2.0 * q) - dr**2 / (4.0 * q**3)
    accel = ROOT_GAIN * np.asarray(sc.s) * ddq + POSE_GAIN * a
    return TOTAL_MASS * float(np.max(np.linalg.norm(accel, axis=1)))


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def check_run(sc, out_dir, csv_header, expected_rows, reference_mode):
    """Check every artifact of one successful run.

    Returns ``(problems, samples, csv_bytes, force_rel_err)``: the list of
    failed checks (empty when the output is correct), the number of CSV rows
    over all modes, the CSV size in bytes, and the relative error of the
    reported peak force of ``reference_mode`` against its analytic value.
    """
    out = Path(out_dir)
    problems = []
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if sorted(summary.get("modes", {})) != sorted(sc.modes):
        return [f"summary.json modes {sorted(summary.get('modes', {}))} != {sorted(sc.modes)}"], 0, 0, None
    samples = csv_bytes = 0
    force_rel_err = None
    for mode in sc.modes:
        path = out / f"{mode}.csv"
        csv_bytes += path.stat().st_size
        header, data = _read_csv(path)
        samples += len(data)
        if header != csv_header:
            problems.append(f"{mode}: CSV header differs from cli.CSV_HEADER")
        if data.shape != (expected_rows, 18):
            problems.append(f"{mode}: CSV shape {data.shape}, expected ({expected_rows}, 18)")
            continue
        if not np.all(np.isfinite(data)):
            problems.append(f"{mode}: non-finite values in the CSV")
            continue
        for row, want, name in ((0, sc.p_i, "p_i"), (-1, sc.p_f, "p_f")):
            err = float(np.max(np.abs(data[row, 1:4] - np.asarray(want))))
            if err > POSE_TOL:
                problems.append(f"{mode}: pose row {row} differs from {name} by {err:.3g} m")
        peaks = summary["modes"][mode]
        for col, key in ((13, "peak_force_N"), (17, "peak_moment_Nm")):
            got, want = peaks[key], float(np.max(data[:, col]))
            if not math.isclose(got, want, rel_tol=PEAK_RTOL, abs_tol=1e-300):
                problems.append(f"{mode}: summary {key} = {got!r}, CSV column max = {want!r}")
        if mode == COM:
            s_i, s_f = com(sc.p_i, sc.s), com(sc.p_f, sc.s)
            d = s_f - s_i
            rel = data[:, 7:10] - s_i
            off = rel - np.outer(rel @ d / (d @ d), d)
            dev = float(np.max(np.linalg.norm(off, axis=1)))
            if dev > STRAIGHT_TOL:
                problems.append(f"{mode}: COM leaves the straight line by {dev:.3g} m")
        if mode == reference_mode:
            if mode == COM:
                exact = com_line_peak_force(sc)
            else:
                exact = platform_line_peak_force(sc, data[:, 0])
            force_rel_err = abs(peaks["peak_force_N"] - exact) / exact
    return problems, samples, csv_bytes, force_rel_err


def digest(out_dir):
    """SHA-256 over the names and bytes of every file of one output directory."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
