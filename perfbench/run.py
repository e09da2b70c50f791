"""Scenario benchmark for ``orthoglide-balance run``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bench_fine --seed 1 --seconds 30 --trace 0

The benchmark writes seeded scenario files, then runs each one through the
real entry point, ``orthoglide_balance.cli.main(["run", "--config", <file>,
"--out", <dir>])``, in this process, one scenario after another: a closed
loop with a single client and no worker threads.  Every run that exits 0 has
its artifacts checked (see checks.py); one scenario per workload runs twice
and its artifacts must be byte-identical.

Workloads (see workloads.py):
  bench_fine        the shipped scenario at dt = 1e-4, both modes (10,001
                    samples per mode); Newton inversion dominates
  platform_sweep    random endpoints within 0.9 L of every axis, all eight
                    branches, t_f in [0.5, 2] s, dt = 1 ms, platform mode
                    only: Newton never runs; 1 scenario in 10 uses a 1.5 ms
                    step that does not divide t_f (known crash, ROADMAP 5)
  com_coarse_sweep  random endpoints within 0.99 L, all branches, t_f in
                    [0.5, 2] s, dt = t_f/100, both modes: short scenarios,
                    long Newton steps near the workspace boundary

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics,
derived from spans recorded around every public function of each layer
(see spans.py).  Lines before it are a readable report, which also gives
the raw wall times.  End-to-end times are wall times rescaled by a speed
probe that runs during every timed region, because the host's speed swings
(see probe.py); the traced run also reports the raw wall times as
ungated ``wall.*`` figures, so that a rescaled gain can be checked against
them.  Runtime files go under ``.perfbench/`` in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# One client, no worker threads: BLAS is single-threaded.  Must happen before
# numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import check_run, digest  # noqa: E402
from probe import REF_S, SpeedProbe  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 11
WARMUP_S = 2.0
WARMUP_MAX_SCENARIOS = 20
OUTCOMES = ("ok", "exit1", "exit2", "uncaught", "bad_output")


@dataclass
class Record:
    index: int
    seconds: float       # wall time, probes excluded
    ref_seconds: float   # rescaled to the probe's reference speed
    cpu_seconds: float   # process CPU time, probes excluded
    kernel_s: float      # harmonic-mean probe kernel time during the run
    outcome: str
    message: str = ""
    samples: int = 0
    csv_bytes: int = 0
    force_rel_err: float = None


def machine_facts():
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    facts.update((var, os.environ.get(var)) for var in BLAS_VARS)
    return facts


def import_package():
    """Import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import orthoglide_balance"], cwd=ROOT, env=env,
                   capture_output=True, timeout=120, check=True)


def tail_of(times):
    """Highest percentile with at least ten samples beyond it, with its label.

    Runs with fewer than eleven samples have no such percentile; their
    maximum is reported instead and labelled so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max (n={n}: fewer than 11 scenarios, no percentile has ten beyond it)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} (10 of n={n} beyond it)"


class Bench:
    def __init__(self, cli, planner, workload, scenarios, work, tracer=None):
        self.cli, self.planner = cli, planner
        self.workload = workload
        self.scenarios = scenarios
        self.out = work / "out"
        self.tracer = tracer
        self.reference = None      # (scenario index, artifact digest)
        self.reruns_checked = 0
        self.warmup = []

    def run(self, sc, traced=False, scenario_id=-1):
        """Run one scenario through cli.main, time it, and classify the outcome."""
        if self.out.exists():
            shutil.rmtree(self.out)
        argv = ["run", "--config", str(sc.path), "--out", str(self.out)]
        log = io.StringIO()
        if traced:
            self.tracer.current_scenario = scenario_id
            self.tracer.install()
        probe = SpeedProbe()
        try:
            with probe, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = self.cli.main(argv)
        except Exception as exc:  # the benchmark must go on; a crash is a result
            rc, message = None, f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                self.tracer.uninstall()
        timing = (sc.index, probe.seconds, probe.ref_seconds, probe.cpu_seconds, probe.kernel_s)
        if rc is None:
            return Record(*timing, "uncaught", message)
        if rc != 0:
            last = (log.getvalue().strip().splitlines() or [""])[-1]
            return Record(*timing, f"exit{rc}" if rc in (1, 2) else "uncaught", last)
        return self.check(sc, Record(*timing, "ok"))

    def check(self, sc, rec):
        try:
            problems, rec.samples, rec.csv_bytes, rec.force_rel_err = check_run(
                sc, self.out, self.cli.CSV_HEADER, len(self.planner.time_grid(sc.t_f, sc.dt)),
                self.workload.reference_mode)
            artifacts = digest(self.out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems, artifacts = [f"unreadable output: {type(exc).__name__}: {exc}"], None
        if not problems:
            if self.reference is None:
                self.reference = (sc.index, artifacts)
            elif self.reference[0] == sc.index:
                self.reruns_checked += 1
                if artifacts != self.reference[1]:
                    problems.append("rerun output is not byte-identical (c10)")
        if problems:
            rec.outcome, rec.message = "bad_output", "; ".join(problems)
        return rec

    def warm_up(self):
        """Run scenarios untimed until WARMUP_S have passed and one succeeded.

        The first success is the reference that its timed rerun must match.
        """
        spent = 0.0
        for sc in self.scenarios[:WARMUP_MAX_SCENARIOS]:
            if spent >= WARMUP_S and self.reference is not None:
                break
            rec = self.run(sc)
            self.warmup.append(rec)
            spent += rec.seconds
        return spent

    def timed(self, budget):
        """Closed loop over the scenario pool until ``budget`` seconds of runs.

        Runs whole blocks, so every run sees the same mix of scenarios.
        """
        records, size = [], self.workload.block
        while sum(r.seconds for r in records) < budget:
            records += [self.run(self.scenarios[k % len(self.scenarios)])
                        for k in range(len(records), len(records) + size)]
        return records

    def traced(self, records):
        """Rerun the scenarios of ``records``, in order, with tracing on."""
        return [self.run(self.scenarios[r.index], traced=True, scenario_id=k)
                for k, r in enumerate(records)]


def samples_per_s(records, clock="ref_seconds"):
    seconds = sum(getattr(r, clock) for r in records)
    return sum(r.samples for r in records if r.outcome == "ok") / seconds


def ok_errors(records):
    return [r.force_rel_err for r in records if r.outcome == "ok"]


def end_to_end(records, setup_times):
    """End-to-end metrics; every time is rescaled to the probe's reference speed."""
    times = [r.ref_seconds for r in records]
    errs = ok_errors(records)
    tail, _ = tail_of(times)
    return {
        "setup_s": (statistics.median([ref for _, ref in setup_times]), "s"),
        "scenario_p50_s": (statistics.median(times), "s"),
        "scenario_tail_s": (tail, "s"),
        "samples_per_s": (samples_per_s(records), "1/s"),
        "ok_frac": (len(errs) / len(records), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        # p90 over successful scenarios: the single value on bench_fine, and
        # steady across seeds on the sweeps, where the maximum is not; the
        # maximum is the ungated per-layer figure force_rel_err_max.
        "force_rel_err": (float(np.percentile(errs, 90)) if errs else 1.0, "frac"),
    }


def wall_figures(records):
    """Ungated figures: the raw wall times, not rescaled, and the largest force error."""
    wall = [r.seconds for r in records]
    errs = ok_errors(records)
    return {
        "wall.scenario_p50_s": (statistics.median(wall), "s"),
        "wall.scenario_tail_s": (tail_of(wall)[0], "s"),
        "wall.samples_per_s": (samples_per_s(records, "seconds"), "1/s"),
        "force_rel_err_max": (max(errs) if errs else 1.0, "frac"),
    }


def failure_counts(records):
    return {outcome: sum(r.outcome == outcome for r in records) for outcome in OUTCOMES[1:]}


def report(args, facts, scenarios, setup_times, warmup_s, bench, records, metrics):
    """Readable lines naming every end-to-end metric, with its spread and wall time."""
    times = [r.ref_seconds for r in records]
    wall = [r.seconds for r in records]
    cpu = [r.cpu_seconds for r in records]
    kernel = [r.kernel_s for r in records]
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times[0],) * 3
    tail, tail_label = tail_of(times)
    setup_ref = [ref for _, ref in setup_times]
    fails = failure_counts(records)
    n_failed = sum(fails.values())
    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "# machine: " + " ".join(f"{k}={v}" for k, v in facts.items()),
        f"# closed loop, 1 client, in-process cli.main(['run', ...]); pool of {len(scenarios)} "
        f"scenario files, off-grid share {workloads.off_grid_share(scenarios):.2f}",
        f"# warm-up: {len(bench.warmup)} scenario(s), {warmup_s:.3f} s, not timed; "
        f"byte-identical reruns checked: {bench.reruns_checked}",
        f"# speed probe: kernel median {statistics.median(kernel) * 1e3:.4f} ms, range "
        f"{min(kernel) * 1e3:.4f}-{max(kernel) * 1e3:.4f} ms over {len(kernel)} scenarios; "
        f"times rescaled to {REF_S * 1e3:g} ms, [wall time, process CPU time]",
        f"setup_s          {statistics.median(setup_ref):.6f} s   "
        f"[{statistics.median([w for w, _ in setup_times]):.6f} s]  median of {len(setup_times)}, "
        f"range {min(setup_ref):.6f}-{max(setup_ref):.6f} s",
        f"scenario_p50_s   {statistics.median(times):.6f} s   "
        f"[{statistics.median(wall):.6f} s, {statistics.median(cpu):.6f} s]  "
        f"IQR {q1:.6f}-{q3:.6f} s, n={len(times)}",
        f"scenario_tail_s  {tail:.6f} s   [{tail_of(wall)[0]:.6f} s, {tail_of(cpu)[0]:.6f} s]  "
        f"{tail_label}",
        f"samples_per_s    {samples_per_s(records):.1f} 1/s   [{samples_per_s(records, 'seconds'):.1f} 1/s, "
        f"{samples_per_s(records, 'cpu_seconds'):.1f} 1/s]",
        f"failed_frac      {n_failed / len(records):.4f} frac  ({n_failed} of {len(records)}: "
        + ", ".join(f"{k}={v}" for k, v in fails.items()) + ")",
    ]
    n_ok = len(records) - n_failed
    errs = ok_errors(records)
    notes = {"force_rel_err": f"(p90 over {n_ok} successful scenarios, max "
                              f"{max(errs) if errs else float('nan'):.6g}: reported peak force of "
                              f"the {bench.workload.reference_mode} line vs its analytic value)"}
    for name in ("ok_frac", "peak_rss_mb", "force_rel_err"):
        value, unit = metrics[name]
        lines.append(f"{name:<16} {value:.6g} {unit}   {notes.get(name, '')}".rstrip())
    for r in records:
        if r.outcome != "ok":
            lines.append(f"# scenario {r.index}: {r.outcome}: {r.message}")
            break
    print("\n".join(lines))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orthoglide_balance" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthoglide_balance as program
    from orthoglide_balance import cli, planner

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # Drawing and screening the inputs is the benchmark's own work and is
        # not timed; set-up is writing the scenario files and importing the
        # package.
        specs = workloads.specs(args.workload, args.seed)
        setup_times = []  # (wall, rescaled) per repetition
        for _ in range(SETUP_REPEATS):
            with SpeedProbe() as probe:
                scenarios = workloads.write(specs, work / "scenarios")
                import_package()
            setup_times.append((probe.seconds, probe.ref_seconds))

        tracer = Tracer(program) if args.trace else None
        bench = Bench(cli, planner, workload, scenarios, work, tracer)
        warmup_s = bench.warm_up()
        if args.trace:
            records = bench.timed(args.seconds / 2.0)
            shown = end_to_end(records, setup_times)
            traced = bench.traced(records)
            metrics = layer_metrics(tracer, len(traced))
            metrics.update(wall_figures(records))
            metrics["cli.csv_bytes"] = (sum(r.csv_bytes for r in traced) / len(traced), "B/scenario")
            for outcome, count in failure_counts(traced).items():
                metrics[f"cli.failures.{outcome}"] = (count, "count")
            metrics["trace_overhead_frac"] = (1.0 - samples_per_s(traced) / samples_per_s(records), "frac")
            tracer.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
            all_records = records + traced
        else:
            records = bench.timed(args.seconds)
            metrics = shown = end_to_end(records, setup_times)
            all_records = records
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, machine_facts(), scenarios, setup_times, warmup_s, bench, records, shown)
    correct = (bench.reruns_checked > 0
               and not any(r.outcome == "bad_output" for r in bench.warmup + all_records))
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_records),
        "failed": sum(r.outcome != "ok" for r in all_records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
