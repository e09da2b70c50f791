"""Seeded scenario generation for the three benchmark workloads.

Every scenario is written as the plain JSON file format the program reads, so
the program sees only these files.  Geometry and masses are the shipped
prototype's; what varies is what the workloads are meant to vary: samples
per scenario, step per sample, reach toward the workspace boundary,
configuration branches and planning modes.

Sweeps are generated in blocks of BLOCK scenarios.  Inside a block the
duration is stratified (one draw from each of BLOCK equal sub-ranges, in
random order), so that a run that stops on a block boundary always sees the
same mix of scenario sizes whatever the seed; this is what keeps medians
steady from one seed to the next.  Branches cycle through a fresh random
permutation of all eight every eight scenarios.
"""

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from model import MASSES, SLIDER_OFFSET, L, com_line_reachable

# The shipped default scenario's endpoints.
FINE_P_I = (0.0, 0.0, 0.0)
FINE_P_F = (-0.1, 0.07, -0.11)

PLATFORM = "platform_line_quintic"
COM = "com_line_bangbang"

BLOCK = 10
POOL_BLOCKS = 40
BRANCHES = tuple(itertools.product((1, -1), repeat=3))


@dataclass(frozen=True)
class Scenario:
    index: int
    path: Path
    s: tuple
    p_i: tuple
    p_f: tuple
    t_f: float
    dt: float
    modes: tuple
    off_grid: bool


@dataclass(frozen=True)
class Workload:
    name: str
    block: int          # the timed loop stops only on a block boundary
    reference_mode: str  # the line whose peak force force_rel_err checks


WORKLOADS = {
    "bench_fine": Workload("bench_fine", 1, COM),
    "platform_sweep": Workload("platform_sweep", BLOCK, PLATFORM),
    "com_coarse_sweep": Workload("com_coarse_sweep", BLOCK, COM),
}


def _pose_within(rng, reach):
    """Uniform pose whose distance from every prismatic axis is <= reach*L."""
    r = reach * L
    while True:
        p = [rng.uniform(-r, r) for _ in range(3)]
        sq = sum(v * v for v in p)
        if all(sq - v * v <= r * r for v in p):
            return tuple(p)


def _durations_ms(rng, lo=500, hi=2001):
    """Half-open whole-millisecond sub-ranges, BLOCK of them, in random order."""
    width = (hi - lo) / BLOCK
    bins = [(round(lo + k * width), round(lo + (k + 1) * width)) for k in range(BLOCK)]
    rng.shuffle(bins)
    return bins


def _branch_cycle(rng):
    while True:
        perm = list(BRANCHES)
        rng.shuffle(perm)
        yield from perm


def specs(name, seed):
    """List of (s, p_i, p_f, t_f, dt, modes, off_grid), one per scenario."""
    if name == "bench_fine":
        return [((1, 1, 1), FINE_P_I, FINE_P_F, 1.0, 1e-4, (PLATFORM, COM), False)]
    rng = random.Random(f"{name}:{seed}")
    branches = _branch_cycle(rng)
    reach = 0.9 if name == "platform_sweep" else 0.99
    drawn = []
    for _ in range(POOL_BLOCKS):
        # platform_sweep: one scenario per block on a 1.5 ms step that does
        # not divide its duration (accepted by the validator, see ROADMAP
        # item 5).  com_coarse_sweep has none.
        off_slot = rng.randrange(BLOCK) if name == "platform_sweep" else -1
        for slot, (lo, hi) in enumerate(_durations_ms(rng)):
            off_grid = slot == off_slot
            while True:
                tf_ms = rng.randrange(lo, hi)
                if not off_grid or tf_ms % 3:
                    break
            t_f = tf_ms / 1000.0
            if name == "platform_sweep":
                modes, dt = (PLATFORM,), 0.0015 if off_grid else 0.001
            else:
                modes, dt = (PLATFORM, COM), t_f / 100.0
            p_i, p_f = _pose_within(rng, reach), _pose_within(rng, reach)
            drawn.append([next(branches), p_i, p_f, t_f, dt, modes, off_grid])
    if name == "com_coarse_sweep":
        # Redraw the endpoints of the rare COM lines that leave the reachable
        # set: the program rightly refuses those (exit 2), and a workload is
        # meant to hold only requests that can succeed.  After the first pass
        # only the redrawn lines are screened again.
        pending = np.arange(len(drawn))
        while len(pending):
            ok = com_line_reachable(*(np.array([drawn[k][j] for k in pending]) for j in range(3)))
            pending = pending[~ok]
            for k in pending:
                drawn[k][1], drawn[k][2] = _pose_within(rng, reach), _pose_within(rng, reach)
    return [tuple(sp) for sp in drawn]


def write(specs, directory):
    """Write one scenario file per spec into ``directory``; return the scenarios."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scenarios = []
    for k, (s, p_i, p_f, t_f, dt, modes, off_grid) in enumerate(specs):
        doc = {
            "geometry": {"L": L, "l": SLIDER_OFFSET, "s_x": s[0], "s_y": s[1], "s_z": s[2]},
            "masses": dict(MASSES),
            "trajectory": {"p_i": list(p_i), "p_f": list(p_f), "t_f": t_f, "dt": dt},
            "modes": list(modes),
            "output_dir": "out",
        }
        path = directory / f"scenario-{k:04d}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        scenarios.append(Scenario(k, path, s, p_i, p_f, t_f, dt, modes, off_grid))
    return scenarios


def off_grid_share(scenarios):
    return sum(sc.off_grid for sc in scenarios) / len(scenarios)
