"""Workload definitions and the physics check each run's outputs must pass.

Each workload is one ``python -m atomlight.cli <verb>`` invocation.  The
sizes that set the work (trajectories, r points, phases, resamples, threads)
are pinned here with ``--set`` so that an edit to a bundled config file
cannot silently change what the benchmark measures.  The requested
trajectory count used for throughput also comes from here, never from the
program's own output.

The acceptance bounds below are the ones the acceptance suite uses for the
same quantities; a run that misses one counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

DRIFT_LIMIT = 1.0e-6
M_RANGE = (0.06, 0.13)
ATOMS_AT_STAR_RANGE = (1.0e6 / 3.0, 3.0e6)
HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str
    config: str
    sets: tuple[str, ...]
    threads: int
    n_traj: int  # trajectories per ensemble, as requested
    n_r: int  # ensembles requested (r points)
    max_r: float  # largest squeezing parameter requested
    stem: str  # output file stem the verb writes

    @property
    def requested_trajectories(self) -> int:
        return self.n_traj * self.n_r

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        """Arguments after ``python -m atomlight.cli``."""
        args = [self.verb, "--config", self.config]
        for item in self.sets:
            args += ["--set", item]
        args += ["--seed", str(seed), "--threads", str(self.threads), "--out", out_dir]
        return args


# --------------------------------------------------------------------------
# reading outputs (streamed, so the benchmark process itself stays small)


def data_rows(path: Path):
    """Yield (header, row) pairs of a CSV data file, skipping the config echo."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        header = next(reader, None)
        if header is None:
            return
        for row in reader:
            yield header, row


def _non_finite_cells(path: Path, skip_columns=()) -> tuple[int, int, str]:
    """(rows read, non-finite numeric cells, first bad cell description)."""
    rows = bad = 0
    first = ""
    for header, row in data_rows(path):
        rows += 1
        for name, cell in zip(header, row):
            if name in skip_columns:
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                bad += 1
                first = first or f"{name}={cell!r} in row {rows}"
    return rows, bad, first


def _in_range(name: str, value, lo: float, hi: float) -> list[str]:
    if not isinstance(value, (int, float)) or not lo <= value <= hi:
        return [f"{name} = {value!r} outside [{lo:.6g}, {hi:.6g}]"]
    return []


def _drifts(summary: dict) -> list[str]:
    problems = []
    for key in ("max_rel_drift_atoms", "max_rel_drift_manley_rowe"):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or not value <= DRIFT_LIMIT:
            problems.append(f"{key} = {value!r} above limit {DRIFT_LIMIT:g}")
    return problems


# --------------------------------------------------------------------------
# physics checks: each returns a list of problems, empty when the run passes


def check_phi_sweep(summary: dict, data: Path, wl: Workload) -> list[str]:
    problems = _in_range("min_m", summary.get("min_m"), *M_RANGE)
    argmin = summary.get("argmin_phi")
    if not isinstance(argmin, (int, float)) or not abs(argmin - HALF_PI) <= 0.1:
        problems.append(f"argmin_phi = {argmin!r} not within 0.1 rad of pi/2")
    problems += _drifts(summary)
    rows, bad, first = _non_finite_cells(data)
    if bad:
        problems.append(f"{bad} non-finite cells in {data.name}, first {first}")
    if rows == 0:
        problems.append(f"{data.name} has no rows")
    return problems


def check_r_scan(summary: dict, data: Path, wl: Workload) -> list[str]:
    problems = _in_range("m_star", summary.get("m_star"), *M_RANGE)
    problems += _in_range("atoms_transferred_at_star",
                          summary.get("atoms_transferred_at_star"), *ATOMS_AT_STAR_RANGE)
    rows, bad, first = _non_finite_cells(data, skip_columns=("correction_sign",))
    if bad:
        problems.append(f"{bad} non-finite cells in {data.name}, first {first}")
    if rows != wl.n_r:
        problems.append(f"{data.name} has {rows} rows, expected {wl.n_r}")
    return problems


def _corr_at(corr: dict, phi: float):
    for key, value in corr.items():
        try:
            if abs(float(key) - phi) < 1e-9:
                return value
        except ValueError:
            continue
    return None


def check_scatter(summary: dict, data: Path, wl: Workload) -> list[str]:
    problems = []
    corr = summary.get("corr_s_a_vs_s_b_over_g")
    corr = corr if isinstance(corr, dict) else {}
    limits = (
        (HALF_PI, "> 0.9", lambda c: c > 0.9),
        (math.pi, "|c| < 0.1", lambda c: abs(c) < 0.1),
        (3.0 * HALF_PI, "< -0.9", lambda c: c < -0.9),
    )
    for phi, text, ok in limits:
        c = _corr_at(corr, phi)
        if not isinstance(c, (int, float)) or not ok(c):
            problems.append(f"correlation at phi = {phi:.4f} is {c!r}, need {text}")
    problems += _drifts(summary)
    rows, bad, first = _non_finite_cells(data)
    if bad:
        problems.append(f"{bad} non-finite cells in {data.name}, first {first}")
    if rows != 3 * wl.n_traj:
        problems.append(f"{data.name} has {rows} rows, expected {3 * wl.n_traj}")
    return problems


def check_outputs(wl: Workload, out_dir: Path) -> list[str]:
    """Run the workload's physics check on the files one run wrote."""
    summary_path = out_dir / f"{wl.stem}_summary.json"
    data = out_dir / f"{wl.stem}.csv"
    for path in (summary_path, data):
        if not path.is_file():
            return [f"missing output {path.name}"]
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"{summary_path.name} is not valid JSON: {exc}"]
    return CHECKS[wl.verb](summary, data, wl)


CHECKS = {"phi-sweep": check_phi_sweep, "r-scan": check_r_scan, "scatter": check_scatter}

R_SCAN_LIST = tuple(1.0 + 0.25 * k for k in range(13))

# Why these: each stresses a different layer, and each optimisation on the
# roadmap has one workload that exercises it and one that predicts no change
# (the estimator rewrite leaves scatter_wide alone, the one-pass r-scan
# integration leaves the sweeps alone, threads only reach scatter_wide).
#
# BENCHMARK.json lists only the two single-threaded workloads.  On a shared
# 2-core host the run-to-run spread falls only with long runs, and the time
# allowed for all runs holds long runs of two workloads, not of three.
# scatter_wide, the one workload on the threaded RK4 path and the only one
# whose output writer does real work, stays runnable by name.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="phi_sweep_wp",
            why="estimator-heavy: 1e4 trajectories swept over 201 phases with 200 "
                "bootstrap resamples, 1 thread",
            verb="phi-sweep",
            config="configs/working_point.cfg",
            sets=("r=3", "trajectories=10000", "phi_count=201", "bootstrap_resamples=200"),
            threads=1, n_traj=10000, n_r=1, max_r=3.0, stem="phi_sweep",
        ),
        Workload(
            name="r_scan_seeded",
            why="dynamics-heavy: 13 fresh ensembles of 1000 trajectories integrated "
                "to r = 1..4, 1 thread",
            verb="r-scan",
            config="configs/r_scan_seeded.cfg",
            sets=("trajectories=1000", "bootstrap_resamples=200",
                  "r_list=" + ", ".join(repr(r) for r in R_SCAN_LIST)),
            threads=1, n_traj=1000, n_r=len(R_SCAN_LIST), max_r=max(R_SCAN_LIST),
            stem="r_scan",
        ),
        Workload(
            name="scatter_wide",
            why="sampling, thread-chunked RK4 and the CSV writer: 3e4 trajectories "
                "at 3 phases, 2 threads, no bootstrap",
            verb="scatter",
            config="configs/working_point.cfg",
            sets=("r=3", "trajectories=30000"),
            threads=2, n_traj=30000, n_r=1, max_r=3.0, stem="scatter",
        ),
    )
}
LISTED = ("phi_sweep_wp", "r_scan_seeded")  # the workloads in BENCHMARK.json
