"""Peak memory, CPU and wall time of atomlight CLI runs, each in a fresh process.

    python bench/grid.py --out BENCH.json [--side NAME=DIR ...] [--sizes 10000,100000]
                         [--workloads phi_sweep_wp,r_scan_seeded] [--command "ARGS" ...]
                         [--repeat 1]

A side is a checkout: a directory holding ``src/`` and ``configs/``.  Each of
its runs is ``python -m atomlight.cli`` with that ``src`` on PYTHONPATH and
that directory as the working directory, so config paths resolve against its
own bundled configs.  With no --side the checkout holding this script is the
one side, named "tree".

The rows of the grid:
- ``phi-sweep`` on configs/working_point.cfg, seed 777, at each trajectory
  count in --sizes;
- ``r-scan`` on configs/r_scan_seeded.cfg (13 values of r), seed 777, at
  1e5 trajectories;
- the command of each named benchmark workload (perfbench/workloads.py),
  seed 12345;
- each --command, split as a shell would split it.

Every row runs once per side per repeat, the sides interleaved so that they
see the same host load, and in reverse order on every other repeat.  Per run
the record holds the exit status, peak RSS and CPU time (user + system) from
``os.wait4``, wall time, and the sha256 of every file the run wrote.  Per row
it says whether every run wrote the same bytes, and gives each side's median
and quartiles of each measure.  The host block names the core count, the CPU
model, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEASURES = ("wall_s", "cpu_s", "peak_rss_mb")
DEFAULT_SIZES = "10000,100000,1000000"
DEFAULT_WORKLOADS = "phi_sweep_wp,r_scan_seeded"


def host() -> dict:
    """Where the runs were made: cores, CPU model, and the Python and numpy versions."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def rows(sizes, workloads, commands) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments without --out) of every row, in run order."""
    out = [(f"phi-sweep trajectories={n}",
            ["phi-sweep", "--config", "configs/working_point.cfg",
             "--set", f"trajectories={n}", "--seed", "777"]) for n in sizes]
    out.append(("r-scan trajectories=100000",
                ["r-scan", "--config", "configs/r_scan_seeded.cfg",
                 "--set", "trajectories=100000", "--seed", "777"]))
    if workloads:
        sys.path.insert(0, str(ROOT))
        from perfbench.workloads import WORKLOADS
        for name in workloads:
            args = WORKLOADS[name].cli_args(12345, "OUT")
            out.append((name, args[:args.index("--out")]))
    return out + [(command, shlex.split(command)) for command in commands]


def run_once(side: Path, args: list[str]) -> dict:
    """One CLI run in a fresh process: exit status, wall, CPU, peak RSS and output hashes."""
    env = {**os.environ, "PYTHONPATH": str(side / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "atomlight.cli", *args, "--out", str(out)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=side, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        files = sorted(path for path in out.rglob("*") if path.is_file()) if out.is_dir() else []
        digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in files}
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "sha256": digests}


def grid(sides: dict[str, Path], row_list, repeat: int) -> dict:
    """Run every row on every side, repeat times, sides interleaved."""
    record = {"host": host(), "repeat": repeat, "sides": list(sides), "rows": []}
    for name, args in row_list:
        runs = []
        for index in range(repeat):
            for label, side in list(sides.items())[::-1 if index % 2 else 1]:
                runs.append({"side": label, "repeat": index, **run_once(side, args)})
                print(f"{name} [{label}] " + " ".join(f"{key} {runs[-1][key]:.3f}"
                                                      for key in MEASURES),
                      file=sys.stderr, flush=True)
        values = {label: {key: sorted(run[key] for run in runs if run["side"] == label)
                          for key in MEASURES} for label in sides}
        record["rows"].append({
            "name": name, "args": args,
            "median": {label: {key: statistics.median(v) for key, v in by_key.items()}
                       for label, by_key in values.items()},
            "quartiles": {label: {key: _quartiles(v) for key, v in by_key.items()}
                          for label, by_key in values.items()},
            "same_outputs": all(run["sha256"] == runs[0]["sha256"] for run in runs),
            "runs": runs,
        })
    return record


def _quartiles(values: list[float]) -> list[float]:
    """[first, third] quartile (numpy's default "linear" rule); one value is both."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _side(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {text!r}")
    return label, Path(path).resolve()


def _names(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON record to write")
    parser.add_argument("--side", action="append", type=_side, default=[],
                        metavar="NAME=DIR", help="a checkout to run (repeatable)")
    parser.add_argument("--sizes", default=DEFAULT_SIZES,
                        help="phi-sweep trajectory counts, comma-separated (may be empty)")
    parser.add_argument("--workloads", default=DEFAULT_WORKLOADS,
                        help="benchmark workload names, comma-separated (may be empty)")
    parser.add_argument("--command", action="append", default=[],
                        help="one more row: arguments of python -m atomlight.cli, "
                             "split as a shell would")
    parser.add_argument("--repeat", type=int, default=1, help="runs per row and side")
    args = parser.parse_args(argv)
    if len(dict(args.side)) != len(args.side):
        parser.error("side names must be distinct")
    sides = dict(args.side) or {"tree": ROOT}
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    sizes = [int(float(n)) for n in _names(args.sizes)]
    record = grid(sides, rows(sizes, _names(args.workloads), args.command), args.repeat)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all(run["exit"] == 0 for row in record["rows"] for run in row["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
