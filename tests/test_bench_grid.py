"""bench/grid.py: CLI runs in fresh processes, each with its measures and output hashes."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _grid():
    spec = importlib.util.spec_from_file_location("bench_grid", ROOT / "bench" / "grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_smoke_at_200_trajectories(tmp_path):
    # sides a and b are this checkout; c runs its sources on a config with another gain
    other = tmp_path / "other"
    (other / "configs").mkdir(parents=True)
    (other / "src").symlink_to(ROOT / "src")
    config = (ROOT / "configs" / "working_point.cfg").read_text(encoding="utf-8")
    (other / "configs" / "working_point.cfg").write_text(
        config.replace("gain_g = 100", "gain_g = 50"), encoding="utf-8")
    grid = _grid()
    record = grid.grid({"a": ROOT, "b": ROOT, "c": other}, grid.rows([200], [], [])[:1], 2)
    json.dumps(record)  # the record main writes is plain JSON
    assert set(record["host"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert record["sides"] == ["a", "b", "c"] and record["repeat"] == 2
    (row,) = record["rows"]
    assert row["name"] == "phi-sweep trajectories=200"
    # interleaved, and the order of the sides reverses on every other repeat
    runs = {(run["side"], run["repeat"]): run for run in row["runs"]}
    assert list(runs) == [("a", 0), ("b", 0), ("c", 0), ("c", 1), ("b", 1), ("a", 1)]
    for run in row["runs"]:
        assert run["exit"] == 0
        assert run["wall_s"] > 0 and run["cpu_s"] > 0 and run["peak_rss_mb"] > 1
        assert sorted(run["sha256"]) == ["phi_sweep.csv", "phi_sweep_summary.json"]
    # one checkout writes the same bytes on every run; the other config does not
    assert all(runs[side, k]["sha256"] == runs["a", 0]["sha256"]
               for side in "ab" for k in (0, 1))
    assert runs["c", 0]["sha256"] == runs["c", 1]["sha256"] != runs["a", 0]["sha256"]
    assert not row["same_outputs"]
    for side in "abc":
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            q1, q3 = row["quartiles"][side][key]
            assert q1 <= row["median"][side][key] <= q3


def test_grid_runs_the_benchmark_workloads_commands():
    rows = _grid().rows([1000], ["phi_sweep_wp", "r_scan_seeded"], ["analytic-table --seed 1"])
    from perfbench.workloads import WORKLOADS  # importable once rows has read it

    assert [name for name, _ in rows] == ["phi-sweep trajectories=1000",
                                          "r-scan trajectories=100000", "phi_sweep_wp",
                                          "r_scan_seeded", "analytic-table --seed 1"]
    # the r-scan row is the 13-set scan at 1e5 trajectories, seed 777
    assert rows[1][1] == ["r-scan", "--config", "configs/r_scan_seeded.cfg",
                          "--set", "trajectories=100000", "--seed", "777"]
    for name, args in rows[2:4]:
        assert args + ["--out", "OUT"] == WORKLOADS[name].cli_args(12345, "OUT")
    assert rows[4][1] == ["analytic-table", "--seed", "1"]
