"""Tests of the benchmark itself: span arithmetic, metric names, physics checks.

    python3 -m pytest perfbench/test_perfbench.py

They need neither numpy nor the atomlight package.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from run import END_TO_END_UNITS, PER_LAYER_UNITS
from tracing import Recorder, _wrap, covered_length, layer_self_times, self_times
from workloads import LISTED, WORKLOADS, check_phi_sweep, check_r_scan, check_scatter

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --------------------------------------------------------------------------
# self-time arithmetic


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "main_thread": True, "run_id": "t"}


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered_length([(1, 3), (1, 3)], 0, 10) == pytest.approx(2.0)
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered_length([(11, 12)], 0, 10) == 0.0


def test_self_time_is_duration_minus_children():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "dynamics.build_ensemble", 1.0, 6.0, parent=0),
        _span(2, "phasespace.sample_initial_ensemble", 1.5, 3.0, parent=1),
        _span(3, "dynamics.evolve_tw", 3.0, 5.5, parent=1),
        _span(4, "cli.write_table", 7.0, 9.0, parent=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 1.0, 2: 1.5, 3: 2.5, 4: 2.0})
    layers = layer_self_times(spans)
    assert layers == pytest.approx({"cli": 3.0, "dynamics": 3.5, "phasespace": 1.5,
                                    "write": 2.0})
    assert sum(layers.values()) == pytest.approx(10.0)


def test_off_main_thread_spans_do_not_count_twice():
    spans = [_span(0, "cli.main", 0.0, 4.0), _span(1, "dynamics.evolve_tw", 1.0, 3.0)]
    spans[1]["main_thread"] = False
    assert layer_self_times(spans) == pytest.approx({"cli": 4.0})


def test_wrapped_calls_nest_and_account_for_the_root():
    rec = Recorder("t")
    inner = _wrap(rec, lambda: sum(range(1000)), "estimator.point_statistics")
    outer = _wrap(rec, lambda: [inner() for _ in range(3)], "estimator.bootstrap_ci")
    root = rec.open("cli.main")
    outer()
    rec.close(root)
    spans = rec.spans
    assert [s["name"] for s in spans] == ["cli.main", "estimator.bootstrap_ci"] + \
        ["estimator.point_statistics"] * 3
    assert [s["parent"] for s in spans] == [None, 0, 1, 1, 1]
    own = self_times(spans)
    assert sum(own.values()) == pytest.approx(spans[0]["end"] - spans[0]["start"])
    assert all(v >= 0.0 for v in own.values())


# --------------------------------------------------------------------------
# metric names and the benchmark definition


def test_metric_names_and_units_are_well_formed():
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
    names = [e["name"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_what_the_runner_reports():
    assert {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]} == PER_LAYER_UNITS
    assert {e["name"]: e["why"] for e in BENCHMARK["workloads"]} == \
        {name: WORKLOADS[name].why for name in LISTED}
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# --------------------------------------------------------------------------
# physics checks reject deliberately wrong outputs


def _csv(path: Path, header: list[str], rows: list[list]) -> Path:
    lines = ["# master_seed = 12345", ",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


PHI_GOOD = {"min_m": 0.0912, "argmin_phi": math.pi / 2, "max_rel_drift_atoms": 8e-14,
            "max_rel_drift_manley_rowe": 2e-15}
R_GOOD = {"m_star": 0.089, "atoms_transferred_at_star": 1.53e6}
SCATTER_GOOD = {"corr_s_a_vs_s_b_over_g": {"1.5707963267948966": 0.99998,
                                           "3.1415926535897931": 0.0127,
                                           "4.7123889803846897": -0.99998},
                "max_rel_drift_atoms": 8e-14, "max_rel_drift_manley_rowe": 2e-15}


@pytest.fixture
def phi_csv(tmp_path):
    return _csv(tmp_path / "phi_sweep.csv", ["phi", "m"], [[0.0, 1222.1], [1.57, 0.0912]])


@pytest.mark.parametrize("change", [
    {"min_m": 0.05}, {"min_m": 0.2}, {"min_m": None}, {"min_m": float("nan")},
    {"argmin_phi": math.pi / 2 + 0.11}, {"argmin_phi": 0.0},
    {"max_rel_drift_atoms": 2e-6}, {"max_rel_drift_manley_rowe": float("inf")},
])
def test_phi_sweep_check_rejects_wrong_summary(phi_csv, change):
    wl = WORKLOADS["phi_sweep_wp"]
    assert check_phi_sweep(PHI_GOOD, phi_csv, wl) == []
    assert check_phi_sweep({**PHI_GOOD, **change}, phi_csv, wl)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "x"])
def test_phi_sweep_check_rejects_non_finite_cells(tmp_path, cell):
    bad = _csv(tmp_path / "phi_sweep.csv", ["phi", "m"], [[0.0, 1.0], [1.57, cell]])
    assert check_phi_sweep(PHI_GOOD, bad, WORKLOADS["phi_sweep_wp"])


@pytest.mark.parametrize("change", [
    {"m_star": 0.059}, {"m_star": 0.131}, {"atoms_transferred_at_star": 3.2e5},
    {"atoms_transferred_at_star": 3.1e6}, {"m_star": None},
])
def test_r_scan_check_rejects_wrong_summary(tmp_path, change):
    wl = WORKLOADS["r_scan_seeded"]
    data = _csv(tmp_path / "r_scan.csv", ["r", "m", "correction_sign"],
                [[1.0 + 0.25 * k, 0.1, "plus"] for k in range(wl.n_r)])
    assert check_r_scan(R_GOOD, data, wl) == []
    assert check_r_scan({**R_GOOD, **change}, data, wl)


def test_r_scan_check_rejects_missing_rows(tmp_path):
    wl = WORKLOADS["r_scan_seeded"]
    data = _csv(tmp_path / "r_scan.csv", ["r", "m", "correction_sign"], [[1.0, 0.1, "plus"]])
    assert check_r_scan(R_GOOD, data, wl)


@pytest.mark.parametrize("phi_key, value", [
    ("1.5707963267948966", 0.85), ("3.1415926535897931", 0.2),
    ("3.1415926535897931", -0.2), ("4.7123889803846897", -0.5),
    ("4.7123889803846897", None),
])
def test_scatter_check_rejects_wrong_correlation(tmp_path, phi_key, value):
    wl = WORKLOADS["scatter_wide"]
    header = ["trajectory", "phi", "s_a", "s_b_over_g", "s"]
    data = _csv(tmp_path / "scatter.csv", header, [[0, 1.57, 1.0, 1.0, 0.0]] * (3 * wl.n_traj))
    assert check_scatter(SCATTER_GOOD, data, wl) == []
    corr = {**SCATTER_GOOD["corr_s_a_vs_s_b_over_g"], phi_key: value}
    assert check_scatter({**SCATTER_GOOD, "corr_s_a_vs_s_b_over_g": corr}, data, wl)


def test_scatter_check_rejects_wrong_row_count(tmp_path):
    wl = WORKLOADS["scatter_wide"]
    header = ["trajectory", "phi", "s_a", "s_b_over_g", "s"]
    data = _csv(tmp_path / "scatter.csv", header, [[0, 1.57, 1.0, 1.0, 0.0]] * wl.n_traj)
    assert check_scatter(SCATTER_GOOD, data, wl)
