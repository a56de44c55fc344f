"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import torusdirac as td  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    first = workloads.generate_inputs(workload, 7)
    assert first == workloads.generate_inputs(workload, 7)
    assert first != workloads.generate_inputs(workload, 8)
    for text in first.values():
        td.parse_config(text)


def _op(ops, key):
    return next(op for op in ops if op.key == key)


def test_checker_flags_a_perturbed_eigenvalue(tmp_path):
    ops, checks = workloads.build("truncation_ladder", 0, tmp_path, workloads.load_refs())
    op = _op(ops, "example-galerkin-2/m25")
    report = op.run()
    assert checks.verify(op, report) is None
    assert checks.max_ref_drift <= workloads.REF_TOL

    moved = dataclasses.replace(report, tracked={**report.tracked, 1: report.tracked[1] + 1e-7})
    assert "drifted" in checks.verify(op, moved)

    split = np.array(report.eigenvalues)
    split[10] += 1e-6
    assert "Kramers" in checks.verify(op, dataclasses.replace(report, eigenvalues=split))

    seeded = _op(ops, "seeded-coframe-1/m25")
    report = seeded.run()
    assert "moved" in checks.verify(seeded, dataclasses.replace(
        report, tracked={**report.tracked, -2: report.tracked[-2] + 1e-7}))


def test_checker_flags_a_nonzero_cli_exit(tmp_path):
    ops, checks = workloads.build("cli_sweep", 0, tmp_path, workloads.load_refs())
    for op in ops[:4]:
        assert "exit code 3" in checks.verify(op, (3, "", "numerical contract violation"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("m = 25\n")
    result = workloads._cli("galerkin", str(bad))
    assert result[0] == 2
    assert "exit code 2" in checks.verify(_op(ops, "example-galerkin-1/galerkin"), result)


def test_checker_flags_a_route_disagreement(tmp_path):
    ops, checks = workloads.build("coefficient_routes", 0, tmp_path, workloads.load_refs())
    op = _op(ops, "seeded-coframe-1")
    closed, operator = op.run()
    assert checks.verify(op, (closed, operator)) is None
    off = dataclasses.replace(operator, lambda2_plus=operator.lambda2_plus + 1e-9)
    assert "closed vs operator" in checks.verify(op, (closed, off))
    assert checks.gates_passed < checks.gates_checked


def test_span_self_times_never_exceed_totals(tmp_path):
    ops, checks = workloads.build("cli_sweep", 0, tmp_path, {})
    rec = spans.Recorder()
    with spans.traced(rec):
        _, _, _, failed = run.run_ops(ops, checks, range(4), rec)
    assert failed == 0
    stats = rec.summary()
    assert stats["cli.main"][0] == 4
    for calls, total, self_, _ in stats.values():
        assert -1e-9 <= self_ <= total


def test_trace_rebinds_imported_names_and_restores_them():
    family = td.load_example("example-galerkin-1").family()
    original = td.galerkin.metric_at
    rec = spans.Recorder()
    with spans.traced(rec):
        assert td.galerkin.metric_at is not original
        td.spectrum_report(family, 0.1, 3, modes=(1,))
    assert td.galerkin.metric_at is original
    assert td.dirac.DiracOperator.__call__ is td.dirac.DiracOperator.apply
    names = {span[0]: span[3] for span in rec.spans}
    root = [s[0] for s in rec.spans].index("galerkin.spectrum_report")
    for name in ("geometry.metric_at", "dirac.dirac_operator", "galerkin.galerkin_matrix"):
        assert names[name] == root
    stats = rec.summary()
    assert stats["dirac.DiracOperator.apply"][0] == 2 * (2 * 3 + 1)
    assert stats["trigpoly.Matrix3Field.det"][0] == 1


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.layer_metric_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n", [11, 16, 32, 44, 100])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    q = run.tail_percentile(n)
    assert n * (100 - q) >= 1000 > n * (99 - q)


def test_traced_operations_see_the_wrapped_functions(tmp_path):
    ops, checks = workloads.build("truncation_ladder", 0, tmp_path, {})
    rec = spans.Recorder()
    with spans.traced(rec):
        run.run_ops(ops, checks, [0], rec)
    stats = rec.summary()
    assert stats["galerkin.spectrum_report"][0] == 1
    assert stats["galerkin.track_pair"][0] == len(workloads.TRACKED_MODES)


def test_schedule_runs_a_full_pass_then_what_fits():
    durations = []
    order = []
    for i in run.schedule(3, 1.0, durations, whole_passes=False):
        order.append(i)
        durations.append([0.01, 5.0, 0.2][i])
    assert order[:3] == [0, 1, 2]
    assert 1 not in order[3:] and order.count(0) > order.count(2) > 1

    durations, order = [], []
    for i in run.schedule(2, 0.0, durations, whole_passes=True):
        order.append(i)
        durations.append(0.001)
    assert order == [0, 1]
