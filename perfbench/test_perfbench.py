"""Tests of the benchmark itself, on tiny configs.

    python3 -m pytest perfbench

They check that every metric the benchmark declares is emitted, that
failed verdicts and changed reports are caught (but not reports of
changed sources), that the traced run
puts back every patched function, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "minimize-ellipse": {"grid": {"h": "0.0625"}},
    "characteristics-ellipse": {"diagnostics": {"ensemble_n": "1000", "ensemble_T": "0.02",
                                                "ensemble_dt": "0.005"}},
    "characteristics-stadium": {"diagnostics": {"ensemble_n": "1000", "ensemble_T": "0.1",
                                                "ensemble_dt": "0.005"}},
    "diagnostics-ellipse": {"grid": {"h": "0.03125"}},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's config and send the benchmark's files to tmp_path."""
    for name, override in TINY.items():
        spec = dict(WORKLOADS[name])
        spec["config"] = {**spec["config"], **override}
        monkeypatch.setitem(WORKLOADS, name, spec)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(run, "MIN_JOBS", 2)
    return tmp_path


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_emitted(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    plain = last_json(capsys)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["metrics"].keys() == run.END_TO_END.keys()
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"]) == 0
    traced = last_json(capsys)
    assert traced["metrics"].keys() == run.PER_LAYER.keys()
    assert plain["failed"] == traced["failed"] == 0
    assert plain["correct"] and traced["correct"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["geometry.project.calls"] > 0
    # projection is counted on both domains, closed form on the stadium too
    assert metrics["geometry.project.points"] >= (
        metrics["lagrangian.inside.points"] + metrics["lagrangian.m.points"])
    assert metrics["process.cpu_s"] > 0
    assert (tiny / workload / "spans.json").is_file()


def test_layer_counts_repeat_and_match_workload(tiny, capsys):
    counts = []
    for _ in range(2):
        run.main(["--workload", "minimize-ellipse", "--seed", "1", "--seconds", "0", "--trace", "1"])
        metrics = last_json(capsys)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["energy.energy.calls"] > c["energy.iterations"] > 0
    assert c["energy.lu_factor.calls"] > 0
    assert c["lagrangian.inside.calls"] == c["kinetic.gbar.calls"] == 0


def test_changed_report_is_a_failure_only_for_the_same_sources(tiny, capsys, monkeypatch):
    args = ["--workload", "diagnostics-ellipse", "--seed", "2", "--seconds", "0", "--trace", "0"]
    run.main(args)
    assert last_json(capsys)["failed"] == 0
    hashes = tiny / "report_hashes.json"
    known = json.loads(hashes.read_text())
    assert len(known) == 1
    hashes.write_text(json.dumps({key: "0" * 64 for key in known}))
    run.main(args)
    out = last_json(capsys)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]

    changed = tiny / "src" / "aglab"
    shutil.copytree(run.SOURCES, changed, ignore=shutil.ignore_patterns("__pycache__"))
    with open(changed / "geometry.py", "a") as fh:
        fh.write("\n# changed\n")
    monkeypatch.setattr(run, "SOURCES", changed)
    run.main(args)
    out = last_json(capsys)
    assert out["correct"] is True
    assert out["failed"] == 0
    assert len(json.loads(hashes.read_text())) == 2


def test_false_verdicts_are_counted(tmp_path):
    (tmp_path / "minimize_summary.json").write_text(json.dumps(
        {"converged": False, "total": 1.0, "iterations": 5}))
    (tmp_path / "kinetic_check.json").write_text(json.dumps({
        "minimality_ok": True, "max_identity_error": 1e-9,
        "max_normalization_error": 0.0, "residual_with_sigma": 0.1}))
    reports = run.read_reports(tmp_path, ["minimize_summary.json", "entropy_frames.json"])
    failed = sorted(k for k, ok in reports["checks"].items() if not ok)
    assert failed == ["converged", "entropy_frames.json written", "identity_error<=1e-10"]


def _bindings():
    """Every attribute the tracer patches, mapped to the object it holds."""
    import scipy.sparse.linalg as sla

    import aglab  # noqa: F401

    held = {("scipy.sparse.linalg", "splu"): sla.splu}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "aglab" or mod_name.startswith("aglab."):
            for attr, value in vars(mod).items():
                held[(mod_name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        held[(mod_name, attr, cattr)] = cvalue
    return held


def test_tracer_restores_every_patch(tmp_path):
    from aglab import cli

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("aglab.energy", "diff_ops") in changed
        assert ("aglab.fields", "diff_ops") in changed
        assert ("aglab.geometry", "Grid", "cover") in changed
        assert ("scipy.sparse.linalg", "splu") in changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[domain]\nkind = ellipse\na = 1.0\nb = 0.5\n[grid]\nh = 0.0625\n"
                   "[minimize]\neps_list = 0.2\n[output]\ndirectory = out\nseed = 1\n")
    n_spans = len(tracer.spans)
    assert cli.run("minimize", cfg) == 0
    assert len(tracer.spans) == n_spans


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    from aglab import cli

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("[domain]\nkind = ellipse\na = 1.0\nb = 0.5\n[grid]\nh = 0.0625\n"
                   "[output]\ndirectory = out\nseed = 1\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run("kinetic-check", cfg) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = {s[0] for s in spans}
    assert {"cli.parse", "geometry.cover", "geometry.project", "kinetic.gbar",
            "kinetic.residual", "cli.write"} <= names
    cover = next(i for i, s in enumerate(spans) if s[0] == "geometry.cover")
    assert any(s[0] == "geometry.project" and s[3] == cover for s in spans)
    summary = tracing.summarize(spans)
    for row in summary.values():
        assert 0 <= row["self_s"] <= row["s"] + 1e-9
    assert summary["cli.write"]["points"] == (tmp_path / "out" / "kinetic_check.json").stat().st_size


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minimize-ellipse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
