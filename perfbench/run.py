"""Benchmark of the aglab CLI: batch jobs timed end to end, checked as they run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run writes the workload's config
from ``--seed`` (see workloads.py) and then, one after another, starts
fresh ``job.py`` processes on it for about ``S`` seconds: a closed loop
with one client, as a user launches these jobs one at a time.  Each job
runs the workload's subcommands through ``aglab.cli.run``.  Every job's
reports are parsed for failed verdicts and hashed; a report that differs
from the first run of the same code, config and seed in this checkout is
a mismatch.  The code is told apart by a hash of the sources under
``src/aglab``, so a change to the program that moves its results in the
last bits is no mismatch against a run of other code.

With ``--trace 0`` the metrics are medians over the jobs of set-up time,
pipeline wall time and peak memory.  With ``--trace 1`` untraced and
traced jobs alternate; the per-layer metrics come from the traced jobs'
spans and the reports; ``trace.wall_s`` is the traced jobs' median wall
time and ``trace.overhead_s`` that minus the untraced jobs' median.  All files go under ``.perfbench/`` in the
checkout.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, config_text  # noqa: E402

# One BLAS thread per job: jobs run one at a time, and on 2 CPUs the default
# OpenBLAS pool made minimize-ellipse no faster while using more CPU time.
JOB_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_ROOT = ROOT / ".perfbench"
SOURCES = ROOT / "src" / "aglab"
JOB_TIMEOUT_S = 120
# No job starts after this many seconds, so a run ends well inside 180 s.
START_LIMIT_S = 40
MIN_JOBS = 3
IDENTITY_TOL = 1e-10

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "geometry.project.calls": "count", "geometry.project.points": "count",
    "geometry.project.s": "s", "geometry.project.points_per_call": "points/call",
    "geometry.cover.s": "s",
    "fields.diff_ops.s": "s", "fields.exact_limit_field.s": "s", "fields.dump_field.s": "s",
    "energy.energy.calls": "count", "energy.energy.s": "s",
    "energy.gradient.calls": "count", "energy.gradient.s": "s",
    "energy.lu_factor.calls": "count", "energy.lu_factor.s": "s",
    "energy.lu_solve.calls": "count", "energy.lu_solve.s": "s",
    "energy.iterations": "count", "energy.evals_per_iter": "evals/iter", "energy.minimize.self_s": "s",
    "lagrangian.inside.calls": "count", "lagrangian.inside.points": "count",
    "lagrangian.m.calls": "count", "lagrangian.m.points": "count",
    "lagrangian.trace.calls": "count", "lagrangian.trace.self_s": "s",
    "lagrangian.stats.s": "s", "lagrangian.jumps": "count", "lagrangian.stuck": "count",
    "entropy.production.calls": "count", "entropy.production.s": "s",
    "entropy.f0_jump.calls": "count", "entropy.f0_jump.s": "s",
    "entropy.boundary_flux.calls": "count", "entropy.boundary_flux.s": "s",
    "kinetic.residual.calls": "count", "kinetic.residual.s": "s",
    "kinetic.sigma_field.calls": "count", "kinetic.sigma_field.s": "s",
    "kinetic.gbar.calls": "count", "kinetic.gbar.s": "s",
    "cli.parse.s": "s", "cli.write.s": "s", "cli.write.bytes": "B",
    "process.cpu_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "final_energy": "1", "curves_per_s": "1/s", "stuck_share": "1",
    "kinetic_residual": "1", "f0_gap_rel": "1",
}


# ---------------------------------------------------------------------------
# reports


def report_key(subcommands: list[str], config: str) -> str:
    """Names the runs whose reports must match: same sources, subcommands and config."""
    digest = hashlib.sha256()
    for path in sorted(SOURCES.rglob("*.py")):
        digest.update(path.relative_to(SOURCES).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    digest.update(" ".join(subcommands).encode() + b"\0" + config.encode())
    return digest.hexdigest()


def read_reports(out: Path, expected: list[str]) -> dict:
    """Hash of every report file and the verdicts and values parsed from them."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    checks, values = {}, {}
    for name in expected:
        if not (out / name).is_file():
            checks[f"{name} written"] = False
    if (out / "minimize_summary.json").is_file():
        s = json.loads((out / "minimize_summary.json").read_text())
        checks["converged"] = s["converged"] is True
        values["final_energy"] = s["total"]
        values["iterations"] = s["iterations"]
    if (out / "ensemble_report.json").is_file():
        e = json.loads((out / "ensemble_report.json").read_text())
        for key in ("pushforward_ok", "concentration_ok", "cancellation_ok", "stationarity_ok"):
            checks[key] = e[key] is True
        values["n_curves"] = e["n_curves"]
        values["stuck_curves"] = e["stuck_curves"]
        values["n_jumps"] = e["n_jumps"]
    if (out / "kinetic_check.json").is_file():
        k = json.loads((out / "kinetic_check.json").read_text())
        checks["minimality_ok"] = k["minimality_ok"] is True
        checks["identity_error<=1e-10"] = k["max_identity_error"] <= IDENTITY_TOL
        checks["normalization_error<=1e-10"] = k["max_normalization_error"] <= IDENTITY_TOL
        values["kinetic_residual"] = k["residual_with_sigma"]
    if (out / "entropy_frames.json").is_file():
        f = json.loads((out / "entropy_frames.json").read_text())
        values["f0_gap_rel"] = abs(f["f0_two_frames"] - f["f0_jump"]) / f["f0_jump"]
    return {"hash": digest.hexdigest(), "checks": checks, "values": values}


# ---------------------------------------------------------------------------
# jobs


def run_job(work: Path, subcommands: list[str], trace: bool) -> dict:
    """Start one job process on ``work/job.cfg`` and wait for it to end."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), "--config", str(work / "job.cfg"),
           "--result", str(result)]
    if trace:
        cmd.append("--trace")
    cmd += subcommands
    env = {**os.environ, **JOB_ENV}
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"job exceeded {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"job exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - spawned
    out["job_s"] = time.perf_counter() - spawned
    return out


def layer_metrics(job: dict) -> dict[str, float]:
    """Per-layer figures of one traced job, from its span totals and reports."""
    layers = job["layers"]
    values = job["reports"]["values"]

    def get(span: str, field: str) -> float:
        return layers.get(span, {}).get(field, 0)

    m: dict[str, float] = {}
    for span in ("geometry.project", "energy.energy", "energy.gradient", "energy.lu_factor",
                 "energy.lu_solve", "entropy.production", "entropy.f0_jump", "entropy.boundary_flux",
                 "kinetic.residual", "kinetic.sigma_field", "kinetic.gbar"):
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.s"] = get(span, "s")
    for span in ("geometry.cover", "fields.diff_ops", "fields.exact_limit_field",
                 "fields.dump_field", "cli.parse", "cli.write"):
        m[f"{span}.s"] = get(span, "s")
    calls = m["geometry.project.calls"]
    m["geometry.project.points"] = get("geometry.project", "points")
    m["geometry.project.points_per_call"] = m["geometry.project.points"] / calls if calls else 0.0
    iterations = values.get("iterations", 0)
    m["energy.iterations"] = iterations
    m["energy.evals_per_iter"] = m["energy.energy.calls"] / iterations if iterations else 0.0
    m["energy.minimize.self_s"] = get("energy.minimize", "self_s")
    for span in ("lagrangian.inside", "lagrangian.m"):
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.points"] = get(span, "points")
    m["lagrangian.trace.calls"] = get("lagrangian.trace", "calls")
    m["lagrangian.trace.self_s"] = get("lagrangian.trace", "self_s")
    m["lagrangian.stats.s"] = get("lagrangian.ensemble", "self_s")
    m["lagrangian.jumps"] = values.get("n_jumps", 0)
    m["lagrangian.stuck"] = values.get("stuck_curves", 0)
    m["cli.write.bytes"] = get("cli.write", "points")
    m["process.cpu_s"] = job["cpu_s"]
    m["final_energy"] = values.get("final_energy", 0.0)
    n = values.get("n_curves", 0)
    m["stuck_share"] = values["stuck_curves"] / n if n else 0.0
    m["kinetic_residual"] = values.get("kinetic_residual", 0.0)
    m["f0_gap_rel"] = values.get("f0_gap_rel", 0.0)
    return m


def machine_record(work: Path) -> dict:
    """Set up once without timing it (fills caches) and report the machine."""
    job = run_job(work, [], trace=False)
    if "error" in job:
        raise RuntimeError(job["error"])
    return job["machine"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="aglab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aglab" / "__init__.py").is_file():
        print(f"no aglab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = config_text(args.workload, args.seed)
    (work / "job.cfg").write_text(config)
    try:
        machine = machine_record(work)
    except RuntimeError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine, sort_keys=True))

    hashes_file = WORK_ROOT / "report_hashes.json"
    known = json.loads(hashes_file.read_text()) if hashes_file.is_file() else {}
    key = report_key(spec["subcommands"], config)

    jobs: list[dict] = []
    failed = 0
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        shutil.rmtree(work / "out", ignore_errors=True)
        job = run_job(work, spec["subcommands"], traced)
        job["traced"] = traced
        problems = []
        if "error" in job:
            problems.append(job["error"])
        else:
            job["reports"] = reports = read_reports(work / "out", spec["reports"])
            known.setdefault(key, reports["hash"])
            bad_codes = [c for c in job["codes"] if c != 0]
            false_checks = [name for name, ok in reports["checks"].items() if not ok]
            mismatch = reports["hash"] != known[key]
            problems += [f"exit status {c}" for c in bad_codes]
            problems += [f"{name} false" for name in false_checks]
            if mismatch:
                problems.append("report bytes differ from the first run of this code and config")
            job["checks_failed"] = len(bad_codes) + len(false_checks)
            job["report_mismatch"] = int(mismatch)
        failed += bool(problems)
        jobs.append(job)
        status = "; ".join(problems) if problems else "ok"
        print(f"job {len(jobs)} {'traced' if traced else 'untraced'}: "
              f"setup_s={job.get('setup_s', float('nan')):.4f} wall_s={job.get('wall_s', float('nan')):.4f} "
              f"peak_rss_mb={job.get('peak_rss_mb', float('nan')):.1f} {status}", flush=True)
        if "error" in job:
            break
        elapsed = time.perf_counter() - begin
        typical = statistics.median(j["job_s"] for j in jobs)
        enough = len(jobs) >= MIN_JOBS and elapsed + typical > args.seconds
        if enough or elapsed > START_LIMIT_S:
            break
    hashes_file.write_text(json.dumps(known, sort_keys=True, indent=1) + "\n")

    done = [j for j in jobs if "error" not in j]
    plain = [j for j in done if not j["traced"]]
    traced_jobs = [j for j in done if j["traced"]]
    metrics: dict[str, dict] = {}
    summary: dict[str, tuple[float, str]] = {}
    if plain:
        for name, unit in END_TO_END.items():
            summary[name] = (statistics.median(j[name] for j in plain), unit)
        summary["checks_failed"] = (sum(j["checks_failed"] for j in done), "count")
        summary["report_mismatch"] = (sum(j["report_mismatch"] for j in done), "count")
        if not args.trace:
            metrics = {k: {"value": summary[k][0], "unit": END_TO_END[k]} for k in END_TO_END}
    if args.trace and plain and traced_jobs:
        per_job = [layer_metrics(j) for j in traced_jobs]
        layer = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        layer["trace.wall_s"] = statistics.median(j["wall_s"] for j in traced_jobs)
        layer["trace.overhead_s"] = layer["trace.wall_s"] - summary["wall_s"][0]
        n = plain[0]["reports"]["values"].get("n_curves", 0)
        layer["curves_per_s"] = n / summary["wall_s"][0]
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER.items()}
        summary.update({k: (layer[k], unit) for k, unit in PER_LAYER.items()})
    for name, (value, unit) in summary.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
