"""Measure every workload repeatedly and write the baseline tables.

    python3 perfbench/baseline.py

Run from the root of a checkout.  For each workload the benchmark runs
``RUNS`` times untraced, each time with the next seed from
``FIRST_SEED``, and ``TRACED`` times traced on the first seed.  The
script writes ``perfbench/baseline.json`` (every run's output and the
machine record) and ``perfbench/BASELINE.md``: per
workload the median, quartiles and spread of each end-to-end metric,
where spread is the distance between the quartiles over the median as
``statistics.quantiles(values, n=4)`` gives them, and the shift of the
median from the ``baseline.json`` being replaced; then the traced
per-layer figures, with each layer's seconds as a share of the traced
wall time (``trace.wall_s``).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
FIRST_SEED = 1
TRACED = 2


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(lines[0].removeprefix("machine "))
    result["seed"] = seed
    print(workload, seed, f"trace={trace}", json.dumps(result["metrics"])[:160], flush=True)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    seeds = range(FIRST_SEED, FIRST_SEED + RUNS)
    results = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        results[name] = {
            "untraced": [bench(name, s, 0) for s in seeds],
            "traced": [bench(name, seeds[0], 1) for _ in range(TRACED)],
        }
    machine = results[SPEC["workloads"][0]["name"]]["untraced"][0]["machine"]
    saved = HERE / "baseline.json"
    previous = json.loads(saved.read_text())["results"] if saved.is_file() else {}
    saved.write_text(json.dumps(
        {"machine": machine, "run_seconds": SPEC["run_seconds"], "results": results},
        indent=1, sort_keys=True) + "\n")

    md = ["# Baseline", "",
          f"Machine: {json.dumps(machine, sort_keys=True)}", "",
          f"{RUNS} untraced runs per workload, seeds {seeds.start}..{seeds.stop - 1}, "
          f"{SPEC['run_seconds']} s each; {TRACED} traced runs on seed {seeds.start}.", "",
          "## End to end", "",
          "`previous` is the median of the set this one replaced, and `shift` this median "
          "over it, minus 1.", "",
          "| workload | metric | unit | q1 | median | q3 | spread | bound | previous | shift "
          "| jobs | failed |",
          "|---|---|---|---|---|---|---|---|---|---|---|---|"]
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    for name, res in results.items():
        runs = res["untraced"]
        jobs = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for metric, spec in bounds.items():
            q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in runs])
            prev, shift = "", ""
            if previous.get(name, {}).get("untraced"):
                p = statistics.median(r["metrics"][metric]["value"] for r in previous[name]["untraced"])
                prev, shift = f"{p:.4g}", f"{med / p - 1:+.3f}"
            md.append(f"| {name} | {metric} | {spec['unit']} | {q1:.4g} | {med:.4g} | {q3:.4g} | "
                      f"{(q3 - q1) / med:.3f} | {spec['bound']} | {prev} | {shift} | {jobs} | {failed} |")
    md += ["", "## Per layer (median of the traced runs)", "",
           "Shares are a layer's seconds over `trace.wall_s`, the traced jobs' wall time. "
           "Seconds are inclusive of child spans except `self_s` and `lagrangian.stats.s`.", ""]
    for name, res in results.items():
        traced = res["traced"]
        if not traced:
            continue
        layer = {k: statistics.median(r["metrics"][k]["value"] for r in traced)
                 for k in traced[0]["metrics"]}
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in traced]
        repeat = "yes" if all(c == counts[0] for c in counts) else "NO"
        md += [f"### {name}", "", f"Counts repeat exactly across the traced runs: {repeat}. "
               "Metrics that read 0 (layers this workload does not run) are left out.", "",
               "| metric | value | unit | share of traced wall |", "|---|---|---|---|"]
        for metric, value in layer.items():
            unit = traced[0]["metrics"][metric]["unit"]
            if value == 0:
                continue
            is_layer_time = unit == "s" and not metric.startswith(("trace.", "process."))
            share = f"{100 * value / layer['trace.wall_s']:.1f}%" if is_layer_time else ""
            md.append(f"| {metric} | {value:.6g} | {unit} | {share} |")
        md.append("")
    (HERE / "BASELINE.md").write_text("\n".join(md))
    return 0


if __name__ == "__main__":
    sys.exit(main())
