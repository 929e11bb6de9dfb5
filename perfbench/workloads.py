"""The benchmark's workloads: one aglab batch job each, with its config.

Each workload runs its CLI subcommands on a config that the benchmark
writes from the table below; the only value taken from the benchmark's
``--seed`` is the config's ``[output] seed``, which seeds the
characteristic ensemble and stamps every report.  Sizes are cut from
the paper-scale runs so that one job takes a few seconds on a 2-CPU
machine and a 28-second run holds several jobs; ``why`` says which
layer each workload stresses and which it bypasses.
"""

from __future__ import annotations

ELLIPSE = {"kind": "ellipse", "a": "1.0", "b": "0.5"}
STADIUM = {"kind": "stadium", "L": "2.0", "R": "1.0"}

WORKLOADS = {
    "minimize-ellipse": {
        "subcommands": ["minimize"],
        "config": {
            "domain": ELLIPSE,
            "grid": {"h": "0.025"},  # 1/40
            "minimize": {"eps_list": "0.2", "hessian_power": "1"},
        },
        "reports": ["minimize_summary.json"],
        "why": "Preconditioned BB minimizer at hessian_power=1: energy, gradient and LU solves "
               "do the work; projection is under 2%, so projection changes should not move it.",
    },
    "characteristics-ellipse": {
        "subcommands": ["characteristics"],
        "config": {
            "domain": ELLIPSE,
            "grid": {"h": "0.015625"},  # 1/64
            "diagnostics": {"ensemble_n": "20000", "ensemble_T": "0.03", "ensemble_dt": "0.005"},
        },
        "reports": ["ensemble_report.json"],
        "why": "Characteristic ensemble on the ellipse: projection through DomainFlow.inside and m "
               "takes 96% of the time, in about 630 batches of under 1000 points and 9 large ones; "
               "the energy layer is bypassed.",
    },
    "characteristics-stadium": {
        "subcommands": ["characteristics"],
        "config": {
            "domain": STADIUM,
            "grid": {"h": "0.015625"},  # 1/64
            "diagnostics": {"ensemble_n": "100000", "ensemble_T": "0.5", "ensemble_dt": "0.005"},
        },
        "reports": ["ensemble_report.json"],
        "why": "Same tracer on the stadium, whose projection is closed form: control for "
               "projection work, while the dt march and ensemble statistics dominate.",
    },
    "diagnostics-ellipse": {
        "subcommands": ["entropy-report", "kinetic-check"],
        "config": {
            "domain": ELLIPSE,
            "grid": {"h": "0.00625"},  # 1/160
        },
        "reports": ["entropy_frames.json", "kinetic_check.json"],
        "why": "Entropy report and kinetic check: 6 grid-size batches hold 99% of the projection "
               "time, beside 645 single-point ridge queries; the entropy and kinetic layers run only here.",
    },
}


def config_text(name: str, seed: int) -> str:
    """Config file for one workload; reports go to ``out`` beside the file."""
    sections = dict(WORKLOADS[name]["config"])
    sections["output"] = {"directory": "out", "seed": str(seed)}
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
        lines.append("")
    return "\n".join(lines)
