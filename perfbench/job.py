"""One benchmark job: a fresh process that runs aglab CLI pipelines on a config.

    python3 perfbench/job.py --config CFG --result OUT.json [--trace] SUBCOMMAND...

Set-up ends once ``aglab`` is imported and the config is parsed; the
process records that moment on the monotonic clock, which the parent
compares with the moment it spawned the process.  The pipelines then run
through ``aglab.cli.run`` exactly as ``aglab SUBCOMMAND CFG`` would run
them.  With ``--trace`` the layer entry points are wrapped in spans (see
tracing.py), the spans are written next to the result and their
per-layer totals go into it.  With no subcommand the job only sets up
and reports the machine it runs on.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def machine() -> dict:
    """Hardware and library versions that the timings depend on."""
    import os
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("subcommands", nargs="*")
    args = parser.parse_args(argv)

    import aglab
    from aglab import cli

    if not Path(aglab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"aglab imported from {aglab.__file__}, not from this checkout")
    cli.parse_config(args.config)
    ready = time.perf_counter()
    result: dict = {"ready": ready}
    if not args.subcommands:
        result["machine"] = machine()
    else:
        tracer = None
        if args.trace:
            from tracing import Tracer, summarize

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            codes = [cli.run(sub, args.config) for sub in args.subcommands]
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            "codes": codes,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        })
        if tracer is not None:
            result["layers"] = summarize(tracer.spans)
            spans = Path(args.result).with_name("spans.json")
            spans.write_text(json.dumps({
                "fields": ["name", "start", "end", "parent", "points"],
                "spans": tracer.spans,
            }))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
