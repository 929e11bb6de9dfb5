"""The benchmark's traced entry points exist in ``aglab``.

``perfbench/tracing.py`` patches each entry point by its module and
attribute path, so renaming one of them in ``src/`` breaks the benchmark.
This check loads that file by path and resolves every path, so such a
rename fails here as well as in ``pytest perfbench``.
"""

import importlib
import importlib.util
from pathlib import Path

import aglab.cli  # noqa: F401  (loads every module the entry points name)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.ENTRY_POINTS
    for name, modname, path, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(modname)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer patches the attribute where it is defined: the module's, or the class's own
        assert attr in vars(owner) and callable(getattr(owner, attr)), f"{name}: {modname}.{path} is gone"
