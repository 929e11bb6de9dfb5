"""In-memory spans around the layer entry points of ``aglab``.

The benchmark's traced run wraps each entry point below by patching the
module or class attribute that callers look it up through.  A function
imported by name into several modules (``from .fields import diff_ops``)
is patched in every module of the package that binds it, so no call path
escapes the span.  ``scipy.sparse.linalg.splu`` is replaced by a proxy
whose factor object records a span around each ``solve``.

Projection is counted where callers ask for it: ``signed_distance``,
which on the stadium is closed form and never reaches ``_project_raw``,
and ``_project_raw`` itself, which the other geometry queries call.  Both
record ``geometry.project`` spans, and a span nested in one of the same
name is counted once, at the outermost (see ``summarize``).

Spans are kept in memory as ``(name, start, end, parent, points)`` and
written out by the caller after the run; ``Tracer.uninstall`` puts every
original object back.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np


def _points(args) -> int:
    """Query points passed as the second argument, an array of shape (..., 2)."""
    return np.asarray(args[1]).size // 2


def _written_bytes(args) -> int:
    """Bytes of the report named by the first argument, with a table's .dat twin."""
    path = Path(args[0])
    files = [path, path.with_suffix(".dat")] if path.suffix == ".csv" else [path]
    return sum(f.stat().st_size for f in files if f.is_file())


# (span name, module, attribute path, what the span counts besides calls)
ENTRY_POINTS = (
    ("geometry.project", "aglab.geometry", "signed_distance", _points),
    ("geometry.project", "aglab.geometry", "_project_raw", _points),
    ("geometry.cover", "aglab.geometry", "Grid.cover", None),
    ("fields.diff_ops", "aglab.fields", "diff_ops", None),
    ("fields.exact_limit_field", "aglab.fields", "exact_limit_field", None),
    ("fields.dump_field", "aglab.fields", "dump_field", None),
    ("energy.minimize", "aglab.energy", "minimize", None),
    ("energy.energy", "aglab.energy", "energy", None),
    ("energy.gradient", "aglab.energy", "energy_gradient", None),
    ("lagrangian.ensemble", "aglab.lagrangian", "ensemble_representation_check", None),
    ("lagrangian.trace", "aglab.lagrangian", "_trace_batch", None),
    ("lagrangian.inside", "aglab.lagrangian", "DomainFlow.inside", _points),
    ("lagrangian.m", "aglab.lagrangian", "DomainFlow.m", _points),
    ("entropy.production", "aglab.entropy", "entropy_production", None),
    ("entropy.f0_jump", "aglab.entropy", "f0_jump", None),
    ("entropy.boundary_flux", "aglab.entropy", "boundary_flux", None),
    ("kinetic.residual", "aglab.kinetic", "kinetic_residual", None),
    ("kinetic.sigma_field", "aglab.kinetic", "ridge_sigma_field", None),
    ("kinetic.gbar", "aglab.kinetic", "gbar_beta", None),
    ("cli.parse", "aglab.cli", "parse_config", None),
    ("cli.write", "aglab.cli", "_write_json", _written_bytes),
    ("cli.write", "aglab.cli", "_write_table", _written_bytes),
)


class Tracer:
    """Records nested spans; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children index after it
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, count(args) if count else 0)

        return traced

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every entry point in ENTRY_POINTS and ``splu``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import aglab  # noqa: F401  (loads every submodule)
        import scipy.sparse.linalg as sla

        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "aglab" or n.startswith("aglab."))]
        for name, modname, path, count in ENTRY_POINTS:
            module = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__, count)))
                else:
                    self._set(cls, attr, self._wrap(name, raw, count))
                continue
            original = getattr(module, path)
            traced = self._wrap(name, original, count)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, traced)
        self._set(sla, "splu", self._splu_proxy(sla.splu))

    def uninstall(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _splu_proxy(self, splu):
        factor = self._wrap("energy.lu_factor", splu, None)
        wrap = self._wrap

        class TracedLU:
            """SuperLU factor whose ``solve`` records an energy.lu_solve span."""

            def __init__(self, lu):
                self._lu = lu
                self.solve = wrap("energy.lu_solve", lu.solve, None)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        def traced_splu(*args, **kwargs):
            return TracedLU(factor(*args, **kwargs))

        return traced_splu


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, seconds, self seconds and points.

    Calls, seconds and points count a span nested in one of the same name
    once, at the outermost span; self seconds exclude the time of every
    child span.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, points) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
        row["self_s"] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["calls"] += 1
            row["s"] += end - start
            row["points"] += points
    return out
