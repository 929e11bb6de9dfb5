"""Experiment runner: plain-text configs in, deterministic reports out.

Config files are key = value pairs grouped into [section] headers.  One
table, ``_SCHEMA``, gives every key its parser, default and valid range.
``parse_config`` rejects unknown sections and keys, types, defaults and
range-checks every key in one pass, then builds the domain and the
minimizer options.  A warm start is loaded; it must list every node of
its grid once, hold a scalar field and lie on the run's grid.  Rules
that span several keys stay with the objects that enforce them, the
domain constructors and ``energy.check_eps_schedule``, and their faults
are config errors too.  So every check runs before any
pipeline.  Relative paths resolve against the config file's directory.
Pipelines (``run_*``) return whether they converged and their reports by
file name: a dict (JSON), a (header, rows) pair (a table) or a field to
dump.  ``run`` alone stamps every report with the config hash and the
seed and writes it.  A fixed (config, seed) pair reproduces the outputs
byte for byte.  Exit status: 0; 2 when minimize's last eta level or any
limit-table row is not converged; 3 for a config error or a usage error
(arguments other than one subcommand and one config path, or an unknown
subcommand), each reported in one line on stderr.  A False ``_ok`` flag
in a report does not set the exit status yet (see ROADMAP.md).

``[diagnostics] ensemble_dt`` is accepted, because the benchmark's
configs set it, but nothing reads it: the tracer moves from event to
event and has no time step.  It still enters the config hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from . import entropy as entropy_mod
from . import kinetic as kinetic_mod
from . import lagrangian as lagrangian_mod
from .errors import ConfigError
from .fields import ScalarField, dump_field, exact_limit_field, load_field
from .geometry import RIDGE_SBAR, Domain, Ellipse, Grid, Stadium

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3

_POSITIVE = "a finite number > 0", lambda v: 0 < v < np.inf
_PATH = "a path", lambda v: True


def _number(default: str | None = None):
    return float, default, _POSITIVE


def _count(low: int, default: str | None = None):
    return int, default, (f"an integer >= {low}", lambda v: v >= low)


_DOMAINS = {"ellipse": (Ellipse, ("a", "b")), "stadium": (Stadium, ("L", "R"))}

# section -> key -> (parser, default as text or None for unset, (valid range in words, check)).
# The [minimize] keys that MinimizeOptions holds are unset here, so their defaults live there alone.
_SCHEMA = {
    "domain": {"kind": (str, "ellipse", ("ellipse or stadium", _DOMAINS.__contains__)),
               "a": _number(), "b": _number(), "L": _number(), "R": _number(), "delta": _number()},
    "grid": {"resolution": _count(1, "128"), "h": _number()},
    "minimize": {
        "eps_list": (lambda text: [float(tok) for tok in text.replace(",", " ").split()], "0.4, 0.2, 0.1",
                     ("a list of finite numbers > 0", lambda v: bool(v) and all(map(_POSITIVE[1], v)))),
        "max_iter": _count(0), "tol": _number(), "eta0": _number(), "eta_min": _number(),
        "hessian_power": (int, None, ("1 or 2", (1, 2).__contains__)),
        "warm_start": (Path, None, _PATH),
    },
    "diagnostics": {
        "n_frames": _count(1, "8"), "ensemble_n": _count(lagrangian_mod.MIN_CURVES, "20000"),
        "ensemble_T": _number("1.0"), "beta_grid": _count(1, "100"),
        "ensemble_dt": (float, None, ("a number", lambda v: True)),  # read by nothing; see the module docstring
    },
    "output": {"directory": (Path, "out", _PATH), "seed": _count(0, "1234")},
}
_OPTIONS = [key for key in _SCHEMA["minimize"] if key != "eps_list"]  # the MinimizeOptions fields


def _typed(entry: tuple, text: str):
    """The value of one key's text; ValueError unless it parses and lies in range."""
    parse, _, (_, ok) = entry
    value = parse(text)
    if not ok(value):
        raise ValueError(text)
    return value


@dataclass
class ExperimentConfig:
    """A checked config: the text of every key it sets, the typed values, and what they build."""

    raw: dict[str, dict[str, str]]  # the text of every key set; serialize and config_hash read only this
    values: dict[str, object]  # every schema key, typed and checked; None where unset
    domain: Domain
    opts: energy_mod.MinimizeOptions  # warm start loaded

    @cached_property
    def grid(self) -> Grid:
        """The one grid of a run; h, when set, wins over resolution."""
        h = self.values["h"]
        return Grid.cover(self.domain, h=h, resolution=None if h else self.values["resolution"])

    def serialize(self) -> str:
        lines = []
        for section in sorted(self.raw):
            lines.append(f"[{section}]")
            for key in sorted(self.raw[section]):
                lines.append(f"{key} = {self.raw[section][key]}")
            lines.append("")
        return "\n".join(lines)

    def config_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()[:16]


def parse_config(path: str | Path) -> ExperimentConfig:
    """Read and check a config; any fault raises ConfigError with the file and, for one key, its line."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw: dict[str, dict[str, str]] = {}
    lines: dict[str, int] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            raw.setdefault(section, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any [section]")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        if key in raw[section]:
            raise ConfigError(f"{path}:{lineno}: key {key!r} in [{section}] is already set on line {lines[key]}")
        raw[section][key] = value
        lines[key] = lineno

    values: dict[str, object] = {}
    for section, entries in _SCHEMA.items():
        for key, entry in entries.items():
            text = raw.get(section, {}).get(key, entry[1])
            try:
                values[key] = None if text is None else _typed(entry, text)
            except ValueError:
                raise ConfigError(f"{path}:{lines[key]}: {key} must be {entry[2][0]}, got {text!r}") from None
    if values["warm_start"] is not None:
        try:
            values["warm_start"] = load_field(path.parent / values["warm_start"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:  # TypeError: a mistyped sidecar value
            raise ConfigError(f"{path}:{lines['warm_start']}: cannot load warm_start: {exc}") from None
        if not isinstance(values["warm_start"], ScalarField):
            raise ConfigError(f"{path}:{lines['warm_start']}: warm_start must be a scalar field, not a vector field")
    values["directory"] = path.parent / values["directory"]
    cls, sizes = _DOMAINS[values["kind"]]
    try:
        if any(values[key] is None for key in sizes):
            raise ValueError(f"a domain of kind {values['kind']} needs {' and '.join(sizes)}")
        domain = cls(*(values[key] for key in sizes), delta=values["delta"])
        energy_mod.check_eps_schedule(values["eps_list"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    opts = energy_mod.MinimizeOptions(**{key: values[key] for key in _OPTIONS if values[key] is not None})
    cfg = ExperimentConfig(raw, values, domain, opts)
    if opts.warm_start is not None:  # the run builds this grid anyway; cfg caches it
        lattices = [(*map(float, g.origin), float(g.h), g.nx, g.ny, float(g.angle))
                    for g in (opts.warm_start.grid, cfg.grid)]
        if lattices[0] != lattices[1]:
            raise ConfigError(f"{path}:{lines['warm_start']}: warm_start lies on another grid: "
                              f"(x0, y0, h, nx, ny, angle) = {lattices[0]}, the config's is {lattices[1]}")
    return cfg


# ---------------------------------------------------------------------------
# report emission


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_table(path: Path, header: list[str], rows: list[list], stamp: dict) -> None:
    """The table as ``path`` (.csv) and its gnuplot-ready twin (.dat: whitespace, commented header)."""
    first = f"# config_hash={stamp['config_hash']} seed={stamp['seed']}"
    cells = [[_fmt(v) for v in row] for row in rows]
    for target, sep, head in ((path, ",", ""), (path.with_suffix(".dat"), " ", "# ")):
        target.write_text("\n".join([first, head + sep.join(header), *map(sep.join, cells)]) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# pipelines


def run_minimize(cfg: ExperimentConfig) -> tuple[dict, bool]:
    eps = cfg.values["eps_list"][0]
    res = energy_mod.minimize(cfg.grid, eps, cfg.opts)
    split = res.levels[-1].split
    return {f"u_eps{eps:g}.txt": res.u, "minimize_summary.json": {
        "eps": eps,
        "total": split.total,
        "hessian_term": split.hessian_term,
        "potential_term": split.potential_term,
        "iterations": res.iterations,
        "converged": res.converged,
        "levels_converged": [lv.converged for lv in res.levels],
        "eta_final": res.eta_final,
        "grad_norm_final": res.levels[-1].grad_norm,
    }}, res.converged


def run_limit_table(cfg: ExperimentConfig) -> tuple[dict, bool]:
    table = energy_mod.energy_limit_table(cfg.grid, cfg.values["eps_list"], cfg.opts)
    header = ["eps", "total", "hessian", "potential", "core_total", "w11", "converged", "iterations"]
    rows = [[r.eps, r.total, r.hessian_term, r.potential_term, r.core_total, r.w11, r.converged, r.iterations]
            for r in table.rows]
    return {"limit_table.csv": (header, rows), "limit_table.json": {
        "f0_reference": table.f0_reference,
        "w11_monotone": table.w11_monotone,
        "gap_monotone": table.gap_monotone,
        "rows": [{"eps": r.eps, "total": r.total, "w11": r.w11, "converged": r.converged,
                  "levels_converged": r.levels_converged}
                 for r in table.rows],
    }}, all(r.converged for r in table.rows)


def run_entropy_report(cfg: ExperimentConfig) -> tuple[dict, bool]:
    grid, ridge = cfg.grid, cfg.grid.ridge
    _, m = exact_limit_field(grid)
    n_frames = cfg.values["n_frames"]
    # the productions of the two frames of two_frame_norm; every frame's is
    # linear in them (see the entropy module)
    two = [entropy_mod.entropy_production(m, partial(entropy_mod.sigma_frame, t)) for t in entropy_mod.TWO_FRAMES]
    p0, p1 = (prod.values for prod in two)
    flux0 = entropy_mod.boundary_flux(grid.domain)
    interior, near_ridge = grid.interior(), grid.active() & (np.abs(grid.nodes[..., 1]) <= 3 * grid.h)
    frames = []
    for k in range(n_frames):
        theta = k * np.pi / (2 * n_frames)
        masses = np.abs(np.cos(2 * theta) * p0 + np.sin(2 * theta) * p1)
        frames.append({
            "frame_theta": theta,
            "tv_interior": float(np.sum(masses[interior])),
            "tv_near_ridge": float(np.sum(masses[near_ridge])),
            "flux_boundary": float(np.cos(2 * theta) * flux0),
        })
    rows = []
    lo, hi = ridge.lo, ridge.hi
    if hi > lo:
        xs = np.linspace(lo, hi, 129)[1:-1]
        for x1, beta in zip(xs, ridge.data(xs)["beta"]):
            rows.append([x1, beta, RIDGE_SBAR, (2 * np.sin(beta)) ** 3 / 3.0])
    return {"entropy_frames.json": {"f0_jump": entropy_mod.f0_jump(ridge), "frames": frames,
                                    "f0_two_frames": entropy_mod.two_frame_norm(*two)},
            "ridge_report.csv": (["x1", "beta", "sbar", "jump_density"], rows)}, True


def run_kinetic_check(cfg: ExperimentConfig) -> tuple[dict, bool]:
    grid = cfg.grid
    betas = [np.pi / 8, np.pi / 4, np.pi / 3, 3 * np.pi / 8, np.pi / 2]
    max_err = 0.0
    for beta in betas:
        for psi in kinetic_mod.GENERATORS:
            lhs, rhs = kinetic_mod.jump_identity_check(beta, psi)
            max_err = max(max_err, abs(lhs - rhs))
    n_beta = cfg.values["beta_grid"]
    bgrid = np.linspace(0.0, np.pi, n_beta + 2)[1:-1]
    norm_err = max(abs(kinetic_mod.gbar_beta(float(b)).total_variation() - 1.0) for b in bgrid)
    alphas = [-1.0, -0.1, -0.05, -0.01, 0.01, 0.05, 0.1, 1.0]
    minimal_ok = all(
        kinetic_mod.minimality_check(kinetic_mod.minimal_disintegration(kind), alphas)
        for kind in (
            kinetic_mod.NonJump(0.0, 1), kinetic_mod.NonJump(1.0, -1),
            kinetic_mod.Jump(np.pi / 3, np.pi / 2), kinetic_mod.Jump(np.pi / 6, 0.0),
        )
    )
    _, m = exact_limit_field(grid)
    cells = kinetic_mod.ridge_sigma_field(grid)
    with_sigma, without_sigma = kinetic_mod.kinetic_residual(m, cells, kinetic_mod.default_test_bank(grid))
    return {"kinetic_check.json": {
        "max_identity_error": max_err,
        "max_normalization_error": norm_err,
        "minimality_ok": minimal_ok,
        "residual_with_sigma": with_sigma,
        "residual_without_sigma": without_sigma,
        "sign_structure": kinetic_mod.sign_structure_report(cells),
    }}, True


def run_characteristics(cfg: ExperimentConfig) -> tuple[dict, bool]:
    T, seed = cfg.values["ensemble_T"], cfg.values["seed"]
    flow = lagrangian_mod.DomainFlow(cfg.grid)
    report = lagrangian_mod.ensemble_representation_check(flow, cfg.values["ensemble_n"], T, seed)
    # a handful of individual curves for inspection, traced forward over [0, T]
    pts, angs = lagrangian_mod.sample_chi_points(flow, 6, np.random.default_rng(seed))
    t_end, _, _, t_ref, x_ref, s_ref = lagrangian_mod._trace_batch(flow, pts, angs, np.full(6, T), +1)
    times = np.linspace(0.0, t_end, 33)  # one column per curve
    x, s = lagrangian_mod.curve_at(times, pts, 0.0, angs, (t_ref, x_ref, s_ref), (-np.inf, np.nan, np.nan))
    rows = [[k, times[j, k], x[j, k, 0], x[j, k, 1], s[j, k]] for k in range(6) for j in range(33)]
    s_minus = np.mod(angs, lagrangian_mod.TWO_PI)
    ccw, arc = lagrangian_mod.arc_arrays(s_minus, s_ref)
    jrows = [[k, t_ref[k], x_ref[k, 0], x_ref[k, 1], s_minus[k], s_ref[k], ccw[k], arc[k]]
             for k in np.flatnonzero(np.isfinite(t_ref))]
    return {"ensemble_report.json": asdict(report), "curves.csv": (["curve", "t", "x1", "x2", "s"], rows),
            "jumps.csv": (["curve", "t", "x1", "x2", "s_minus", "s_plus", "ccw", "arc"], jrows)}, True


# subcommand -> the pipelines it runs, in order
_STEPS = {
    "minimize": (run_minimize,),
    "limit-table": (run_limit_table,),
    "entropy-report": (run_entropy_report,),
    "kinetic-check": (run_kinetic_check,),
    "characteristics": (run_characteristics,),
    "all": (run_entropy_report, run_kinetic_check, run_characteristics, run_limit_table),
}
SUBCOMMANDS = tuple(_STEPS)


def run(subcommand: str, config_path: str | Path) -> int:
    """Run the subcommand's pipelines in order, writing each one's reports before the next runs."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    stamp = {"config_hash": cfg.config_hash(), "seed": cfg.values["seed"]}
    status = EXIT_OK
    for step in _STEPS[subcommand]:
        reports, converged = step(cfg)
        cfg.values["directory"].mkdir(parents=True, exist_ok=True)
        for name, payload in reports.items():
            path = cfg.values["directory"] / name
            if isinstance(payload, dict):
                _write_json(path, {**stamp, **payload})
            elif isinstance(payload, tuple):
                _write_table(path, *payload, stamp)
            else:
                dump_field(path, payload)
        if not converged:
            status = EXIT_NOT_CONVERGED
    return status


def main(argv: list[str] | None = None) -> int:
    """``aglab SUBCOMMAND CONFIG``; other arguments are a usage error, exit status 3."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(f"usage: aglab {{{','.join(SUBCOMMANDS)}}} CONFIG; got {len(args)} argument(s)", file=sys.stderr)
        return EXIT_CONFIG
    return run(*args)


if __name__ == "__main__":
    sys.exit(main())
