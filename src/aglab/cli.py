"""Experiment runner: plain-text configs in, deterministic reports out.

Config files are key = value pairs grouped into [section] headers.  One
table, ``_SCHEMA``, gives every key its parser, default and valid range.
``parse_config`` rejects unknown sections and keys, types, defaults and
range-checks every key in one pass, then builds the domain and the
minimizer options (loading any warm start).  Rules that span several
keys stay with the objects that enforce them, the domain constructors
and ``energy.check_eps_schedule``, and their faults are config errors
too.  So every check runs before any pipeline.  Relative paths resolve
against the config file's directory.  Every report carries the config
hash and the seed, and a fixed (config, seed) pair reproduces the
outputs byte for byte.

``[diagnostics] ensemble_dt`` is accepted, because the benchmark's
configs set it, but nothing reads it: the tracer moves from event to
event and has no time step.  It still enters the config hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from . import entropy as entropy_mod
from . import kinetic as kinetic_mod
from . import lagrangian as lagrangian_mod
from .errors import ConfigError
from .fields import dump_field, exact_limit_field, load_field
from .geometry import Domain, Ellipse, Grid, Stadium, ridge_set

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3

SUBCOMMANDS = ("minimize", "limit-table", "entropy-report", "kinetic-check", "characteristics", "all")

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
    "grid": {"resolution": _count(1, "128"), "h": _number(), "ghost": _count(0, "2")},
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
        return Grid.cover(self.domain, h=h, resolution=None if h else self.values["resolution"],
                          ghost=self.values["ghost"])

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
        except (OSError, ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"{path}:{lines['warm_start']}: cannot load warm_start: {exc}") from None
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
    return ExperimentConfig(raw, values, domain, opts)


# ---------------------------------------------------------------------------
# report emission


def _stamp(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "seed": cfg.values["seed"]}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1, default=_jsonify) + "\n")


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_table(path: Path, header: list[str], rows: list[list], stamp: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_hash={stamp['config_hash']} seed={stamp['seed']}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    # gnuplot-ready twin: whitespace separated, hash-commented header
    dat = path.with_suffix(".dat")
    dlines = [f"# config_hash={stamp['config_hash']} seed={stamp['seed']}", "# " + " ".join(header)]
    for row in rows:
        dlines.append(" ".join(_fmt(v) for v in row))
    dat.write_text("\n".join(dlines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# pipelines


def run_minimize(cfg: ExperimentConfig) -> int:
    eps = cfg.values["eps_list"][0]
    res = energy_mod.minimize(cfg.domain, cfg.grid, eps, cfg.opts)
    out = cfg.values["directory"]
    dump_field(out / f"u_eps{eps:g}.txt", res.u)
    split = res.levels[-1].split
    _write_json(out / "minimize_summary.json", {
        **_stamp(cfg),
        "eps": eps,
        "total": split.total,
        "hessian_term": split.hessian_term,
        "potential_term": split.potential_term,
        "iterations": res.iterations,
        "converged": res.converged,
        "eta_final": res.eta_final,
        "grad_norm_final": res.levels[-1].grad_norm,
    })
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def run_limit_table(cfg: ExperimentConfig) -> int:
    table = energy_mod.energy_limit_table(cfg.domain, cfg.grid, cfg.values["eps_list"], cfg.opts)
    out = cfg.values["directory"]
    rows = [[r.eps, r.total, r.hessian_term, r.potential_term, r.core_total, r.w11, r.converged, r.iterations]
            for r in table.rows]
    _write_table(out / "limit_table.csv",
                 ["eps", "total", "hessian", "potential", "core_total", "w11", "converged", "iterations"],
                 rows, _stamp(cfg))
    _write_json(out / "limit_table.json", {
        **_stamp(cfg),
        "f0_reference": table.f0_reference,
        "w11_monotone": table.w11_monotone,
        "gap_monotone": table.gap_monotone,
        "rows": [{"eps": r.eps, "total": r.total, "w11": r.w11, "converged": r.converged}
                 for r in table.rows],
    })
    ok = all(r.converged for r in table.rows)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def run_entropy_report(cfg: ExperimentConfig) -> int:
    domain, grid = cfg.domain, cfg.grid
    _, m = exact_limit_field(domain, grid)
    ridge = ridge_set(domain)
    n_frames = cfg.values["n_frames"]
    near = np.abs(grid.nodes[..., 1]) <= 3 * grid.h

    def production(theta):
        return entropy_mod.entropy_production(m, entropy_mod.frame_entropy_map(entropy_mod.Frame(theta)))

    # the productions of f0_tilde_two_frames; the frame loop reuses them at
    # angles it hits exactly (both of them for n_frames = 8)
    two = {t: production(t) for t in entropy_mod.TWO_FRAMES}
    frames = []
    for k in range(n_frames):
        theta = k * np.pi / (2 * n_frames)
        prod = two[theta] if theta in two else production(theta)
        frames.append({
            "frame_theta": theta,
            "tv_interior": prod.total_variation(grid.interior()),
            "tv_near_ridge": prod.total_variation(grid.active() & near),
            "flux_boundary": entropy_mod.boundary_flux(domain, entropy_mod.Frame(theta)),
        })
    out = cfg.values["directory"]
    _write_json(out / "entropy_frames.json", {
        **_stamp(cfg),
        "f0_jump": entropy_mod.f0_jump(ridge),
        "f0_two_frames": entropy_mod.two_frame_norm(*two.values()),
        "frames": frames,
    })
    rows = []
    lo, hi = ridge.p_minus[0], ridge.p_plus[0]
    if hi > lo:
        xs = np.linspace(lo, hi, 129)[1:-1]
        data = ridge.data(xs)
        for i, x1 in enumerate(xs):
            beta = data["beta"][i]
            rows.append([x1, beta, data["sbar"][i], (2 * np.sin(beta)) ** 3 / 3.0])
    _write_table(out / "ridge_report.csv", ["x1", "beta", "sbar", "jump_density"], rows, _stamp(cfg))
    return EXIT_OK


def run_kinetic_check(cfg: ExperimentConfig) -> int:
    domain, grid = cfg.domain, cfg.grid
    betas = [np.pi / 8, np.pi / 4, np.pi / 3, 3 * np.pi / 8, np.pi / 2]
    gens = [kinetic_mod.EntropyGenerator(p) for p in (
        kinetic_mod.PSI_COS2, kinetic_mod.PSI_SIN2, kinetic_mod.PSI_COS4, kinetic_mod.PSI_SIN4)]
    max_err = 0.0
    for beta in betas:
        for gen in gens:
            lhs, rhs = kinetic_mod.jump_identity_check(beta, gen)
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
    _, m = exact_limit_field(domain, grid)
    sigma = kinetic_mod.ridge_sigma_field(domain, grid)
    bank = kinetic_mod.default_test_bank(domain, grid)
    res = kinetic_mod.kinetic_residual(m, sigma.cells, bank)
    report = kinetic_mod.sign_structure_report(sigma.cells, ridge_set(domain))
    _write_json(cfg.values["directory"] / "kinetic_check.json", {
        **_stamp(cfg),
        "max_identity_error": max_err,
        "max_normalization_error": norm_err,
        "minimality_ok": minimal_ok,
        "residual_with_sigma": res.max_residual,
        "residual_without_sigma": res.without_sigma,
        "sign_structure": report.to_json(),
    })
    return EXIT_OK


def run_characteristics(cfg: ExperimentConfig) -> int:
    h, T, seed = cfg.grid.h, cfg.values["ensemble_T"], cfg.values["seed"]
    flow = lagrangian_mod.ensemble_flow(cfg.domain, h)
    report = lagrangian_mod.ensemble_representation_check(flow, cfg.values["ensemble_n"], T, seed, h)
    out = cfg.values["directory"]
    _write_json(out / "ensemble_report.json", {**_stamp(cfg), **report.to_json()})
    # a handful of individual curves for inspection, traced forward over [0, T]
    pts, angs = lagrangian_mod._sample_chi_points(flow, 6, np.random.default_rng(seed))
    t_end, _, _, t_ref, x_ref, s_ref = lagrangian_mod._trace_batch(flow, pts, angs, np.full(6, T), +1)
    times = np.linspace(0.0, t_end, 33)  # one column per curve
    x, s = lagrangian_mod.curve_at(times, pts, 0.0, angs, (t_ref, x_ref, s_ref), (-np.inf, np.nan, np.nan))
    rows = [[k, times[j, k], x[j, k, 0], x[j, k, 1], s[j, k]] for k in range(6) for j in range(33)]
    s_minus = np.mod(angs, lagrangian_mod.TWO_PI)
    ccw, arc = lagrangian_mod._arc_arrays(s_minus, s_ref)
    jrows = [[k, t_ref[k], x_ref[k, 0], x_ref[k, 1], s_minus[k], s_ref[k], ccw[k], arc[k]]
             for k in np.flatnonzero(np.isfinite(t_ref))]
    _write_table(out / "curves.csv", ["curve", "t", "x1", "x2", "s"], rows, _stamp(cfg))
    _write_table(out / "jumps.csv", ["curve", "t", "x1", "x2", "s_minus", "s_plus", "ccw", "arc"], jrows, _stamp(cfg))
    return EXIT_OK


def run(subcommand: str, config_path: str | Path) -> int:
    """Execute one pipeline; exit status 0 ok, 2 not converged, 3 config error."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand {subcommand!r}; expected one of {SUBCOMMANDS}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    steps = {
        "minimize": (run_minimize,),
        "limit-table": (run_limit_table,),
        "entropy-report": (run_entropy_report,),
        "kinetic-check": (run_kinetic_check,),
        "characteristics": (run_characteristics,),
        "all": (run_entropy_report, run_kinetic_check, run_characteristics, run_limit_table),
    }[subcommand]
    return max(step(cfg) for step in steps)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="aglab", description="extended-domain functional laboratory")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="path to the experiment config")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config)


if __name__ == "__main__":
    sys.exit(main())
