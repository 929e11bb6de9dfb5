"""Experiment runner: plain-text configs in, deterministic reports out.

Config files are key = value pairs grouped into [section] headers; every
key is validated against a fixed schema and unknown keys are rejected
with a line diagnostic.  All relative paths resolve against the config
file's directory.  Every emitted table and JSON report carries the
config hash and the seed, and a fixed (config, seed) pair reproduces
the outputs byte for byte.

``[diagnostics] ensemble_dt`` is still accepted, so configs written for
the former time-stepping tracer keep parsing, but nothing reads it: the
tracer moves from event to event and has no time step.  It still enters
the config hash.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
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

_SCHEMA: dict[str, dict[str, type]] = {
    "domain": {"kind": str, "a": float, "b": float, "L": float, "R": float, "delta": float},
    "grid": {"resolution": int, "h": float, "ghost": int},
    "minimize": {
        "eps_list": str, "max_iter": int, "tol": float, "eta0": float,
        "eta_min": float, "hessian_power": int, "warm_start": str,
    },
    "diagnostics": {
        "n_frames": int, "n_s": int, "ensemble_n": int, "ensemble_T": float, "beta_grid": int,
        "ensemble_dt": float,  # accepted so that older configs parse; read by nothing
    },
    "output": {"directory": str, "seed": int},
}


@dataclass
class ExperimentConfig:
    raw: dict[str, dict[str, str]]
    path: Path

    # parsed views -----------------------------------------------------------
    def domain(self) -> Domain:
        sec = self.raw.get("domain", {})
        kind = sec.get("kind", "ellipse")
        delta = float(sec["delta"]) if "delta" in sec else None
        if kind == "ellipse":
            return Ellipse(a=float(sec["a"]), b=float(sec["b"]), delta=delta)
        if kind == "stadium":
            return Stadium(L=float(sec["L"]), R=float(sec["R"]), delta=delta)
        raise ConfigError(f"unknown domain kind {kind!r}")

    def grid(self) -> Grid:
        sec = self.raw.get("grid", {})
        ghost = int(sec.get("ghost", 2))
        if "h" in sec:
            return Grid.cover(self.domain(), h=float(sec["h"]), ghost=ghost)
        resolution = int(sec.get("resolution", 128))
        return Grid.cover(self.domain(), resolution=resolution, ghost=ghost)

    def eps_list(self) -> list[float]:
        sec = self.raw.get("minimize", {})
        text = sec.get("eps_list", "0.4, 0.2, 0.1")
        return [float(tok) for tok in text.replace(",", " ").split()]

    def minimize_options(self) -> energy_mod.MinimizeOptions:
        sec = self.raw.get("minimize", {})
        opts = energy_mod.MinimizeOptions()
        if "max_iter" in sec:
            opts.max_iter = int(sec["max_iter"])
        if "tol" in sec:
            opts.tol = float(sec["tol"])
        if "eta0" in sec:
            opts.eta0 = float(sec["eta0"])
        if "eta_min" in sec:
            opts.eta_min = float(sec["eta_min"])
        if "hessian_power" in sec:
            opts.hessian_power = int(sec["hessian_power"])
            if opts.hessian_power not in (1, 2):
                raise ConfigError("hessian_power must be 1 or 2")
        if "warm_start" in sec:
            opts.warm_start = load_field(self.resolve(sec["warm_start"]))
        return opts

    def diag(self, key: str, default):
        sec = self.raw.get("diagnostics", {})
        if key not in sec:
            return default
        caster = type(default)
        return caster(sec[key])

    def output_dir(self) -> Path:
        sec = self.raw.get("output", {})
        return self.resolve(sec.get("directory", "out"))

    def seed(self) -> int:
        return int(self.raw.get("output", {}).get("seed", "1234"))

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else (self.path.parent / p)

    # canonical text ----------------------------------------------------------
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
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw: dict[str, dict[str, str]] = {}
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
        caster = _SCHEMA[section][key]
        if caster in (int, float) and key != "eps_list":
            try:
                caster(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {value!r}") from exc
        raw[section][key] = value
    return ExperimentConfig(raw=raw, path=path)


# ---------------------------------------------------------------------------
# report emission


def _stamp(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.config_hash(), "seed": cfg.seed()}


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
    domain, grid = cfg.domain(), cfg.grid()
    opts = cfg.minimize_options()
    eps = cfg.eps_list()[0]
    res = energy_mod.minimize(domain, grid, eps, opts)
    out = cfg.output_dir()
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
    domain, grid = cfg.domain(), cfg.grid()
    table = energy_mod.energy_limit_table(domain, grid, cfg.eps_list(), cfg.minimize_options())
    out = cfg.output_dir()
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
    domain, grid = cfg.domain(), cfg.grid()
    _, m = exact_limit_field(domain, grid)
    ridge = ridge_set(domain)
    n_frames = cfg.diag("n_frames", 8)
    near = np.abs(grid.nodes[..., 1]) <= 3 * grid.h
    frames = []
    for k in range(n_frames):
        theta = k * np.pi / (2 * n_frames)
        prod = entropy_mod.entropy_production(m, entropy_mod.frame_entropy_map(entropy_mod.Frame(theta)))
        frames.append({
            "frame_theta": theta,
            "tv_interior": prod.total_variation(grid.interior()),
            "tv_near_ridge": prod.total_variation(grid.active() & near),
            "flux_boundary": entropy_mod.boundary_flux(domain, entropy_mod.Frame(theta)),
        })
    out = cfg.output_dir()
    _write_json(out / "entropy_frames.json", {
        **_stamp(cfg),
        "f0_jump": entropy_mod.f0_jump(ridge),
        "f0_two_frames": entropy_mod.f0_tilde_two_frames(m),
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
    domain, grid = cfg.domain(), cfg.grid()
    betas = [np.pi / 8, np.pi / 4, np.pi / 3, 3 * np.pi / 8, np.pi / 2]
    gens = [kinetic_mod.EntropyGenerator(p) for p in (
        kinetic_mod.PSI_COS2, kinetic_mod.PSI_SIN2, kinetic_mod.PSI_COS4, kinetic_mod.PSI_SIN4)]
    max_err = 0.0
    for beta in betas:
        for gen in gens:
            lhs, rhs = kinetic_mod.jump_identity_check(beta, gen)
            max_err = max(max_err, abs(lhs - rhs))
    n_beta = cfg.diag("beta_grid", 100)
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
    res_sigma = kinetic_mod.kinetic_residual(m, sigma, bank)
    res_zero = kinetic_mod.kinetic_residual(m, {}, bank)
    report = kinetic_mod.sign_structure_report(sigma, ridge_set(domain))
    _write_json(cfg.output_dir() / "kinetic_check.json", {
        **_stamp(cfg),
        "max_identity_error": max_err,
        "max_normalization_error": norm_err,
        "minimality_ok": minimal_ok,
        "residual_with_sigma": res_sigma.max_residual,
        "residual_without_sigma": res_zero.max_residual,
        "sign_structure": report.to_json(),
    })
    return EXIT_OK


def run_characteristics(cfg: ExperimentConfig) -> int:
    domain, grid = cfg.domain(), cfg.grid()
    n = cfg.diag("ensemble_n", 20000)
    T = cfg.diag("ensemble_T", 1.0)
    report = lagrangian_mod.ensemble_representation_check(domain, n, T, cfg.seed(), grid.h)
    out = cfg.output_dir()
    _write_json(out / "ensemble_report.json", {**_stamp(cfg), **report.to_json()})
    # a handful of individual curves for inspection
    rng = np.random.default_rng(cfg.seed())
    inset = min(2 * grid.h, 0.5 * domain.delta)
    flow = lagrangian_mod.DomainFlow(domain, inset)
    pts, angs = lagrangian_mod._sample_chi_points(flow, 6, rng)
    rows, jrows = [], []
    for k in range(pts.shape[0]):
        curve = lagrangian_mod.trace_characteristic(domain, ((pts[k, 0], pts[k, 1]), angs[k]), T, inset=inset)
        for tt in np.linspace(curve.t_minus, curve.t_plus, 33):
            p = curve.position(min(tt, curve.t_plus))
            rows.append([k, tt, p[0], p[1], curve.angle(min(tt, curve.t_plus))])
        for j in curve.jumps:
            jrows.append([k, j.t, j.x[0], j.x[1], j.s_minus, j.s_plus, j.ccw, j.arc_length])
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
        cfg.domain()  # validate early
    except (ConfigError, ValueError, KeyError) as exc:
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
    status = EXIT_OK
    for step in steps:
        code = step(cfg)
        status = max(status, code)
    return status


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="aglab", description="extended-domain functional laboratory")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("config", help="path to the experiment config")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config)


if __name__ == "__main__":
    sys.exit(main())
