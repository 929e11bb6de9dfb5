import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy

import aglab
from aglab import cli
from aglab.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main, parse_config, run
from aglab.energy import MinimizeOptions
from aglab.errors import ConfigError
from aglab.fields import ScalarField, dump_field, load_field
from aglab.geometry import Ellipse, Grid

ELLIPSE_CFG = """
[domain]
kind = ellipse
a = 1.0
b = 0.5

[grid]
resolution = 48

[minimize]
eps_list = 0.5, 0.4
max_iter = 1500
tol = 5e-3
hessian_power = 2

[diagnostics]
n_frames = 2
beta_grid = 12
ensemble_n = 2000
ensemble_T = 0.5
ensemble_dt = 0.01

[output]
directory = out
seed = 99
"""

DISK_CFG = """
[domain]
kind = ellipse
a = 0.6
b = 0.6

[grid]
resolution = 40

[minimize]
eps_list = 0.5
max_iter = 800
tol = 1e-2
hessian_power = 2

[diagnostics]
n_frames = 2
beta_grid = 8
ensemble_n = 2000
ensemble_T = 0.4
ensemble_dt = 0.01

[output]
directory = disk_out
seed = 5
"""

STADIUM_CFG = ELLIPSE_CFG.replace("kind = ellipse\na = 1.0\nb = 0.5", "kind = stadium\nL = 2.0\nR = 1.0")

# the golden digests of every report file `all` writes on these configs
DIGEST_CONFIGS = {"ellipse": ELLIPSE_CFG, "disk": DISK_CFG, "stadium": STADIUM_CFG}
REPORT_DIGESTS = Path(__file__).with_name("report_digests.json")
# the names of the 12 files `all` writes on ELLIPSE_CFG
ALL_FILES = sorted(Path(f).name for f in json.loads(REPORT_DIGESTS.read_text())["digests"] if f.startswith("ellipse/"))


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_config_roundtrip_idempotent(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    cfg = parse_config(p)
    canon = cfg.serialize()
    p2 = write_cfg(tmp_path, canon, "canon.cfg")
    cfg2 = parse_config(p2)
    assert cfg2.serialize() == canon
    assert cfg2.config_hash() == cfg.config_hash()


def test_config_unknown_key_rejected(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG + "\n[domain]\nbogus = 1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert "bogus" in str(exc.value)
    assert ":" in str(exc.value)  # line diagnostic


def test_config_bad_value_has_line(tmp_path):
    p = write_cfg(tmp_path, "[domain]\nkind = ellipse\na = nope\nb = 0.5\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert ":3:" in str(exc.value)


@pytest.mark.parametrize("bad, key, first, second", [
    (("resolution = 48", "resolution = 48\nresolution = 32"), "'resolution' in [grid]", 8, 9),
    (("seed = 99", "seed = 99\n\n[domain]\nb = 0.4"), "'b' in [domain]", 5, 28),
], ids=["same-section", "reopened-section"])
def test_repeated_key_is_a_config_error(tmp_path, bad, key, first, second):
    # the last value would win silently, and only its text would enter config_hash
    p = write_cfg(tmp_path, ELLIPSE_CFG.replace(*bad))
    with pytest.raises(ConfigError) as exc:
        parse_config(p)
    assert f":{second}: key {key} is already set on line {first}" in str(exc.value)
    assert run("minimize", p) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()
    # a reopened section may set keys it has not set yet
    p = write_cfg(tmp_path, ELLIPSE_CFG + "\n[domain]\ndelta = 0.04\n")
    assert parse_config(p).domain.delta == 0.04


def test_run_bad_config_exit_code(tmp_path):
    p = write_cfg(tmp_path, "[domain]\nkind = dodecahedron\n")
    assert run("entropy-report", p) == EXIT_CONFIG
    assert run("entropy-report", tmp_path / "missing.cfg") == EXIT_CONFIG
    assert run("fly-to-the-moon", p) == EXIT_CONFIG


@pytest.mark.parametrize("extra", ["[minimize]\noptimizer = lbfgs", "[diagnostics]\nn_s = 64"],
                         ids=["optimizer", "n_s"])
def test_removed_key_is_a_config_error(tmp_path, extra):
    # there is one minimizer, and nothing samples the circle on n_s points;
    # a config asking for either must not run
    p = write_cfg(tmp_path, ELLIPSE_CFG + "\n" + extra + "\n")
    assert run("minimize", p) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [
    ("resolution = 48", "resolution = 0"), ("resolution = 48", "h = 0"), ("resolution = 48", "h = -0.1"),
    ("resolution = 48", "resolution = 48\nghost = -5"), ("eps_list = 0.5, 0.4", "eps_list = 0.2, x"),
    ("eps_list = 0.5, 0.4", "eps_list = -0.1"), ("eps_list = 0.5, 0.4", "eps_list = 0.5, 0"),
    ("hessian_power = 2", "hessian_power = 3"), ("hessian_power = 2", "hessian_power = 2\nwarm_start = none.txt"),
    ("hessian_power = 2", "hessian_power = 1\neta_min = 0"), ("resolution = 48", "h = inf"),
    ("tol = 5e-3", "tol = nan"), ("ensemble_n = 2000", "ensemble_n = 10"), ("beta_grid = 12", "beta_grid = 0"),
    ("ensemble_T = 0.5", "ensemble_T = 0"), ("n_frames = 2", "n_frames = 0"), ("seed = 99", "seed = -1"),
    ("eps_list = 0.5, 0.4", "eps_list = 0.4, 0.5"), ("b = 0.5", "b = 1.5"), ("kind = ellipse", "kind = stadium"),
], ids=["resolution-0", "h-0", "h-negative", "ghost-negative", "eps-not-a-number", "eps-negative", "eps-0",
        "hessian-power-3", "warm-start-missing", "eta-min-0", "h-inf", "tol-nan", "ensemble-n-10", "beta-grid-0",
        "ensemble-T-0", "n-frames-0", "seed-negative", "eps-increasing", "b-above-a", "stadium-without-L-R"])
@pytest.mark.parametrize("subcommand", ["minimize", "limit-table", "characteristics"])
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, bad, subcommand):
    p = write_cfg(tmp_path, ELLIPSE_CFG.replace(*bad))
    assert run(subcommand, p) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_check_builds_no_grid(tmp_path, monkeypatch):
    from aglab import geometry

    covers = []
    cover = geometry.Grid.cover
    monkeypatch.setattr(geometry.Grid, "cover", staticmethod(lambda *a, **k: covers.append(a) or cover(*a, **k)))
    assert run("characteristics", write_cfg(tmp_path, ELLIPSE_CFG)) == EXIT_OK
    assert len(covers) == 1
    # the pipelines of one run share its grid
    covers.clear()
    assert run("all", write_cfg(tmp_path, ELLIPSE_CFG)) == EXIT_OK
    assert len(covers) == 1


@pytest.mark.parametrize("subcommand", ["entropy-report", "kinetic-check", "minimize", "all"])
def test_one_run_projects_the_grid_once(tmp_path, monkeypatch, subcommand):
    # the field of every pipeline is the one Grid.cover projected
    from aglab import geometry

    cfg_path = write_cfg(tmp_path, ELLIPSE_CFG)
    nodes = parse_config(cfg_path).grid.nodes.size // 2
    sizes = []
    project = geometry._project_raw
    monkeypatch.setattr(geometry, "_project_raw", lambda d, x: sizes.append(np.size(x) // 2) or project(d, x))
    run(subcommand, cfg_path)
    assert sizes.count(nodes) == 1


def test_a_stadium_run_computes_its_limit_field_once(tmp_path, monkeypatch):
    # every pipeline of `all` reads the one field the grid computed on first use
    from aglab import geometry

    cfg_path = write_cfg(tmp_path, STADIUM_CFG)
    nodes = parse_config(cfg_path).grid.nodes.size // 2
    sizes = []
    grad = geometry.signed_distance_grad
    monkeypatch.setattr(geometry, "signed_distance_grad", lambda d, x: sizes.append(np.size(x) // 2) or grad(d, x))
    assert run("all", cfg_path) == EXIT_OK
    assert sizes.count(nodes) == 1


def test_negative_eta_min_is_rejected_at_parse(tmp_path):
    # at hessian_power = 1 such a value would never end the eta schedule, so it is checked only here
    text = ELLIPSE_CFG.replace("hessian_power = 2", "hessian_power = 1\neta_min = -1")
    line = text.splitlines().index("eta_min = -1") + 1
    with pytest.raises(ConfigError, match=rf":{line}: eta_min must be a finite number > 0, got '-1'$"):
        parse_config(write_cfg(tmp_path, text))


def test_schema_defaults_pass_their_own_checks():
    for entries in cli._SCHEMA.values():
        for key, (parse, default, check) in entries.items():
            if default is not None:
                cli._typed((parse, default, check), default)
    # the [minimize] keys left unset are exactly the fields whose defaults MinimizeOptions holds
    assert cli._OPTIONS == [f.name for f in fields(MinimizeOptions)]
    assert all(cli._SCHEMA["minimize"][key][1] is None for key in cli._OPTIONS)


def test_config_holds_typed_values_and_built_objects(tmp_path):
    field_dir = tmp_path / "fields"
    assert run("minimize", write_cfg(tmp_path, ELLIPSE_CFG.replace("directory = out", "directory = fields"))) == EXIT_OK
    cfg = parse_config(write_cfg(tmp_path, ELLIPSE_CFG.replace(
        "hessian_power = 2", "hessian_power = 2\nwarm_start = fields/u_eps0.5.txt")))
    assert cfg.domain == Ellipse(1.0, 0.5)
    assert cfg.values["eps_list"] == [0.5, 0.4] and cfg.values["seed"] == 99 and cfg.values["ghost"] == 2
    assert cfg.values["directory"] == tmp_path / "out"
    assert (cfg.opts.max_iter, cfg.opts.tol, cfg.opts.hessian_power, cfg.opts.eta0) == (1500, 5e-3, 2, 1.0)
    assert np.array_equal(cfg.opts.warm_start.values, load_field(field_dir / "u_eps0.5.txt").values)
    assert cfg.grid is cfg.grid and cfg.grid.nx == 48 + 2 * 2 + 1  # resolution plus two ghost layers a side


WARM_CFG = ELLIPSE_CFG.replace("resolution = 48", "h = 0.05")


@pytest.mark.parametrize("case", ["dumped-at-h-0.0625", "same-shape-other-h"])
@pytest.mark.parametrize("subcommand", ["minimize", "limit-table"])
def test_warm_start_on_another_lattice_is_a_config_error(tmp_path, capsys, case, subcommand):
    # a zero field from a cover at h = 1/16, or of the run's shape with an h 1% larger
    if case == "dumped-at-h-0.0625":
        grid = Grid.cover(Ellipse(1.0, 0.5), h=0.0625)
    else:
        g = parse_config(write_cfg(tmp_path, WARM_CFG)).grid
        grid = Grid(origin=g.origin, h=1.01 * g.h, nx=g.nx, ny=g.ny)
    dump_field(tmp_path / "fields" / "u.txt", ScalarField(grid, np.zeros(grid.shape)))
    text = WARM_CFG.replace("hessian_power = 2", "hessian_power = 2\nwarm_start = fields/u.txt")
    p = write_cfg(tmp_path, text)
    line = text.splitlines().index("warm_start = fields/u.txt") + 1
    with pytest.raises(ConfigError, match=rf":{line}: warm_start lies on another grid: "):
        parse_config(p)
    assert run(subcommand, p) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_characteristics_traces_two_batches(tmp_path, monkeypatch):
    # one ensemble chunk, traced both ways in one call, and one batch for the six sample curves
    from aglab import lagrangian

    calls = []
    trace = lagrangian._trace_batch
    monkeypatch.setattr(lagrangian, "_trace_batch", lambda *a, **k: calls.append(a) or trace(*a, **k))
    assert run("characteristics", write_cfg(tmp_path, ELLIPSE_CFG)) == EXIT_OK
    assert len(calls) == 2


def test_entropy_report_deterministic(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    assert run("entropy-report", p) == EXIT_OK
    out = tmp_path / "out"
    first = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert run("entropy-report", p) == EXIT_OK
    second = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert first == second
    report = json.loads((out / "entropy_frames.json").read_text())
    assert report["config_hash"] == parse_config(p).config_hash()
    assert len(report["frames"]) == 2
    assert (out / "ridge_report.csv").exists()
    assert (out / "ridge_report.dat").exists()


def software_stack() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def report_digests(root: Path) -> dict:
    """sha256 of every file `all` writes on each config of DIGEST_CONFIGS, run in root/<name>, by path under root."""
    cfgs = []
    for name, text in DIGEST_CONFIGS.items():
        (root / name).mkdir()
        cfgs.append(write_cfg(root / name, text))
        assert run("all", cfgs[-1]) == EXIT_OK
    files = sorted(f for f in root.rglob("*") if f.is_file() and f not in cfgs)
    return {f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def test_reports_match_golden_digests(tmp_path):
    """Every report is byte-identical to the committed table.  A change that
    moves report bits on purpose rewrites it with
    `PYTHONPATH=src python tests/test_cli.py` and says which files moved and why."""
    golden = json.loads(REPORT_DIGESTS.read_text())
    stack = software_stack()
    assert golden["stack"] == stack, f"digests were made on {golden['stack']}, this stack is {stack}"
    got, want = report_digests(tmp_path), golden["digests"]
    moved = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))
    assert not moved, f"reports moved against {REPORT_DIGESTS.name}: {moved}"


@pytest.mark.parametrize("n_frames", [2, 3, 8])
def test_entropy_report_computes_each_production_once(tmp_path, monkeypatch, n_frames):
    # only the productions of the two frames of f0_two_frames (0 and pi/4) are computed;
    # every frame's masses are linear in them, whether or not the frame loop hits pi/4
    from aglab import entropy

    fields = []
    production = entropy.entropy_production

    def counted(m, phi):
        fields.append(m)
        return production(m, phi)

    monkeypatch.setattr(entropy, "entropy_production", counted)
    p = write_cfg(tmp_path, ELLIPSE_CFG.replace("n_frames = 2", f"n_frames = {n_frames}"))
    assert run("entropy-report", p) == EXIT_OK
    assert len(fields) == 2
    report = json.loads((tmp_path / "out" / "entropy_frames.json").read_text())
    assert len(report["frames"]) == n_frames
    m = fields[0]
    tvs = [np.sum(np.abs(production(m, partial(entropy.sigma_frame, t)).values[m.grid.active()]))
           for t in (0.0, np.pi / 4)]
    assert report["f0_two_frames"] == float(np.hypot(*tvs))


@pytest.mark.parametrize("n_frames", [2, 3, 8])
def test_entropy_report_computes_the_rim_flux_once(tmp_path, monkeypatch, n_frames):
    # flux(theta) = cos 2theta flux(0), so one flux(0) serves every frame
    from aglab import entropy

    calls = []
    flux = entropy.boundary_flux

    def counted(domain):
        calls.append(domain)
        return flux(domain)

    monkeypatch.setattr(entropy, "boundary_flux", counted)
    p = write_cfg(tmp_path, ELLIPSE_CFG.replace("n_frames = 2", f"n_frames = {n_frames}"))
    assert run("entropy-report", p) == EXIT_OK
    assert len(calls) == 1
    frames = json.loads((tmp_path / "out" / "entropy_frames.json").read_text())["frames"]
    assert [f["flux_boundary"] for f in frames] == [float(np.cos(2 * f["frame_theta"]) * flux(calls[0]))
                                                    for f in frames]


def test_limit_table_outputs(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    status = run("limit-table", p)
    out = tmp_path / "out"
    assert (out / "limit_table.csv").exists()
    assert (out / "limit_table.dat").exists()
    table = json.loads((out / "limit_table.json").read_text())
    assert len(table["rows"]) == 2
    assert table["w11_monotone"]
    assert all(r["converged"] for r in table["rows"])
    assert status == EXIT_OK


def test_unconverged_runs_exit_2_and_write_every_report(tmp_path):
    # max_iter = 0 leaves minimize's one eta level unconverged, max_iter = 1 every limit-table row
    def capped(steps):
        return write_cfg(tmp_path, ELLIPSE_CFG.replace("max_iter = 1500", f"max_iter = {steps}"))

    out = tmp_path / "out"
    assert run("minimize", capped(0)) == EXIT_NOT_CONVERGED
    assert json.loads((out / "minimize_summary.json").read_text())["converged"] is False
    assert (out / "u_eps0.5.txt").exists()
    shutil.rmtree(out)
    assert run("all", capped(1)) == EXIT_NOT_CONVERGED
    assert sorted(f.name for f in out.iterdir()) == ALL_FILES


def test_pipelines_return_their_reports_and_write_nothing(tmp_path, monkeypatch):
    def refuse(path, *args):
        raise AssertionError(f"wrote {path}")

    for writer in ("_write_json", "_write_table", "dump_field"):
        monkeypatch.setattr(cli, writer, refuse)
    cfg = parse_config(write_cfg(tmp_path, ELLIPSE_CFG))
    reports, converged = cli.run_minimize(cfg)
    assert converged and list(reports) == ["u_eps0.5.txt", "minimize_summary.json"]
    assert isinstance(reports["u_eps0.5.txt"], ScalarField) and reports["minimize_summary.json"]["converged"]
    files = []
    for step in (cli.run_entropy_report, cli.run_kinetic_check, cli.run_characteristics, cli.run_limit_table):
        reports, converged = step(cfg)
        assert converged
        for name, payload in reports.items():
            assert isinstance(payload, (dict, tuple))
            files += [name, Path(name).with_suffix(".dat").name] if isinstance(payload, tuple) else [name]
    assert not cfg.values["directory"].exists()
    assert sorted(files) == ALL_FILES
    # run writes through the module's writers, which the benchmark's tracer wraps by name
    with pytest.raises(AssertionError, match="kinetic_check.json"):
        run("kinetic-check", write_cfg(tmp_path, ELLIPSE_CFG))


def test_minimize_dumps_field(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    run("minimize", p)
    out = tmp_path / "out"
    assert (out / "u_eps0.5.txt").exists()
    assert (out / "u_eps0.5.txt.json").exists()
    summary = json.loads((out / "minimize_summary.json").read_text())
    assert summary["eps"] == 0.5
    assert summary["total"] == pytest.approx(summary["hessian_term"] + summary["potential_term"])
    assert summary["levels_converged"] == [True]  # hessian_power = 2 runs one level


def test_minimize_reports_every_level(tmp_path):
    # the benchmark's minimize config with a budget of 36 steps: the first
    # four eta levels run out of their 4-step shares, the last level converges
    text = ("[domain]\nkind = ellipse\na = 1.0\nb = 0.5\n[grid]\nh = 0.025\n"
            "[minimize]\neps_list = 0.2\nhessian_power = 1\nmax_iter = 36\n[output]\ndirectory = out\nseed = 1\n")
    assert run("minimize", write_cfg(tmp_path, text)) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "minimize_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["levels_converged"] == [False] * 4 + [True] * 5


def test_limit_table_reports_every_level(tmp_path):
    # the same budget-starved run as a limit table's one row: the row's
    # `converged` reads only the last level, `levels_converged` shows the rest
    text = ("[domain]\nkind = ellipse\na = 1.0\nb = 0.5\n[grid]\nh = 0.025\n"
            "[minimize]\neps_list = 0.2\nhessian_power = 1\nmax_iter = 36\n[output]\ndirectory = out\nseed = 1\n")
    assert run("limit-table", write_cfg(tmp_path, text)) == EXIT_OK
    table = json.loads((tmp_path / "out" / "limit_table.json").read_text())
    [row] = table["rows"]
    assert row["converged"] is True
    assert row["levels_converged"] == [False] * 4 + [True] * 5


def test_kinetic_check_identity_error(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    assert run("kinetic-check", p) == EXIT_OK
    report = json.loads((tmp_path / "out" / "kinetic_check.json").read_text())
    assert report["sign_structure"].keys() == {"min_margin", "n_cells"}
    assert report["max_identity_error"] <= 1e-8
    assert report["max_normalization_error"] <= 1e-10
    assert report["minimality_ok"]
    assert report["residual_with_sigma"] < report["residual_without_sigma"]


def test_kinetic_check_computes_the_residual_once(tmp_path, monkeypatch):
    from aglab import kinetic

    calls = []
    residual = kinetic.kinetic_residual

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(kinetic, "kinetic_residual", counted)
    assert run("kinetic-check", write_cfg(tmp_path, ELLIPSE_CFG)) == EXIT_OK
    assert len(calls) == 1
    report = json.loads((tmp_path / "out" / "kinetic_check.json").read_text())
    m, _, bumps = calls[0]
    assert report["residual_without_sigma"] == residual(m, {}, bumps)[0]


def test_characteristics_report(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    assert run("characteristics", p) == EXIT_OK
    out = tmp_path / "out"
    rep = json.loads((out / "ensemble_report.json").read_text())
    assert rep.keys() == {
        "config_hash", "seed", "n_curves", "window", "stuck_curves", "n_jumps", "endpoint_error", "endpoint_ok",
        "probes", "pushforward_ok", "ridge_mass_fraction", "concentration_ok", "cancellation_ratio",
        "cancellation_ok", "ks_statistic", "ks_p_value", "stationarity_ok"}
    assert len(rep["probes"]) == 4
    assert all(probe.keys() == {"t", "chi2", "dof", "threshold", "ok"} for probe in rep["probes"])
    assert rep["seed"] == 99
    assert rep["cancellation_ok"]
    assert (out / "curves.csv").exists()
    assert (out / "jumps.csv").exists()


def test_ensemble_dt_is_ignored(tmp_path):
    """Configs may still set ensemble_dt; the event tracer has no time step."""
    reports = []
    for dt in ("0.005", "0.5"):
        p = write_cfg(tmp_path, ELLIPSE_CFG.replace("ensemble_dt = 0.01", f"ensemble_dt = {dt}"), f"dt{dt}.cfg")
        assert run("characteristics", p) == EXIT_OK
        rep = json.loads((tmp_path / "out" / "ensemble_report.json").read_text())
        assert rep.pop("config_hash") == parse_config(p).config_hash()
        reports.append(rep)
    assert reports[0] == reports[1]


def test_disk_reports_zero_jump_energy(tmp_path):
    p = write_cfg(tmp_path, DISK_CFG)
    assert run("entropy-report", p) == EXIT_OK
    report = json.loads((tmp_path / "disk_out" / "entropy_frames.json").read_text())
    assert report["f0_jump"] == 0.0


def test_main_entry(tmp_path, capsys):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    assert main(["entropy-report", str(p)]) == EXIT_OK


def test_missing_output_dir_created(tmp_path):
    cfg_text = ELLIPSE_CFG.replace("directory = out", "directory = deep/nested/dir")
    p = write_cfg(tmp_path, cfg_text)
    run("entropy-report", p)
    assert (tmp_path / "deep" / "nested" / "dir" / "entropy_frames.json").exists()


IMPORT_PROBE = """
import json, sys
import aglab
from aglab import cli
loaded = set(sys.modules)
status = cli.run("all", sys.argv[1])
added = sorted(n for n in set(sys.modules) - loaded if n.split(".")[0] in ("numpy", "scipy"))
unused = {"scipy.stats", "scipy.ndimage", "scipy.integrate", "scipy.optimize"} & loaded
print(json.dumps({"status": status, "unused": sorted(unused), "added": added}))
"""


def run_python(tmp_path, *args):
    """A fresh interpreter on this checkout's aglab, run in tmp_path."""
    src = str(Path(aglab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)


def test_runs_import_only_what_they_compute_with(tmp_path):
    """Importing aglab loads none of scipy.stats, scipy.ndimage, scipy.integrate
    and scipy.optimize, and a run of every subcommand then imports no further
    numpy or scipy module, so no import cost hides in a run's wall time.
    Checked in a fresh process."""
    done = run_python(tmp_path, "-c", IMPORT_PROBE, str(write_cfg(tmp_path, ELLIPSE_CFG)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"status": EXIT_OK, "unused": [], "added": []}


def test_module_entry_runs_without_warnings(tmp_path):
    # the package does not import cli, so runpy executes cli.py once, as __main__
    done = run_python(tmp_path, "-m", "aglab.cli", "entropy-report", str(write_cfg(tmp_path, ELLIPSE_CFG)))
    assert done.returncode == EXIT_OK
    assert done.stderr == ""
    assert (tmp_path / "out" / "entropy_frames.json").exists()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"stack": software_stack(), "digests": report_digests(Path(tmp))}
    old = json.loads(REPORT_DIGESTS.read_text())["digests"] if REPORT_DIGESTS.exists() else {}
    new = table["digests"]
    for f in sorted(old.keys() | new.keys()):
        if old.get(f) != new.get(f):
            print("appeared" if f not in old else "vanished" if f not in new else "changed", f)
    REPORT_DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
