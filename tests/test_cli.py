import json
from pathlib import Path

import numpy as np
import pytest

from aglab.cli import EXIT_CONFIG, EXIT_OK, main, parse_config, run
from aglab.errors import ConfigError

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


def test_run_bad_config_exit_code(tmp_path):
    p = write_cfg(tmp_path, "[domain]\nkind = dodecahedron\n")
    assert run("entropy-report", p) == EXIT_CONFIG
    assert run("entropy-report", tmp_path / "missing.cfg") == EXIT_CONFIG
    assert run("fly-to-the-moon", p) == EXIT_CONFIG


def test_removed_optimizer_key_is_a_config_error(tmp_path):
    # there is one minimizer; a config asking for another must not run it
    p = write_cfg(tmp_path, ELLIPSE_CFG + "\n[minimize]\noptimizer = lbfgs\n")
    assert run("minimize", p) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


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


def test_limit_table_outputs(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    status = run("limit-table", p)
    out = tmp_path / "out"
    assert (out / "limit_table.csv").exists()
    assert (out / "limit_table.dat").exists()
    table = json.loads((out / "limit_table.json").read_text())
    assert len(table["rows"]) == 2
    assert table["w11_monotone"]
    if all(r["converged"] for r in table["rows"]):
        assert status == EXIT_OK
    else:
        assert status == 2


def test_minimize_dumps_field(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    run("minimize", p)
    out = tmp_path / "out"
    assert (out / "u_eps0.5.txt").exists()
    assert (out / "u_eps0.5.txt.json").exists()
    summary = json.loads((out / "minimize_summary.json").read_text())
    assert summary["eps"] == 0.5
    assert summary["total"] == pytest.approx(summary["hessian_term"] + summary["potential_term"])


def test_kinetic_check_identity_error(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    assert run("kinetic-check", p) == EXIT_OK
    report = json.loads((tmp_path / "out" / "kinetic_check.json").read_text())
    assert report["max_identity_error"] <= 1e-8
    assert report["max_normalization_error"] <= 1e-10
    assert report["minimality_ok"]
    assert report["residual_with_sigma"] < report["residual_without_sigma"]


def test_characteristics_report(tmp_path):
    p = write_cfg(tmp_path, ELLIPSE_CFG)
    assert run("characteristics", p) == EXIT_OK
    out = tmp_path / "out"
    rep = json.loads((out / "ensemble_report.json").read_text())
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
