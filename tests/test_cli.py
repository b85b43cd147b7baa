import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bagforge
from bagforge.cli import main, parse, read_table


def run_cli(args):
    return main(args)


def test_usage_errors(tmp_path, capsys):
    # unknown subcommand
    assert run_cli(["frobnicate"]) == 1
    # bag with coupling at the mass gap is rejected
    out = tmp_path / "r"
    code = run_cli(["bag", "--g", "1.2", "--m", "1.0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "0 < g < m" in err
    # gamma with an under-resolved grid is rejected with the resolution rule
    code = run_cli(["gamma-sweep", "--eps", "0.4,0.2,0.1", "--n", "40",
                    "--r-max", "3.0", "--out", str(out)])
    assert code == 1
    assert "under-resolves" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("""
# cavity run
model.m = 1.0
mit.R = 2.0
output.format = csv
""")
    out = tmp_path / "mit_run"
    code = run_cli(["mit", "--config", str(cfgfile), "--R", "1.0",
                    "--m", "1e-8", "--out", str(out)])
    assert code == 0
    header, rows = read_table(out.with_suffix(".csv"))
    lam = float(rows[0][header.index("lambda")])
    assert abs(lam - 2.0428) < 1e-3          # flag overrode the file R
    manifest = json.loads((tmp_path / "run.json").read_text())
    assert manifest["subcommand"] == "mit"
    assert "wall_time_s" in manifest


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.mass = 1.0\n")
    assert run_cli(["mit", "--config", str(cfgfile)]) == 1
    assert "model.mass" in capsys.readouterr().err


def test_mit_stdout_line(tmp_path, capsys):
    out = tmp_path / "m"
    assert run_cli(["mit", "--m", "1e-8", "--R", "1", "--out", str(out)]) == 0
    assert "lambda = 2.0427" in capsys.readouterr().out


def test_soliton_run_and_profiles(tmp_path):
    out = tmp_path / "sol"
    args = ["soliton", "--g", "10", "--kappa", "0.05", "--b", "0.01",
            "--n", "400", "--r-max", "20", "--tol", "1e-5",
            "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert header[:4] == ["g", "m", "N", "k_list"]
    assert float(rows[0][header.index("energy")]) < 1.0
    prof = (tmp_path / "sol_profile.csv").read_text().splitlines()
    assert prof[0] == "series,r,value"
    assert any(ln.startswith("phi_g") for ln in prof[1:])
    assert any(ln.startswith("density_g") for ln in prof[1:])


def test_soliton_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "sol"
    args = ["soliton", "--g", "10", "--kappa", "0.05", "--n", "400",
            "--r-max", "20", "--max-iter", "2", "--out", str(out)]
    assert run_cli(args) == 2
    header, rows = read_table(out.with_suffix(".csv"))
    assert rows[0][header.index("converged")] == "false"


def test_bag_and_json_format(tmp_path):
    out = tmp_path / "bag"
    args = ["bag", "--g", "0.8", "--m", "1", "--a", "1e-3", "--b", "1e-3",
            "--N", "1", "--format", "json", "--out", str(out)]
    assert run_cli(args) == 0
    objs = json.loads(out.with_suffix(".json").read_text())
    assert objs[0]["energy"] < 1.0
    assert objs[0]["flagged"] is False


def test_determinism_and_roundtrip(tmp_path):
    texts = []
    for tag in ("one", "two"):
        out = tmp_path / tag / "sol"
        args = ["soliton", "--g", "9,11", "--kappa", "0.05", "--n", "300",
                "--r-max", "18", "--tol", "1e-5", "--seed", "7",
                "--out", str(out)]
        assert run_cli(args) == 0
        texts.append(out.with_suffix(".csv").read_bytes())
    assert texts[0] == texts[1]
    header, rows = read_table(tmp_path / "one" / "sol.csv")
    assert len(rows) == 2 and len(header) == len(rows[0])


def test_mit_limit_run(tmp_path):
    out = tmp_path / "lim"
    args = ["mit-limit", "--m", "1", "--N", "1", "--a", "0.01", "--b", "0.01",
            "--doublings", "4", "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert len(rows) == 4
    gaps = [abs(float(r[header.index("l_n")]) -
                float(r[header.index("l_mit")])) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_parse_defaults():
    params = parse(["mit"])
    assert params["mit.R"] == 1.0


def test_config_coupling_list(tmp_path):
    # model.g is a comma list, in a config file as on the command line
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model.g = 9,11\n")
    params = parse(["soliton", "--config", str(cfgfile)])
    assert params["model.g"] == "9,11"
    assert parse(["soliton", "--g", "9,11"])["model.g"] == "9,11"


@pytest.mark.parametrize("args", [["bag", "--n", "5"], ["mit", "--r-max", "3"],
                                  ["verify", "--n", "10"]])
def test_grid_flags_only_on_field_solvers(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("flags, cfg_text", [
    (["--mode", "scf"], ""), (["--mixing", "0.5"], ""), (["--jobs", "2"], ""),
    ([], "run.jobs = 2\n")])
def test_removed_options_rejected(tmp_path, capsys, flags, cfg_text):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(cfg_text)
    args = ["soliton", "--config", str(cfgfile), *flags,
            "--out", str(tmp_path / "s")]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("args", [["bag", "--a", "nan"],
                                  ["soliton", "--b", "nan"],
                                  ["gamma-sweep", "--eps", "nan"],
                                  ["gamma-sweep", "--tol", "nan"],
                                  ["bag", "--r-lo", "1", "--r-hi", "inf"],
                                  ["mit", "--m", "nan"],
                                  ["mit", "--R", "inf"],
                                  ["mit-limit", "--masses", "2,inf"]])
def test_nonfinite_input_rejected(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "finite" in err[0]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("args", [["gamma-sweep", "--n", "0"],
                                  ["gamma-sweep", "--tol", "-1"],
                                  ["mit-limit", "--doublings", "0"],
                                  ["mit-limit", "--doublings", "-2"]])
def test_out_of_range_input_rejected(tmp_path, capsys, args):
    assert run_cli(args + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "r.csv").exists()


def test_negative_cavity_mass_rejected(tmp_path, capsys):
    assert run_cli(["mit", "--m", "-1", "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "m.csv").exists()


def test_solver_failure_is_one_line(tmp_path):
    # the cavity root scan overflows at a vanishing radius; run the real
    # entry point so warnings and tracebacks would show on stderr
    src = str(Path(bagforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "bagforge.cli", "mit", "--R", "1e-300",
         "--out", str(tmp_path / "m")], capture_output=True, text=True,
        env=env, timeout=120)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "Traceback" not in proc.stderr


def test_io_error_exit_code(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("")      # a file where a directory is needed
    code = run_cli(["mit", "--out", str(target / "x" / "y")])
    assert code == 3


def test_verify_subcommand(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli(["verify", "--seed", "0", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "susy-pairing" in text and "PASS" in text and "FAIL" not in text
    header, rows = read_table(out.with_suffix(".csv"))
    assert all(r[header.index("passed")] == "true" for r in rows)


def test_gamma_sweep_run(tmp_path):
    out = tmp_path / "gam"
    args = ["gamma-sweep", "--m", "8", "--g", "6.8", "--kappa", "1",
            "--b", "0.02", "--eps", "0.4,0.2", "--r-max", "3.0", "--n", "320",
            "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_table(out.with_suffix(".csv"))
    assert header == ["eps", "l_s_eps", "l_c_ref", "interface_width",
                      "l2_dist_to_char", "equipartition_ratio"]
    assert len(rows) == 2
    gaps = [abs(float(r[1]) - float(r[2])) for r in rows]
    assert gaps[1] < gaps[0]
    prof = (tmp_path / "gam_profile.csv").read_text().splitlines()
    assert any(ln.startswith("phi_eps0.2") for ln in prof)
